#pragma once

/**
 * @file
 * The benchmark's span recorder. Spans are recorded from the
 * benchmark's own code around each call into a library layer (the
 * library itself is not instrumented): name, start, end, the span
 * that caused it, and the thread. They stay in memory until the run
 * ends, then export as Chrome trace-event JSON (chrome://tracing and
 * Perfetto open it) and fold into per-layer self time.
 *
 * A span name is "<layer>.<call>", the layer being the library
 * module the call enters (htap, txn, mvcc, olap, workload) or
 * "bench" for the benchmark's own grouping spans. When tracing is
 * off a span costs two clock reads (the benchmark needs the
 * durations anyway) and one relaxed load.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord
{
    const char *name = nullptr; ///< Static string: "<layer>.<call>".
    int tag = 0;                ///< Query number or 0.
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span.
    std::uint32_t thread = 0;
    Clock::time_point start, end;
};

class Tracer
{
  public:
    static Tracer &
    instance()
    {
        static Tracer tracer;
        return tracer;
    }

    void enable() { on_.store(true, std::memory_order_relaxed); }

    void disable() { on_.store(false, std::memory_order_relaxed); }

    bool on() const { return on_.load(std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its id. */
    std::uint64_t
    open()
    {
        ThreadLog &log = local();
        const std::uint64_t id =
            nextId_.fetch_add(1, std::memory_order_relaxed);
        log.stack.push_back(id);
        return id;
    }

    /** Close the innermost open span of the calling thread. */
    void
    close(const char *name, int tag, Clock::time_point start,
          Clock::time_point end)
    {
        ThreadLog &log = local();
        SpanRecord s;
        s.name = name;
        s.tag = tag;
        s.id = log.stack.back();
        log.stack.pop_back();
        s.parent = log.stack.empty() ? 0 : log.stack.back();
        s.thread = log.thread;
        s.start = start;
        s.end = end;
        log.spans.push_back(s);
    }

    /**
     * Every recorded span. Call only after every recording thread
     * has been joined.
     */
    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<SpanRecord> out;
        for (const auto &log : logs_)
            out.insert(out.end(), log->spans.begin(),
                       log->spans.end());
        return out;
    }

    /** When the tracer was first used: the trace's time zero. */
    Clock::time_point origin() const { return origin_; }

  private:
    struct ThreadLog
    {
        std::uint32_t thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<std::uint64_t> stack;
    };

    ThreadLog &
    local()
    {
        thread_local ThreadLog *log = nullptr;
        if (!log) {
            std::lock_guard<std::mutex> lk(mu_);
            logs_.push_back(std::make_unique<ThreadLog>());
            log = logs_.back().get();
            log->thread = static_cast<std::uint32_t>(logs_.size());
        }
        return *log;
    }

    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> nextId_{1};
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/**
 * RAII span: measures its own duration always and records it when
 * tracing is on. stop() ends it early and returns the duration; the
 * destructor ends it on the exception path.
 */
class Span
{
  public:
    explicit Span(const char *name, int tag = 0)
        : name_(name), tag_(tag), record_(Tracer::instance().on())
    {
        if (record_)
            Tracer::instance().open();
        start_ = Clock::now();
    }

    ~Span()
    {
        if (!stopped_)
            stop();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span; returns its duration in nanoseconds. */
    double
    stop()
    {
        const auto end = Clock::now();
        stopped_ = true;
        if (record_)
            Tracer::instance().close(name_, tag_, start_, end);
        return std::chrono::duration<double, std::nano>(end - start_)
            .count();
    }

  private:
    const char *name_;
    int tag_;
    bool record_;
    bool stopped_ = false;
    Clock::time_point start_;
};

/** Run fn() inside a span; returns the wall time in nanoseconds. */
template <typename Fn>
double
timed(const char *name, int tag, Fn &&fn)
{
    Span span(name, tag);
    fn();
    return span.stop();
}

/**
 * Cost of recording one span on the calling thread, in nanoseconds:
 * a loop of empty spans with tracing on, minus the same loop with it
 * off (the clock reads a span makes either way). Call with tracing
 * on, after reading the spans to export: the loop's spans land in the
 * calling thread's log.
 */
inline double
spanRecordNs()
{
    constexpr int kSpans = 200'000;
    const auto loop = [] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kSpans; ++i)
            Span span("trace.calibrate");
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count() /
               kSpans;
    };
    Tracer &tracer = Tracer::instance();
    const double on = loop();
    tracer.disable();
    const double off = loop();
    tracer.enable();
    return on > off ? on - off : 0.0;
}

/** Layer of a span name: the text before the first '.'. */
inline std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

/**
 * Self time per layer, in milliseconds: each span's duration minus
 * the part its child spans cover, summed by layer.
 */
inline std::map<std::string, double>
selfTimeMs(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, double> child_ns;
    for (const auto &s : spans)
        if (s.parent != 0)
            child_ns[s.parent] +=
                std::chrono::duration<double, std::nano>(s.end -
                                                         s.start)
                    .count();
    std::map<std::string, double> self;
    for (const auto &s : spans) {
        const double dur =
            std::chrono::duration<double, std::nano>(s.end - s.start)
                .count();
        const auto it = child_ns.find(s.id);
        const double covered = it == child_ns.end() ? 0.0 : it->second;
        self[layerOf(s.name)] += (dur - covered) / 1e6;
    }
    return self;
}

/** Write @p spans as Chrome trace-event JSON; false on I/O error. */
inline bool
writeChromeTrace(const std::vector<SpanRecord> &spans,
                 Clock::time_point origin, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    for (const auto &s : spans) {
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - origin)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"tag\": %d}}",
                     first ? "" : ",", s.name,
                     layerOf(s.name).c_str(), s.thread, ts, dur,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.tag);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
