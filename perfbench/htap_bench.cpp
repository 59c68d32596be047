/**
 * @file
 * HTAP benchmark program. Runs one of two closed-loop workloads in
 * one process, on at most four busy threads, times every call into
 * the library from outside, checks every answer, and prints one JSON
 * record as the last line of its standard output:
 *
 *   htap_bench --workload ch_olap|htap_dashboard
 *              --seed N --seconds S [--trace 0|1] [--trace-out FILE]
 *
 * perfbench/run.py builds this program and turns the record into the
 * benchmark's result line; perfbench/README.md describes the
 * workloads and every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/worker_pool.hpp"
#include "htap/pushtap_db.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/simd_kernels.hpp"
#include "support/reference_executor.hpp"
#include "trace.hpp"
#include "txn/tpcc_engine.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

namespace perfbench {
namespace {

using namespace pushtap;
using workload::ChTable;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;
/** Transactions between two interval defragmentation passes (the
 *  PushtapDB default, section 7.4). */
constexpr std::uint64_t kDefragInterval = 10'000;
/**
 * Length of the untimed serial prefix the model.* transaction counts
 * are read from. Under concurrent workers the version-chain steps of
 * ungated reads depend on timing, so only a one-thread run prices
 * exactly the same total for a seed every time.
 */
constexpr std::uint64_t kModelTxns = 10'000;
/** Transactions per TxnWorkerGroup batch (a divisor of the defrag
 *  interval, so passes land exactly every 10k transactions). */
constexpr std::uint64_t kBatch = 2'000;
/**
 * Planned transaction rate of htap_dashboard. It bounds how many
 * transactions a run may execute, and the database's insert headroom
 * is sized from that plan; a run that reaches its plan before the
 * clock stops early. It is well above the rate measured on the
 * reference host (a 4-vCPU x86-64 virtual machine).
 */
constexpr double kPlanDashboardPerSec = 30'000.0;

/** The htap_dashboard query set. */
constexpr int kDashboardQueries[] = {1, 6, 12, 13, 14, 19};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile (@p p in (0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------ results

struct Metric
{
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Workload-specific figures (olap_suite_s, oltp_txn_per_s, ...). */
    std::map<std::string, Metric> detail;
    /** Environment and sizing facts, already JSON-encoded. */
    std::map<std::string, std::string> env;

    void
    fail(const char *what, const std::exception &e)
    {
        ++failed;
        std::fprintf(stderr, "[perfbench] %s failed: %s\n", what,
                     e.what());
    }

    void
    mismatch(const std::string &what)
    {
        ++failed;
        std::fprintf(stderr, "[perfbench] wrong answer: %s\n",
                     what.c_str());
    }
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonMetrics(const std::map<std::string, Metric> &m)
{
    std::string out = "{";
    for (const auto &[name, metric] : m) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    return out + "}";
}

std::string
queryKey(int q)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "q%02d", q);
    return buf;
}

/**
 * Every per-layer metric at zero: each workload overwrites the ones
 * its layers exercise, so all workloads report the same names.
 */
std::map<std::string, Metric>
zeroPerLayer()
{
    std::map<std::string, Metric> m;
    for (const char *n : {"txn.schedule_ms", "txn.drain_ms",
                          "mvcc.snapshot_ms", "mvcc.defrag_ms",
                          "olap.engine_overhead_ms",
                          "cache.incremental_ms", "cache.cold_ms"})
        m[n] = {0.0, "ms"};
    m["txn.versions_per_txn"] = {0.0, "versions"};
    // lastSnapshotStats() holds the last table of the pass only, which
    // is Stock: the other tables' versions do not reach this count.
    m["mvcc.snapshot_versions_stock"] = {0.0, "versions"};
    m["model.txn_avg_ns"] = {0.0, "ns"};
    m["model.olap_total_ns"] = {0.0, "ns"};
    m["cache.hit_ratio"] = {0.0, "ratio"};
    m["cache.incremental_ratio"] = {0.0, "ratio"};
    m["cache.fallback_ratio"] = {0.0, "ratio"};
    m["cache.delta_rows"] = {0.0, "rows"};
    for (int q = 1; q <= 22; ++q) {
        m["olap." + queryKey(q) + "_ms"] = {0.0, "ms"};
        for (const char *phase : {"subquery", "build", "probe", "merge"})
            m[std::string("exec.") + phase + "_ms." + queryKey(q)] = {
                0.0, "ms"};
    }
    return m;
}

// ------------------------------------------------------------ sizing

/**
 * Insert headroom and delta provisioning for a run that executes at
 * most @p planned_txns transactions of the 50/50 Payment/New-Order
 * mix. Inserts are permanent (defragmentation reclaims delta slots,
 * not data-region rows), so the headroom must hold every planned
 * insert; the delta region only needs one defragmentation interval
 * of versions, and it grows on demand past that.
 */
struct Sizing
{
    std::uint64_t plannedTxns = 0;
    std::uint64_t plannedNewOrders = 0;
    double insertHeadroom = 0.0;
    double deltaFraction = 0.0;
};

Sizing
sizeFor(double scale, std::uint64_t planned_txns)
{
    const auto rows = workload::chRowCounts(scale);
    const auto ratio = [&rows](ChTable t, std::uint64_t n) {
        return static_cast<double>(n) /
               static_cast<double>(rows.at(t));
    };
    // 55% per side covers the mix's coin flips with room to spare.
    const auto share = [](std::uint64_t txns) {
        return txns * 11 / 20;
    };
    const std::uint64_t lines = workload::kLinesPerOrder;

    Sizing s;
    s.plannedTxns = planned_txns;
    s.plannedNewOrders = share(planned_txns);
    const std::uint64_t no = s.plannedNewOrders;
    const std::uint64_t pay = share(planned_txns);
    const double inserts = std::max(
        {ratio(ChTable::Orders, no), ratio(ChTable::NewOrder, no),
         ratio(ChTable::OrderLine, lines * no),
         ratio(ChTable::History, pay)});
    s.insertHeadroom = 0.05 + 1.1 * inserts;

    // Versions written between two defragmentation passes: stock and
    // customer updates plus the insert-born versions. The warehouse
    // and district tables are too small to size against; their delta
    // regions grow on demand.
    const std::uint64_t interval =
        std::min(planned_txns, kDefragInterval);
    const std::uint64_t no_i = share(interval), pay_i = share(interval);
    const double versions = std::max(
        {ratio(ChTable::Stock, lines * no_i),
         ratio(ChTable::Customer, pay_i),
         ratio(ChTable::OrderLine, lines * no_i),
         ratio(ChTable::Orders, no_i), ratio(ChTable::NewOrder, no_i),
         ratio(ChTable::History, pay_i)});
    s.deltaFraction = 2.0 * versions;
    return s;
}

std::uint64_t
roundUpToBatch(double txns)
{
    const auto n = static_cast<std::uint64_t>(std::ceil(txns));
    return (n + kBatch - 1) / kBatch * kBatch;
}

void
recordSizing(RunResult &r, double scale, const Sizing &s)
{
    r.env["scale"] = jsonNumber(scale);
    r.env["planned_txns"] = std::to_string(s.plannedTxns);
    r.env["planned_new_orders"] = std::to_string(s.plannedNewOrders);
    r.env["insert_headroom"] = jsonNumber(s.insertHeadroom);
    r.env["delta_fraction"] = jsonNumber(s.deltaFraction);
}

/**
 * Build the workload's database kSetupRepeats times, destroying each
 * before the next, and keep the last. Setup seconds go to @p out.
 */
template <typename Make>
auto
setupRepeated(Make &&make, std::vector<double> &out)
{
    decltype(make()) obj;
    for (int i = 0; i < kSetupRepeats; ++i) {
        obj.reset();
        out.push_back(
            timed("workload.populate", 0, [&] { obj = make(); }) /
            1e9);
    }
    return obj;
}

// ------------------------------------------------------------ answers

/** Byte-identical rows: @p want holds olap::ResultRow or
 *  testsupport::RefRow. */
template <typename Rows>
bool
sameRows(const olap::QueryResult &got, const Rows &want)
{
    if (got.rows.size() != want.size())
        return false;
    for (std::size_t i = 0; i < want.size(); ++i)
        if (got.rows[i].keys != want[i].keys ||
            got.rows[i].aggs != want[i].aggs ||
            got.rows[i].count != want[i].count)
            return false;
    return true;
}

const olap::QueryPlan &
chPlan(int q)
{
    return *workload::executableQueryPlan(q);
}

olap::AggSpec
agg(olap::AggKind kind, const char *column)
{
    return {kind, olap::ColRef{olap::ColRef::kProbe, column}, nullptr};
}

olap::ColRef
col(const char *column)
{
    return {olap::ColRef::kProbe, column};
}

/** Per-warehouse SUM(w_ytd). */
olap::QueryPlan
warehouseYtdPlan()
{
    olap::QueryPlan p;
    p.name = "check_w_ytd";
    p.probe.table = ChTable::Warehouse;
    p.groupBy = {col("w_id")};
    p.aggregates = {agg(olap::AggKind::Sum, "w_ytd")};
    return p;
}

/** Per-district d_ytd and d_next_o_id. */
olap::QueryPlan
districtPlan()
{
    olap::QueryPlan p;
    p.name = "check_district";
    p.probe.table = ChTable::District;
    p.groupBy = {col("d_w_id"), col("d_id")};
    p.aggregates = {agg(olap::AggKind::Sum, "d_ytd"),
                    agg(olap::AggKind::Max, "d_next_o_id")};
    return p;
}

/** Per-district MAX(o_id). */
olap::QueryPlan
maxOrderPlan()
{
    olap::QueryPlan p;
    p.name = "check_max_o_id";
    p.probe.table = ChTable::Orders;
    p.groupBy = {col("o_w_id"), col("o_d_id")};
    p.aggregates = {agg(olap::AggKind::Max, "o_id")};
    return p;
}

/**
 * TPC-C consistency conditions over @p engine's current snapshot,
 * through runQuery plans: W_YTD = sum(D_YTD) per warehouse, and
 * D_NEXT_O_ID - 1 = max(O_ID) in every district that took a
 * New-Order (seed order ids all sit below the initial d_next_o_id),
 * with the d_next_o_id advances adding up to @p new_orders.
 * @p districts0 is the districtPlan() answer right after populate.
 */
void
checkTpccConsistency(RunResult &r, olap::OlapEngine &engine,
                     const olap::QueryResult &districts0,
                     std::uint64_t new_orders)
{
    olap::QueryResult wh, districts, orders;
    engine.runQuery(warehouseYtdPlan(), &wh);
    engine.runQuery(districtPlan(), &districts);
    engine.runQuery(maxOrderPlan(), &orders);

    std::map<std::int64_t, std::int64_t> d_ytd_sum;
    for (const auto &row : districts.rows)
        d_ytd_sum[row.keys[0]] += row.aggs[0];
    for (const auto &row : wh.rows) {
        ++r.attempted;
        if (row.aggs[0] != d_ytd_sum[row.keys[0]])
            r.mismatch("W_YTD != sum(D_YTD) for warehouse " +
                       std::to_string(row.keys[0]));
    }

    std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> max_o;
    for (const auto &row : orders.rows)
        max_o[{row.keys[0], row.keys[1]}] = row.aggs[0];
    ++r.attempted;
    if (districts.rows.size() != districts0.rows.size()) {
        r.mismatch("district row count changed");
        return;
    }
    std::uint64_t advanced = 0;
    for (std::size_t i = 0; i < districts.rows.size(); ++i) {
        ++r.attempted;
        const auto &row = districts.rows[i];
        const std::int64_t next = row.aggs[1];
        const std::int64_t next0 = districts0.rows[i].aggs[1];
        const std::int64_t mo = max_o[{row.keys[0], row.keys[1]}];
        advanced += static_cast<std::uint64_t>(next - next0);
        if (next > next0 ? mo != next - 1 : mo >= next)
            r.mismatch("D_NEXT_O_ID - 1 != max(O_ID) for district " +
                       std::to_string(row.keys[0]) + "/" +
                       std::to_string(row.keys[1]));
    }
    if (advanced != new_orders)
        r.mismatch("d_next_o_id advanced by " + std::to_string(advanced) +
                   " but " + std::to_string(new_orders) +
                   " New-Orders committed");
}

void
recordModel(RunResult &r, const txn::TxnStats &s)
{
    if (s.transactions == 0)
        return;
    r.perLayer["model.txn_avg_ns"].value = s.avgTxnNs();
    r.perLayer["txn.versions_per_txn"].value =
        static_cast<double>(s.versionsCreated) /
        static_cast<double>(s.transactions);
}

// ------------------------------------------------------------ ch_olap

/**
 * Execute every plan through the public batch executor with the
 * engine's knobs, three times, outside any timed region: fills the
 * exec.* phase metrics (medians) and olap.engine_overhead_ms against
 * the per-query runQuery medians in @p run_query_ms.
 */
void
measureExecutor(RunResult &r, txn::Database &db,
                const std::vector<int> &queries,
                const olap::OlapConfig &cfg,
                const std::map<int, olap::QueryResult> &answers,
                const std::map<int, std::vector<double>> &run_query_ms)
{
    constexpr int kPasses = 3;
    std::unique_ptr<WorkerPool> pool;
    if (cfg.workers > 1)
        pool = std::make_unique<WorkerPool>(cfg.workers);
    olap::ExecOptions eo;
    eo.shards = cfg.shards;
    eo.workers = cfg.workers;
    eo.morselRows = olap::OlapConfig::defaultMorselRows(
        txn::InstanceFormat::Unified);
    eo.pool = pool.get();
    std::map<int, std::vector<double>> total, sub, build, probe, merge;
    for (int pass = 0; pass < kPasses; ++pass)
        for (const int q : queries) {
            ++r.attempted;
            try {
                olap::PlanExecution ex;
                total[q].push_back(timed("olap.executePlan", q, [&] {
                                       ex = olap::executePlan(
                                           db, chPlan(q), eo);
                                   }) /
                                   1e6);
                sub[q].push_back(ex.subqueryNs / 1e6);
                build[q].push_back(ex.buildNs / 1e6);
                probe[q].push_back(ex.probeNs / 1e6);
                merge[q].push_back(ex.mergeNs / 1e6);
                if (!sameRows(ex.result, answers.at(q).rows))
                    r.mismatch("executePlan " + queryKey(q) +
                               " differs from runQuery");
            } catch (const std::exception &e) {
                r.fail("executePlan", e);
            }
        }
    double overhead = 0.0;
    for (const int q : queries) {
        const std::string k = queryKey(q);
        r.perLayer["exec.subquery_ms." + k].value = median(sub[q]);
        r.perLayer["exec.build_ms." + k].value = median(build[q]);
        r.perLayer["exec.probe_ms." + k].value = median(probe[q]);
        r.perLayer["exec.merge_ms." + k].value = median(merge[q]);
        const auto it = run_query_ms.find(q);
        if (it != run_query_ms.end())
            overhead += median(it->second) - median(total[q]);
    }
    r.perLayer["olap.engine_overhead_ms"].value = overhead;
}

/**
 * ch_olap: scale 0.01, static data. One client loops over all 22
 * executable CH plans through PushtapDB::runQuery on a 4-worker,
 * 4-shard engine (optimizer and result cache at their default, off).
 */
RunResult
runChOlap(std::uint64_t seed, double seconds, bool trace)
{
    constexpr double kScale = 0.01;
    RunResult r;
    r.perLayer = zeroPerLayer();
    const Sizing sz = sizeFor(kScale, 0);
    recordSizing(r, kScale, sz);

    htap::PushtapOptions opts;
    opts.database.scale = kScale;
    opts.database.seed = seed;
    opts.database.insertHeadroom = sz.insertHeadroom;
    opts.database.deltaFraction = sz.deltaFraction;
    opts.olap.workers = 4;
    opts.olap.shards = 4;
    r.env["olap_workers"] = std::to_string(opts.olap.workers);
    r.env["olap_shards"] = std::to_string(opts.olap.shards);
    r.env["olap_optimize"] = opts.olap.optimize ? "true" : "false";
    r.env["olap_result_cache"] = opts.olap.resultCache ? "true" : "false";

    std::vector<double> setup_s;
    auto db = setupRepeated(
        [&] { return std::make_unique<htap::PushtapDB>(opts); },
        setup_s);

    std::vector<int> queries;
    for (const auto &q : workload::chExecutablePlans())
        queries.push_back(q.queryNo);

    // Warm pass: its answers are the ones checked against the
    // reference executor, and every timed answer must equal them.
    std::map<int, olap::QueryResult> answers;
    for (const int q : queries) {
        ++r.attempted;
        try {
            db->runQuery(chPlan(q), &answers[q]);
        } catch (const std::exception &e) {
            r.fail("warm query", e);
        }
    }

    std::map<int, std::vector<double>> query_ms;
    std::vector<double> pass_s, snapshot_versions;
    double model_total_ns = 0.0;
    const auto t0 = Clock::now();
    while (pass_s.size() < 2 || secondsSince(t0) < seconds) {
        Span pass("bench.pass");
        for (const int q : queries) {
            ++r.attempted;
            try {
                // runQuery takes its own snapshot at now(); on static
                // data it finds no new versions.
                olap::QueryResult res;
                olap::QueryReport rep;
                query_ms[q].push_back(timed("htap.runQuery", q, [&] {
                                          rep = db->runQuery(chPlan(q),
                                                             &res);
                                      }) /
                                      1e6);
                snapshot_versions.push_back(static_cast<double>(
                    db->olap().lastSnapshotStats().versionsScanned));
                if (pass_s.empty())
                    model_total_ns += rep.totalNs();
                if (!sameRows(res, answers[q].rows))
                    r.mismatch(queryKey(q) + " changed between passes");
            } catch (const std::exception &e) {
                r.fail("query", e);
            }
        }
        pass_s.push_back(pass.stop() / 1e9);
    }
    r.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

    // Answer check against the independent reference executor, off
    // the clock (it reads every row through the version chains).
    {
        Span check("bench.reference");
        std::vector<std::vector<testsupport::RefRow>> refs(queries.size());
        std::vector<char> ref_ok(queries.size(), 0);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back([&] {
                while (true) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= queries.size())
                        break;
                    try {
                        refs[i] = testsupport::referenceExecute(
                            db->database(), chPlan(queries[i]));
                        ref_ok[i] = 1;
                    } catch (const std::exception &e) {
                        std::fprintf(stderr,
                                     "[perfbench] reference failed: %s\n",
                                     e.what());
                    }
                }
            });
        for (auto &t : threads)
            t.join();
        for (std::size_t i = 0; i < queries.size(); ++i) {
            ++r.attempted;
            if (!ref_ok[i] ||
                !sameRows(answers[queries[i]], refs[i]))
                r.mismatch(queryKey(queries[i]) +
                           " differs from the reference executor");
        }
    }

    std::vector<double> medians;
    double slowest = 0.0;
    for (const int q : queries) {
        const double m = median(query_ms[q]);
        medians.push_back(m);
        slowest = std::max(slowest, m);
        r.perLayer["olap." + queryKey(q) + "_ms"].value = m;
    }
    r.endToEnd["setup_s"] = {median(setup_s), "s"};
    r.endToEnd["throughput_per_s"] = {
        static_cast<double>(queries.size()) / median(pass_s), "1/s"};
    r.endToEnd["latency_ms"] = {geomean(medians), "ms"};
    r.endToEnd["tail_latency_ms"] = {slowest, "ms"};
    r.detail["olap_geomean_ms"] = r.endToEnd["latency_ms"];
    r.detail["olap_suite_s"] = {median(pass_s), "s"};
    r.detail["passes"] = {static_cast<double>(pass_s.size()), "count"};

    r.perLayer["mvcc.snapshot_versions_stock"].value =
        median(snapshot_versions);
    r.perLayer["model.olap_total_ns"].value = model_total_ns;
    if (trace)
        measureExecutor(r, db->database(), queries, opts.olap, answers,
                        query_ms);
    return r;
}

// ------------------------------------------------------- htap_dashboard

/** Database plus the analyst's engine, built and torn down together. */
struct DashboardDb
{
    DashboardDb(const txn::DatabaseConfig &dc, const olap::OlapConfig &oc)
        : db(dc), olap(db, oc)
    {
    }

    txn::Database db;
    olap::OlapEngine olap;
};

/**
 * Serialises the analyst's snapshot+query with the OLTP client's
 * schedule builds (they grow the delta regions) and defragmentation
 * passes. The client announces itself first so the analyst, which
 * re-locks in a tight loop, cannot starve it.
 */
struct OlapGate
{
    std::mutex mu;
    std::atomic<bool> clientWaiting{false};

    std::unique_lock<std::mutex>
    client()
    {
        clientWaiting.store(true);
        std::unique_lock<std::mutex> lk(mu);
        clientWaiting.store(false);
        return lk;
    }

    std::unique_lock<std::mutex>
    analyst()
    {
        while (clientWaiting.load())
            std::this_thread::yield();
        return std::unique_lock<std::mutex>(mu);
    }
};

/** What the analyst thread measured. */
struct AnalystLog
{
    std::vector<double> freshMs, snapshotMs, snapshotVersions;
    std::map<int, std::vector<double>> freshByQuery, queryMs;
    std::vector<double> incrementalMs, coldMs, deltaRows;
    std::uint64_t queries = 0, failed = 0;
};

/**
 * htap_dashboard: scale 0.01. The OLTP client runs 3-worker
 * TxnWorkerGroup start()/finish() batches with interval
 * defragmentation between them, while one analyst thread loops over
 * Q1, Q6, Q12, Q13, Q14 and Q19, each a prepareSnapshot at the
 * commit frontier followed by a cached OlapEngine::runQuery.
 */
RunResult
runHtapDashboard(std::uint64_t seed, double seconds, bool trace)
{
    constexpr double kScale = 0.01;
    constexpr std::uint32_t kWorkers = 3;
    RunResult r;
    r.perLayer = zeroPerLayer();
    const std::uint64_t cap = roundUpToBatch(seconds * kPlanDashboardPerSec);
    // The serial prefix, the timed batches and the check batch.
    const Sizing sz = sizeFor(kScale, kModelTxns + cap + kBatch);
    recordSizing(r, kScale, sz);

    htap::PushtapOptions opts; // for the host models' defaults
    opts.database.scale = kScale;
    opts.database.seed = seed;
    opts.database.insertHeadroom = sz.insertHeadroom;
    opts.database.deltaFraction = sz.deltaFraction;
    opts.txnSeed = seed + 1;
    opts.olap.workers = 1;
    opts.olap.shards = 1;
    opts.olap.resultCache = true;
    r.env["oltp_workers"] = std::to_string(kWorkers);
    r.env["olap_workers"] = "1";
    r.env["olap_shards"] = "1";
    r.env["olap_result_cache"] = "true";
    r.env["batch_txns"] = std::to_string(kBatch);

    std::vector<double> setup_s;
    auto dash = setupRepeated(
        [&] {
            return std::make_unique<DashboardDb>(opts.database, opts.olap);
        },
        setup_s);
    txn::Database &db = dash->db;
    olap::OlapEngine &olap = dash->olap;

    // One dashboard pass before any ingest: its modelled total is a
    // fixed function of the seed, and it seeds the result cache. The
    // district baseline for the consistency check comes from the same
    // snapshot.
    double model_total_ns = 0.0;
    olap::QueryResult districts0;
    try {
        olap.prepareSnapshot(db.now());
        for (const int q : kDashboardQueries) {
            ++r.attempted;
            model_total_ns += olap.runQuery(chPlan(q)).totalNs();
        }
        olap.runQuery(districtPlan(), &districts0);
    } catch (const std::exception &e) {
        r.fail("initial dashboard pass", e);
    }

    // The host models the transaction engines price against, built as
    // PushtapDB builds them.
    const format::BandwidthModel bw(opts.database.devices,
                                    opts.olap.geom.interleaveGranularity,
                                    opts.olap.geom.stripedLines);
    const dram::BatchTimingModel timing(opts.olap.geom, opts.olap.timing);
    std::uint64_t prefix_new_orders = 0;
    try {
        txn::TpccEngine prefix(db, opts.format, bw, timing, opts.txnSeed);
        for (std::uint64_t i = 0; i < kModelTxns; ++i)
            prefix.executeMixed();
        recordModel(r, prefix.stats());
        prefix_new_orders = prefix.stats().newOrders;
        olap.runDefragmentation(opts.defragStrategy);
    } catch (const std::exception &e) {
        r.fail("serial prefix", e);
    }
    r.attempted += kModelTxns;

    txn::TxnWorkerGroupOptions gopts;
    gopts.workers = kWorkers;
    gopts.seed = seed + 2;
    txn::TxnWorkerGroup group(db, opts.format, bw, timing, gopts);
    OlapGate gate;
    std::atomic<bool> stop{false};
    AnalystLog alog;
    const olap::ResultCache &cache = *olap.resultCache();

    auto analyst = [&] {
        std::size_t next = 0;
        while (!stop.load()) {
            const int q =
                kDashboardQueries[next++ % std::size(kDashboardQueries)];
            auto lk = gate.analyst();
            ++alog.queries;
            try {
                Span fresh("bench.freshQuery", q);
                const Timestamp frontier = group.commitFrontier();
                alog.snapshotMs.push_back(
                    timed("mvcc.prepareSnapshot", 0,
                          [&] { olap.prepareSnapshot(frontier); }) /
                    1e6);
                alog.snapshotVersions.push_back(static_cast<double>(
                    olap.lastSnapshotStats().versionsScanned));
                const std::uint64_t inc0 = cache.incrementals;
                const std::uint64_t miss0 = cache.misses;
                olap::QueryReport rep;
                const double ms = timed("olap.runQuery", q, [&] {
                                      rep = olap.runQuery(chPlan(q));
                                  }) /
                                  1e6;
                alog.freshMs.push_back(fresh.stop() / 1e6);
                alog.freshByQuery[q].push_back(alog.freshMs.back());
                alog.queryMs[q].push_back(ms);
                if (cache.incrementals != inc0) {
                    alog.incrementalMs.push_back(ms);
                    alog.deltaRows.push_back(
                        static_cast<double>(rep.incrementalRows));
                } else if (cache.misses != miss0) {
                    alog.coldMs.push_back(ms);
                }
            } catch (const std::exception &e) {
                ++alog.failed;
                std::fprintf(stderr, "[perfbench] analyst query failed: %s\n",
                             e.what());
            }
        }
    };

    const std::uint64_t hits0 = cache.hits, inc0 = cache.incrementals,
                        miss0 = cache.misses;
    std::vector<double> schedule_ms, drain_ms, defrag_ms, cycle_rates;
    std::thread analyst_thread;
    std::uint64_t committed = 0, since_defrag = 0;
    const auto t0 = Clock::now();
    auto cycle_start = t0;
    try {
        while (committed + kBatch <= cap && secondsSince(t0) < seconds) {
            Span batch("bench.batch");
            {
                auto lk = gate.client();
                schedule_ms.push_back(
                    timed("txn.start", 0, [&] { group.start(kBatch); }) /
                    1e6);
            }
            if (!analyst_thread.joinable())
                analyst_thread = std::thread(analyst);
            drain_ms.push_back(
                timed("txn.finish", 0, [&] { group.finish(); }) / 1e6);
            committed += kBatch;
            since_defrag += kBatch;
            if (since_defrag >= kDefragInterval) {
                auto lk = gate.client();
                defrag_ms.push_back(
                    timed("mvcc.runDefragmentation", 0, [&] {
                        olap.runDefragmentation(opts.defragStrategy);
                    }) /
                    1e6);
                since_defrag = 0;
                cycle_rates.push_back(static_cast<double>(kDefragInterval) /
                                      secondsSince(cycle_start));
                cycle_start = Clock::now();
            }
        }
    } catch (const std::exception &e) {
        ++r.attempted;
        r.fail("OLTP batch", e);
    }
    const double secs = secondsSince(t0);
    stop.store(true);
    if (analyst_thread.joinable())
        analyst_thread.join();
    r.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    r.attempted += committed + alog.queries;
    r.failed += alog.failed;

    // Answers after the run: the cache-on engine against a fresh
    // cache-off engine over the same snapshot, at two frontiers. The
    // run may have ended on a defragmentation pass, which sends every
    // cached answer down the full-run path; one more untimed batch
    // (appends only, no defragmentation) between the two checks makes
    // the second one exercise the incremental path. Then the TPC-C
    // consistency conditions.
    std::map<int, olap::QueryResult> cached_answers;
    std::map<int, std::vector<double>> cold_ms;
    std::uint64_t checked_hits = 0, checked_incrementals = 0,
                  checked_fallbacks = 0;
    try {
        auto fresh_cfg = opts.olap;
        fresh_cfg.resultCache = false;
        olap::OlapEngine fresh(db, fresh_cfg);
        for (int round = 0; round < 2; ++round) {
            if (round == 1) {
                r.attempted += kBatch;
                group.start(kBatch);
                group.finish();
            }
            olap.prepareSnapshot(group.commitFrontier());
            for (const int q : kDashboardQueries) {
                ++r.attempted;
                const std::uint64_t hit0 = cache.hits,
                                    inc0 = cache.incrementals;
                olap::QueryResult cold;
                olap.runQuery(chPlan(q), &cached_answers[q]);
                if (cache.hits != hit0)
                    ++checked_hits;
                else if (cache.incrementals != inc0)
                    ++checked_incrementals;
                else
                    ++checked_fallbacks;
                cold_ms[q].push_back(timed("olap.runQuery", q, [&] {
                                         fresh.runQuery(chPlan(q), &cold);
                                     }) /
                                     1e6);
                if (!sameRows(cached_answers[q], cold.rows))
                    r.mismatch(queryKey(q) + ": cached answer differs "
                                             "from a cache-off engine");
            }
        }
        checkTpccConsistency(r, fresh, districts0,
                             prefix_new_orders + group.stats().newOrders);
    } catch (const std::exception &e) {
        ++r.attempted;
        r.fail("final answer check", e);
    }
    r.detail["checked_hit_answers"] = {static_cast<double>(checked_hits),
                                       "count"};
    r.detail["checked_incremental_answers"] = {
        static_cast<double>(checked_incrementals), "count"};
    r.detail["checked_fallback_answers"] = {
        static_cast<double>(checked_fallbacks), "count"};

    r.endToEnd["setup_s"] = {median(setup_s), "s"};
    r.endToEnd["throughput_per_s"] = {median(cycle_rates), "1/s"};
    // The six queries' latencies sit far apart (0.4 to 35 ms), so the
    // pooled median lands between two of them; the geometric mean of
    // the per-query medians counts each query equally instead.
    std::vector<double> fresh_medians;
    for (const auto &[q, ms] : alog.freshByQuery)
        fresh_medians.push_back(median(ms));
    r.endToEnd["latency_ms"] = {geomean(fresh_medians), "ms"};
    r.endToEnd["tail_latency_ms"] = {percentile(alog.freshMs, 99), "ms"};
    r.detail["oltp_txn_per_s"] = {static_cast<double>(committed) / secs,
                                  "1/s"};
    r.detail["defrag_cycles"] = {static_cast<double>(cycle_rates.size()),
                                 "count"};
    r.detail["fresh_query_p50_ms"] = {median(alog.freshMs), "ms"};
    r.detail["fresh_query_p99_ms"] = r.endToEnd["tail_latency_ms"];
    r.detail["fresh_query_samples"] = {
        static_cast<double>(alog.freshMs.size()), "count"};
    r.detail["committed_txns"] = {static_cast<double>(committed), "count"};

    r.perLayer["txn.schedule_ms"].value = median(schedule_ms);
    r.perLayer["txn.drain_ms"].value = median(drain_ms);
    r.perLayer["mvcc.defrag_ms"].value = median(defrag_ms);
    r.perLayer["mvcc.snapshot_ms"].value = median(alog.snapshotMs);
    r.perLayer["mvcc.snapshot_versions_stock"].value =
        median(alog.snapshotVersions);
    r.perLayer["model.olap_total_ns"].value = model_total_ns;
    for (const auto &[q, ms] : alog.queryMs)
        r.perLayer["olap." + queryKey(q) + "_ms"].value = median(ms);
    const double lookups = static_cast<double>(
        (cache.hits - hits0) + (cache.incrementals - inc0) +
        (cache.misses - miss0));
    if (lookups > 0) {
        r.perLayer["cache.hit_ratio"].value =
            static_cast<double>(cache.hits - hits0) / lookups;
        r.perLayer["cache.incremental_ratio"].value =
            static_cast<double>(cache.incrementals - inc0) / lookups;
        r.perLayer["cache.fallback_ratio"].value =
            static_cast<double>(cache.misses - miss0) / lookups;
    }
    r.perLayer["cache.delta_rows"].value = median(alog.deltaRows);
    r.perLayer["cache.incremental_ms"].value = median(alog.incrementalMs);
    r.perLayer["cache.cold_ms"].value = median(alog.coldMs);
    if (trace)
        measureExecutor(r, db,
                        std::vector<int>(std::begin(kDashboardQueries),
                                         std::end(kDashboardQueries)),
                        opts.olap, cached_answers, cold_ms);
    return r;
}

// ------------------------------------------------------------ main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "htap_bench: %s\nusage: htap_bench --workload "
                 "ch_olap|htap_dashboard --seed N --seconds S "
                 "[--trace 0|1] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!(a.seconds > 0.0 && a.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "0") != 0;
        } else if (key == "--trace-out") {
            a.traceOut = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed number for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

void
recordEnv(RunResult &r, const Args &a)
{
    const auto &k = olap::simd::kernelDispatch();
    r.env["workload"] = jsonString(a.workload);
    r.env["seed"] = std::to_string(a.seed);
    r.env["seconds"] = jsonNumber(a.seconds);
    r.env["trace"] = a.trace ? "true" : "false";
    r.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
    r.env["build_type"] = jsonString(PERFBENCH_BUILD_TYPE);
    r.env["compiler"] = jsonString(PERFBENCH_COMPILER);
    r.env["simd_active"] = jsonString(k.active);
    r.env["simd_forced_scalar"] =
        k.forcedScalarBuild || k.forcedScalarEnv ? "true" : "false";
    r.env["olap_optimize_forced_by_env"] =
        olap::OlapConfig::optimizeForcedByEnv() ? "true" : "false";
    r.env["result_cache_forced_by_env"] =
        olap::OlapConfig::resultCacheForcedByEnv() ? "true" : "false";
}

void
printReport(const RunResult &r, const std::map<std::string, double> &self)
{
    std::printf("# attempted %llu, failed %llu, error_rate %.6g\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0);
    for (const auto &[name, m] : r.endToEnd)
        std::printf("# end_to_end %-20s %14.6g %s\n", name.c_str(),
                    m.value, m.unit.c_str());
    for (const auto &[name, m] : r.detail)
        std::printf("# detail     %-20s %14.6g %s\n", name.c_str(),
                    m.value, m.unit.c_str());
    for (const auto &[layer, ms] : self)
        std::printf("# self_time  %-20s %14.6g ms\n", layer.c_str(), ms);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    if (args.trace)
        Tracer::instance().enable();

    RunResult r;
    try {
        if (args.workload == "ch_olap")
            r = runChOlap(args.seed, args.seconds, args.trace);
        else if (args.workload == "htap_dashboard")
            r = runHtapDashboard(args.seed, args.seconds, args.trace);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[perfbench] run aborted: %s\n", e.what());
        return 1;
    }
    r.detail["error_rate"] = {
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0,
        "ratio"};
    recordEnv(r, args);

    std::map<std::string, double> self;
    std::size_t spans = 0;
    if (args.trace) {
        const auto all = Tracer::instance().spans();
        const double traced_s = secondsSince(Tracer::instance().origin());
        spans = all.size();
        self = selfTimeMs(all);
        if (!args.traceOut.empty() &&
            !writeChromeTrace(all, Tracer::instance().origin(),
                              args.traceOut))
            std::fprintf(stderr, "[perfbench] cannot write %s\n",
                         args.traceOut.c_str());
        // Recording cost of every span as a share of the traced run's
        // wall time: a bound on what tracing added, free of the
        // run-to-run noise that traced-minus-untraced carries.
        r.perLayer["trace.span_cost_pct"] = {
            100.0 * static_cast<double>(spans) * spanRecordNs() /
                (traced_s * 1e9),
            "%"};
    }
    printReport(r, self);

    std::map<std::string, Metric> self_metrics;
    for (const auto &[layer, ms] : self)
        self_metrics[layer] = {ms, "ms"};
    std::string env = "{";
    for (const auto &[k, v] : r.env)
        env += (env.size() > 1 ? ", " : "") + jsonString(k) + ": " + v;
    env += "}";
    std::printf("{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"end_to_end\": %s, \"per_layer\": %s, "
                "\"detail\": %s, \"self_time\": %s, \"spans\": %zu, "
                "\"env\": %s}\n",
                jsonString(args.workload).c_str(),
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                jsonMetrics(r.endToEnd).c_str(),
                args.trace ? jsonMetrics(r.perLayer).c_str() : "{}",
                jsonMetrics(r.detail).c_str(),
                jsonMetrics(self_metrics).c_str(), spans, env.c_str());
    return 0;
}
