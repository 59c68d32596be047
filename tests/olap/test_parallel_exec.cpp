#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/reference_check.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectMatchesReference;
using testsupport::expectRowsMatch;
using testsupport::RefExecution;
using testsupport::referenceCatalog;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // 64-row circulant blocks: shard boundaries align to blocks far
    // smaller than a morsel, so shards start mid-morsel-stride and
    // the per-shard walk is exercised hard.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/**
 * The workers x shards sweep of the acceptance criteria: every
 * executable catalog plan, every InstanceFormat, workers {1, 2, 4,
 * hardware} x shards {1, 2, 4} — all byte-identical to the naive
 * reference executor, whose answers are taken once per plan.
 */
class ParallelExecTest
    : public ::testing::TestWithParam<InstanceFormat>
{
  protected:
    ParallelExecTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, GetParam(), bw, timing, 29),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
        refs = referenceCatalog(db);
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
    std::vector<RefExecution> refs;
};

TEST_P(ParallelExecTest, AllPlansMatchReferenceAcrossWorkersAndShards)
{
    const auto &plans = workload::chExecutablePlans();
    const std::uint32_t hw = WorkerPool::hardwareWorkers();
    for (const std::uint32_t workers : {1u, 2u, 4u, hw}) {
        WorkerPool pool(workers);
        for (const std::uint32_t shards : {1u, 2u, 4u}) {
            ExecOptions opts;
            opts.shards = shards;
            opts.workers = workers;
            opts.pool = workers > 1 ? &pool : nullptr;
            for (std::size_t i = 0; i < plans.size(); ++i) {
                const auto &plan = plans[i].plan;
                const auto what =
                    plan.name + " w" + std::to_string(workers) +
                    " s" + std::to_string(shards);
                expectMatchesReference(executePlan(db, plan, opts),
                                       refs[i], what);
            }
        }
    }
}

TEST_P(ParallelExecTest, MorselRowsSweepIsResultInvariant)
{
    const auto &plans = workload::chExecutablePlans();
    WorkerPool pool(2);
    for (const std::uint32_t morsel : {256u, 2048u, 8192u}) {
        ExecOptions opts;
        opts.shards = 2;
        opts.workers = 2;
        opts.morselRows = morsel;
        opts.pool = &pool;
        for (std::size_t i = 0; i < plans.size(); ++i)
            expectMatchesReference(
                executePlan(db, plans[i].plan, opts), refs[i],
                plans[i].plan.name + " morsel " +
                    std::to_string(morsel));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ParallelExecTest,
    ::testing::Values(InstanceFormat::Unified,
                      InstanceFormat::RowStore,
                      InstanceFormat::ColumnStore),
    [](const ::testing::TestParamInfo<InstanceFormat> &info)
        -> std::string {
        switch (info.param) {
          case InstanceFormat::Unified: return "Unified";
          case InstanceFormat::RowStore: return "RowStore";
          case InstanceFormat::ColumnStore: return "ColumnStore";
        }
        return "Unknown";
    });

TEST(ExecOptionsValidation, RejectsBadKnobs)
{
    const Database db(smallConfig());
    const auto plan = plans::q6();
    ExecOptions opts;
    opts.morselRows = 1536; // not a power of two
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
    opts.morselRows = 0;
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
    opts = {};
    opts.shards = 0;
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
}

TEST(OlapConfigValidation, RejectsBadKnobs)
{
    Database db(smallConfig());
    auto cfg = OlapConfig::pushtapDimm();
    cfg.morselRows = 1000;
    EXPECT_THROW(OlapEngine(db, cfg), FatalError);
    cfg = OlapConfig::pushtapDimm();
    cfg.shards = 0;
    EXPECT_THROW(OlapEngine(db, cfg), FatalError);
}

/**
 * Pricing invariants of the shard decomposition, against the golden
 * single-shard engine.
 */
class ShardPricingTest : public ::testing::Test
{
  protected:
    ShardPricingTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 11)
    {
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
    }

    OlapConfig
    config(std::uint32_t shards, std::uint32_t workers) const
    {
        auto cfg = OlapConfig::pushtapDimm();
        cfg.shards = shards;
        cfg.workers = workers;
        return cfg;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(ShardPricingTest, SingleShardDecompositionUnchangedByWorkers)
{
    // Golden invariance: workers are host-side only, so a shards=1
    // engine must reproduce every decomposition bit-for-bit no
    // matter how many threads drained the morsels.
    OlapEngine golden(db, config(1, 1));
    OlapEngine parallel(db, config(1, 4));
    for (const auto &q : workload::chExecutablePlans()) {
        golden.prepareSnapshot(db.now());
        parallel.prepareSnapshot(db.now());
        QueryResult gres, pres;
        const auto grep = golden.runQuery(q.plan, &gres);
        const auto prep = parallel.runQuery(q.plan, &pres);
        EXPECT_DOUBLE_EQ(prep.pimNs, grep.pimNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuNs, grep.cpuNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuBlockedNs, grep.cpuBlockedNs)
            << q.plan.name;
        EXPECT_EQ(prep.rowsVisible, grep.rowsVisible) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.mergeNs, 0.0) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.buildMergeNs, 0.0) << q.plan.name;
        ASSERT_EQ(gres.rows.size(), pres.rows.size()) << q.plan.name;
        for (std::size_t i = 0; i < gres.rows.size(); ++i) {
            EXPECT_EQ(gres.rows[i].keys, pres.rows[i].keys);
            EXPECT_EQ(gres.rows[i].aggs, pres.rows[i].aggs);
            EXPECT_EQ(gres.rows[i].count, pres.rows[i].count);
        }
    }
}

TEST_F(ShardPricingTest, ShardBytesComposeAdditively)
{
    // The optimizer prices shard counts independently, so its greedy
    // placement may diverge between the two engines; this test pins
    // the hand-built decomposition relation only.
    if (OlapConfig::optimizeForcedByEnv())
        GTEST_SKIP() << "optimizer forced on";
    OlapEngine one(db, config(1, 1));
    OlapEngine four(db, config(4, 2));
    for (const auto &q : workload::chExecutablePlans()) {
        one.prepareSnapshot(db.now());
        four.prepareSnapshot(db.now());
        QueryResult r1, r4;
        const auto rep1 = one.runQuery(q.plan, &r1);
        const auto rep4 = four.runQuery(q.plan, &r4);

        // Identical answers, identical scanned bytes in total.
        ASSERT_EQ(r1.rows.size(), r4.rows.size()) << q.plan.name;
        for (std::size_t i = 0; i < r1.rows.size(); ++i)
            EXPECT_EQ(r1.rows[i].aggs, r4.rows[i].aggs);
        ASSERT_EQ(rep1.shardBytes.size(), 1u);
        ASSERT_EQ(rep4.shardBytes.size(), 4u);
        EXPECT_EQ(std::accumulate(rep4.shardBytes.begin(),
                                  rep4.shardBytes.end(), Bytes{0}),
                  rep1.shardBytes[0])
            << q.plan.name;

        // Partitioning pays per-shard scan fixed costs plus the
        // cross-shard merge and (for plans with builds) the
        // build-consolidation charge — never less than the single
        // scan.
        EXPECT_GE(rep4.pimNs, rep1.pimNs) << q.plan.name;
        EXPECT_GT(rep4.mergeNs, 0.0) << q.plan.name;
        if (q.plan.joins.empty() && q.plan.subqueries.empty())
            EXPECT_DOUBLE_EQ(rep4.buildMergeNs, 0.0) << q.plan.name;
        else
            EXPECT_GT(rep4.buildMergeNs, 0.0) << q.plan.name;
        EXPECT_DOUBLE_EQ(rep4.cpuNs, rep1.cpuNs + rep4.mergeNs +
                                         rep4.buildMergeNs)
            << q.plan.name;
    }
}

TEST_F(ShardPricingTest, EngineShardingKeepsReferenceAnswers)
{
    // End-to-end through the engine at an aggressive configuration:
    // answers equal the naive reference executor exactly.
    OlapEngine engine(db, config(4, 4));
    engine.prepareSnapshot(db.now());
    const auto refs = referenceCatalog(db);
    const auto &plans = workload::chExecutablePlans();
    for (std::size_t i = 0; i < plans.size(); ++i) {
        QueryResult res;
        engine.runQuery(plans[i].plan, &res);
        expectRowsMatch(res, refs[i].rows, plans[i].plan.name);
    }
}

} // namespace
} // namespace pushtap::olap
