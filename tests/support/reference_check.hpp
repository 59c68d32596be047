#pragma once

/**
 * @file
 * The check every executor property suite runs: an executePlan()
 * answer against the naive reference executor
 * (support/reference_executor.hpp), row for row and byte for byte,
 * plus the probe table's snapshot-visible row count.
 *
 * referenceExecute() reads the newest committed versions, not the
 * snapshot bitmaps, so a RefExecution is only the snapshot's answer
 * while the two agree: take it right after
 * prepareSnapshot(db.now()) (or on a freshly populated database),
 * before any later commit. Suites that sweep knobs take it once per
 * plan, outside their sweep loops.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "olap/operators.hpp"
#include "support/reference_executor.hpp"
#include "txn/database.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::testsupport {

/** The reference answer of one plan at the current snapshot. */
struct RefExecution
{
    std::vector<RefRow> rows;
    /** Snapshot-visible probe rows (data + delta visibility bits):
     *  what PlanExecution::rowsVisible must report. */
    std::uint64_t rowsVisible = 0;
};

inline RefExecution
referenceExecution(RefTables &tables, const olap::QueryPlan &plan)
{
    const auto &store = tables.db().table(plan.probe.table).store();
    return {referenceExecute(tables, plan),
            store.dataVisible().count() +
                store.deltaVisible().count()};
}

inline RefExecution
referenceExecution(txn::Database &db, const olap::QueryPlan &plan)
{
    RefTables tables(db);
    return referenceExecution(tables, plan);
}

/** referenceExecution() of every chExecutablePlans() entry, in
 *  catalog order, materializing each table once. */
inline std::vector<RefExecution>
referenceCatalog(txn::Database &db)
{
    RefTables tables(db);
    std::vector<RefExecution> out;
    for (const auto &q : workload::chExecutablePlans())
        out.push_back(referenceExecution(tables, q.plan));
    return out;
}

inline void
expectRowsMatch(const olap::QueryResult &got,
                const std::vector<RefRow> &want,
                const std::string &what)
{
    ASSERT_EQ(got.rows.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.rows[i].keys, want[i].keys)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].aggs, want[i].aggs)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].count, want[i].count)
            << what << " row " << i;
    }
}

inline void
expectMatchesReference(const olap::PlanExecution &got,
                       const RefExecution &want,
                       const std::string &what)
{
    EXPECT_EQ(got.rowsVisible, want.rowsVisible) << what;
    expectRowsMatch(got.result, want.rows, what);
}

} // namespace pushtap::testsupport
