// Shared result-comparison helpers for the test suites.
//
// Before this header existed, parallel_test, session_stress_test and
// integration_test each carried a private `Canonical()` built on
// Value::ToString — whose "%.6g" collapses distinct doubles and renders
// Int(3) like Double(3.0). The canonical forms here come from
// src/testing/canonical.h and are injective exactly up to the Value total
// order (type-tagged, %.17g doubles, one NaN token, -0 folded), so
// comparisons stay sound for NaN keys and int64-vs-double columns.

#ifndef SHAREDDB_TESTS_TESTING_UTIL_H_
#define SHAREDDB_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/batch.h"
#include "core/query.h"
#include "core/work_stats.h"
#include "testing/canonical.h"

namespace shareddb {

/// Order-insensitive canonical form of a result set (or raw rows).
inline std::multiset<std::string> Canonical(const ResultSet& rs) {
  return testing::CanonicalRows(rs);
}
inline std::multiset<std::string> Canonical(const std::vector<Tuple>& rows) {
  return testing::CanonicalRows(rows);
}

/// Asserts two result sets carry the same rows (any order), the same status
/// class and the same update count.
inline void ExpectResultsEqual(const ResultSet& a, const ResultSet& b,
                               const std::string& label) {
  EXPECT_EQ(a.status.ok(), b.status.ok())
      << label << ": " << a.status.ToString() << " vs " << b.status.ToString();
  EXPECT_EQ(a.update_count, b.update_count) << label;
  EXPECT_EQ(Canonical(a), Canonical(b)) << label;
}

/// Asserts batches are identical: same size, row order, values, annotations.
inline void ExpectBatchesIdentical(const DQBatch& a, const DQBatch& b,
                                   const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.tuples[i].size(), b.tuples[i].size()) << label << " row " << i;
    for (size_t c = 0; c < a.tuples[i].size(); ++c) {
      EXPECT_EQ(a.tuples[i][c].Compare(b.tuples[i][c]), 0)
          << label << " row " << i << " col " << c << ": "
          << testing::CanonicalValue(a.tuples[i][c]) << " vs "
          << testing::CanonicalValue(b.tuples[i][c]);
    }
    EXPECT_TRUE(a.qids[i] == b.qids[i]) << label << " qids of row " << i;
  }
}

/// Asserts per-node work counters agree node for node. With
/// `same_algorithm` false, the two counters that depend on which path an
/// operator took are skipped, because intra-operator parallel paths change
/// them legitimately: comparisons (a morsel sort plus merge compares more
/// than one serial sort) and qid_elems (each worker interns its own
/// annotation sets).
inline void ExpectNodeStatsEqual(const std::vector<WorkStats>& a,
                                 const std::vector<WorkStats>& b,
                                 const std::string& label,
                                 bool same_algorithm = true) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string node = label + " node " + std::to_string(i);
    EXPECT_EQ(a[i].tuples_in, b[i].tuples_in) << node;
    EXPECT_EQ(a[i].tuples_out, b[i].tuples_out) << node;
    EXPECT_EQ(a[i].rows_scanned, b[i].rows_scanned) << node;
    EXPECT_EQ(a[i].hash_builds, b[i].hash_builds) << node;
    EXPECT_EQ(a[i].hash_probes, b[i].hash_probes) << node;
    if (same_algorithm) {
      EXPECT_EQ(a[i].comparisons, b[i].comparisons) << node;
    }
    EXPECT_EQ(a[i].index_lookups, b[i].index_lookups) << node;
    EXPECT_EQ(a[i].predicate_evals, b[i].predicate_evals) << node;
    EXPECT_EQ(a[i].agg_updates, b[i].agg_updates) << node;
    EXPECT_EQ(a[i].updates_applied, b[i].updates_applied) << node;
    if (same_algorithm) {
      EXPECT_EQ(a[i].qid_elems, b[i].qid_elems) << node;
    }
  }
}

}  // namespace shareddb

#endif  // SHAREDDB_TESTS_TESTING_UTIL_H_
