// WorkStats: per-operator, per-cycle work counters.
//
// Every shared operator counts the primitive operations it performs. These
// counters serve three purposes:
//   1. tests assert sharing actually reduces work (the paper's core claim);
//   2. the virtual-time simulator (src/sim) converts work into time for an
//      N-core machine;
//   3. bench output reports work alongside wall-clock.

#ifndef SHAREDDB_CORE_WORK_STATS_H_
#define SHAREDDB_CORE_WORK_STATS_H_

#include <cstdint>

#include "storage/clock_scan.h"

namespace shareddb {

/// Additive counters of primitive operations.
struct WorkStats {
  uint64_t tuples_in = 0;        // tuples consumed from inputs
  uint64_t tuples_out = 0;       // tuples emitted
  uint64_t rows_scanned = 0;     // base-table rows examined (scans)
  uint64_t hash_builds = 0;      // hash-table insertions
  uint64_t hash_probes = 0;      // hash-table lookups
  uint64_t comparisons = 0;      // sort/merge comparisons
  uint64_t index_lookups = 0;    // B-tree traversals
  uint64_t predicate_evals = 0;  // per-(tuple,query) predicate verifications
  uint64_t agg_updates = 0;      // aggregate accumulator updates
  uint64_t updates_applied = 0;  // row versions written
  uint64_t qid_elems = 0;        // query-id set elements touched

  void Add(const WorkStats& o) {
    tuples_in += o.tuples_in;
    tuples_out += o.tuples_out;
    rows_scanned += o.rows_scanned;
    hash_builds += o.hash_builds;
    hash_probes += o.hash_probes;
    comparisons += o.comparisons;
    index_lookups += o.index_lookups;
    predicate_evals += o.predicate_evals;
    agg_updates += o.agg_updates;
    updates_applied += o.updates_applied;
    qid_elems += o.qid_elems;
  }

  void AddScan(const ClockScanStats& s) {
    rows_scanned += s.rows_scanned;
    updates_applied += s.updates_applied;
    tuples_out += s.tuples_out;
    hash_probes += s.pred.hash_probes;
    predicate_evals += s.pred.candidates;
    qid_elems += s.pred.matches;
  }

  /// Unweighted total (for quick comparisons in tests).
  uint64_t Total() const {
    return tuples_in + tuples_out + rows_scanned + hash_builds + hash_probes +
           comparisons + index_lookups + predicate_evals + agg_updates +
           updates_applied + qid_elems;
  }
};

}  // namespace shareddb

#endif  // SHAREDDB_CORE_WORK_STATS_H_
