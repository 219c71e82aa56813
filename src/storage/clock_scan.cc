#include "storage/clock_scan.h"

#include <algorithm>

namespace shareddb {

namespace {

// Victim selection for UPDATE/DELETE: uses a B-tree when the WHERE clause
// has an equality on an indexed column; falls back to a scan otherwise.
// Visibility is at write_version so an update sees the batch's earlier
// writes (arrival-order semantics).
std::vector<RowId> FindVictims(Table* table, const ExprPtr& where,
                               Version write_version) {
  static const std::vector<Value> kNoParams;
  std::vector<RowId> victims;
  if (where != nullptr) {
    const AnalyzedPredicate pred = AnalyzePredicate(where);
    for (const EqConstraint& eq : pred.equalities) {
      const TableIndex* idx = table->FindIndexOnColumn(eq.column);
      if (idx == nullptr) continue;
      std::vector<RowId> candidates;
      table->IndexLookup(idx->name, eq.value, write_version, &candidates);
      for (const RowId id : candidates) {
        const Tuple t = table->GetRow(id).data;
        if (where->EvalBool(t, kNoParams)) victims.push_back(id);
      }
      return victims;
    }
  }
  table->ScanVisible(write_version, [&](RowId id, const Tuple& t) {
    if (where == nullptr || where->EvalBool(t, kNoParams)) victims.push_back(id);
    return true;
  });
  return victims;
}

}  // namespace

size_t ClockScan::ApplyUpdate(Table* table, const UpdateOp& op,
                              Version write_version) {
  static const std::vector<Value> kNoParams;
  size_t applied = 0;
  switch (op.kind) {
    case UpdateKind::kInsert:
      table->Insert(op.row, write_version);
      applied = 1;
      break;
    case UpdateKind::kUpdate: {
      const std::vector<RowId> victims = FindVictims(table, op.where, write_version);
      for (const RowId id : victims) {
        const Tuple old = table->GetRow(id).data;
        std::vector<Value> updated(old.begin(), old.end());
        for (const auto& [col, expr] : op.sets) {
          SDB_DCHECK(col < updated.size());
          updated[col] = expr->Evaluate(old, kNoParams);
        }
        table->UpdateRow(id, Tuple(std::move(updated)), write_version);
      }
      applied = victims.size();
      break;
    }
    case UpdateKind::kDelete: {
      const std::vector<RowId> victims = FindVictims(table, op.where, write_version);
      for (const RowId id : victims) table->DeleteRow(id, write_version);
      applied = victims.size();
      break;
    }
  }
  if (op.applied_out != nullptr) *op.applied_out += applied;
  return applied;
}

const PredicateIndex& ClockScan::GetIndex(const std::vector<ScanQuerySpec>& queries) {
  if (index_ != nullptr) {
    switch (index_->TryReuse(queries)) {
      case PredicateIndex::Reuse::kExact:
        return *index_;
      case PredicateIndex::Reuse::kRebound:
        ++index_rebinds_;
        return *index_;
      case PredicateIndex::Reuse::kMismatch:
        break;
    }
  }
  index_ = std::make_unique<PredicateIndex>(queries);
  ++index_builds_;
  return *index_;
}

namespace {

/// Phase-2 inner loop over one run of segments (in clock order). Shared by
/// the serial pass and every parallel morsel; each caller brings its own
/// output batch, stats, and match context, so morsels share no mutable state.
void ScanSegmentRun(const Table& table, const PredicateIndex& index,
                    Version read_snapshot, size_t start, size_t first_seg,
                    size_t end_seg, size_t num_segments, size_t seg_size,
                    PredicateIndex::MatchContext* mctx, DQBatch* out,
                    ClockScanStats* stats) {
  QueryIdSet qids;
  for (size_t s = first_seg; s < end_seg; ++s) {
    const size_t seg = (start + s) % num_segments;
    const RowId lo = seg * seg_size;
    const RowId hi = lo + seg_size;
    table.ScanRange(lo, hi, read_snapshot, [&](RowId, const Tuple& row) {
      if (stats != nullptr) ++stats->rows_scanned;
      index.Match(row, &qids, stats != nullptr ? &stats->pred : nullptr, mctx);
      if (!qids.empty()) {
        out->Push(row, std::move(qids));
        qids = QueryIdSet();
        if (stats != nullptr) ++stats->tuples_out;
      }
      return true;
    });
  }
}

}  // namespace

DQBatch ClockScan::RunCycle(const std::vector<ScanQuerySpec>& queries,
                            const std::vector<UpdateOp>& updates,
                            Version read_snapshot, Version write_version,
                            ClockScanStats* stats,
                            const ParallelContext* parallel) {
  SDB_CHECK(read_snapshot < write_version);
  // Phase 1: updates in arrival order.
  for (const UpdateOp& op : updates) {
    const size_t n = ApplyUpdate(table_, op, write_version);
    if (stats != nullptr) stats->updates_applied += n;
  }

  // Phase 2: one circular pass evaluating all queries via the query index.
  DQBatch out(table_->schema());
  if (queries.empty()) return out;
  const PredicateIndex& index = GetIndex(queries);

  const size_t seg_size = table_->rows_per_segment();
  const size_t physical = table_->PhysicalSize();
  const size_t num_segments = (physical + seg_size - 1) / seg_size;
  if (num_segments == 0) return out;
  const size_t start = clock_hand_ % num_segments;
  clock_hand_ = (clock_hand_ + 1) % num_segments;

  const bool parallelize = parallel != nullptr && num_segments > 1 &&
                           parallel->Enabled(physical);
  if (!parallelize) {
    PredicateIndex::MatchContext mctx;
    ScanSegmentRun(*table_, index, read_snapshot, start, 0, num_segments,
                   num_segments, seg_size, &mctx, &out, stats);
    return out;
  }

  // Morsel-parallel pass: contiguous runs of segments (still in clock order)
  // become tasks; each evaluates into a thread-local slice. Slices are then
  // move-concatenated in run order — the same segment order the serial pass
  // walks — so the output batch is byte-identical.
  size_t num_tasks = std::min(
      num_segments, parallel->max_tasks());
  const size_t max_by_rows = std::max<size_t>(1, physical / parallel->min_rows_per_task);
  num_tasks = std::max<size_t>(1, std::min(num_tasks, max_by_rows));

  std::vector<DQBatch> slices(num_tasks);
  std::vector<ClockScanStats> slice_stats(num_tasks);
  TaskGroup group(parallel->pool);
  for (size_t t = 0; t < num_tasks; ++t) {
    const size_t first_seg = t * num_segments / num_tasks;
    const size_t end_seg = (t + 1) * num_segments / num_tasks;
    DQBatch* slice = &slices[t];
    ClockScanStats* sstats = stats != nullptr ? &slice_stats[t] : nullptr;
    group.Run([this, &index, read_snapshot, start, first_seg, end_seg,
               num_segments, seg_size, slice, sstats] {
      PredicateIndex::MatchContext mctx;
      ScanSegmentRun(*table_, index, read_snapshot, start, first_seg, end_seg,
                     num_segments, seg_size, &mctx, slice, sstats);
    });
  }
  group.Wait();

  for (size_t t = 0; t < num_tasks; ++t) {
    out.Append(std::move(slices[t]));
    if (stats != nullptr) {
      stats->rows_scanned += slice_stats[t].rows_scanned;
      stats->tuples_out += slice_stats[t].tuples_out;
      stats->pred.hash_probes += slice_stats[t].pred.hash_probes;
      stats->pred.candidates += slice_stats[t].pred.candidates;
      stats->pred.matches += slice_stats[t].pred.matches;
    }
  }
  return out;
}

}  // namespace shareddb
