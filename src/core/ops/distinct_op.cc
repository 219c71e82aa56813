#include "core/ops/distinct_op.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "runtime/task_pool.h"

namespace shareddb {

namespace {

/// Per-partition dedup state for the parallel path. A duplicate class lives
/// entirely inside one hash partition (same tuple -> same hash -> same
/// partition), so each partition dedups its rows independently: `survivors`
/// holds global input indices of first occurrences, `next` chains hash
/// collisions through the survivor list, and duplicate annotations are
/// unioned INTO the input batch at the surviving row (rows are
/// partition-disjoint, so no two tasks touch the same row).
struct DedupPart {
  FlatHashMap<uint64_t, int32_t> seen;
  std::vector<int32_t> next;
  std::vector<uint32_t> survivors;
  WorkStats stats;

  void AddRow(DQBatch& in, size_t i, uint64_t h) {
    ++stats.hash_probes;
    auto [head, inserted] = seen.TryEmplace(h);
    int32_t last = -1;
    bool merged = false;
    if (!inserted) {
      for (int32_t oi = *head; oi >= 0; oi = next[static_cast<size_t>(oi)]) {
        last = oi;
        const size_t surv = survivors[static_cast<size_t>(oi)];
        if (TuplesEqual(in.tuples[surv], in.tuples[i])) {
          in.qids[surv] = in.qids[surv].Union(in.qids[i]);
          stats.qid_elems += in.qids[i].size();
          merged = true;
          break;
        }
      }
    }
    if (!merged) {
      const int32_t oi = static_cast<int32_t>(survivors.size());
      if (inserted) {
        *head = oi;
      } else {
        next[static_cast<size_t>(last)] = oi;
      }
      next.push_back(-1);
      survivors.push_back(static_cast<uint32_t>(i));
      ++stats.hash_builds;
      ++stats.tuples_out;
    }
  }
};

}  // namespace

DistinctOp::DistinctOp(SchemaPtr schema) : schema_(std::move(schema)) {}

DQBatch DistinctOp::RunCycle(std::vector<BatchRef> inputs,
                             const std::vector<OpQuery>& queries,
                             const CycleContext& ctx, WorkStats* stats) {
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch in(schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) stats->tuples_in += b.size();
    in.Append(MaskToActive(std::move(b), active, stats));
  }
  const size_t n = in.size();

  // Parallel path: hash-partition the rows and dedup every partition
  // independently (all copies of a tuple share its hash, hence its
  // partition). Survivors carry their global input index; emitting them in
  // ascending index order is exactly the serial first-occurrence order, and
  // QueryIdSet::Union is value-canonical, so the output is byte-identical.
  const ParallelContext* par = ctx.parallel;
  if (par != nullptr && par->Enabled(n)) {
    std::vector<uint64_t> row_hash(n);
    {
      const size_t num_tasks = std::max<size_t>(
          1, std::min(par->max_tasks(),
                      n / par->min_rows_per_task));
      TaskGroup group(par->pool);
      for (size_t t = 0; t < num_tasks; ++t) {
        const size_t lo = t * n / num_tasks;
        const size_t hi = (t + 1) * n / num_tasks;
        group.Run([&in, &row_hash, lo, hi] {
          for (size_t i = lo; i < hi; ++i) row_hash[i] = TupleHash(in.tuples[i]);
        });
      }
      group.Wait();
    }
    const size_t parts =
        std::max<size_t>(2, std::min<size_t>(par->workers() * 2, 32));
    std::vector<DedupPart> partitions(parts);
    TaskGroup group(par->pool);
    for (size_t p = 0; p < parts; ++p) {
      DedupPart* part = &partitions[p];
      group.Run([&in, &row_hash, part, p, parts, n] {
        part->seen.Reserve(n / parts + 8);
        for (size_t i = 0; i < n; ++i) {
          if (row_hash[i] % parts != p) continue;
          part->AddRow(in, i, row_hash[i]);
        }
      });
    }
    group.Wait();

    std::vector<uint32_t> order;
    for (DedupPart& part : partitions) {
      if (stats != nullptr) stats->Add(part.stats);
      order.insert(order.end(), part.survivors.begin(), part.survivors.end());
    }
    std::sort(order.begin(), order.end());
    DQBatch out(schema_);
    out.Reserve(order.size());
    for (const uint32_t i : order) {
      out.Push(std::move(in.tuples[i]), std::move(in.qids[i]));
    }
    return out;
  }

  // Hash rows to merge duplicates; annotations accumulate by union. The
  // flat index maps row hash -> first out-index; hash collisions chain
  // through `next` (parallel to out rows), so deduplicating n rows costs
  // O(1) allocations beyond the output itself.
  FlatHashMap<uint64_t, int32_t> seen(in.size());
  std::vector<int32_t> next;
  DQBatch out(schema_);
  for (size_t i = 0; i < in.size(); ++i) {
    const uint64_t h = TupleHash(in.tuples[i]);
    if (stats != nullptr) ++stats->hash_probes;
    auto [head, inserted] = seen.TryEmplace(h);
    int32_t last = -1;
    bool merged = false;
    if (!inserted) {
      for (int32_t oi = *head; oi >= 0; oi = next[static_cast<size_t>(oi)]) {
        last = oi;
        if (TuplesEqual(out.tuples[static_cast<size_t>(oi)], in.tuples[i])) {
          out.qids[static_cast<size_t>(oi)] =
              out.qids[static_cast<size_t>(oi)].Union(in.qids[i]);
          if (stats != nullptr) stats->qid_elems += in.qids[i].size();
          merged = true;
          break;
        }
      }
    }
    if (!merged) {
      const int32_t oi = static_cast<int32_t>(out.size());
      if (inserted) {
        *head = oi;
      } else {
        next[static_cast<size_t>(last)] = oi;
      }
      next.push_back(-1);
      if (stats != nullptr) {
        ++stats->hash_builds;
        ++stats->tuples_out;
      }
      out.Push(std::move(in.tuples[i]), std::move(in.qids[i]));
    }
  }
  return out;
}

}  // namespace shareddb
