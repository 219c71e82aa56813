#include "core/ops/top_n_op.h"

#include <algorithm>
#include <numeric>

#include "common/flat_hash.h"
#include "core/ops/merge_util.h"

namespace shareddb {

TopNOp::TopNOp(SchemaPtr schema, std::vector<SortKey> keys, int64_t default_limit)
    : schema_(std::move(schema)), keys_(std::move(keys)),
      default_limit_(default_limit) {
  SDB_CHECK(!keys_.empty());
}

DQBatch TopNOp::RunCycle(std::vector<BatchRef> inputs,
                         const std::vector<OpQuery>& queries, const CycleContext& ctx,
                         WorkStats* stats) {
  static const std::vector<Value> kNoParams;
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch in(schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) stats->tuples_in += b.size();
    in.Append(MaskToActive(std::move(b), active, stats));
  }

  // Phase 1 (shared): one big sort — parallel when the cycle has a pool
  // (shared machinery with SortOp; the permutation is byte-identical to the
  // serial stable sort).
  const ParallelContext* par = ctx.parallel;
  const bool use_parallel =
      par != nullptr && par->Enabled(in.size());
  uint64_t comparisons = 0;
  const std::vector<uint32_t> order =
      StableSortPermutation(in, keys_, use_parallel ? par : nullptr, &comparisons);
  if (stats != nullptr) stats->comparisons += comparisons;

  // Phase 2 (per query): walk in order, keep each query's first N matches.
  // Stays serial: the per-query remaining counts make this an inherently
  // ordered scan, and it is O(kept rows), not O(input).
  struct PerQuery {
    const OpQuery* q = nullptr;
    int64_t remaining = 0;
  };
  FlatHashMap<QueryId, PerQuery> state(queries.size());
  for (const OpQuery& q : queries) {
    const int64_t n = q.limit >= 0 ? q.limit : default_limit_;
    state[q.id] = PerQuery{&q, n};
  }

  DQBatch out(schema_);
  std::vector<QueryId> keep;
  for (const uint32_t i : order) {
    const Tuple& t = in.tuples[i];
    keep.clear();
    for (const QueryId id : in.qids[i]) {
      PerQuery* found = state.Find(id);
      if (found == nullptr) continue;
      PerQuery& pq = *found;
      if (pq.remaining == 0) continue;  // already full (negative = unlimited)
      if (pq.q->predicate != nullptr) {
        if (stats != nullptr) ++stats->predicate_evals;
        if (!pq.q->predicate->EvalBool(t, kNoParams)) continue;
      }
      if (pq.remaining > 0) --pq.remaining;
      keep.push_back(id);
    }
    if (keep.empty()) continue;
    if (stats != nullptr) ++stats->tuples_out;
    out.Push(in.tuples[i], QueryIdSet::FromSorted(keep.data(), keep.size()));
  }
  return out;
}

}  // namespace shareddb
