#include "core/ops/sort_op.h"

#include <algorithm>
#include <numeric>

#include "core/ops/merge_util.h"

namespace shareddb {

int CompareTuples(const Tuple& a, const Tuple& b, const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    const int c = a[k.column].Compare(b[k.column]);
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

SortOp::SortOp(SchemaPtr schema, std::vector<SortKey> keys)
    : schema_(std::move(schema)), keys_(std::move(keys)) {
  SDB_CHECK(!keys_.empty());
  for (const SortKey& k : keys_) SDB_CHECK(k.column < schema_->num_columns());
}

DQBatch SortOp::RunCycle(std::vector<BatchRef> inputs,
                         const std::vector<OpQuery>& queries, const CycleContext& ctx,
                         WorkStats* stats) {
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch in(schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) stats->tuples_in += b.size();
    in.Append(MaskToActive(std::move(b), active, stats));
  }

  // One big stable sort for all queries of the batch (merge_util: serial
  // stable_sort, or parallel run sort + loser-tree/balanced merge — both
  // produce the identical permutation).
  const size_t n = in.size();
  uint64_t comparisons = 0;
  const ParallelContext* par = ctx.parallel;
  const bool use_parallel = par != nullptr && par->Enabled(n);
  std::vector<uint32_t> order =
      StableSortPermutation(in, keys_, use_parallel ? par : nullptr, &comparisons);
  if (stats != nullptr) {
    stats->comparisons += comparisons;
    stats->tuples_out += n;
  }

  DQBatch out(schema_);
  out.Reserve(n);
  for (const uint32_t i : order) {
    out.Push(std::move(in.tuples[i]), std::move(in.qids[i]));
  }
  return out;
}

}  // namespace shareddb
