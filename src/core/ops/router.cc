#include "core/ops/router.h"

namespace shareddb {

void RouteByQueryId(const DQBatch& batch, const std::vector<std::vector<Tuple>*>& dest,
                    WorkStats* stats) {
  for (size_t i = 0; i < batch.size(); ++i) {
    for (const QueryId id : batch.qids[i]) {
      if (id < dest.size() && dest[id] != nullptr) dest[id]->push_back(batch.tuples[i]);
    }
    if (stats != nullptr) stats->qid_elems += batch.qids[i].size();
  }
}

ProjectOp::ProjectOp(SchemaPtr input_schema, std::vector<size_t> columns)
    : input_schema_(std::move(input_schema)), columns_(std::move(columns)) {
  schema_ = input_schema_->Project(columns_);
}

DQBatch ProjectOp::RunCycle(std::vector<BatchRef> inputs,
                            const std::vector<OpQuery>& queries,
                            const CycleContext& ctx, WorkStats* stats) {
  (void)ctx;
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch out(schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) stats->tuples_in += b.size();
    DQBatch masked = MaskToActive(std::move(b), active, stats);
    for (size_t i = 0; i < masked.size(); ++i) {
      const Tuple& in = masked.tuples[i];
      out.Push(Tuple::Build(columns_.size(),
                            [&](size_t k) -> const Value& { return in[columns_[k]]; }),
               std::move(masked.qids[i]));
      if (stats != nullptr) ++stats->tuples_out;
    }
  }
  return out;
}

UnionOp::UnionOp(SchemaPtr schema) : schema_(std::move(schema)) {}

DQBatch UnionOp::RunCycle(std::vector<BatchRef> inputs,
                          const std::vector<OpQuery>& queries, const CycleContext& ctx,
                          WorkStats* stats) {
  (void)ctx;
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch out(schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) {
      stats->tuples_in += b.size();
      stats->tuples_out += b.size();
    }
    out.Append(MaskToActive(std::move(b), active, stats));
  }
  return out;
}

}  // namespace shareddb
