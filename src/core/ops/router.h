// Router (Γ by query_id, Figure 3): splits a shared operator's annotated
// output into per-query result sets. The engine runs it once per delivered
// statement root, after each cycle ("the routing of the join results to the
// relevant queries is carried out using a grouping operator (Γ) by
// query_id").
//
// Also provides ProjectOp and UnionOp, the two shape-adjusting operators the
// plan merger inserts when aligning schemas across shared paths.

#ifndef SHAREDDB_CORE_OPS_ROUTER_H_
#define SHAREDDB_CORE_OPS_ROUTER_H_

#include <vector>

#include "core/op.h"

namespace shareddb {

/// Γ in one pass: appends each row of `batch`, in batch order, to
/// `*dest[id]` for every id in its qid set that has a destination. Ids are
/// dense per batch, so `dest` is indexed by id; an id at or past
/// `dest.size()`, or with a null entry, belongs to a query routed from
/// another node and is skipped. Costs one `qid_elems` per membership
/// visited, so routing is linear in the batch, not in calls × rows.
void RouteByQueryId(const DQBatch& batch, const std::vector<std::vector<Tuple>*>& dest,
                    WorkStats* stats);

/// Column projection (schema alignment before shared sorts/unions).
class ProjectOp : public SharedOp {
 public:
  ProjectOp(SchemaPtr input_schema, std::vector<size_t> columns);

  DQBatch RunCycle(std::vector<BatchRef> inputs, const std::vector<OpQuery>& queries,
                   const CycleContext& ctx, WorkStats* stats) override;

  const char* kind_name() const override { return "Project"; }
  const SchemaPtr& output_schema() const override { return schema_; }

  const std::vector<size_t>& columns() const { return columns_; }

 private:
  SchemaPtr input_schema_;
  std::vector<size_t> columns_;
  SchemaPtr schema_;
};

/// Union-all of same-schema inputs (annotations pass through).
class UnionOp : public SharedOp {
 public:
  explicit UnionOp(SchemaPtr schema);

  DQBatch RunCycle(std::vector<BatchRef> inputs, const std::vector<OpQuery>& queries,
                   const CycleContext& ctx, WorkStats* stats) override;

  const char* kind_name() const override { return "Union"; }
  const SchemaPtr& output_schema() const override { return schema_; }

 private:
  SchemaPtr schema_;
};

}  // namespace shareddb

#endif  // SHAREDDB_CORE_OPS_ROUTER_H_
