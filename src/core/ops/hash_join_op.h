// HashJoinOp: the shared hash join of Figure 3.
//
// One big join serves every active query: the build side holds the union of
// all tuples any query is interested in; the probe side likewise. The join
// predicate is the data-key equality *amended with the query-id conjunct*
// (R.query_id ∩ S.query_id ≠ ∅): a matching pair is emitted annotated with
// the intersection of the two sides' interest sets, so an R tuple relevant
// only to Q1 never pairs with an S tuple relevant only to Q2.
//
// Per-query residual predicates (conjuncts that could not be pushed below
// the join) are applied to the concatenated tuple and strip individual
// query ids.
//
// Each cycle hashes whichever masked input is smaller and probes with the
// other; output tuples are (left ++ right) either way.

#ifndef SHAREDDB_CORE_OPS_HASH_JOIN_OP_H_
#define SHAREDDB_CORE_OPS_HASH_JOIN_OP_H_

#include "core/op.h"

namespace shareddb {

/// Shared hash equi-join of two inputs (input 0 = left, input 1 = right).
class HashJoinOp : public SharedOp {
 public:
  HashJoinOp(SchemaPtr left_schema, SchemaPtr right_schema, size_t left_key,
             size_t right_key, const std::string& left_prefix = "",
             const std::string& right_prefix = "");

  DQBatch RunCycle(std::vector<BatchRef> inputs, const std::vector<OpQuery>& queries,
                   const CycleContext& ctx, WorkStats* stats) override;

  const char* kind_name() const override { return "HashJoin"; }
  const SchemaPtr& output_schema() const override { return schema_; }

  size_t left_key() const { return left_key_; }
  size_t right_key() const { return right_key_; }

 private:
  SchemaPtr left_schema_;
  SchemaPtr right_schema_;
  size_t left_key_;
  size_t right_key_;
  SchemaPtr schema_;  // left ++ right
};

}  // namespace shareddb

#endif  // SHAREDDB_CORE_OPS_HASH_JOIN_OP_H_
