// Logical plans for single statements — step 1 of the paper's two-step
// optimization (Figure 3): "each query is parsed and compiled individually,
// thereby pushing down predicates ... In the second step, the individual
// query plans are merged into a single global plan."
//
// A LogicalNode tree describes ONE prepared statement with parameter
// placeholders. GlobalPlanBuilder (plan_builder.h) merges many such trees,
// sharing physical operators whose *fingerprints* match. Per the paper,
// sharing a join only fixes the join method and the inner/outer relations;
// per-query predicates, limits and HAVING clauses stay per-statement and are
// bound per query instance at batch time.

#ifndef SHAREDDB_CORE_LOGICAL_H_
#define SHAREDDB_CORE_LOGICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ops/group_by_op.h"
#include "core/ops/sort_op.h"
#include "expr/expression.h"
#include "storage/catalog.h"

namespace shareddb {
namespace logical {

struct LogicalNode;
using LogicalPtr = std::shared_ptr<const LogicalNode>;

/// Join algorithm selection (paper §3.3: "any join method can be used").
enum class JoinMethod { kHash, kIndexNL, kQid };

/// Node kinds.
enum class Kind {
  kTableScan,   // ClockScan source
  kIndexProbe,  // B-tree probe source
  kFilter,      // per-query mid-plan filter
  kJoin,        // two-input join (kHash/kQid) or outer+table (kIndexNL)
  kSort,
  kTopN,
  kGroupBy,
  kDistinct,
  kProject,
  kUnion,
};

/// One node of a statement's logical plan.
struct LogicalNode {
  Kind kind = Kind::kTableScan;
  std::vector<LogicalPtr> children;

  // kTableScan / kIndexProbe / kJoin(kIndexNL inner side)
  std::string table;
  std::string index;

  // Per-query templates (may contain kParam):
  ExprPtr predicate;  // scan/probe predicate, filter, join residual, TopN filter
  ExprPtr having;     // group-by HAVING (over group cols ++ agg cols)
  ExprPtr limit;      // TopN limit (literal or param)

  // kJoin
  JoinMethod method = JoinMethod::kHash;
  std::string left_key;   // column name in left child output
  std::string right_key;  // column name in right child output / inner table
  std::string left_prefix;
  std::string right_prefix;

  // kSort / kTopN: (column name, ascending)
  std::vector<std::pair<std::string, bool>> sort_keys;

  // kGroupBy
  std::vector<std::string> group_columns;
  std::vector<std::pair<AggSpec, std::string>> aggs;  // spec + input column name
                                                      // (empty name = COUNT(*))

  // kProject
  std::vector<std::string> columns;

  // Disambiguates equal-fingerprint subtrees that must NOT share
  // (e.g. self-join legs needing distinct per-statement configs).
  int share_slot = 0;
};

/// --- builders ---------------------------------------------------------------

LogicalPtr Scan(std::string table, ExprPtr predicate = nullptr, int slot = 0);
LogicalPtr Probe(std::string table, std::string index, ExprPtr predicate = nullptr,
                 int slot = 0);
LogicalPtr Filter(LogicalPtr child, ExprPtr predicate);
LogicalPtr HashJoin(LogicalPtr left, LogicalPtr right, std::string left_key,
                    std::string right_key, ExprPtr residual = nullptr,
                    std::string left_prefix = "", std::string right_prefix = "");
LogicalPtr QidJoin(LogicalPtr left, LogicalPtr right, std::string left_key,
                   std::string right_key, ExprPtr residual = nullptr,
                   std::string left_prefix = "", std::string right_prefix = "");
LogicalPtr IndexJoin(LogicalPtr outer, std::string inner_table, std::string index,
                     std::string outer_key, ExprPtr residual = nullptr,
                     std::string outer_prefix = "", std::string inner_prefix = "");
LogicalPtr Sort(LogicalPtr child, std::vector<std::pair<std::string, bool>> keys);
LogicalPtr TopN(LogicalPtr child, std::vector<std::pair<std::string, bool>> keys,
                ExprPtr limit, ExprPtr predicate = nullptr);
LogicalPtr GroupBy(LogicalPtr child, std::vector<std::string> group_columns,
                   std::vector<std::pair<AggSpec, std::string>> aggs,
                   ExprPtr having = nullptr);
LogicalPtr Distinct(LogicalPtr child);
LogicalPtr Project(LogicalPtr child, std::vector<std::string> columns);
LogicalPtr Union(std::vector<LogicalPtr> children);

/// Output schema of a logical node, resolving table names via the catalog.
/// Used to build predicates over intermediate schemas.
SchemaPtr ComputeSchema(const LogicalPtr& node, const Catalog& catalog);

/// Fingerprint controlling operator sharing (equal fingerprint = one shared
/// physical operator). Per-query templates are NOT part of the fingerprint.
std::string Fingerprint(const LogicalPtr& node);

/// Splits a conjunctive predicate over a two-table join output into
/// (left-only, right-only, mixed) conjunct groups — the predicate push-down
/// helper of step 1. Column indices < left_width are left-side.
void SplitJoinConjuncts(const ExprPtr& pred, size_t left_width,
                        std::vector<ExprPtr>* left_only,
                        std::vector<ExprPtr>* right_only,
                        std::vector<ExprPtr>* mixed);

}  // namespace logical
}  // namespace shareddb

#endif  // SHAREDDB_CORE_LOGICAL_H_
