// GlobalPlan: the single always-on dataflow network of shared operators that
// serves the whole workload (paper §3.2: "Instead of compiling every query
// into a separate query plan, SharedDB compiles the whole workload of the
// system into a single global query plan ... reused over a long period of
// time, possibly for the entire lifetime of the system").

#ifndef SHAREDDB_CORE_PLAN_H_
#define SHAREDDB_CORE_PLAN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/op.h"
#include "storage/catalog.h"
#include "storage/clock_scan.h"

namespace shareddb {

/// One shared operator in the network.
struct PlanNode {
  int id = -1;
  std::string label;  // fingerprint (explain / debugging)
  std::unique_ptr<SharedOp> op;
  std::vector<int> inputs;     // child node ids, in op input order
  /// Parent node ids, once per edge (a parent reading this node twice is
  /// listed twice, adjacently).
  std::vector<int> consumers;
  Table* source_table = nullptr;  // non-null for Scan/Probe sources
};

/// Per-(statement, node) configuration template; params still unbound.
struct NodeConfigTemplate {
  ExprPtr predicate;
  ExprPtr having;
  ExprPtr limit;
};

/// An update statement's template (INSERT / UPDATE / DELETE).
struct UpdateStmtTemplate {
  UpdateKind kind = UpdateKind::kInsert;
  std::string table;
  std::vector<ExprPtr> row_values;                  // kInsert: one per column
  ExprPtr where;                                    // kUpdate / kDelete
  std::vector<std::pair<size_t, ExprPtr>> sets;     // kUpdate assignments
};

/// A registered prepared statement.
struct StatementDef {
  StatementId id = 0;
  std::string name;
  bool is_query = true;

  /// Parameter slots this statement's templates reference (one past the
  /// highest kParam slot). Execute calls must supply at least this many
  /// values; the engine rejects shorter vectors with InvalidArgument.
  size_t num_params = 0;

  // Queries:
  int root = -1;                                              // result node
  std::vector<std::pair<int, NodeConfigTemplate>> node_configs;  // whole path
  SchemaPtr result_schema;

  // Updates:
  UpdateStmtTemplate update;
};

/// The compiled global plan. Nodes are stored in topological order
/// (children before parents). Immutable after building.
class GlobalPlan {
 public:
  explicit GlobalPlan(Catalog* catalog) : catalog_(catalog) {}

  Catalog* catalog() const { return catalog_; }

  size_t num_nodes() const { return nodes_.size(); }
  PlanNode& node(size_t i) { return nodes_[i]; }
  const PlanNode& node(size_t i) const { return nodes_[i]; }

  size_t num_statements() const { return statements_.size(); }
  const StatementDef& statement(StatementId id) const {
    SDB_CHECK(id < statements_.size());
    return statements_[id];
  }

  /// Statement lookup by name, or nullptr.
  const StatementDef* FindStatement(const std::string& name) const;

  /// Source node (scan/probe) that owns updates for `table`, or -1.
  int UpdateNodeForTable(const std::string& table) const;

  /// Human-readable plan: one line per node with inputs and consumers.
  std::string Explain() const;

  /// --- builder-facing mutators (used by GlobalPlanBuilder) ---
  int AddNode(PlanNode node);
  StatementId AddStatement(StatementDef def);
  void SetUpdateNode(const std::string& table, int node);

 private:
  Catalog* catalog_;
  std::vector<PlanNode> nodes_;
  std::vector<StatementDef> statements_;
  std::unordered_map<std::string, int> update_nodes_;  // table -> source node
};

}  // namespace shareddb

#endif  // SHAREDDB_CORE_PLAN_H_
