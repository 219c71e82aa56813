#include "core/plan_builder.h"

#include <algorithm>

#include "core/ops/distinct_op.h"
#include "core/ops/filter_op.h"
#include "core/ops/group_by_op.h"
#include "core/ops/hash_join_op.h"
#include "core/ops/index_join_op.h"
#include "core/ops/probe_op.h"
#include "core/ops/qid_join_op.h"
#include "core/ops/router.h"
#include "core/ops/scan_op.h"
#include "core/ops/sort_op.h"
#include "core/ops/top_n_op.h"

namespace shareddb {

using logical::JoinMethod;
using logical::Kind;
using logical::LogicalPtr;

GlobalPlanBuilder::GlobalPlanBuilder(Catalog* catalog)
    : catalog_(catalog), plan_(std::make_unique<GlobalPlan>(catalog)) {}

namespace {

std::vector<SortKey> ResolveSortKeys(
    const Schema& schema, const std::vector<std::pair<std::string, bool>>& keys) {
  std::vector<SortKey> out;
  out.reserve(keys.size());
  for (const auto& [name, asc] : keys) {
    out.push_back(SortKey{schema.ColumnIndex(name), asc});
  }
  return out;
}

size_t MaxParams(size_t acc, const ExprPtr& e) {
  return std::max(acc, NumParamsOf(e));
}

}  // namespace

int GlobalPlanBuilder::Materialize(
    const LogicalPtr& node, std::vector<std::pair<int, NodeConfigTemplate>>* path) {
  // Materialize children first (depth-first, so node ids stay topological).
  std::vector<int> child_ids;
  child_ids.reserve(node->children.size());
  for (const LogicalPtr& c : node->children) {
    child_ids.push_back(Materialize(c, path));
  }

  const std::string fp = logical::Fingerprint(node);
  int id;
  const auto it = shared_.find(fp);
  if (it != shared_.end()) {
    id = it->second;  // share the existing operator
  } else {
    PlanNode pn;
    pn.label = fp;
    pn.inputs = child_ids;
    switch (node->kind) {
      case Kind::kTableScan: {
        Table* t = catalog_->MustGetTable(node->table);
        pn.op = std::make_unique<ScanOp>(t);
        pn.source_table = t;
        break;
      }
      case Kind::kIndexProbe: {
        Table* t = catalog_->MustGetTable(node->table);
        pn.op = std::make_unique<ProbeOp>(t, node->index);
        pn.source_table = t;
        break;
      }
      case Kind::kFilter: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        pn.op = std::make_unique<FilterOp>(in);
        break;
      }
      case Kind::kJoin: {
        const SchemaPtr left = plan_->node(child_ids[0]).op->output_schema();
        if (node->method == JoinMethod::kIndexNL) {
          Table* inner = catalog_->MustGetTable(node->table);
          pn.op = std::make_unique<IndexJoinOp>(
              left, left->ColumnIndex(node->left_key), inner, node->index,
              node->left_prefix, node->right_prefix);
        } else {
          const SchemaPtr right = plan_->node(child_ids[1]).op->output_schema();
          const size_t lk = left->ColumnIndex(node->left_key);
          const size_t rk = right->ColumnIndex(node->right_key);
          if (node->method == JoinMethod::kHash) {
            pn.op = std::make_unique<HashJoinOp>(left, right, lk, rk, node->left_prefix,
                                                 node->right_prefix);
          } else {
            pn.op = std::make_unique<QidJoinOp>(left, right, lk, rk,
                                                node->left_prefix,
                                                node->right_prefix);
          }
        }
        break;
      }
      case Kind::kSort: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        pn.op = std::make_unique<SortOp>(in, ResolveSortKeys(*in, node->sort_keys));
        break;
      }
      case Kind::kTopN: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        pn.op = std::make_unique<TopNOp>(in, ResolveSortKeys(*in, node->sort_keys));
        break;
      }
      case Kind::kGroupBy: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        std::vector<size_t> groups;
        for (const std::string& g : node->group_columns) {
          groups.push_back(in->ColumnIndex(g));
        }
        std::vector<AggSpec> aggs;
        for (const auto& [spec, input_name] : node->aggs) {
          AggSpec s = spec;
          s.column = input_name.empty()
                         ? -1
                         : static_cast<int>(in->ColumnIndex(input_name));
          aggs.push_back(s);
        }
        pn.op = std::make_unique<GroupByOp>(in, std::move(groups), std::move(aggs));
        break;
      }
      case Kind::kDistinct: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        pn.op = std::make_unique<DistinctOp>(in);
        break;
      }
      case Kind::kProject: {
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        std::vector<size_t> cols;
        for (const std::string& c : node->columns) cols.push_back(in->ColumnIndex(c));
        pn.op = std::make_unique<ProjectOp>(in, std::move(cols));
        break;
      }
      case Kind::kUnion: {
        SDB_CHECK(!child_ids.empty());
        const SchemaPtr in = plan_->node(child_ids[0]).op->output_schema();
        for (const int c : child_ids) {
          SDB_CHECK(plan_->node(c).op->output_schema()->Equals(*in) &&
                    "UNION inputs must have identical schemas");
        }
        pn.op = std::make_unique<UnionOp>(in);
        break;
      }
    }
    id = plan_->AddNode(std::move(pn));
    shared_.emplace(fp, id);
    // First scan/probe of a table owns its updates.
    if (plan_->node(id).source_table != nullptr &&
        plan_->UpdateNodeForTable(node->table) < 0) {
      plan_->SetUpdateNode(node->table, id);
    }
  }

  // A statement must not visit one shared node twice (use share_slot to fork).
  for (const auto& [existing, cfg] : *path) {
    (void)cfg;
    if (existing == id) {
      std::fprintf(stderr,
                   "GlobalPlanBuilder: statement visits node #%d twice (%s); "
                   "use share_slot to fork the subtree\n",
                   id, fp.c_str());
      std::abort();
    }
  }
  NodeConfigTemplate tmpl;
  tmpl.predicate = node->predicate;
  tmpl.having = node->having;
  tmpl.limit = node->limit;
  path->emplace_back(id, std::move(tmpl));
  return id;
}

StatementId GlobalPlanBuilder::AddQuery(const std::string& name,
                                        const LogicalPtr& root) {
  StatementDef def;
  def.name = name;
  def.is_query = true;
  def.root = Materialize(root, &def.node_configs);
  def.result_schema = plan_->node(def.root).op->output_schema();
  for (const auto& [node, tmpl] : def.node_configs) {
    (void)node;
    def.num_params = MaxParams(def.num_params, tmpl.predicate);
    def.num_params = MaxParams(def.num_params, tmpl.having);
    def.num_params = MaxParams(def.num_params, tmpl.limit);
  }
  return plan_->AddStatement(std::move(def));
}

int GlobalPlanBuilder::EnsureUpdateNode(const std::string& table) {
  const int existing = plan_->UpdateNodeForTable(table);
  if (existing >= 0) return existing;
  // No query reads this table (yet): create a dedicated scan node that only
  // applies updates.
  Table* t = catalog_->MustGetTable(table);
  const std::string label = "scan(" + table + ")";
  PlanNode pn;
  pn.label = label;
  pn.op = std::make_unique<ScanOp>(t);
  pn.source_table = t;
  const int id = plan_->AddNode(std::move(pn));
  shared_.emplace(label, id);
  plan_->SetUpdateNode(table, id);
  return id;
}

StatementId GlobalPlanBuilder::AddInsert(const std::string& name,
                                         const std::string& table,
                                         std::vector<ExprPtr> row_values) {
  Table* t = catalog_->MustGetTable(table);
  SDB_CHECK(row_values.size() == t->schema()->num_columns());
  EnsureUpdateNode(table);
  StatementDef def;
  def.name = name;
  def.is_query = false;
  def.update.kind = UpdateKind::kInsert;
  def.update.table = table;
  def.update.row_values = std::move(row_values);
  for (const ExprPtr& e : def.update.row_values) {
    def.num_params = MaxParams(def.num_params, e);
  }
  return plan_->AddStatement(std::move(def));
}

StatementId GlobalPlanBuilder::AddUpdate(
    const std::string& name, const std::string& table,
    std::vector<std::pair<std::string, ExprPtr>> sets, ExprPtr where) {
  Table* t = catalog_->MustGetTable(table);
  EnsureUpdateNode(table);
  StatementDef def;
  def.name = name;
  def.is_query = false;
  def.update.kind = UpdateKind::kUpdate;
  def.update.table = table;
  def.update.where = std::move(where);
  for (auto& [col, expr] : sets) {
    def.update.sets.emplace_back(t->schema()->ColumnIndex(col), std::move(expr));
  }
  def.num_params = MaxParams(def.num_params, def.update.where);
  for (const auto& [col, expr] : def.update.sets) {
    (void)col;
    def.num_params = MaxParams(def.num_params, expr);
  }
  return plan_->AddStatement(std::move(def));
}

StatementId GlobalPlanBuilder::AddDelete(const std::string& name,
                                         const std::string& table, ExprPtr where) {
  catalog_->MustGetTable(table);
  EnsureUpdateNode(table);
  StatementDef def;
  def.name = name;
  def.is_query = false;
  def.update.kind = UpdateKind::kDelete;
  def.update.table = table;
  def.update.where = std::move(where);
  def.num_params = MaxParams(def.num_params, def.update.where);
  return plan_->AddStatement(std::move(def));
}

std::unique_ptr<GlobalPlan> GlobalPlanBuilder::Build() {
  shared_.clear();
  return std::move(plan_);
}

}  // namespace shareddb
