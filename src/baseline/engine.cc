#include "baseline/engine.h"

#include <algorithm>

namespace shareddb {
namespace baseline {

BaselineEngine::BaselineEngine(Catalog* catalog, BaselineProfile profile)
    : catalog_(catalog), profile_(std::move(profile)) {}

namespace {

size_t MaxParams(size_t acc, const ExprPtr& e) {
  return std::max(acc, NumParamsOf(e));
}

size_t LogicalNumParams(const logical::LogicalPtr& node) {
  size_t n = MaxParams(0, node->predicate);
  n = MaxParams(n, node->having);
  n = MaxParams(n, node->limit);
  for (const logical::LogicalPtr& c : node->children) {
    const size_t cn = LogicalNumParams(c);
    if (cn > n) n = cn;
  }
  return n;
}

}  // namespace

StatementId BaselineEngine::AddQuery(const std::string& name,
                                     logical::LogicalPtr root) {
  Statement s;
  s.name = name;
  s.is_query = true;
  s.num_params = LogicalNumParams(root);
  s.root = std::move(root);
  statements_.push_back(std::move(s));
  return static_cast<StatementId>(statements_.size() - 1);
}

StatementId BaselineEngine::AddInsert(const std::string& name,
                                      const std::string& table,
                                      std::vector<ExprPtr> row_values) {
  Table* t = catalog_->MustGetTable(table);
  SDB_CHECK(row_values.size() == t->schema()->num_columns());
  Statement s;
  s.name = name;
  s.is_query = false;
  s.kind = UpdateKind::kInsert;
  s.table = table;
  s.row_values = std::move(row_values);
  for (const ExprPtr& e : s.row_values) s.num_params = MaxParams(s.num_params, e);
  statements_.push_back(std::move(s));
  return static_cast<StatementId>(statements_.size() - 1);
}

StatementId BaselineEngine::AddUpdate(
    const std::string& name, const std::string& table,
    std::vector<std::pair<std::string, ExprPtr>> sets, ExprPtr where) {
  Table* t = catalog_->MustGetTable(table);
  Statement s;
  s.name = name;
  s.is_query = false;
  s.kind = UpdateKind::kUpdate;
  s.table = table;
  s.where = std::move(where);
  for (auto& [col, expr] : sets) {
    s.sets.emplace_back(t->schema()->ColumnIndex(col), std::move(expr));
  }
  s.num_params = MaxParams(s.num_params, s.where);
  for (const auto& [col, expr] : s.sets) {
    (void)col;
    s.num_params = MaxParams(s.num_params, expr);
  }
  statements_.push_back(std::move(s));
  return static_cast<StatementId>(statements_.size() - 1);
}

StatementId BaselineEngine::AddDelete(const std::string& name,
                                      const std::string& table, ExprPtr where) {
  catalog_->MustGetTable(table);
  Statement s;
  s.name = name;
  s.is_query = false;
  s.kind = UpdateKind::kDelete;
  s.table = table;
  s.where = std::move(where);
  s.num_params = MaxParams(s.num_params, s.where);
  statements_.push_back(std::move(s));
  return static_cast<StatementId>(statements_.size() - 1);
}

StatementId BaselineEngine::FindStatement(const std::string& name) const {
  const int id = TryFindStatement(name);
  if (id >= 0) return static_cast<StatementId>(id);
  std::fprintf(stderr, "BaselineEngine: unknown statement '%s'\n", name.c_str());
  std::abort();
}

int BaselineEngine::TryFindStatement(const std::string& name) const {
  for (size_t i = 0; i < statements_.size(); ++i) {
    if (statements_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t BaselineEngine::NumParams(StatementId id) const {
  SDB_CHECK(id < statements_.size());
  return statements_[id].num_params;
}

BaselineResult BaselineEngine::Execute(StatementId id,
                                       const std::vector<Value>& params) {
  BaselineResult out;
  if (id >= statements_.size()) {
    out.result.status = Status::InvalidArgument(
        "statement id " + std::to_string(id) + " out of range");
    return out;
  }
  const Statement& s = statements_[id];
  if (params.size() < s.num_params) {
    out.result.status = Status::InvalidArgument(
        "statement '" + s.name + "' needs " + std::to_string(s.num_params) +
        " parameter(s), got " + std::to_string(params.size()));
    return out;
  }
  if (s.is_query) {
    const Version snapshot = catalog_->snapshots().ReadSnapshot();
    IteratorPtr it = BuildIterator(s.root, *catalog_, params, snapshot, profile_,
                                   &out.work);
    out.result.schema = it->schema();
    out.result.rows = DrainIterator(it.get());
  } else {
    // Auto-commit DML: bind, apply at the next version, commit.
    static const Tuple kNoTuple;
    UpdateOp op;
    op.kind = s.kind;
    if (s.kind == UpdateKind::kInsert) {
      op.row = Tuple::Build(s.row_values.size(), [&](size_t i) {
        return s.row_values[i]->Evaluate(kNoTuple, params);
      });
    } else {
      if (s.where != nullptr) op.where = s.where->Bind(params);
      for (const auto& [col, expr] : s.sets) {
        op.sets.emplace_back(col, expr->Bind(params));
      }
    }
    Table* t = catalog_->MustGetTable(s.table);
    const Version wv = catalog_->snapshots().WriteVersion();
    const size_t applied = ClockScan::ApplyUpdate(t, op, wv);
    catalog_->snapshots().Commit();
    out.result.update_count = applied;
    out.work.updates_applied += applied;
  }
  return out;
}

BaselineResult BaselineEngine::ExecuteNamed(const std::string& name,
                                            const std::vector<Value>& params) {
  return Execute(FindStatement(name), params);
}

}  // namespace baseline
}  // namespace shareddb
