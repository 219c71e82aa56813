#include "core/logical.h"

#include "expr/predicate.h"

namespace shareddb {
namespace logical {

namespace {

std::shared_ptr<LogicalNode> NewNode(Kind kind) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = kind;
  return n;
}

}  // namespace

LogicalPtr Scan(std::string table, ExprPtr predicate, int slot) {
  auto n = NewNode(Kind::kTableScan);
  n->table = std::move(table);
  n->predicate = std::move(predicate);
  n->share_slot = slot;
  return n;
}

LogicalPtr Probe(std::string table, std::string index, ExprPtr predicate, int slot) {
  auto n = NewNode(Kind::kIndexProbe);
  n->table = std::move(table);
  n->index = std::move(index);
  n->predicate = std::move(predicate);
  n->share_slot = slot;
  return n;
}

LogicalPtr Filter(LogicalPtr child, ExprPtr predicate) {
  auto n = NewNode(Kind::kFilter);
  n->children = {std::move(child)};
  n->predicate = std::move(predicate);
  return n;
}

LogicalPtr HashJoin(LogicalPtr left, LogicalPtr right, std::string left_key,
                    std::string right_key, ExprPtr residual, std::string left_prefix,
                    std::string right_prefix) {
  auto n = NewNode(Kind::kJoin);
  n->method = JoinMethod::kHash;
  n->children = {std::move(left), std::move(right)};
  n->left_key = std::move(left_key);
  n->right_key = std::move(right_key);
  n->predicate = std::move(residual);
  n->left_prefix = std::move(left_prefix);
  n->right_prefix = std::move(right_prefix);
  return n;
}

LogicalPtr QidJoin(LogicalPtr left, LogicalPtr right, std::string left_key,
                   std::string right_key, ExprPtr residual, std::string left_prefix,
                   std::string right_prefix) {
  auto n = NewNode(Kind::kJoin);
  n->method = JoinMethod::kQid;
  n->children = {std::move(left), std::move(right)};
  n->left_key = std::move(left_key);
  n->right_key = std::move(right_key);
  n->predicate = std::move(residual);
  n->left_prefix = std::move(left_prefix);
  n->right_prefix = std::move(right_prefix);
  return n;
}

LogicalPtr IndexJoin(LogicalPtr outer, std::string inner_table, std::string index,
                     std::string outer_key, ExprPtr residual, std::string outer_prefix,
                     std::string inner_prefix) {
  auto n = NewNode(Kind::kJoin);
  n->method = JoinMethod::kIndexNL;
  n->children = {std::move(outer)};
  n->table = std::move(inner_table);
  n->index = std::move(index);
  n->left_key = std::move(outer_key);
  n->predicate = std::move(residual);
  n->left_prefix = std::move(outer_prefix);
  n->right_prefix = std::move(inner_prefix);
  return n;
}

LogicalPtr Sort(LogicalPtr child, std::vector<std::pair<std::string, bool>> keys) {
  auto n = NewNode(Kind::kSort);
  n->children = {std::move(child)};
  n->sort_keys = std::move(keys);
  return n;
}

LogicalPtr TopN(LogicalPtr child, std::vector<std::pair<std::string, bool>> keys,
                ExprPtr limit, ExprPtr predicate) {
  auto n = NewNode(Kind::kTopN);
  n->children = {std::move(child)};
  n->sort_keys = std::move(keys);
  n->limit = std::move(limit);
  n->predicate = std::move(predicate);
  return n;
}

LogicalPtr GroupBy(LogicalPtr child, std::vector<std::string> group_columns,
                   std::vector<std::pair<AggSpec, std::string>> aggs, ExprPtr having) {
  auto n = NewNode(Kind::kGroupBy);
  n->children = {std::move(child)};
  n->group_columns = std::move(group_columns);
  n->aggs = std::move(aggs);
  n->having = std::move(having);
  return n;
}

LogicalPtr Distinct(LogicalPtr child) {
  auto n = NewNode(Kind::kDistinct);
  n->children = {std::move(child)};
  return n;
}

LogicalPtr Project(LogicalPtr child, std::vector<std::string> columns) {
  auto n = NewNode(Kind::kProject);
  n->children = {std::move(child)};
  n->columns = std::move(columns);
  return n;
}

LogicalPtr Union(std::vector<LogicalPtr> children) {
  auto n = NewNode(Kind::kUnion);
  n->children = std::move(children);
  return n;
}

SchemaPtr ComputeSchema(const LogicalPtr& node, const Catalog& catalog) {
  switch (node->kind) {
    case Kind::kTableScan:
    case Kind::kIndexProbe:
      return catalog.MustGetTable(node->table)->schema();
    case Kind::kFilter:
    case Kind::kSort:
    case Kind::kTopN:
    case Kind::kDistinct:
      return ComputeSchema(node->children[0], catalog);
    case Kind::kUnion:
      return ComputeSchema(node->children[0], catalog);
    case Kind::kJoin: {
      const SchemaPtr left = ComputeSchema(node->children[0], catalog);
      const SchemaPtr right = node->method == JoinMethod::kIndexNL
                                  ? catalog.MustGetTable(node->table)->schema()
                                  : ComputeSchema(node->children[1], catalog);
      return Schema::Join(*left, *right, node->left_prefix, node->right_prefix);
    }
    case Kind::kGroupBy: {
      const SchemaPtr in = ComputeSchema(node->children[0], catalog);
      std::vector<Column> cols;
      for (const std::string& g : node->group_columns) {
        cols.push_back(in->column(in->ColumnIndex(g)));
      }
      for (const auto& [spec, input_name] : node->aggs) {
        ValueType t = ValueType::kDouble;
        if (spec.func == AggFunc::kCount) {
          t = ValueType::kInt;
        } else if ((spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) &&
                   !input_name.empty()) {
          t = in->column(in->ColumnIndex(input_name)).type;
        }
        cols.push_back(Column{spec.name, t});
      }
      return Schema::Make(std::move(cols));
    }
    case Kind::kProject: {
      const SchemaPtr in = ComputeSchema(node->children[0], catalog);
      std::vector<size_t> idx;
      for (const std::string& c : node->columns) idx.push_back(in->ColumnIndex(c));
      return in->Project(idx);
    }
  }
  return nullptr;
}

std::string Fingerprint(const LogicalPtr& node) {
  std::string s;
  switch (node->kind) {
    case Kind::kTableScan:
      s = "scan(" + node->table + ")";
      break;
    case Kind::kIndexProbe:
      s = "probe(" + node->table + "," + node->index + ")";
      break;
    case Kind::kFilter:
      s = "filter(" + Fingerprint(node->children[0]) + ")";
      break;
    case Kind::kJoin: {
      const char* m = node->method == JoinMethod::kHash
                          ? "hj"
                          : (node->method == JoinMethod::kQid ? "qj" : "inl");
      s = std::string(m) + "(" + Fingerprint(node->children[0]) + ",";
      if (node->method == JoinMethod::kIndexNL) {
        s += node->table + "." + node->index;
      } else {
        s += Fingerprint(node->children[1]);
      }
      s += "," + node->left_key + "," + node->right_key + ")";
      break;
    }
    case Kind::kSort: {
      s = "sort(" + Fingerprint(node->children[0]) + ",";
      for (const auto& [k, asc] : node->sort_keys) s += k + (asc ? "+" : "-");
      s += ")";
      break;
    }
    case Kind::kTopN: {
      s = "topn(" + Fingerprint(node->children[0]) + ",";
      for (const auto& [k, asc] : node->sort_keys) s += k + (asc ? "+" : "-");
      s += ")";
      break;
    }
    case Kind::kGroupBy: {
      s = "gb(" + Fingerprint(node->children[0]) + ",[";
      for (const std::string& g : node->group_columns) s += g + ";";
      s += "],[";
      for (const auto& [spec, input] : node->aggs) {
        s += std::to_string(static_cast<int>(spec.func)) + ":" + input + ":" +
             spec.name + ";";
      }
      s += "])";
      break;
    }
    case Kind::kDistinct:
      s = "distinct(" + Fingerprint(node->children[0]) + ")";
      break;
    case Kind::kProject: {
      s = "proj(" + Fingerprint(node->children[0]) + ",[";
      for (const std::string& c : node->columns) s += c + ";";
      s += "])";
      break;
    }
    case Kind::kUnion: {
      s = "union(";
      for (const LogicalPtr& c : node->children) s += Fingerprint(c) + ",";
      s += ")";
      break;
    }
  }
  if (node->share_slot != 0) {
    s += "#" + std::to_string(node->share_slot);
  }
  return s;
}

namespace {

void CollectColumnRefs(const ExprPtr& e, std::vector<size_t>* out) {
  if (e->kind() == ExprKind::kColumnRef) {
    out->push_back(e->column_index());
    return;
  }
  for (const ExprPtr& c : e->children()) CollectColumnRefs(c, out);
}

}  // namespace

void SplitJoinConjuncts(const ExprPtr& pred, size_t left_width,
                        std::vector<ExprPtr>* left_only,
                        std::vector<ExprPtr>* right_only,
                        std::vector<ExprPtr>* mixed) {
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(pred, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    std::vector<size_t> refs;
    CollectColumnRefs(c, &refs);
    bool has_left = false, has_right = false;
    for (const size_t r : refs) {
      if (r < left_width) {
        has_left = true;
      } else {
        has_right = true;
      }
    }
    if (has_left && has_right) {
      mixed->push_back(c);
    } else if (has_right) {
      // Remap to the right child's own column space.
      size_t max_ref = 0;
      for (const size_t r : refs) max_ref = r > max_ref ? r : max_ref;
      std::vector<int> mapping(max_ref + 1, -1);
      for (const size_t r : refs) mapping[r] = static_cast<int>(r - left_width);
      right_only->push_back(c->RemapColumns(mapping));
    } else {
      left_only->push_back(c);
    }
  }
}

}  // namespace logical
}  // namespace shareddb
