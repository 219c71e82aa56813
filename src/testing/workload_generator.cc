#include "testing/workload_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"
#include "testing/canonical.h"

namespace shareddb {
namespace testing {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL + 0x517cc1b727220a95ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

const char* const kStringPrefixes[] = {"al", "be", "ga", "de"};

const char* const kPatterns[] = {"al%", "be%",  "%7", "%3",  "%a%",
                                 "%e%", "a_%",  "%1", "ga5", "%z%",
                                 "_e%", "%b_%"};

std::vector<std::string> SchemaNames(const Schema& s) {
  std::vector<std::string> names;
  names.reserve(s.num_columns());
  for (const Column& c : s.columns()) names.push_back(c.name);
  return names;
}

std::vector<size_t> IntColumns(const Schema& s) {
  std::vector<size_t> out;
  for (size_t i = 0; i < s.num_columns(); ++i) {
    if (s.column(i).type == ValueType::kInt) out.push_back(i);
  }
  return out;
}

}  // namespace

RandomWorkloadGenerator::RandomWorkloadGenerator(const GeneratorOptions& opts)
    : opts_(opts) {
  Rng table_rng(SubSeed(opts_.seed, 1));
  GenerateTables(&table_rng);
  scratch_catalog_ = BuildCatalog();
  Rng query_rng(SubSeed(opts_.seed, 2));
  GenerateQueryTemplates(&query_rng);
  Rng update_rng(SubSeed(opts_.seed, 3));
  GenerateUpdateTemplates(&update_rng);
}

// --- schema + data -----------------------------------------------------------

void RandomWorkloadGenerator::GenerateTables(Rng* rng) {
  const size_t num_tables = static_cast<size_t>(
      rng->Uniform(static_cast<int64_t>(opts_.min_tables),
                   static_cast<int64_t>(opts_.max_tables)));
  static const size_t kSegs[] = {7, 32, 64, 256};
  for (size_t t = 0; t < num_tables; ++t) {
    TableSpec spec;
    spec.name = "t" + std::to_string(t);
    spec.rows = static_cast<size_t>(
        rng->Uniform(static_cast<int64_t>(opts_.min_rows),
                     static_cast<int64_t>(opts_.max_rows)));
    spec.rows_per_segment = kSegs[rng->Uniform(0, 3)];

    ColumnSpec id;
    id.name = "id";
    id.type = ValueType::kInt;
    id.is_id = true;
    spec.cols.push_back(id);

    // Foreign key into some table's id range (dangling values included).
    ColumnSpec fk;
    fk.name = "fk";
    fk.type = ValueType::kInt;
    fk.int_hi = static_cast<int64_t>(opts_.max_rows);
    fk.null_p = 0.08;
    spec.cols.push_back(fk);

    const size_t extra = static_cast<size_t>(rng->Uniform(1, 3));
    static const int64_t kDomains[] = {3, 10, 100};
    for (size_t c = 0; c < extra; ++c) {
      ColumnSpec col;
      switch (rng->Uniform(0, 2)) {
        case 0:
          col.name = "k" + std::to_string(c);
          col.type = ValueType::kInt;
          col.int_hi = kDomains[rng->Uniform(0, 2)];
          col.null_p = 0.1;
          break;
        case 1:
          col.name = "d" + std::to_string(c);
          col.type = ValueType::kDouble;
          col.null_p = 0.1;
          col.nan_p = 0.05;
          break;
        default:
          col.name = "s" + std::to_string(c);
          col.type = ValueType::kString;
          col.null_p = 0.08;
          break;
      }
      spec.cols.push_back(col);
    }

    spec.indexes.emplace_back("idx_" + spec.name + "_id", 0);
    if (rng->Bernoulli(0.5)) {
      const size_t col = static_cast<size_t>(
          rng->Uniform(1, static_cast<int64_t>(spec.cols.size() - 1)));
      spec.indexes.emplace_back("idx_" + spec.name + "_" + spec.cols[col].name,
                                col);
    }
    tables_.push_back(std::move(spec));
  }
}

Value RandomWorkloadGenerator::DrawColumnValue(const ColumnSpec& col,
                                               Rng* rng) const {
  if (col.null_p > 0 && rng->Bernoulli(col.null_p)) return Value::Null();
  switch (col.type) {
    case ValueType::kInt:
      // Skew: a hot value absorbs a quarter of the rows.
      if (rng->Bernoulli(0.25)) return Value::Int(0);
      return Value::Int(rng->Uniform(0, col.int_hi > 0 ? col.int_hi : 1));
    case ValueType::kDouble:
      if (col.nan_p > 0 && rng->Bernoulli(col.nan_p)) {
        return Value::Double(std::nan(""));
      }
      return Value::Double(static_cast<double>(rng->Uniform(0, 48)) * 0.25);
    case ValueType::kString:
      return Value::Str(PoolString(rng));
    default:
      return Value::Null();
  }
}

std::string RandomWorkloadGenerator::PoolString(Rng* rng) const {
  std::string s = kStringPrefixes[rng->Uniform(0, 3)];
  s += std::to_string(rng->Uniform(0, 11));
  if (rng->Bernoulli(0.2)) s.push_back(static_cast<char>('a' + rng->Uniform(0, 4)));
  return s;
}

std::string RandomWorkloadGenerator::PoolPattern(Rng* rng) const {
  return kPatterns[rng->Uniform(
      0, static_cast<int64_t>(sizeof(kPatterns) / sizeof(kPatterns[0])) - 1)];
}

std::unique_ptr<Catalog> RandomWorkloadGenerator::BuildCatalog() const {
  auto catalog = std::make_unique<Catalog>();
  for (size_t t = 0; t < tables_.size(); ++t) {
    const TableSpec& spec = tables_[t];
    std::vector<Column> cols;
    for (const ColumnSpec& c : spec.cols) cols.push_back({c.name, c.type});
    Table* table = catalog->CreateTable(spec.name, Schema::Make(std::move(cols)));
    table->set_rows_per_segment(spec.rows_per_segment);
    Rng rng(SubSeed(opts_.seed, 100 + t));
    for (size_t r = 0; r < spec.rows; ++r) {
      std::vector<Value> row;
      row.reserve(spec.cols.size());
      for (const ColumnSpec& c : spec.cols) {
        row.push_back(c.is_id ? Value::Int(static_cast<int64_t>(r))
                              : DrawColumnValue(c, &rng));
      }
      table->Insert(Tuple(std::move(row)), 1);
    }
    for (const auto& [name, col] : spec.indexes) {
      table->CreateIndex(name, spec.cols[col].name);
    }
  }
  catalog->snapshots().Reset(1);
  return catalog;
}

// --- predicates --------------------------------------------------------------

ExprPtr RandomWorkloadGenerator::RandomOperand(
    ValueType type, Rng* rng, std::vector<ParamSpec>* params) const {
  if (rng->Bernoulli(0.5)) {
    ParamSpec spec;
    switch (type) {
      case ValueType::kDouble: spec.domain = ParamSpec::Domain::kDouble; break;
      case ValueType::kString: spec.domain = ParamSpec::Domain::kString; break;
      default: spec.domain = ParamSpec::Domain::kInt; break;
    }
    params->push_back(spec);
    return Expr::Param(params->size() - 1);
  }
  switch (type) {
    case ValueType::kInt:
      // Cross-type numeric compare coverage: sometimes a double literal.
      if (rng->Bernoulli(0.15)) {
        return Expr::Literal(
            Value::Double(static_cast<double>(rng->Uniform(0, 130))));
      }
      return Expr::Literal(Value::Int(rng->Uniform(-4, 130)));
    case ValueType::kDouble:
      if (rng->Bernoulli(0.08)) return Expr::Literal(Value::Double(std::nan("")));
      if (rng->Bernoulli(0.05)) return Expr::Literal(Value::Null());
      return Expr::Literal(
          Value::Double(static_cast<double>(rng->Uniform(0, 48)) * 0.25));
    case ValueType::kString:
      return Expr::Literal(Value::Str(PoolString(rng)));
    default:
      return Expr::Literal(Value::Null());
  }
}

ExprPtr RandomWorkloadGenerator::RandomAtom(
    const Schema& schema, size_t col, Rng* rng,
    std::vector<ParamSpec>* params) const {
  const ValueType type = schema.column(col).type;
  const ExprPtr c = Expr::Column(col);
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                                   CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const auto cmp = [&] {
    return Expr::Compare(kOps[rng->Uniform(0, 5)], c,
                         RandomOperand(type, rng, params));
  };
  const int64_t roll = rng->Uniform(0, 9);
  if (type == ValueType::kString) {
    switch (roll) {
      case 0: case 1: case 2:
        return cmp();
      case 3: case 4: {
        return Expr::Like(c, PoolPattern(rng), rng->Bernoulli(0.25));
      }
      case 5: {
        ParamSpec spec;
        spec.domain = ParamSpec::Domain::kPattern;
        params->push_back(spec);
        return Expr::LikeParam(c, params->size() - 1, rng->Bernoulli(0.25));
      }
      case 6: case 7: {
        std::vector<ExprPtr> elems;
        const int64_t n = rng->Uniform(2, 4);
        for (int64_t i = 0; i < n; ++i) {
          elems.push_back(RandomOperand(type, rng, params));
        }
        return Expr::In(c, std::move(elems));
      }
      case 8:
        return Expr::IsNull(c);
      default:
        return Expr::Not(cmp());
    }
  }
  switch (roll) {
    case 0: case 1: case 2: case 3:
      return cmp();
    case 4: case 5:
      return Expr::Between(c, RandomOperand(type, rng, params),
                           RandomOperand(type, rng, params));
    case 6: case 7: {
      std::vector<ExprPtr> elems;
      const int64_t n = rng->Uniform(2, 5);
      for (int64_t i = 0; i < n; ++i) {
        if (rng->Bernoulli(0.08)) {
          elems.push_back(Expr::Literal(Value::Null()));
        } else {
          elems.push_back(RandomOperand(type, rng, params));
        }
      }
      return Expr::In(c, std::move(elems));
    }
    case 8:
      return Expr::IsNull(c);
    default:
      return rng->Bernoulli(0.5) ? Expr::Or({cmp(), cmp()}) : Expr::Not(cmp());
  }
}

ExprPtr RandomWorkloadGenerator::RandomPredicate(
    const Schema& schema, Rng* rng, std::vector<ParamSpec>* params) const {
  const size_t ncols = schema.num_columns();
  SDB_CHECK(ncols > 0);
  size_t n = 1;
  if (rng->Bernoulli(0.5)) ++n;
  if (rng->Bernoulli(0.25)) ++n;
  std::vector<ExprPtr> atoms;
  for (size_t i = 0; i < n; ++i) {
    const size_t col =
        static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(ncols) - 1));
    atoms.push_back(RandomAtom(schema, col, rng, params));
  }
  ExprPtr pred = atoms.size() == 1 ? atoms[0] : Expr::And(std::move(atoms));
  if (rng->Bernoulli(0.08)) pred = Expr::Not(pred);
  return pred;
}

ExprPtr RandomWorkloadGenerator::AnchorAtom(
    const Schema& schema, size_t col, Rng* rng,
    std::vector<ParamSpec>* params) const {
  const ValueType type = schema.column(col).type;
  const ExprPtr c = Expr::Column(col);
  const int64_t roll = rng->Uniform(0, 9);
  if (type == ValueType::kString && roll >= 8) {
    // Anchored LIKE prefix: range-extractable on the indexed column.
    return Expr::Like(c, std::string(kStringPrefixes[rng->Uniform(0, 3)]) + "%");
  }
  if (roll <= 4) {
    return Expr::Eq(c, RandomOperand(type, rng, params));
  }
  if (roll <= 6) {
    std::vector<ExprPtr> elems;
    const int64_t n = rng->Uniform(2, 4);
    for (int64_t i = 0; i < n; ++i) {
      elems.push_back(RandomOperand(type, rng, params));
    }
    return Expr::In(c, std::move(elems));
  }
  if (rng->Bernoulli(0.5)) {
    return Expr::Between(c, RandomOperand(type, rng, params),
                         RandomOperand(type, rng, params));
  }
  return Expr::Compare(rng->Bernoulli(0.5) ? CompareOp::kGe : CompareOp::kLt, c,
                       RandomOperand(type, rng, params));
}

// --- query templates ---------------------------------------------------------

void RandomWorkloadGenerator::GenerateQueryTemplates(Rng* rng) {
  const size_t count = static_cast<size_t>(
      rng->Uniform(static_cast<int64_t>(opts_.min_query_templates),
                   static_cast<int64_t>(opts_.max_query_templates)));
  const Catalog& cat = *scratch_catalog_;

  for (size_t qi = 0; qi < count; ++qi) {
    QueryTemplateInfo info;
    info.name = "q" + std::to_string(qi);
    logical::LogicalPtr root;
    std::vector<std::string> identity;  // unique-key columns of the current rows

    const size_t ti = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(tables_.size()) - 1));
    const TableSpec& a = tables_[ti];
    const SchemaPtr a_schema = cat.MustGetTable(a.name)->schema();

    const int64_t base_roll = rng->Uniform(0, 99);
    if (base_roll < 45) {
      // Plain shared scan.
      ExprPtr pred = rng->Bernoulli(0.7)
                         ? RandomPredicate(*a_schema, rng, &info.params)
                         : nullptr;
      root = logical::Scan(a.name, std::move(pred));
      identity = {"id"};
      info.uses_table_scan = true;
    } else if (base_roll < 55) {
      // Shared index probe; usually anchored on the indexed column, but the
      // degenerate (unanchored) path stays reachable.
      const auto& [idx_name, idx_col] =
          a.indexes[rng->Uniform(0, static_cast<int64_t>(a.indexes.size()) - 1)];
      ExprPtr pred;
      const int64_t p = rng->Uniform(0, 9);
      if (p < 7) {
        pred = AnchorAtom(*a_schema, idx_col, rng, &info.params);
        if (rng->Bernoulli(0.5)) {
          const size_t other = static_cast<size_t>(
              rng->Uniform(0, static_cast<int64_t>(a_schema->num_columns()) - 1));
          pred = Expr::And({pred, RandomAtom(*a_schema, other, rng, &info.params)});
        }
      } else if (p < 9) {
        pred = RandomPredicate(*a_schema, rng, &info.params);
      }
      root = logical::Probe(a.name, idx_name, std::move(pred));
      identity = {"id"};
    } else if (base_roll < 90) {
      // Join: hash / qid / index nested loops, self-joins included.
      const size_t tj = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(tables_.size()) - 1));
      const TableSpec& b = tables_[tj];
      const SchemaPtr b_schema = cat.MustGetTable(b.name)->schema();
      const std::vector<size_t> a_ints = IntColumns(*a_schema);
      const std::vector<size_t> b_ints = IntColumns(*b_schema);
      const std::string left_key =
          a_schema->column(a_ints[rng->Uniform(0, static_cast<int64_t>(a_ints.size()) - 1)])
              .name;
      ExprPtr left_pred = rng->Bernoulli(0.6)
                              ? RandomPredicate(*a_schema, rng, &info.params)
                              : nullptr;
      logical::LogicalPtr left = logical::Scan(a.name, std::move(left_pred));

      const int64_t method = rng->Uniform(0, 9);
      if (method < 3) {
        // Index nested loops into b via its id index.
        root = logical::IndexJoin(left, b.name, "idx_" + b.name + "_id", left_key,
                                  nullptr, "l", "r");
      } else {
        const std::string right_key =
            b_schema
                ->column(b_ints[rng->Uniform(0, static_cast<int64_t>(b_ints.size()) - 1)])
                .name;
        ExprPtr right_pred = rng->Bernoulli(0.6)
                                 ? RandomPredicate(*b_schema, rng, &info.params)
                                 : nullptr;
        logical::LogicalPtr right =
            logical::Scan(b.name, std::move(right_pred), ti == tj ? 1 : 0);
        if (method < 8) {
          root = logical::HashJoin(left, right, left_key, right_key, nullptr, "l",
                                   "r");
          (void)rng->Bernoulli(0.5);  // unused draw: keeps every seed's workload
        } else {
          root = logical::QidJoin(left, right, left_key, right_key, nullptr, "l",
                                  "r");
        }
      }
      // Per-query residual over the joined schema.
      if (rng->Bernoulli(0.35)) {
        const SchemaPtr joined = logical::ComputeSchema(root, cat);
        auto node = std::make_shared<logical::LogicalNode>(*root);
        node->predicate = RandomPredicate(*joined, rng, &info.params);
        root = node;
      }
      identity = {"l.id", "r.id"};
      info.uses_table_scan = true;
    } else {
      // Bag union of two differently-predicated legs over one table.
      ExprPtr pa = RandomPredicate(*a_schema, rng, &info.params);
      ExprPtr pb = RandomPredicate(*a_schema, rng, &info.params);
      root = logical::Union({logical::Scan(a.name, std::move(pa), 0),
                             logical::Scan(a.name, std::move(pb), 1)});
      identity = {"id"};
      info.uses_table_scan = true;
    }

    // Optional mid-plan filter.
    if (rng->Bernoulli(0.3)) {
      const SchemaPtr cur = logical::ComputeSchema(root, cat);
      root = logical::Filter(root, RandomPredicate(*cur, rng, &info.params));
    }

    // Optional aggregation stage.
    const int64_t agg_roll = rng->Uniform(0, 99);
    if (agg_roll < 28) {
      const SchemaPtr cur = logical::ComputeSchema(root, cat);
      const size_t ncols = cur->num_columns();
      std::vector<std::string> groups;
      const size_t ngroups = rng->Bernoulli(0.4) && ncols > 1 ? 2 : 1;
      while (groups.size() < ngroups) {
        const std::string g =
            cur->column(static_cast<size_t>(
                            rng->Uniform(0, static_cast<int64_t>(ncols) - 1)))
                .name;
        if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
          groups.push_back(g);
        }
      }
      const std::vector<size_t> int_cols = IntColumns(*cur);
      std::vector<std::pair<AggSpec, std::string>> aggs;
      const size_t naggs = static_cast<size_t>(rng->Uniform(1, 3));
      for (size_t ai = 0; ai < naggs; ++ai) {
        AggSpec spec;
        spec.name = "a" + std::to_string(ai);
        std::string input;
        switch (rng->Uniform(0, 4)) {
          case 0:
            spec.func = AggFunc::kCount;
            break;
          case 1:
          case 2:
            // SUM/AVG only over int inputs: double accumulation order
            // differs between engines, int sums are exact (< 2^53).
            if (int_cols.empty()) {
              spec.func = AggFunc::kCount;
            } else {
              spec.func = rng->Bernoulli(0.5) ? AggFunc::kSum : AggFunc::kAvg;
              input = cur->column(int_cols[rng->Uniform(
                                      0, static_cast<int64_t>(int_cols.size()) - 1)])
                          .name;
            }
            break;
          default:
            spec.func = rng->Bernoulli(0.5) ? AggFunc::kMin : AggFunc::kMax;
            input = cur->column(static_cast<size_t>(
                                    rng->Uniform(0, static_cast<int64_t>(ncols) - 1)))
                        .name;
            break;
        }
        aggs.emplace_back(spec, std::move(input));
      }
      ExprPtr having;
      logical::LogicalPtr gb = logical::GroupBy(root, groups, aggs, nullptr);
      if (rng->Bernoulli(0.25)) {
        const SchemaPtr out = logical::ComputeSchema(gb, cat);
        const size_t hc = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(out->num_columns()) - 1));
        having = Expr::Compare(
            rng->Bernoulli(0.5) ? CompareOp::kGe : CompareOp::kLt,
            Expr::Column(hc), RandomOperand(out->column(hc).type, rng, &info.params));
        gb = logical::GroupBy(root, groups, aggs, std::move(having));
      }
      root = gb;
      identity = groups;
    } else if (agg_roll < 45) {
      root = logical::Distinct(root);
      identity = SchemaNames(*logical::ComputeSchema(root, cat));
    }

    // Optional ordering stage (after an optional projection that must keep
    // the identity columns so TopN's tiebreak stays a total order).
    const int64_t order_roll = rng->Uniform(0, 99);
    const bool want_order = order_roll < 60;
    if (rng->Bernoulli(0.25)) {
      const SchemaPtr cur = logical::ComputeSchema(root, cat);
      std::vector<std::string> all = SchemaNames(*cur);
      std::vector<std::string> keep;
      for (const std::string& name : all) {
        if (rng->Bernoulli(0.55)) keep.push_back(name);
      }
      if (want_order) {
        for (const std::string& idc : identity) {
          if (std::find(keep.begin(), keep.end(), idc) == keep.end()) {
            keep.push_back(idc);
          }
        }
      }
      if (keep.empty()) keep.push_back(all[0]);
      root = logical::Project(root, keep);
    }
    if (want_order) {
      const SchemaPtr cur = logical::ComputeSchema(root, cat);
      const size_t ncols = cur->num_columns();
      std::vector<std::pair<std::string, bool>> keys;
      const size_t nkeys = rng->Bernoulli(0.4) && ncols > 1 ? 2 : 1;
      while (keys.size() < nkeys) {
        const std::string k =
            cur->column(static_cast<size_t>(
                            rng->Uniform(0, static_cast<int64_t>(ncols) - 1)))
                .name;
        bool dup = false;
        for (const auto& [name, asc] : keys) dup |= name == k;
        if (!dup) keys.emplace_back(k, rng->Bernoulli(0.6));
      }
      if (order_roll < 30) {
        root = logical::Sort(root, keys);
      } else {
        // TopN: extend the keys to a total order with the identity columns
        // (only identity columns that survived projection are usable; with
        // an aggressive projection the identity may be gone — then skip the
        // tiebreak and rely on ties being identical tuples).
        for (const std::string& idc : identity) {
          bool dup = false;
          for (const auto& [name, asc] : keys) dup |= name == idc;
          if (!dup && cur->FindColumn(idc) >= 0) keys.emplace_back(idc, true);
        }
        ExprPtr limit;
        if (rng->Bernoulli(0.4)) {
          ParamSpec spec;
          spec.domain = ParamSpec::Domain::kLimit;
          info.params.push_back(spec);
          limit = Expr::Param(info.params.size() - 1);
        } else {
          limit = Expr::Literal(Value::Int(rng->Uniform(0, 18)));
        }
        ExprPtr topn_pred = rng->Bernoulli(0.2)
                                ? RandomPredicate(*cur, rng, &info.params)
                                : nullptr;
        root = logical::TopN(root, keys, std::move(limit), std::move(topn_pred));
      }
      info.order_keys = keys;
    }

    info.root = root;
    info.result_schema = logical::ComputeSchema(root, cat);
    queries_.push_back(std::move(info));
  }
}

// --- update templates --------------------------------------------------------

void RandomWorkloadGenerator::GenerateUpdateTemplates(Rng* rng) {
  const size_t count = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(opts_.max_update_templates)));
  for (size_t ui = 0; ui < count; ++ui) {
    UpdateTemplateInfo info;
    info.name = "u" + std::to_string(ui);
    const size_t ti = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(tables_.size()) - 1));
    const TableSpec& t = tables_[ti];
    info.table = t.name;

    const auto int_param = [&] {
      ParamSpec spec;
      spec.domain = ParamSpec::Domain::kInt;
      info.params.push_back(spec);
      return Expr::Param(info.params.size() - 1);
    };
    const auto row_value = [&](size_t col) -> ExprPtr {
      if (rng->Bernoulli(0.3)) {
        Rng lit_rng(rng->Next());
        return Expr::Literal(DrawColumnValue(t.cols[col], &lit_rng));
      }
      ParamSpec spec;
      spec.domain = ParamSpec::Domain::kRowValue;
      spec.table = ti;
      spec.column = col;
      info.params.push_back(spec);
      return Expr::Param(info.params.size() - 1);
    };

    const int64_t kind_roll = rng->Uniform(0, 99);
    if (kind_roll < 35) {
      info.kind = UpdateKind::kInsert;
      for (size_t c = 0; c < t.cols.size(); ++c) {
        if (t.cols[c].is_id) {
          ParamSpec spec;
          spec.domain = ParamSpec::Domain::kInsertId;
          info.params.push_back(spec);
          info.row_values.push_back(Expr::Param(info.params.size() - 1));
        } else {
          info.row_values.push_back(row_value(c));
        }
      }
    } else if (kind_roll < 75) {
      info.kind = UpdateKind::kUpdate;
      const size_t nsets =
          t.cols.size() > 2 && rng->Bernoulli(0.4) ? 2 : 1;
      std::vector<size_t> set_cols;
      while (set_cols.size() < nsets) {
        const size_t c = static_cast<size_t>(
            rng->Uniform(1, static_cast<int64_t>(t.cols.size()) - 1));
        if (std::find(set_cols.begin(), set_cols.end(), c) == set_cols.end()) {
          set_cols.push_back(c);
        }
      }
      for (const size_t c : set_cols) {
        ExprPtr value;
        if (t.cols[c].type == ValueType::kInt && rng->Bernoulli(0.5)) {
          // Read-modify-write: col := col + delta.
          ParamSpec spec;
          spec.domain = ParamSpec::Domain::kDelta;
          info.params.push_back(spec);
          value = Expr::Add(Expr::Column(c), Expr::Param(info.params.size() - 1));
        } else {
          value = row_value(c);
        }
        info.sets.emplace_back(t.cols[c].name, std::move(value));
      }
      const int64_t where_roll = rng->Uniform(0, 9);
      if (where_roll < 5) {
        info.where = Expr::Eq(Expr::Column(0), int_param());
      } else if (where_roll < 8) {
        const std::vector<size_t> ints = [&] {
          std::vector<size_t> out;
          for (size_t c = 0; c < t.cols.size(); ++c) {
            if (t.cols[c].type == ValueType::kInt) out.push_back(c);
          }
          return out;
        }();
        const size_t c = ints[rng->Uniform(0, static_cast<int64_t>(ints.size()) - 1)];
        info.where = Expr::Eq(Expr::Column(c), int_param());
      } else {
        info.where = Expr::Between(Expr::Column(0), int_param(), int_param());
      }
    } else {
      info.kind = UpdateKind::kDelete;
      if (rng->Bernoulli(0.7)) {
        info.where = Expr::Eq(Expr::Column(0), int_param());
      } else {
        const std::vector<size_t> ints = [&] {
          std::vector<size_t> out;
          for (size_t c = 0; c < t.cols.size(); ++c) {
            if (t.cols[c].type == ValueType::kInt) out.push_back(c);
          }
          return out;
        }();
        const size_t c = ints[rng->Uniform(0, static_cast<int64_t>(ints.size()) - 1)];
        info.where = Expr::Eq(Expr::Column(c), int_param());
      }
    }
    updates_.push_back(std::move(info));
  }
}

// --- registration ------------------------------------------------------------

void RandomWorkloadGenerator::RegisterShared(GlobalPlanBuilder* b) const {
  for (const QueryTemplateInfo& q : queries_) b->AddQuery(q.name, q.root);
  for (const UpdateTemplateInfo& u : updates_) {
    switch (u.kind) {
      case UpdateKind::kInsert:
        b->AddInsert(u.name, u.table, u.row_values);
        break;
      case UpdateKind::kUpdate:
        b->AddUpdate(u.name, u.table, u.sets, u.where);
        break;
      case UpdateKind::kDelete:
        b->AddDelete(u.name, u.table, u.where);
        break;
    }
  }
}

void RandomWorkloadGenerator::RegisterBaseline(baseline::BaselineEngine* e) const {
  for (const QueryTemplateInfo& q : queries_) e->AddQuery(q.name, q.root);
  for (const UpdateTemplateInfo& u : updates_) {
    switch (u.kind) {
      case UpdateKind::kInsert:
        e->AddInsert(u.name, u.table, u.row_values);
        break;
      case UpdateKind::kUpdate:
        e->AddUpdate(u.name, u.table, u.sets, u.where);
        break;
      case UpdateKind::kDelete:
        e->AddDelete(u.name, u.table, u.where);
        break;
    }
  }
}

const QueryTemplateInfo* RandomWorkloadGenerator::FindQueryTemplate(
    const std::string& name) const {
  for (const QueryTemplateInfo& q : queries_) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

// --- call drawing ------------------------------------------------------------

std::vector<Value> RandomWorkloadGenerator::DrawParams(
    const std::vector<ParamSpec>& specs, Rng* rng,
    uint64_t* insert_id_counter) const {
  std::vector<Value> out;
  out.reserve(specs.size());
  for (const ParamSpec& spec : specs) {
    switch (spec.domain) {
      case ParamSpec::Domain::kInt:
        if (rng->Bernoulli(0.04)) {
          out.push_back(Value::Null());
        } else {
          out.push_back(Value::Int(rng->Uniform(-4, 130)));
        }
        break;
      case ParamSpec::Domain::kDouble:
        if (rng->Bernoulli(0.05)) {
          out.push_back(Value::Null());
        } else if (rng->Bernoulli(0.08)) {
          out.push_back(Value::Double(std::nan("")));
        } else {
          out.push_back(
              Value::Double(static_cast<double>(rng->Uniform(0, 48)) * 0.25));
        }
        break;
      case ParamSpec::Domain::kString:
        if (rng->Bernoulli(0.04)) {
          out.push_back(Value::Null());
        } else {
          out.push_back(Value::Str(PoolString(rng)));
        }
        break;
      case ParamSpec::Domain::kPattern:
        out.push_back(Value::Str(PoolPattern(rng)));
        break;
      case ParamSpec::Domain::kLimit:
        out.push_back(Value::Int(rng->Uniform(0, 15)));
        break;
      case ParamSpec::Domain::kDelta:
        out.push_back(Value::Int(rng->Uniform(-3, 5)));
        break;
      case ParamSpec::Domain::kInsertId:
        SDB_CHECK(insert_id_counter != nullptr);
        out.push_back(Value::Int(static_cast<int64_t>(100000 + (*insert_id_counter)++)));
        break;
      case ParamSpec::Domain::kRowValue:
        out.push_back(DrawColumnValue(tables_[spec.table].cols[spec.column], rng));
        break;
    }
  }
  return out;
}

StatementCall RandomWorkloadGenerator::MakeQueryCall(Rng* rng) const {
  SDB_CHECK(!queries_.empty());
  const QueryTemplateInfo& q = queries_[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(queries_.size()) - 1))];
  return {q.name, DrawParams(q.params, rng, nullptr), false};
}

StatementCall RandomWorkloadGenerator::MakeUpdateCall(
    Rng* rng, uint64_t* insert_id_counter) const {
  SDB_CHECK(!updates_.empty());
  const UpdateTemplateInfo& u = updates_[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(updates_.size()) - 1))];
  return {u.name, DrawParams(u.params, rng, insert_id_counter), true};
}

// --- debugging ---------------------------------------------------------------

namespace {

void DumpLogical(const logical::LogicalPtr& node, int depth, std::string* out) {
  static const char* const kKinds[] = {"Scan",    "Probe",  "Filter", "Join",
                                       "Sort",    "TopN",   "GroupBy", "Distinct",
                                       "Project", "Union"};
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += kKinds[static_cast<int>(node->kind)];
  if (!node->table.empty()) *out += " " + node->table;
  if (!node->index.empty()) *out += " idx=" + node->index;
  if (node->kind == logical::Kind::kJoin) {
    *out += std::string(" method=") +
            (node->method == logical::JoinMethod::kHash
                 ? "hash"
                 : node->method == logical::JoinMethod::kQid ? "qid" : "inl") +
            " " + node->left_key + "=" + node->right_key;
  }
  if (!node->sort_keys.empty()) {
    *out += " keys=";
    for (const auto& [k, asc] : node->sort_keys) *out += k + (asc ? "+" : "-");
  }
  for (const std::string& g : node->group_columns) *out += " g:" + g;
  for (const auto& [spec, input] : node->aggs) {
    *out += " agg:" + spec.name + ":" + std::to_string(static_cast<int>(spec.func)) +
            "(" + input + ")";
  }
  for (const std::string& c : node->columns) *out += " p:" + c;
  if (node->predicate != nullptr) *out += " pred=" + node->predicate->ToString();
  if (node->having != nullptr) *out += " having=" + node->having->ToString();
  if (node->limit != nullptr) *out += " limit=" + node->limit->ToString();
  if (node->share_slot != 0) *out += " slot=" + std::to_string(node->share_slot);
  *out += "\n";
  for (const logical::LogicalPtr& c : node->children) {
    DumpLogical(c, depth + 1, out);
  }
}

}  // namespace

std::string RandomWorkloadGenerator::Dump() const {
  std::string out;
  for (const TableSpec& t : tables_) {
    out += "table " + t.name + " rows=" + std::to_string(t.rows) +
           " seg=" + std::to_string(t.rows_per_segment) + " [";
    for (const ColumnSpec& c : t.cols) {
      out += c.name + ":" + ValueTypeName(c.type) + " ";
    }
    out += "]";
    for (const auto& [name, col] : t.indexes) {
      out += " " + name + "(" + t.cols[col].name + ")";
    }
    out += "\n";
  }
  for (const QueryTemplateInfo& q : queries_) {
    out += q.name + " (params=" + std::to_string(q.params.size()) + "):\n";
    DumpLogical(q.root, 1, &out);
  }
  for (const UpdateTemplateInfo& u : updates_) {
    out += u.name + ": " +
           (u.kind == UpdateKind::kInsert
                ? "INSERT"
                : u.kind == UpdateKind::kUpdate ? "UPDATE" : "DELETE") +
           " " + u.table;
    if (u.where != nullptr) out += " where=" + u.where->ToString();
    for (const auto& [col, e] : u.sets) out += " set " + col + "=" + e->ToString();
    out += "\n";
  }
  return out;
}

// --- artifact serialization --------------------------------------------------

std::string RandomWorkloadGenerator::ParamsToString(
    const std::vector<Value>& params) {
  std::vector<std::string> parts;
  parts.reserve(params.size());
  for (const Value& v : params) parts.push_back(CanonicalValue(v));
  return JoinStrings(parts, " | ");
}

bool RandomWorkloadGenerator::ParseParams(const std::string& s,
                                          std::vector<Value>* out) {
  out->clear();
  if (s.empty()) return true;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t end = s.find(" | ", pos);
    const std::string tok =
        s.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    if (tok == "NULL") {
      out->push_back(Value::Null());
    } else if (StartsWith(tok, "I:")) {
      out->push_back(Value::Int(std::strtoll(tok.c_str() + 2, nullptr, 10)));
    } else if (tok == "D:NaN") {
      out->push_back(Value::Double(std::nan("")));
    } else if (StartsWith(tok, "D:")) {
      out->push_back(Value::Double(std::strtod(tok.c_str() + 2, nullptr)));
    } else if (StartsWith(tok, "S:'") && EndsWith(tok, "'") && tok.size() >= 4) {
      out->push_back(Value::Str(tok.substr(3, tok.size() - 4)));
    } else {
      return false;
    }
    if (end == std::string::npos) break;
    pos = end + 3;
  }
  return true;
}

}  // namespace testing
}  // namespace shareddb
