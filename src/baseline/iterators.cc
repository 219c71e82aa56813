#include "baseline/iterators.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace shareddb {
namespace baseline {

namespace {
const std::vector<Value> kNoParams;
}  // namespace

std::vector<Tuple> DrainIterator(Iterator* it) {
  std::vector<Tuple> out;
  it->Open();
  Tuple t;
  while (it->Next(&t)) out.push_back(t);
  return out;
}

// --- SeqScan -----------------------------------------------------------------

SeqScanIterator::SeqScanIterator(const Table* table, Version snapshot,
                                 ExprPtr predicate, WorkStats* stats)
    : table_(table), snapshot_(snapshot), predicate_(std::move(predicate)),
      stats_(stats), schema_(table->schema()) {}

void SeqScanIterator::Open() {
  table_->ScanVisible(snapshot_, [&](RowId, const Tuple& t) {
    ++stats_->rows_scanned;
    if (predicate_ != nullptr) {
      ++stats_->predicate_evals;
      if (!predicate_->EvalBool(t, kNoParams)) return true;
    }
    rows_.push_back(t);
    return true;
  });
}

bool SeqScanIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- IndexScan ---------------------------------------------------------------

IndexScanIterator::IndexScanIterator(const Table* table, std::string index_name,
                                     Version snapshot, std::optional<Value> eq,
                                     std::optional<RangeConstraint> range,
                                     ExprPtr residual, WorkStats* stats)
    : table_(table), index_name_(std::move(index_name)), snapshot_(snapshot),
      eq_(std::move(eq)), range_(std::move(range)), residual_(std::move(residual)),
      stats_(stats), schema_(table->schema()) {}

void IndexScanIterator::Open() {
  auto keep = [&](const Tuple& t) {
    if (residual_ != nullptr) {
      ++stats_->predicate_evals;
      if (!residual_->EvalBool(t, kNoParams)) return;
    }
    rows_.push_back(t);
  };
  ++stats_->index_lookups;
  if (eq_.has_value()) {
    std::vector<RowId> ids;
    table_->IndexLookup(index_name_, *eq_, snapshot_, &ids);
    for (const RowId id : ids) {
      ++stats_->rows_scanned;
      keep(table_->GetRow(id).data);
    }
  } else {
    SDB_CHECK(range_.has_value());
    table_->IndexRange(index_name_, range_->lo, range_->lo_inclusive, range_->hi,
                       range_->hi_inclusive, snapshot_, [&](RowId, const Tuple& t) {
                         ++stats_->rows_scanned;
                         keep(t);
                         return true;
                       });
  }
}

bool IndexScanIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- HashJoin ----------------------------------------------------------------

HashJoinIterator::HashJoinIterator(IteratorPtr left, IteratorPtr right,
                                   size_t left_key, size_t right_key, ExprPtr residual,
                                   const std::string& left_prefix,
                                   const std::string& right_prefix, WorkStats* stats)
    : left_(std::move(left)), right_(std::move(right)), left_key_(left_key),
      right_key_(right_key), residual_(std::move(residual)), stats_(stats) {
  schema_ = Schema::Join(*left_->schema(), *right_->schema(), left_prefix,
                         right_prefix);
}

void HashJoinIterator::Open() {
  left_->Open();
  Tuple t;
  while (left_->Next(&t)) {
    const Value& k = t[left_key_];
    if (k.is_null()) continue;
    hash_[k.Hash()].push_back(t);
    ++stats_->hash_builds;
  }
  right_->Open();
}

bool HashJoinIterator::Next(Tuple* out) {
  while (true) {
    if (probe_valid_ && matches_ != nullptr && match_pos_ < matches_->size()) {
      const Tuple& build_row = (*matches_)[match_pos_++];
      if (build_row[left_key_].Compare(probe_[right_key_]) != 0) continue;
      Tuple joined = ConcatTuples(build_row, probe_);
      if (residual_ != nullptr) {
        ++stats_->predicate_evals;
        if (!residual_->EvalBool(joined, kNoParams)) continue;
      }
      ++stats_->tuples_out;
      *out = std::move(joined);
      return true;
    }
    // Advance the probe side.
    if (!right_->Next(&probe_)) return false;
    probe_valid_ = true;
    ++stats_->hash_probes;
    const Value& k = probe_[right_key_];
    matches_ = nullptr;
    match_pos_ = 0;
    if (k.is_null()) continue;
    const auto it = hash_.find(k.Hash());
    if (it != hash_.end()) matches_ = &it->second;
  }
}

// --- IndexNLJoin -------------------------------------------------------------

IndexNLJoinIterator::IndexNLJoinIterator(IteratorPtr outer, const Table* inner,
                                         std::string index_name, size_t outer_key,
                                         Version snapshot, ExprPtr residual,
                                         const std::string& outer_prefix,
                                         const std::string& inner_prefix,
                                         WorkStats* stats)
    : outer_(std::move(outer)), inner_(inner), index_name_(std::move(index_name)),
      outer_key_(outer_key), snapshot_(snapshot), residual_(std::move(residual)),
      stats_(stats) {
  schema_ = Schema::Join(*outer_->schema(), *inner->schema(), outer_prefix,
                         inner_prefix);
}

void IndexNLJoinIterator::Open() { outer_->Open(); }

bool IndexNLJoinIterator::Next(Tuple* out) {
  while (true) {
    if (outer_valid_ && inner_pos_ < inner_rows_.size()) {
      const Tuple inner_row = inner_->GetRow(inner_rows_[inner_pos_++]).data;
      Tuple joined = ConcatTuples(outer_row_, inner_row);
      if (residual_ != nullptr) {
        ++stats_->predicate_evals;
        if (!residual_->EvalBool(joined, kNoParams)) continue;
      }
      ++stats_->tuples_out;
      *out = std::move(joined);
      return true;
    }
    if (!outer_->Next(&outer_row_)) return false;
    outer_valid_ = true;
    inner_rows_.clear();
    inner_pos_ = 0;
    const Value& k = outer_row_[outer_key_];
    if (k.is_null()) continue;
    ++stats_->index_lookups;
    inner_->IndexLookup(index_name_, k, snapshot_, &inner_rows_);
  }
}

// --- NLJoin ------------------------------------------------------------------

NLJoinIterator::NLJoinIterator(IteratorPtr left, IteratorPtr right, size_t left_key,
                               size_t right_key, ExprPtr residual,
                               const std::string& left_prefix,
                               const std::string& right_prefix, WorkStats* stats)
    : left_(std::move(left)), right_(std::move(right)), left_key_(left_key),
      right_key_(right_key), residual_(std::move(residual)), stats_(stats) {
  schema_ = Schema::Join(*left_->schema(), *right_->schema(), left_prefix,
                         right_prefix);
}

void NLJoinIterator::Open() {
  right_->Open();
  Tuple t;
  while (right_->Next(&t)) inner_.push_back(std::move(t));
  left_->Open();
}

bool NLJoinIterator::Next(Tuple* out) {
  while (true) {
    if (outer_valid_ && inner_pos_ < inner_.size()) {
      const Tuple& r = inner_[inner_pos_++];
      ++stats_->comparisons;
      if (outer_row_[left_key_].is_null() ||
          outer_row_[left_key_].Compare(r[right_key_]) != 0) {
        continue;
      }
      Tuple joined = ConcatTuples(outer_row_, r);
      if (residual_ != nullptr) {
        ++stats_->predicate_evals;
        if (!residual_->EvalBool(joined, kNoParams)) continue;
      }
      ++stats_->tuples_out;
      *out = std::move(joined);
      return true;
    }
    if (!left_->Next(&outer_row_)) return false;
    outer_valid_ = true;
    inner_pos_ = 0;
  }
}

// --- Sort --------------------------------------------------------------------

SortIterator::SortIterator(IteratorPtr child, std::vector<SortKey> keys,
                           WorkStats* stats)
    : child_(std::move(child)), keys_(std::move(keys)), stats_(stats),
      schema_(child_->schema()) {}

void SortIterator::Open() {
  child_->Open();
  Tuple t;
  while (child_->Next(&t)) rows_.push_back(std::move(t));
  std::stable_sort(rows_.begin(), rows_.end(), [&](const Tuple& a, const Tuple& b) {
    ++stats_->comparisons;
    return CompareTuples(a, b, keys_) < 0;
  });
}

bool SortIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- TopN --------------------------------------------------------------------

TopNIterator::TopNIterator(IteratorPtr child, std::vector<SortKey> keys, int64_t n,
                           ExprPtr pre_filter, WorkStats* stats)
    : child_(std::move(child)), keys_(std::move(keys)), n_(n),
      pre_filter_(std::move(pre_filter)), stats_(stats), schema_(child_->schema()) {}

void TopNIterator::Open() {
  child_->Open();
  Tuple t;
  while (child_->Next(&t)) {
    if (pre_filter_ != nullptr) {
      ++stats_->predicate_evals;
      if (!pre_filter_->EvalBool(t, kNoParams)) continue;
    }
    rows_.push_back(std::move(t));
  }
  std::stable_sort(rows_.begin(), rows_.end(), [&](const Tuple& a, const Tuple& b) {
    ++stats_->comparisons;
    return CompareTuples(a, b, keys_) < 0;
  });
  if (n_ >= 0 && rows_.size() > static_cast<size_t>(n_)) rows_.resize(n_);
}

bool TopNIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- GroupBy -----------------------------------------------------------------

namespace {

struct BaselineAcc {
  uint64_t count = 0;
  double sum = 0;
  Value min;
  Value max;
  void Update(const Value& v) {
    ++count;
    if (v.is_null()) return;
    if (v.type() == ValueType::kInt || v.type() == ValueType::kDouble) {
      sum += v.AsNumeric();
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }
  Value Finalize(AggFunc f) const {
    switch (f) {
      case AggFunc::kCount: return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum: return count ? Value::Double(sum) : Value::Null();
      case AggFunc::kMin: return min;
      case AggFunc::kMax: return max;
      case AggFunc::kAvg:
        return count ? Value::Double(sum / static_cast<double>(count))
                     : Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

GroupByIterator::GroupByIterator(IteratorPtr child, std::vector<size_t> group_columns,
                                 std::vector<AggSpec> aggs, ExprPtr having,
                                 WorkStats* stats)
    : child_(std::move(child)), group_columns_(std::move(group_columns)),
      aggs_(std::move(aggs)), having_(std::move(having)), stats_(stats) {
  const SchemaPtr in = child_->schema();
  std::vector<Column> cols;
  for (const size_t g : group_columns_) cols.push_back(in->column(g));
  for (const AggSpec& a : aggs_) {
    ValueType t = ValueType::kDouble;
    if (a.func == AggFunc::kCount) {
      t = ValueType::kInt;
    } else if ((a.func == AggFunc::kMin || a.func == AggFunc::kMax) && a.column >= 0) {
      t = in->column(a.column).type;
    }
    cols.push_back(Column{a.name, t});
  }
  schema_ = Schema::Make(std::move(cols));
}

void GroupByIterator::Open() {
  child_->Open();
  struct Group {
    Tuple key;
    std::vector<BaselineAcc> accs;
  };
  std::unordered_map<uint64_t, std::vector<Group>> groups;
  Tuple t;
  while (child_->Next(&t)) {
    Tuple key = Tuple::Build(group_columns_.size(),
                             [&](size_t i) -> const Value& { return t[group_columns_[i]]; });
    const uint64_t h = TupleHash(key);
    ++stats_->hash_probes;
    std::vector<Group>& bucket = groups[h];
    Group* grp = nullptr;
    for (Group& g : bucket) {
      if (TuplesEqual(g.key, key)) {
        grp = &g;
        break;
      }
    }
    if (grp == nullptr) {
      bucket.push_back(Group{std::move(key), std::vector<BaselineAcc>(aggs_.size())});
      grp = &bucket.back();
      ++stats_->hash_builds;
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      ++stats_->agg_updates;
      if (aggs_[a].column < 0) {
        grp->accs[a].Update(Value::Int(1));
      } else {
        grp->accs[a].Update(t[aggs_[a].column]);
      }
    }
  }
  for (auto& [h, bucket] : groups) {
    (void)h;
    for (Group& grp : bucket) {
      std::vector<Value> cells(grp.key.begin(), grp.key.end());
      for (size_t a = 0; a < aggs_.size(); ++a) {
        cells.push_back(grp.accs[a].Finalize(aggs_[a].func));
      }
      Tuple row(std::move(cells));
      if (having_ != nullptr) {
        ++stats_->predicate_evals;
        if (!having_->EvalBool(row, kNoParams)) continue;
      }
      rows_.push_back(std::move(row));
    }
  }
}

bool GroupByIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- Distinct ----------------------------------------------------------------

DistinctIterator::DistinctIterator(IteratorPtr child, WorkStats* stats)
    : child_(std::move(child)), stats_(stats), schema_(child_->schema()) {}

void DistinctIterator::Open() {
  child_->Open();
  std::unordered_map<uint64_t, std::vector<uint32_t>> seen;
  Tuple t;
  while (child_->Next(&t)) {
    const uint64_t h = TupleHash(t);
    ++stats_->hash_probes;
    std::vector<uint32_t>& bucket = seen[h];
    bool dup = false;
    for (const uint32_t i : bucket) {
      if (TuplesEqual(rows_[i], t)) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    bucket.push_back(static_cast<uint32_t>(rows_.size()));
    ++stats_->hash_builds;
    rows_.push_back(std::move(t));
  }
}

bool DistinctIterator::Next(Tuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  ++stats_->tuples_out;
  return true;
}

// --- Filter / Project / Union --------------------------------------------------

FilterIterator::FilterIterator(IteratorPtr child, ExprPtr predicate, WorkStats* stats)
    : child_(std::move(child)), predicate_(std::move(predicate)), stats_(stats),
      schema_(child_->schema()) {}

void FilterIterator::Open() { child_->Open(); }

bool FilterIterator::Next(Tuple* out) {
  Tuple t;
  while (child_->Next(&t)) {
    ++stats_->predicate_evals;
    if (predicate_ == nullptr || predicate_->EvalBool(t, kNoParams)) {
      ++stats_->tuples_out;
      *out = std::move(t);
      return true;
    }
  }
  return false;
}

ProjectIterator::ProjectIterator(IteratorPtr child, std::vector<size_t> columns,
                                 WorkStats* stats)
    : child_(std::move(child)), columns_(std::move(columns)), stats_(stats) {
  schema_ = child_->schema()->Project(columns_);
}

void ProjectIterator::Open() { child_->Open(); }

bool ProjectIterator::Next(Tuple* out) {
  Tuple t;
  if (!child_->Next(&t)) return false;
  *out = Tuple::Build(columns_.size(), [&](size_t i) -> const Value& { return t[columns_[i]]; });
  ++stats_->tuples_out;
  return true;
}

UnionIterator::UnionIterator(std::vector<IteratorPtr> children, WorkStats* stats)
    : children_(std::move(children)), stats_(stats) {
  SDB_CHECK(!children_.empty());
  schema_ = children_[0]->schema();
}

void UnionIterator::Open() {
  for (auto& c : children_) c->Open();
}

bool UnionIterator::Next(Tuple* out) {
  while (current_ < children_.size()) {
    if (children_[current_]->Next(out)) {
      ++stats_->tuples_out;
      return true;
    }
    ++current_;
  }
  return false;
}

}  // namespace baseline
}  // namespace shareddb
