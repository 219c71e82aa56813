#include "core/ops/group_by_op.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "runtime/task_pool.h"

namespace shareddb {

namespace {

/// Accumulator for one (group, query, aggregate) cell.
struct Acc {
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

  /// Combines another accumulator into this one (used when a query's tuples
  /// span several set classes within one group).
  void Merge(const Acc& o) {
    count += o.count;
    sum += o.sum;
    if (min.is_null() || (!o.min.is_null() && o.min.Compare(min) < 0)) min = o.min;
    if (max.is_null() || (!o.max.is_null() && o.max.Compare(max) > 0)) max = o.max;
  }

  Value Finalize(AggFunc f) const {
    switch (f) {
      case AggFunc::kCount: return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum: return count ? Value::Double(sum) : Value::Null();
      case AggFunc::kMin: return min;
      case AggFunc::kMax: return max;
      case AggFunc::kAvg:
        return count ? Value::Double(sum / static_cast<double>(count)) : Value::Null();
    }
    return Value::Null();
  }
};

/// Accumulators for one distinct ANNOTATION SET within a group ("set
/// class"): queries that subscribe to exactly the same tuples see exactly
/// the same aggregates, so one accumulator row serves them all — the NF²
/// compactness of Figure 1 carried through the aggregation.
struct ClassSlot {
  QueryIdSet cls;
  std::vector<Acc> accs;
};

struct Group {
  Tuple key;               // group column values
  uint32_t first_row = 0;  // input index that created the group (emit order)
  std::vector<ClassSlot> classes;
  int32_t next_same_hash = -1;  // collision chain within the arena index
};

/// One grouping arena: groups in first-seen order plus a flat index
/// (hash -> first group with that hash; collisions chain through the groups
/// themselves). The serial path uses one arena over all rows; the parallel
/// path gives every hash partition its own, so arenas share no state.
struct GroupArena {
  std::vector<Group> groups;
  FlatHashMap<uint64_t, int32_t> index;
  WorkStats stats;

  void AddRow(const DQBatch& in, size_t i, Tuple key, uint64_t h,
              const std::vector<AggSpec>& aggs) {
    ++stats.hash_probes;
    auto [slot_head, inserted] = index.TryEmplace(h);
    Group* grp = nullptr;
    if (!inserted) {
      for (int32_t gi = *slot_head; gi >= 0;
           gi = groups[static_cast<size_t>(gi)].next_same_hash) {
        if (TuplesEqual(groups[static_cast<size_t>(gi)].key, key)) {
          grp = &groups[static_cast<size_t>(gi)];
          break;
        }
      }
    }
    if (grp == nullptr) {
      Group g;
      g.key = std::move(key);
      g.first_row = static_cast<uint32_t>(i);
      g.next_same_hash = inserted ? -1 : *slot_head;
      *slot_head = static_cast<int32_t>(groups.size());
      groups.push_back(std::move(g));
      grp = &groups.back();
      ++stats.hash_builds;
    }
    // One accumulator update per (tuple, set class) — hash-consed sets make
    // the class lookup a cheap compare.
    ClassSlot* slot = nullptr;
    for (ClassSlot& c : grp->classes) {
      if (c.cls == in.qids[i]) {
        slot = &c;
        break;
      }
    }
    if (slot == nullptr) {
      grp->classes.push_back(ClassSlot{in.qids[i], std::vector<Acc>(aggs.size())});
      slot = &grp->classes.back();
      stats.qid_elems += in.qids[i].size();
    }
    const Tuple& t = in.tuples[i];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].column < 0) {
        slot->accs[a].Update(Value::Int(1));
      } else {
        slot->accs[a].Update(t[aggs[a].column]);
      }
      ++stats.agg_updates;
    }
  }
};

}  // namespace

GroupByOp::GroupByOp(SchemaPtr input_schema, std::vector<size_t> group_columns,
                     std::vector<AggSpec> aggs)
    : input_schema_(std::move(input_schema)),
      group_columns_(std::move(group_columns)),
      aggs_(std::move(aggs)) {
  std::vector<Column> cols;
  for (const size_t g : group_columns_) {
    SDB_CHECK(g < input_schema_->num_columns());
    cols.push_back(input_schema_->column(g));
  }
  for (const AggSpec& a : aggs_) {
    SDB_CHECK(a.column < static_cast<int>(input_schema_->num_columns()));
    // COUNT is integral; other aggregates follow the input column type,
    // except AVG/SUM which are doubles.
    ValueType t = ValueType::kDouble;
    if (a.func == AggFunc::kCount) {
      t = ValueType::kInt;
    } else if ((a.func == AggFunc::kMin || a.func == AggFunc::kMax) && a.column >= 0) {
      t = input_schema_->column(a.column).type;
    }
    cols.push_back(Column{a.name, t});
  }
  schema_ = Schema::Make(std::move(cols));
}

DQBatch GroupByOp::RunCycle(std::vector<BatchRef> inputs,
                            const std::vector<OpQuery>& queries,
                            const CycleContext& ctx, WorkStats* stats) {
  static const std::vector<Value> kNoParams;
  const QueryIdSet active = ActiveIdSet(queries);
  DQBatch in(input_schema_);
  for (BatchRef& b : inputs) {
    if (stats != nullptr) stats->tuples_in += b.size();
    in.Append(MaskToActive(std::move(b), active, stats));
  }
  const size_t n = in.size();

  const auto make_key = [&](size_t i) {
    const Tuple& t = in.tuples[i];
    return Tuple::Build(group_columns_.size(),
                        [&](size_t k) -> const Value& { return t[group_columns_[k]]; });
  };

  // Phase 1 (shared): group all tuples once. Parallel path: hash-partition
  // the rows — every row of one group lands in the same partition, and each
  // partition processes ITS rows in global input order into a private
  // arena, so group discovery order, class order and floating-point
  // accumulation order within every group match the serial pass exactly.
  const ParallelContext* par = ctx.parallel;
  std::vector<GroupArena> arenas;
  if (par != nullptr && par->Enabled(n)) {
    // Pass A: key hashes, morsel-parallel (the hash decides the partition).
    std::vector<uint64_t> row_hash(n);
    {
      const size_t num_tasks = std::max<size_t>(
          1, std::min(par->max_tasks(),
                      n / par->min_rows_per_task));
      TaskGroup group(par->pool);
      for (size_t t = 0; t < num_tasks; ++t) {
        const size_t lo = t * n / num_tasks;
        const size_t hi = (t + 1) * n / num_tasks;
        group.Run([&, lo, hi] {
          for (size_t i = lo; i < hi; ++i) row_hash[i] = TupleHash(make_key(i));
        });
      }
      group.Wait();
    }
    // Pass B: one task per hash partition.
    const size_t parts =
        std::max<size_t>(2, std::min<size_t>(par->workers() * 2, 32));
    arenas.resize(parts);
    TaskGroup group(par->pool);
    for (size_t p = 0; p < parts; ++p) {
      GroupArena* arena = &arenas[p];
      group.Run([&, arena, p] {
        for (size_t i = 0; i < n; ++i) {
          if (row_hash[i] % parts != p) continue;
          arena->AddRow(in, i, make_key(i), row_hash[i], aggs_);
        }
      });
    }
    group.Wait();
  } else {
    arenas.resize(1);
    GroupArena& arena = arenas[0];
    arena.index.Reserve(n / 4 + 8);
    for (size_t i = 0; i < n; ++i) {
      Tuple key = make_key(i);
      const uint64_t h = TupleHash(key);
      arena.AddRow(in, i, std::move(key), h, aggs_);
    }
  }

  // Collect groups back into the serial discovery order (first_row is the
  // global input index that created each group — unique per group, so the
  // sort is a total order and the emit sequence is byte-identical).
  std::vector<Group*> ordered;
  for (GroupArena& arena : arenas) {
    if (stats != nullptr) stats->Add(arena.stats);
    ordered.reserve(ordered.size() + arena.groups.size());
    for (Group& g : arena.groups) ordered.push_back(&g);
  }
  if (arenas.size() > 1) {
    std::sort(ordered.begin(), ordered.end(),
              [](const Group* a, const Group* b) {
                return a->first_row < b->first_row;
              });
  }

  // Phase 2: finalize each (group, class) once; HAVING splits a class only
  // when present (rare — HAVING predicates are per query by §3.4).
  FlatHashMap<QueryId, const OpQuery*> by_id(queries.size());
  for (const OpQuery& q : queries) by_id[q.id] = &q;
  bool any_having = false;
  for (const OpQuery& q : queries) any_having |= (q.having != nullptr);

  DQBatch out(schema_);
  auto emit = [&](const Tuple& key, const std::vector<Acc>& accs, QueryIdSet members) {
    const size_t nk = key.size();
    Tuple row = Tuple::Build(nk + aggs_.size(), [&](size_t i) {
      return i < nk ? key[i] : accs[i - nk].Finalize(aggs_[i - nk].func);
    });
    QueryIdSet survivors = std::move(members);
    if (any_having) {
      std::vector<QueryId> keep;
      keep.reserve(survivors.size());
      for (const QueryId id : survivors) {
        const OpQuery* q = *by_id.Find(id);
        if (q->having != nullptr) {
          if (stats != nullptr) ++stats->predicate_evals;
          if (!q->having->EvalBool(row, kNoParams)) continue;
        }
        keep.push_back(id);
      }
      if (keep.empty()) return;
      survivors = QueryIdSet::FromSorted(std::move(keep));
    }
    if (stats != nullptr) ++stats->tuples_out;
    out.Push(std::move(row), std::move(survivors));
  };

  for (Group* grp_ptr : ordered) {
    Group& grp = *grp_ptr;
    // Classes within a group are usually disjoint (one row per class). A
    // query spanning several classes needs its partial accumulators
    // merged, else it would see duplicate partial rows for the group.
    bool disjoint = true;
    if (grp.classes.size() > 1) {
      size_t total = 0;
      QueryIdSet all;
      for (const ClassSlot& c : grp.classes) {
        total += c.cls.size();
        all = all.Union(c.cls);
      }
      disjoint = all.size() == total;
    }
    if (disjoint) {
      for (ClassSlot& slot : grp.classes) {
        emit(grp.key, slot.accs, slot.cls);
      }
    } else {
      // Rare slow path: merge per query.
      std::vector<std::pair<QueryId, std::vector<Acc>>> per_query;
      for (const ClassSlot& slot : grp.classes) {
        for (const QueryId id : slot.cls) {
          std::vector<Acc>* accs = nullptr;
          for (auto& [qid, a] : per_query) {
            if (qid == id) {
              accs = &a;
              break;
            }
          }
          if (accs == nullptr) {
            per_query.emplace_back(id, std::vector<Acc>(aggs_.size()));
            accs = &per_query.back().second;
          }
          for (size_t a = 0; a < aggs_.size(); ++a) {
            (*accs)[a].Merge(slot.accs[a]);
            if (stats != nullptr) ++stats->agg_updates;
          }
        }
      }
      for (auto& [qid, accs] : per_query) {
        emit(grp.key, accs, QueryIdSet(qid));
      }
    }
  }
  return out;
}

}  // namespace shareddb
