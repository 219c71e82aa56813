#include "core/ops/probe_op.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "expr/predicate.h"
#include "runtime/task_pool.h"

namespace shareddb {

ProbeOp::ProbeOp(Table* table, std::string index_name)
    : table_(table), index_name_(std::move(index_name)), schema_(table->schema()) {
  const TableIndex* found = nullptr;
  for (const TableIndex& idx : table_->indexes()) {
    if (idx.name == index_name_) {
      found = &idx;
      break;
    }
  }
  SDB_CHECK(found != nullptr && "ProbeOp requires an existing index");
  indexed_column_ = found->column;
}

DQBatch ProbeOp::RunCycle(std::vector<BatchRef> inputs,
                          const std::vector<OpQuery>& queries,
                          const CycleContext& ctx, WorkStats* stats) {
  SDB_CHECK(inputs.empty());  // source operator
  // Phase 1: updates in arrival order (same semantics as ClockScan).
  for (const UpdateOp& op : ctx.UpdatesForCurrentNode()) {
    const size_t n = ClockScan::ApplyUpdate(table_, op, ctx.write_version);
    if (stats != nullptr) stats->updates_applied += n;
  }

  // Phase 2: all look-ups of the batch. Queries with an equality on the
  // indexed column are GROUPED BY KEY VALUE so that each distinct key is
  // traversed once and its rows are annotated with the whole group — the
  // batched-information-filter technique of [12] that makes the shared probe
  // cost proportional to distinct keys, not concurrent queries.
  static const std::vector<Value> kNoParams;

  struct CompiledProbe {
    QueryId id;
    AnalyzedPredicate pred;
    const EqConstraint* eq = nullptr;        // anchor on indexed column
    const RangeConstraint* range = nullptr;  // else: range anchor
    const InConstraint* in = nullptr;        // else: IN-list anchor
    bool has_extra = false;                  // any constraint beyond anchor?
  };
  std::vector<CompiledProbe> compiled;
  compiled.reserve(queries.size());
  for (const OpQuery& q : queries) {
    CompiledProbe cp;
    cp.id = q.id;
    cp.pred = AnalyzePredicate(q.predicate);
    for (const EqConstraint& e : cp.pred.equalities) {
      if (e.column == indexed_column_) {
        cp.eq = &e;
        break;
      }
    }
    if (cp.eq == nullptr) {
      for (const RangeConstraint& r : cp.pred.ranges) {
        if (r.column == indexed_column_) {
          cp.range = &r;
          break;
        }
      }
    }
    if (cp.eq == nullptr && cp.range == nullptr) {
      for (const InConstraint& ic : cp.pred.ins) {
        if (ic.column == indexed_column_) {
          cp.in = &ic;
          break;
        }
      }
    }
    const size_t anchored =
        (cp.eq != nullptr || cp.range != nullptr || cp.in != nullptr) ? 1 : 0;
    cp.has_extra = cp.pred.equalities.size() + cp.pred.ranges.size() +
                       cp.pred.ins.size() + cp.pred.residual.size() >
                   anchored;
    compiled.push_back(std::move(cp));
  }
  // NOTE: `compiled` must not reallocate from here on (eq/range point into it).

  // Verifies every constraint except the anchor used for the index access.
  auto verify = [&](const CompiledProbe& cp, const Tuple& row, WorkStats* ws) {
    ++ws->predicate_evals;
    for (const EqConstraint& e : cp.pred.equalities) {
      if (&e == cp.eq) continue;
      if (row[e.column].is_null() || row[e.column].Compare(e.value) != 0) {
        return false;
      }
    }
    for (const RangeConstraint& r : cp.pred.ranges) {
      if (&r == cp.range) continue;
      if (!r.Matches(row[r.column])) return false;
    }
    for (const InConstraint& ic : cp.pred.ins) {
      if (&ic == cp.in) continue;  // anchor satisfied by the index lookup
      if (!ic.Matches(row[ic.column])) return false;
    }
    for (const ExprPtr& e : cp.pred.residual) {
      if (!e->EvalBool(row, kNoParams)) return false;
    }
    return true;
  };

  // Equality probes, grouped by key value via a flat hash on the value
  // (no per-key tree nodes, no Value comparison sort).
  FlatHashMap<uint64_t, std::vector<uint32_t>>& eq_groups = eq_groups_scratch_;
  eq_groups.Clear();
  for (uint32_t ci = 0; ci < compiled.size(); ++ci) {
    if (compiled[ci].eq != nullptr) {
      eq_groups[compiled[ci].eq->value.Hash()].push_back(ci);
    }
  }

  // Enumerate every independent unit of probe work in serial order: one per
  // distinct equality key (a whole probe group), one per IN/range/degenerate
  // query. Enumeration only reads `compiled`, so it is the same list the
  // old interleaved loop executed.
  struct ProbeItem {
    const std::vector<uint32_t>* members = nullptr;  // eq bucket, or
    size_t first = 0;                                //   sub-group start
    const CompiledProbe* single = nullptr;           // non-eq probe
  };
  std::vector<ProbeItem> items;
  for (auto& bucket : eq_groups) {
    // Values hashing to one bucket are almost always identical; a genuine
    // hash collision splits the bucket into several probe groups.
    items.push_back(ProbeItem{&bucket.value, 0, nullptr});
    const Value& first_key = compiled[bucket.value[0]].eq->value;
    for (size_t i = 1; i < bucket.value.size(); ++i) {
      const Value& v = compiled[bucket.value[i]].eq->value;
      if (v.Compare(first_key) == 0) continue;
      // Collision: run this value as its own group unless an earlier
      // collided member already covered it.
      bool seen = false;
      for (size_t j = 1; j < i; ++j) {
        if (compiled[bucket.value[j]].eq->value.Compare(first_key) != 0 &&
            compiled[bucket.value[j]].eq->value.Compare(v) == 0) {
          seen = true;
          break;
        }
      }
      if (!seen) items.push_back(ProbeItem{&bucket.value, i, nullptr});
    }
  }
  for (const CompiledProbe& cp : compiled) {
    if (cp.eq == nullptr) items.push_back(ProbeItem{nullptr, 0, &cp});
  }

  // Per-executor scratch: the serial path uses one, the parallel path one
  // per chunk of items (table reads are latch-protected, so concurrent
  // IndexLookup/IndexRange/GetRow/ScanVisible are safe).
  struct ExecState {
    std::vector<RowId> rows;
    std::vector<QueryId> base_ids;
    std::vector<const CompiledProbe*> extras;
    WorkStats ws;
  };

  auto run_group = [&](const std::vector<uint32_t>& members, size_t first,
                       FlatHashMap<RowId, QueryIdSet>* hits, ExecState* st) {
    const Value& key = compiled[members[first]].eq->value;
    ++st->ws.index_lookups;
    st->rows.clear();
    table_->IndexLookup(index_name_, key, ctx.read_snapshot, &st->rows);
    if (st->rows.empty()) return;
    // The whole-predicate-anchored probes subscribe to every row of the
    // group without a test; build their shared set ONCE — all rows of the
    // group then share one annotation allocation.
    st->base_ids.clear();
    st->extras.clear();
    for (size_t i = first; i < members.size(); ++i) {
      const CompiledProbe& cp = compiled[members[i]];
      if (i != first && cp.eq->value.Compare(key) != 0) continue;  // hash collision
      if (cp.has_extra) {
        st->extras.push_back(&cp);
      } else {
        st->base_ids.push_back(cp.id);
      }
    }
    std::sort(st->base_ids.begin(), st->base_ids.end());
    st->base_ids.erase(std::unique(st->base_ids.begin(), st->base_ids.end()),
                       st->base_ids.end());
    const QueryIdSet base_set =
        QueryIdSet::FromSorted(st->base_ids.data(), st->base_ids.size());
    for (const RowId id : st->rows) {
      QueryIdSet& h = (*hits)[id];
      if (!base_set.empty()) {
        h = h.empty() ? base_set : h.Union(base_set);
      }
      if (!st->extras.empty()) {
        const Tuple& t = table_->GetRow(id).data;
        for (const CompiledProbe* cp : st->extras) {
          if (verify(*cp, t, &st->ws)) h.Insert(cp->id);
        }
      }
    }
  };

  // IN-list, range, and degenerate probes, per query.
  auto run_single = [&](const CompiledProbe& cp,
                        FlatHashMap<RowId, QueryIdSet>* hits, ExecState* st) {
    if (cp.in != nullptr) {
      // One exact lookup per element instead of a degenerate full scan.
      for (const Value& key : cp.in->values) {
        if (key.is_null()) continue;  // col = NULL never matches
        ++st->ws.index_lookups;
        st->rows.clear();
        table_->IndexLookup(index_name_, key, ctx.read_snapshot, &st->rows);
        for (const RowId id : st->rows) {
          if (!cp.has_extra || verify(cp, table_->GetRow(id).data, &st->ws)) {
            (*hits)[id].Insert(cp.id);
          }
        }
      }
      return;
    }
    if (cp.range != nullptr) {
      ++st->ws.index_lookups;
      table_->IndexRange(index_name_, cp.range->lo, cp.range->lo_inclusive,
                         cp.range->hi, cp.range->hi_inclusive, ctx.read_snapshot,
                         [&](RowId id, const Tuple& t) {
                           // The B-tree total order places NULL before every
                           // value, so a range with no lower bound walks over
                           // NULL keys — which fail every SQL range predicate.
                           if (t[indexed_column_].is_null()) return true;
                           if (!cp.has_extra || verify(cp, t, &st->ws)) {
                             (*hits)[id].Insert(cp.id);
                           }
                           return true;
                         });
    } else {
      // No constraint on the indexed column: degenerate to a filtered scan.
      table_->ScanVisible(ctx.read_snapshot, [&](RowId id, const Tuple& t) {
        ++st->ws.rows_scanned;
        if (verify(cp, t, &st->ws)) (*hits)[id].Insert(cp.id);
        return true;
      });
    }
  };

  auto run_item = [&](const ProbeItem& it, FlatHashMap<RowId, QueryIdSet>* hits,
                      ExecState* st) {
    if (it.members != nullptr) {
      run_group(*it.members, it.first, hits, st);
    } else {
      run_single(*it.single, hits, st);
    }
  };

  FlatHashMap<RowId, QueryIdSet>& hits = hits_scratch_;
  hits.Clear();  // emit sorts by RowId for stable output

  const ParallelContext* par = ctx.parallel;
  if (par != nullptr && par->EnabledItems(items.size())) {
    // Fan the items out in contiguous chunks, each with its own hit map,
    // then merge. QueryIdSet union is value-canonical, so a row's merged
    // annotation equals whatever order the serial loop built it in; rows
    // touched with an empty contribution stay present (and empty), exactly
    // like the serial operator[] insert.
    const size_t num_chunks =
        std::min(items.size(), par->max_tasks());
    std::vector<FlatHashMap<RowId, QueryIdSet>> chunk_hits(num_chunks);
    std::vector<ExecState> chunk_state(num_chunks);
    TaskGroup group(par->pool);
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * items.size() / num_chunks;
      const size_t hi = (c + 1) * items.size() / num_chunks;
      FlatHashMap<RowId, QueryIdSet>* ch = &chunk_hits[c];
      ExecState* st = &chunk_state[c];
      group.Run([&items, &run_item, ch, st, lo, hi] {
        for (size_t i = lo; i < hi; ++i) run_item(items[i], ch, st);
      });
    }
    group.Wait();
    for (size_t c = 0; c < num_chunks; ++c) {
      if (stats != nullptr) stats->Add(chunk_state[c].ws);
      for (auto& entry : chunk_hits[c]) {
        QueryIdSet& h = hits[entry.key];
        if (!entry.value.empty()) {
          h = h.empty() ? std::move(entry.value) : h.Union(entry.value);
        }
      }
    }
  } else {
    ExecState st;
    for (const ProbeItem& it : items) run_item(it, &hits, &st);
    if (stats != nullptr) stats->Add(st.ws);
  }

  // Emit in RowId order (stable output). Heap annotation sets are interned:
  // all rows of one probe group already share one allocation (base_set
  // copies), and the pool unifies equal sets built through different paths,
  // so repeated sets charge O(1), not O(size).
  std::vector<std::pair<RowId, QueryIdSet>> ordered;
  ordered.reserve(hits.size());
  for (auto& entry : hits) ordered.emplace_back(entry.key, std::move(entry.value));
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  DQBatch out(schema_);
  out.Reserve(ordered.size());
  QidInternPool pool;
  for (auto& [row_id, qids] : ordered) {
    if (stats != nullptr) ++stats->tuples_out;
    if (qids.is_inline()) {
      if (stats != nullptr) stats->qid_elems += qids.size();
      out.Push(table_->GetRow(row_id).data, std::move(qids));
    } else {
      bool known = false;
      QueryIdSet canonical = pool.Intern(qids, &known);
      if (stats != nullptr) stats->qid_elems += known ? 1 : canonical.size();
      out.Push(table_->GetRow(row_id).data, std::move(canonical));
    }
  }
  return out;
}

}  // namespace shareddb
