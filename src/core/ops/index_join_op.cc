#include "core/ops/index_join_op.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "runtime/task_pool.h"

namespace shareddb {

IndexJoinOp::IndexJoinOp(SchemaPtr outer_schema, size_t outer_key, Table* inner,
                         std::string index_name, const std::string& outer_prefix,
                         const std::string& inner_prefix)
    : outer_schema_(std::move(outer_schema)),
      outer_key_(outer_key),
      inner_(inner),
      index_name_(std::move(index_name)) {
  SDB_CHECK(outer_key_ < outer_schema_->num_columns());
  SDB_CHECK(inner_->HasIndex(index_name_));
  for (const TableIndex& idx : inner_->indexes()) {
    if (idx.name == index_name_) inner_key_ = idx.column;
  }
  schema_ = Schema::Join(*outer_schema_, *inner_->schema(), outer_prefix, inner_prefix);
}

DQBatch IndexJoinOp::RunCycle(std::vector<BatchRef> inputs,
                              const std::vector<OpQuery>& queries,
                              const CycleContext& ctx, WorkStats* stats) {
  SDB_CHECK(inputs.size() == 1);
  static const std::vector<Value> kNoParams;
  const QueryIdSet active = ActiveIdSet(queries);
  if (stats != nullptr) stats->tuples_in += inputs[0].size();
  DQBatch outer = MaskToActive(std::move(inputs[0]), active, stats);

  FlatHashMap<QueryId, const OpQuery*> by_id(queries.size());
  for (const OpQuery& q : queries) by_id[q.id] = &q;
  bool any_residual = false;
  for (const OpQuery& q : queries) any_residual |= (q.predicate != nullptr);

  const size_t n = outer.size();
  const ParallelContext* par = ctx.parallel;
  if (par != nullptr && par->Enabled(n)) {
    // Parallel path, three passes, byte-identical to the serial loop.
    //
    // Pass 1 (serial, cheap): walk the outer rows discovering distinct key
    // HASHES in input order, reproducing the shared look-up cache's counter
    // semantics exactly: one index_lookup per distinct hash (charged at its
    // first occurrence), one hash_probe per repeat.
    struct KeySlot {
      uint32_t first_row = 0;      // outer row whose key value gets looked up
      std::vector<RowId> rows;     // filled by pass 2
    };
    std::vector<KeySlot> slots;
    FlatHashMap<uint64_t, uint32_t> slot_of;
    constexpr uint32_t kNullKey = UINT32_MAX;
    std::vector<uint32_t> row_slot(n, kNullKey);
    for (size_t i = 0; i < n; ++i) {
      const Value& k = outer.tuples[i][outer_key_];
      if (k.is_null()) continue;
      auto [slot, inserted] = slot_of.TryEmplace(k.Hash());
      if (inserted) {
        *slot = static_cast<uint32_t>(slots.size());
        slots.push_back(KeySlot{static_cast<uint32_t>(i), {}});
        if (stats != nullptr) ++stats->index_lookups;
      } else if (stats != nullptr) {
        ++stats->hash_probes;  // cache hit
      }
      row_slot[i] = *slot;
    }

    // Pass 2: the distinct B-tree traversals fan out across the pool (table
    // reads are latch-protected). Each slot looks up the FIRST occurrence's
    // key value — the same value the serial cache stored — so a later key
    // colliding on the hash reuses those rows and relies on the per-row
    // guard below, exactly like the serial path.
    {
      const size_t num_tasks = std::max<size_t>(
          1, std::min(slots.size(), par->max_tasks()));
      TaskGroup group(par->pool);
      for (size_t t = 0; t < num_tasks; ++t) {
        const size_t lo = t * slots.size() / num_tasks;
        const size_t hi = (t + 1) * slots.size() / num_tasks;
        group.Run([this, &outer, &slots, &ctx, lo, hi] {
          for (size_t s = lo; s < hi; ++s) {
            const Value& k = outer.tuples[slots[s].first_row][outer_key_];
            inner_->IndexLookup(index_name_, k, ctx.read_snapshot, &slots[s].rows);
          }
        });
      }
      group.Wait();
    }

    // Pass 3: morsel-parallel join. Each morsel of outer rows builds its own
    // output batch; concatenating them in morsel order is the input order.
    const size_t num_morsels = std::max<size_t>(
        1, std::min(par->max_tasks(),
                    n / par->min_rows_per_task));
    std::vector<DQBatch> parts;
    parts.reserve(num_morsels);
    for (size_t m = 0; m < num_morsels; ++m) parts.emplace_back(schema_);
    std::vector<WorkStats> part_stats(num_morsels);
    TaskGroup group(par->pool);
    for (size_t m = 0; m < num_morsels; ++m) {
      const size_t lo = m * n / num_morsels;
      const size_t hi = (m + 1) * n / num_morsels;
      DQBatch* dst = &parts[m];
      WorkStats* ws = &part_stats[m];
      group.Run([&, dst, ws, lo, hi] {
        for (size_t i = lo; i < hi; ++i) {
          if (row_slot[i] == kNullKey) continue;
          const Value& k = outer.tuples[i][outer_key_];
          for (const RowId rid : slots[row_slot[i]].rows) {
            const Tuple inner_row = inner_->GetRow(rid).data;
            // Guard against hash collisions in the look-up cache.
            if (inner_row[inner_key_].Compare(k) != 0) continue;
            Tuple joined = ConcatTuples(outer.tuples[i], inner_row);
            QueryIdSet qids = outer.qids[i];
            if (any_residual) {
              std::vector<QueryId> surviving;
              surviving.reserve(qids.size());
              for (const QueryId id : qids) {
                const OpQuery* q = *by_id.Find(id);
                if (q->predicate != nullptr) {
                  ++ws->predicate_evals;
                  if (!q->predicate->EvalBool(joined, kNoParams)) continue;
                }
                surviving.push_back(id);
              }
              if (surviving.empty()) continue;
              qids = QueryIdSet::FromSorted(std::move(surviving));
            }
            ++ws->tuples_out;
            dst->Push(std::move(joined), std::move(qids));
          }
        }
      });
    }
    group.Wait();

    DQBatch out(schema_);
    for (size_t m = 0; m < num_morsels; ++m) {
      if (stats != nullptr) stats->Add(part_stats[m]);
      out.Append(std::move(parts[m]));
    }
    return out;
  }

  // Shared look-up cache: each distinct key probes the B-tree once per cycle.
  FlatHashMap<uint64_t, std::pair<bool, std::vector<RowId>>> lookup_cache;

  DQBatch out(schema_);
  for (size_t i = 0; i < outer.size(); ++i) {
    const Value& k = outer.tuples[i][outer_key_];
    if (k.is_null()) continue;
    const uint64_t h = k.Hash();
    std::pair<bool, std::vector<RowId>>& cached = lookup_cache[h];
    if (!cached.first) {
      cached.first = true;
      if (stats != nullptr) ++stats->index_lookups;
      inner_->IndexLookup(index_name_, k, ctx.read_snapshot, &cached.second);
    } else if (stats != nullptr) {
      ++stats->hash_probes;  // cache hit
    }
    // `cached` stays valid through this iteration: nothing below inserts
    // into lookup_cache.
    for (const RowId rid : cached.second) {
      const Tuple inner_row = inner_->GetRow(rid).data;
      // Guard against hash collisions in the look-up cache.
      if (inner_row[inner_key_].Compare(k) != 0) continue;
      Tuple joined = ConcatTuples(outer.tuples[i], inner_row);
      QueryIdSet qids = outer.qids[i];
      if (any_residual) {
        std::vector<QueryId> surviving;
        surviving.reserve(qids.size());
        for (const QueryId id : qids) {
          const OpQuery* q = *by_id.Find(id);
          if (q->predicate != nullptr) {
            if (stats != nullptr) ++stats->predicate_evals;
            if (!q->predicate->EvalBool(joined, kNoParams)) continue;
          }
          surviving.push_back(id);
        }
        if (surviving.empty()) continue;
        qids = QueryIdSet::FromSorted(std::move(surviving));
      }
      if (stats != nullptr) ++stats->tuples_out;
      out.Push(std::move(joined), std::move(qids));
    }
  }
  return out;
}

}  // namespace shareddb
