#include "core/ops/hash_join_op.h"

#include <algorithm>

#include "common/flat_hash.h"

namespace shareddb {

HashJoinOp::HashJoinOp(SchemaPtr left_schema, SchemaPtr right_schema, size_t left_key,
                       size_t right_key, const std::string& left_prefix,
                       const std::string& right_prefix)
    : left_schema_(std::move(left_schema)),
      right_schema_(std::move(right_schema)),
      left_key_(left_key),
      right_key_(right_key) {
  SDB_CHECK(left_key_ < left_schema_->num_columns());
  SDB_CHECK(right_key_ < right_schema_->num_columns());
  schema_ = Schema::Join(*left_schema_, *right_schema_, left_prefix, right_prefix);
}

namespace {

/// Build-side chain head/tail for one distinct key hash.
struct Chain {
  int32_t head = -1;
  int32_t tail = -1;
};

/// State one probe task needs: its own output batch, stats, and memo caches
/// (no mutable state is shared between concurrent probe chunks).
struct ProbeScratch {
  // Intersections repeat across pairs (few distinct annotation sets per
  // side), so memoize by operand content — see MaskToActive. Entries keep
  // their operands so a hash collision can never produce a wrong result;
  // refcounted sets make the memoized result a shared handle, not a copy.
  struct PairEntry {
    QueryIdSet a, b, joint;
  };
  FlatHashMap<uint64_t, PairEntry> pair_cache;
  std::vector<QueryId> surviving;
  WorkStats stats;

  QueryIdSet IntersectSets(const QueryIdSet& a, const QueryIdSet& b,
                           bool count_stats) {
    const uint64_t key = a.HashValue() * 0x9E3779B97F4A7C15ULL + b.HashValue();
    auto [entry, inserted] = pair_cache.TryEmplace(key);
    if (!inserted && entry->a == a && entry->b == b) {
      // Hash-consed sets make a repeated operand pair a pointer-compare hit.
      if (count_stats) stats.qid_elems += 1;
      return entry->joint;
    }
    if (count_stats) {
      stats.qid_elems += QueryIdSet::MergeCost(a.size(), b.size());
    }
    QueryIdSet joint = a.Intersect(b);
    *entry = PairEntry{a, b, joint};
    return joint;
  }
};

}  // namespace

DQBatch HashJoinOp::RunCycle(std::vector<BatchRef> inputs,
                             const std::vector<OpQuery>& queries,
                             const CycleContext& ctx, WorkStats* stats) {
  SDB_CHECK(inputs.size() == 2);
  static const std::vector<Value> kNoParams;
  const QueryIdSet active = ActiveIdSet(queries);

  if (stats != nullptr) {
    stats->tuples_in += inputs[0].size() + inputs[1].size();
  }
  DQBatch left = MaskToActive(std::move(inputs[0]), active, stats);
  DQBatch right = MaskToActive(std::move(inputs[1]), active, stats);

  // Build on the smaller side of this cycle (left on a tie). The choice is a
  // function of the inputs alone, so serial and pooled runs agree on it.
  const bool left_builds = left.size() <= right.size();
  const DQBatch& build = left_builds ? left : right;
  const DQBatch& probe = left_builds ? right : left;
  const size_t build_key = left_builds ? left_key_ : right_key_;
  const size_t probe_key = left_builds ? right_key_ : left_key_;

  const ParallelContext* par = ctx.parallel;
  const bool parallelize =
      par != nullptr && par->Enabled(build.size() + probe.size());
  // Hash partitions of the build side: each pool worker builds one, so the
  // serial case is the 1-partition instance of the same code.
  const size_t num_parts =
      parallelize ? std::min<size_t>(std::max<size_t>(par->workers(), 2), 64) : 1;

  // Key hashes decide the partition for both sides; kNullHash marks NULL
  // keys, which never join (`| 1` keeps real hashes disjoint from it). The
  // parallel path precomputes them once so every partition/chunk task reads
  // instead of rehashing; the serial path hashes inline as before — no
  // per-cycle allocation below the parallel threshold.
  constexpr uint64_t kNullHash = 0;
  auto hash_at = [](const DQBatch& batch, size_t key, size_t i) -> uint64_t {
    const Value& k = batch.tuples[i][key];
    return k.is_null() ? kNullHash : (k.Hash() | 1);
  };
  std::vector<uint64_t> build_hash;
  std::vector<uint64_t> probe_hash;
  if (parallelize) {
    build_hash.resize(build.size());
    probe_hash.resize(probe.size());
    TaskGroup group(par->pool);
    for (size_t c = 0; c < num_parts; ++c) {
      const size_t blo = c * build.size() / num_parts;
      const size_t bhi = (c + 1) * build.size() / num_parts;
      const size_t plo = c * probe.size() / num_parts;
      const size_t phi = (c + 1) * probe.size() / num_parts;
      group.Run([&, blo, bhi, plo, phi] {
        for (size_t i = blo; i < bhi; ++i) {
          build_hash[i] = hash_at(build, build_key, i);
        }
        for (size_t i = plo; i < phi; ++i) {
          probe_hash[i] = hash_at(probe, probe_key, i);
        }
      });
    }
    group.Wait();
  }

  // Build phase: per partition, an open-addressing head table + intrusive
  // chains. One flat array probe per key; duplicate build keys chain through
  // `next` instead of one heap vector per key. Each partition task walks the
  // build side in row order and keeps only its rows, so chain order equals
  // build-row order — exactly the serial build.
  std::vector<FlatHashMap<uint64_t, Chain>> tables;
  tables.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    tables.emplace_back(build.size() / num_parts + 1);
  }
  std::vector<int32_t> next(build.size(), -1);
  std::vector<uint64_t> part_builds(num_parts, 0);
  {
    TaskGroup group(parallelize ? par->pool : nullptr);
    for (size_t p = 0; p < num_parts; ++p) {
      group.Run([&, p] {
        FlatHashMap<uint64_t, Chain>& table = tables[p];
        for (uint32_t i = 0; i < build.size(); ++i) {
          const uint64_t h =
              parallelize ? build_hash[i] : hash_at(build, build_key, i);
          if (h == kNullHash) continue;  // NULL never joins
          if (h % num_parts != p) continue;
          auto [chain, inserted] = table.TryEmplace(h);
          if (inserted) {
            chain->head = static_cast<int32_t>(i);
          } else {
            next[static_cast<size_t>(chain->tail)] = static_cast<int32_t>(i);
          }
          chain->tail = static_cast<int32_t>(i);
          ++part_builds[p];
        }
      });
    }
    group.Wait();
  }
  if (stats != nullptr) {
    for (const uint64_t b : part_builds) stats->hash_builds += b;
  }

  // Per-query residual lookup (read-only during the probe phase).
  FlatHashMap<QueryId, const OpQuery*> by_id(queries.size());
  for (const OpQuery& q : queries) by_id[q.id] = &q;
  bool any_residual = false;
  for (const OpQuery& q : queries) any_residual |= (q.predicate != nullptr);

  // Probe phase: contiguous probe-row chunks, each into its own slice with
  // its own scratch; slices concatenate in chunk order, reproducing the
  // serial probe-row order (chain order within a row is preserved too).
  const size_t num_chunks = parallelize
                                ? std::max<size_t>(1, std::min(probe.size(),
                                                               num_parts))
                                : 1;
  std::vector<DQBatch> slices(num_chunks, DQBatch(schema_));
  std::vector<ProbeScratch> scratch(num_chunks);
  {
    TaskGroup group(parallelize ? par->pool : nullptr);
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * probe.size() / num_chunks;
      const size_t hi = (c + 1) * probe.size() / num_chunks;
      DQBatch* slice = &slices[c];
      ProbeScratch* sc = &scratch[c];
      group.Run([&, lo, hi, slice, sc] {
        const bool count_stats = stats != nullptr;
        for (size_t p = lo; p < hi; ++p) {
          const uint64_t h =
              parallelize ? probe_hash[p] : hash_at(probe, probe_key, p);
          if (h == kNullHash) continue;
          if (count_stats) ++sc->stats.hash_probes;
          const Chain* chain = tables[h % num_parts].Find(h);
          if (chain == nullptr) continue;
          const Value& k = probe.tuples[p][probe_key];
          for (int32_t bi = chain->head; bi >= 0;
               bi = next[static_cast<size_t>(bi)]) {
            const size_t b = static_cast<size_t>(bi);
            // Hash collision check on the actual key.
            if (build.tuples[b][build_key].Compare(k) != 0) continue;
            // The query-id conjunct: interest sets must intersect.
            QueryIdSet joint =
                sc->IntersectSets(probe.qids[p], build.qids[b], count_stats);
            if (joint.empty()) continue;
            // Output tuple is always (left ++ right) regardless of build side.
            const Tuple& lt = left_builds ? build.tuples[b] : probe.tuples[p];
            const Tuple& rt = left_builds ? probe.tuples[p] : build.tuples[b];
            Tuple joined = ConcatTuples(lt, rt);
            // Per-query residuals strip ids.
            if (any_residual) {
              sc->surviving.clear();
              for (const QueryId id : joint) {
                const OpQuery* q = *by_id.Find(id);
                if (q->predicate != nullptr) {
                  if (count_stats) ++sc->stats.predicate_evals;
                  if (!q->predicate->EvalBool(joined, kNoParams)) continue;
                }
                sc->surviving.push_back(id);
              }
              if (sc->surviving.empty()) continue;
              if (sc->surviving.size() != joint.size()) {
                joint = QueryIdSet::FromSorted(sc->surviving.data(),
                                               sc->surviving.size());
              }
            }
            if (count_stats) ++sc->stats.tuples_out;
            slice->Push(std::move(joined), std::move(joint));
          }
        }
      });
    }
    group.Wait();
  }

  DQBatch out(schema_);
  for (size_t c = 0; c < num_chunks; ++c) {
    out.Append(std::move(slices[c]));
    if (stats != nullptr) stats->Add(scratch[c].stats);
  }
  return out;
}

}  // namespace shareddb
