#include "core/ops/merge_util.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace shareddb {

namespace {

/// Index range [lo, hi) of one sorted run inside the permutation buffer.
struct Run {
  size_t lo = 0;
  size_t hi = 0;
};

/// Merges the sorted runs of `src` into `dst` (pre-sized to n) with a loser
/// tree: runs padded to K = 2^ceil(log2(k)) leaves with exhausted dummies,
/// every pop replaying one leaf-to-root path — log2(K) comparisons per
/// element instead of the linear selection's K-1.
void LoserTreeMerge(const DQBatch& in, const std::vector<SortKey>& keys,
                    const std::vector<uint32_t>& src, std::vector<Run> runs,
                    std::vector<uint32_t>* dst, uint64_t* comparisons) {
  size_t k = 1;
  while (k < runs.size()) k *= 2;
  runs.resize(k, Run{0, 0});  // padding runs are born exhausted
  std::vector<size_t> head(k);
  for (size_t r = 0; r < k; ++r) head[r] = runs[r].lo;

  uint64_t cmps = 0;
  // True when run a's head element precedes run b's. Exhausted runs always
  // lose; the (keys, index) order is total, so the winner is unique and the
  // merge is deterministic.
  const auto wins = [&](size_t a, size_t b) {
    const bool ea = head[a] == runs[a].hi;
    const bool eb = head[b] == runs[b].hi;
    if (ea || eb) return !ea;
    ++cmps;
    const uint32_t x = src[head[a]];
    const uint32_t y = src[head[b]];
    const int c = CompareTuples(in.tuples[x], in.tuples[y], keys);
    return c != 0 ? c < 0 : x < y;
  };

  // Bottom-up build: internal node i keeps the LOSER of its match; the
  // overall winner bubbles out to the root.
  std::vector<size_t> loser(k, 0);
  std::vector<size_t> winner(2 * k, 0);
  for (size_t r = 0; r < k; ++r) winner[k + r] = r;
  for (size_t i = k - 1; i >= 1; --i) {
    const size_t a = winner[2 * i];
    const size_t b = winner[2 * i + 1];
    if (wins(a, b)) {
      winner[i] = a;
      loser[i] = b;
    } else {
      winner[i] = b;
      loser[i] = a;
    }
  }
  size_t champ = winner[1];

  const size_t n = dst->size();
  for (size_t out_i = 0; out_i < n; ++out_i) {
    (*dst)[out_i] = src[head[champ]++];
    for (size_t node = (k + champ) / 2; node >= 1; node /= 2) {
      if (wins(loser[node], champ)) std::swap(loser[node], champ);
    }
  }
  if (comparisons != nullptr) *comparisons += cmps;
}

/// One balanced-merge round: adjacent run pairs (2p, 2p+1) — contiguous in
/// `src` — merge into the same offsets of `dst`; an odd trailing run is
/// copied across. Each pair is split at merge-path boundaries (binary
/// searches under the total order, done serially up front) into segments
/// that write disjoint dst ranges, so every segment is an independent task.
void BalancedMergeRound(const DQBatch& in, const std::vector<SortKey>& keys,
                        const ParallelContext& par,
                        const std::vector<uint32_t>& src,
                        const std::vector<Run>& runs,
                        std::vector<uint32_t>* dst,
                        std::vector<Run>* next_runs, uint64_t* comparisons) {
  const auto less = [&](uint32_t x, uint32_t y) {
    const int c = CompareTuples(in.tuples[x], in.tuples[y], keys);
    return c != 0 ? c < 0 : x < y;
  };

  struct Seg {
    size_t a_lo, a_hi, b_lo, b_hi, d;
  };
  std::vector<Seg> segs;
  uint64_t search_cmps = 0;
  const size_t num_pairs = runs.size() / 2;
  for (size_t p = 0; p < num_pairs; ++p) {
    const Run& a = runs[2 * p];
    const Run& b = runs[2 * p + 1];
    next_runs->push_back(Run{a.lo, b.hi});
    const size_t len_a = a.hi - a.lo;
    const size_t len_b = b.hi - b.lo;
    if (len_a == 0 || len_b == 0) {
      segs.push_back(Seg{a.lo, a.hi, b.lo, b.hi, a.lo});
      continue;
    }
    size_t splits = std::max<size_t>(
        1, std::min(par.max_tasks(),
                    (len_a + len_b) / par.min_rows_per_task));
    splits = std::min(splits, len_a);
    size_t prev_a = a.lo;
    size_t prev_b = b.lo;
    for (size_t s = 1; s <= splits; ++s) {
      size_t a_s;
      size_t b_s;
      if (s == splits) {
        a_s = a.hi;
        b_s = b.hi;
      } else {
        a_s = a.lo + s * len_a / splits;
        // First b element not preceding src[a_s]: everything a segment
        // consumes from b strictly precedes its a boundary, so segment
        // outputs concatenate into exactly the two-run merge order.
        const uint32_t pivot = src[a_s];
        size_t lo = prev_b;
        size_t hi = b.hi;
        while (lo < hi) {
          const size_t mid = lo + (hi - lo) / 2;
          ++search_cmps;
          if (less(src[mid], pivot)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        b_s = lo;
      }
      segs.push_back(Seg{prev_a, a_s, prev_b, b_s, prev_a + (prev_b - b.lo)});
      prev_a = a_s;
      prev_b = b_s;
    }
  }
  if (runs.size() % 2 == 1) {
    const Run& last = runs.back();
    next_runs->push_back(last);
    segs.push_back(Seg{last.lo, last.hi, last.hi, last.hi, last.lo});
  }

  std::vector<uint64_t> seg_cmps(segs.size(), 0);
  TaskGroup group(par.pool);
  for (size_t i = 0; i < segs.size(); ++i) {
    const Seg seg = segs[i];
    uint64_t* cmps = &seg_cmps[i];
    group.Run([&in, &keys, &src, dst, seg, cmps] {
      size_t ai = seg.a_lo;
      size_t bi = seg.b_lo;
      size_t d = seg.d;
      while (ai < seg.a_hi && bi < seg.b_hi) {
        const uint32_t x = src[ai];
        const uint32_t y = src[bi];
        ++*cmps;
        const int c = CompareTuples(in.tuples[x], in.tuples[y], keys);
        const bool take_a = c != 0 ? c < 0 : x < y;
        (*dst)[d++] = take_a ? src[ai++] : src[bi++];
      }
      while (ai < seg.a_hi) (*dst)[d++] = src[ai++];
      while (bi < seg.b_hi) (*dst)[d++] = src[bi++];
    });
  }
  group.Wait();
  if (comparisons != nullptr) {
    *comparisons += search_cmps;
    for (const uint64_t c : seg_cmps) *comparisons += c;
  }
}

}  // namespace

std::vector<uint32_t> StableSortPermutation(const DQBatch& in,
                                            const std::vector<SortKey>& keys,
                                            const ParallelContext* par,
                                            uint64_t* comparisons) {
  const size_t n = in.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (par == nullptr || par->workers() == 0 ||
      n < 2 * par->min_rows_per_task) {
    uint64_t cmps = 0;
    std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      ++cmps;
      return CompareTuples(in.tuples[x], in.tuples[y], keys) < 0;
    });
    if (comparisons != nullptr) *comparisons += cmps;
    return order;
  }

  // Parallel path: sort P contiguous runs under (keys, original index) — the
  // index tie-break makes each run's order a restriction of the one global
  // stable order — then merge. The merged permutation is exactly the one
  // stable_sort produces, so the output batch is byte-identical.
  const size_t num_runs = std::max<size_t>(
      2, std::min({par->workers(), n / par->min_rows_per_task,
                   static_cast<size_t>(64)}));
  std::vector<Run> runs(num_runs);
  std::vector<uint64_t> run_cmps(num_runs, 0);
  TaskGroup group(par->pool);
  for (size_t r = 0; r < num_runs; ++r) {
    const size_t lo = r * n / num_runs;
    const size_t hi = (r + 1) * n / num_runs;
    runs[r] = Run{lo, hi};
    uint64_t* cmps = &run_cmps[r];
    group.Run([&in, &keys, &order, lo, hi, cmps] {
      std::sort(order.begin() + static_cast<ptrdiff_t>(lo),
                order.begin() + static_cast<ptrdiff_t>(hi),
                [&in, &keys, cmps](uint32_t x, uint32_t y) {
                  ++*cmps;
                  const int c = CompareTuples(in.tuples[x], in.tuples[y], keys);
                  return c != 0 ? c < 0 : x < y;
                });
    });
  }
  group.Wait();
  uint64_t cmps = 0;
  for (const uint64_t c : run_cmps) cmps += c;

  if (par->workers() > 1 && n >= 4 * par->min_rows_per_task) {
    // Balanced merge: log2(k) pairwise rounds, segments fanned out across
    // the pool, ping-ponging between two permutation buffers.
    std::vector<uint32_t> buf(n);
    std::vector<uint32_t>* src = &order;
    std::vector<uint32_t>* dst = &buf;
    std::vector<Run> cur = std::move(runs);
    while (cur.size() > 1) {
      std::vector<Run> next;
      BalancedMergeRound(in, keys, *par, *src, cur, dst, &next, &cmps);
      std::swap(src, dst);
      cur = std::move(next);
    }
    if (src != &order) order = std::move(*src);
  } else {
    // Single worker (or small n): the merge stays on this thread but still
    // beats linear selection — O(n log k) via the loser tree.
    std::vector<uint32_t> merged(n);
    LoserTreeMerge(in, keys, order, std::move(runs), &merged, &cmps);
    order = std::move(merged);
  }
  if (comparisons != nullptr) *comparisons += cmps;
  return order;
}

}  // namespace shareddb
