// Ablation benchmarks for design choices the paper makes:
//   * list-based query-id sets vs. bitmaps (§3.1: the paper chose lists),
//   * merge vs. galloping set intersection (skewed operand sizes),
//   * data-key shared hash join vs. the set-based join keyed on query_id
//     (§3.3 / [16]),
//   * predicate-indexed ClockScan vs. naive per-(row,query) evaluation
//     (§4.4 / Crescando [28]).

#include <benchmark/benchmark.h>

#include "core/ops/hash_join_op.h"
#include "core/ops/qid_join_op.h"
#include "storage/catalog.h"
#include "storage/clock_scan.h"
#include "common/rng.h"

namespace shareddb {
namespace {

std::vector<QueryId> RandomIds(Rng* rng, int universe, int count) {
  std::vector<QueryId> ids;
  for (int i = 0; i < universe && static_cast<int>(ids.size()) < count; ++i) {
    if (rng->Bernoulli(static_cast<double>(count) / universe)) {
      ids.push_back(static_cast<QueryId>(i));
    }
  }
  return ids;
}

/// List-based intersection (the shipped representation).
void BM_QidSet_List_Intersect(benchmark::State& state) {
  const int universe = 4096;
  const int size = static_cast<int>(state.range(0));
  Rng rng(7);
  const QueryIdSet a = QueryIdSet::FromSorted(RandomIds(&rng, universe, size));
  const QueryIdSet b = QueryIdSet::FromSorted(RandomIds(&rng, universe, size));
  for (auto _ : state) {
    QueryIdSet c = a.Intersect(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_QidSet_List_Intersect)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// Bitmap-based intersection at the same universe size. For sparse sets the
/// bitmap pays for the whole universe; the paper found lists better.
void BM_QidSet_Bitmap_Intersect(benchmark::State& state) {
  const int universe = 4096;
  const int size = static_cast<int>(state.range(0));
  Rng rng(7);
  QueryIdBitmap a(universe), b(universe);
  for (const QueryId id : RandomIds(&rng, universe, size)) a.Insert(id);
  for (const QueryId id : RandomIds(&rng, universe, size)) b.Insert(id);
  for (auto _ : state) {
    QueryIdBitmap c = a;
    c.IntersectWith(b);
    benchmark::DoNotOptimize(c.Any());
  }
}
BENCHMARK(BM_QidSet_Bitmap_Intersect)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// Skewed intersection: small set vs. large set — the galloping fast path
/// (small probes the large side) vs. what a plain merge costs.
void BM_QidSet_SkewedIntersect(benchmark::State& state) {
  const int small = static_cast<int>(state.range(0));
  const int large = 4096;
  Rng rng(7);
  const QueryIdSet a = QueryIdSet::FromSorted(RandomIds(&rng, 8 * large, small));
  std::vector<QueryId> big(large);
  for (int i = 0; i < large; ++i) big[static_cast<size_t>(i)] = static_cast<QueryId>(i);
  const QueryIdSet b = QueryIdSet::FromSorted(std::move(big));
  for (auto _ : state) {
    QueryIdSet c = a.Intersect(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_QidSet_SkewedIntersect)->Arg(1)->Arg(4)->Arg(32)->Arg(256);

struct JoinFixture {
  SchemaPtr left_schema = Schema::Make({{"id", ValueType::kInt},
                                        {"a", ValueType::kInt}});
  SchemaPtr right_schema = Schema::Make({{"id", ValueType::kInt},
                                         {"b", ValueType::kInt}});
  DQBatch left{left_schema}, right{right_schema};
  std::vector<OpQuery> queries;

  explicit JoinFixture(int q, size_t rows) {
    Rng rng(3);
    for (int i = 0; i < q; ++i) {
      OpQuery oq;
      oq.id = static_cast<QueryId>(i);
      queries.push_back(std::move(oq));
    }
    for (size_t r = 0; r < rows; ++r) {
      // Each tuple interests a random ~quarter of the queries.
      std::vector<QueryId> lids, rids;
      for (int i = 0; i < q; ++i) {
        if (rng.Bernoulli(0.25)) lids.push_back(static_cast<QueryId>(i));
        if (rng.Bernoulli(0.25)) rids.push_back(static_cast<QueryId>(i));
      }
      const int64_t key = static_cast<int64_t>(r);
      left.Push({Value::Int(key), Value::Int(rng.Uniform(0, 99))},
                QueryIdSet::FromSorted(std::move(lids)));
      right.Push({Value::Int(key), Value::Int(rng.Uniform(0, 99))},
                 QueryIdSet::FromSorted(std::move(rids)));
    }
  }
};

/// Shared hash join keyed on the DATA column, qid sets intersected per match.
void BM_SharedJoin_DataKey(benchmark::State& state) {
  JoinFixture f(static_cast<int>(state.range(0)), 4096);
  HashJoinOp op(f.left_schema, f.right_schema, 0, 0, "l", "r");
  CycleContext ctx;
  for (auto _ : state) {
    std::vector<BatchRef> inputs;
    inputs.push_back(f.left);
    inputs.push_back(f.right);
    DQBatch out = op.RunCycle(std::move(inputs), f.queries, ctx, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SharedJoin_DataKey)->Arg(8)->Arg(64)->Arg(256);

/// Set-based join keyed on QUERY_ID ([16], §3.3: "a hash table that maps a
/// query id to a set of pointers"); beneficial only for small per-query sets.
void BM_SharedJoin_QidKey(benchmark::State& state) {
  JoinFixture f(static_cast<int>(state.range(0)), 4096);
  QidJoinOp op(f.left_schema, f.right_schema, 0, 0, "l", "r");
  CycleContext ctx;
  for (auto _ : state) {
    std::vector<BatchRef> inputs;
    inputs.push_back(f.left);
    inputs.push_back(f.right);
    DQBatch out = op.RunCycle(std::move(inputs), f.queries, ctx, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SharedJoin_QidKey)->Arg(8)->Arg(64)->Arg(256);

std::unique_ptr<Catalog> MakeScanTable(size_t rows) {
  auto catalog = std::make_unique<Catalog>();
  Table* t = catalog->CreateTable("t", Schema::Make({{"k", ValueType::kInt},
                                                     {"v", ValueType::kInt}}));
  Rng rng(7);
  for (size_t i = 0; i < rows; ++i) {
    t->Insert({Value::Int(rng.Uniform(0, 999)), Value::Int(rng.Uniform(0, 999))}, 1);
  }
  catalog->snapshots().Reset(1);
  return catalog;
}

/// Predicate-indexed scan: per-row cost tracks MATCHING queries.
void BM_ClockScan_PredicateIndexed(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  auto catalog = MakeScanTable(8192);
  ClockScan scan(catalog->MustGetTable("t"));
  Rng rng(5);
  std::vector<ScanQuerySpec> specs;
  for (int i = 0; i < q; ++i) {
    specs.push_back(ScanQuerySpec{
        static_cast<QueryId>(i),
        Expr::Eq(Expr::Column(0), Expr::Literal(Value::Int(rng.Uniform(0, 999))))});
  }
  for (auto _ : state) {
    DQBatch out = scan.RunCycle(specs, {}, 1, 2, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ClockScan_PredicateIndexed)->Arg(8)->Arg(64)->Arg(512);

/// The naive alternative: evaluate every query's predicate on every row.
void BM_ClockScan_NaivePerQuery(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  auto catalog = MakeScanTable(8192);
  Table* t = catalog->MustGetTable("t");
  Rng rng(5);
  std::vector<ExprPtr> preds;
  for (int i = 0; i < q; ++i) {
    preds.push_back(
        Expr::Eq(Expr::Column(0), Expr::Literal(Value::Int(rng.Uniform(0, 999)))));
  }
  static const std::vector<Value> kNoParams;
  for (auto _ : state) {
    DQBatch out(t->schema());
    t->ScanVisible(1, [&](RowId, const Tuple& row) {
      std::vector<QueryId> ids;
      for (int i = 0; i < q; ++i) {
        if (preds[static_cast<size_t>(i)]->EvalBool(row, kNoParams)) {
          ids.push_back(static_cast<QueryId>(i));
        }
      }
      if (!ids.empty()) out.Push(row, QueryIdSet::FromSorted(std::move(ids)));
      return true;
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ClockScan_NaivePerQuery)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace shareddb

BENCHMARK_MAIN();
