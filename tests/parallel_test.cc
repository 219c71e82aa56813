// Serial-vs-parallel equivalence: the morsel-parallel ClockScan, the
// parallel sort, the parallel hash join and the other morsel operators
// must produce batches IDENTICAL to their serial paths — same rows, same
// order, same annotations — across worker counts, plus matching totals for
// every deterministic work counter. (Counters that measure memoization hits
// — pred.matches, qid_elems — legitimately differ: each worker interns its
// own annotation sets.)

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/server.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/ops/distinct_op.h"
#include "core/ops/group_by_op.h"
#include "core/ops/hash_join_op.h"
#include "core/ops/index_join_op.h"
#include "core/ops/probe_op.h"
#include "core/ops/sort_op.h"
#include "core/ops/top_n_op.h"
#include "core/plan_builder.h"
#include "runtime/task_pool.h"
#include "storage/catalog.h"
#include "storage/clock_scan.h"
#include "testing_util.h"

namespace shareddb {
namespace {

const std::vector<size_t> kWorkerCounts = {1, 2, 4, 8};

/// A ParallelContext with a low split threshold so small test tables
/// exercise the parallel paths.
ParallelContext MakeCtx(TaskPool* pool) {
  ParallelContext pc;
  pc.pool = pool;
  pc.min_rows_per_task = 16;
  return pc;
}

// --- ClockScan ---------------------------------------------------------------

/// Fresh table (id INT, val INT, name STRING) with `rows` deterministic rows
/// and small segments so there are many morsels.
std::unique_ptr<Catalog> MakeScanCatalog(size_t rows) {
  auto catalog = std::make_unique<Catalog>();
  Table* t = catalog->CreateTable(
      "t", Schema::Make({{"id", ValueType::kInt},
                         {"val", ValueType::kInt},
                         {"name", ValueType::kString}}));
  t->set_rows_per_segment(64);
  Rng rng(7);
  for (size_t i = 0; i < rows; ++i) {
    t->Insert({Value::Int(static_cast<int64_t>(i)), Value::Int(rng.Uniform(0, 99)),
               Value::Str("n" + std::to_string(i % 37))},
              1);
  }
  catalog->snapshots().Reset(1);
  return catalog;
}

/// A mixed query batch: equality anchors, shared ranges, a residual LIKE,
/// and a match-all subscription.
std::vector<ScanQuerySpec> MakeScanQueries() {
  std::vector<ScanQuerySpec> specs;
  QueryId id = 0;
  for (int v = 0; v < 20; ++v) {
    specs.push_back(
        {id++, Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(v * 5)))});
  }
  for (int lo = 0; lo < 3; ++lo) {
    specs.push_back(
        {id++,
         Expr::And({Expr::Ge(Expr::Column(1), Expr::Literal(Value::Int(lo * 30))),
                    Expr::Lt(Expr::Column(1),
                             Expr::Literal(Value::Int(lo * 30 + 15)))})});
  }
  specs.push_back({id++, Expr::Like(Expr::Column(2), "%n1%")});
  specs.push_back({id++, nullptr});  // match-all
  return specs;
}

std::vector<UpdateOp> MakeScanUpdates() {
  std::vector<UpdateOp> updates;
  UpdateOp ins;
  ins.kind = UpdateKind::kInsert;
  ins.row = {Value::Int(100000), Value::Int(5), Value::Str("fresh")};
  updates.push_back(ins);
  UpdateOp upd;
  upd.kind = UpdateKind::kUpdate;
  upd.where = Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(10)));
  upd.sets = {{1, Expr::Literal(Value::Int(11))}};
  updates.push_back(upd);
  return updates;
}

TEST(ParallelEquivalence, ClockScanMatchesSerial) {
  constexpr size_t kRows = 2000;
  // Serial reference (no parallel context).
  auto serial_cat = MakeScanCatalog(kRows);
  ClockScan serial_scan(serial_cat->MustGetTable("t"));
  ClockScanStats serial_stats;
  const DQBatch expect = serial_scan.RunCycle(MakeScanQueries(), MakeScanUpdates(),
                                              1, 2, &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    auto cat = MakeScanCatalog(kRows);
    ClockScan scan(cat->MustGetTable("t"));
    ClockScanStats stats;
    const DQBatch got = scan.RunCycle(MakeScanQueries(), MakeScanUpdates(), 1, 2,
                                      &stats, &pc);
    ExpectBatchesIdentical(expect, got,
                           "clockscan w=" + std::to_string(workers));
    EXPECT_EQ(stats.rows_scanned, serial_stats.rows_scanned);
    EXPECT_EQ(stats.updates_applied, serial_stats.updates_applied);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.pred.hash_probes, serial_stats.pred.hash_probes);
    EXPECT_EQ(stats.pred.candidates, serial_stats.pred.candidates);
  }
}

TEST(ParallelEquivalence, ClockScanMatchesSerialAcrossCycles) {
  // Several cycles: the clock hand rotates and the cached PredicateIndex is
  // reused — outputs must track the serial scan cycle for cycle.
  constexpr size_t kRows = 600;
  auto serial_cat = MakeScanCatalog(kRows);
  auto par_cat = MakeScanCatalog(kRows);
  ClockScan serial_scan(serial_cat->MustGetTable("t"));
  ClockScan par_scan(par_cat->MustGetTable("t"));
  TaskPool pool(4);
  const ParallelContext pc = MakeCtx(&pool);
  const std::vector<ScanQuerySpec> queries = MakeScanQueries();
  for (Version v = 1; v <= 5; ++v) {
    const DQBatch expect = serial_scan.RunCycle(queries, {}, v, v + 1, nullptr);
    const DQBatch got = par_scan.RunCycle(queries, {}, v, v + 1, nullptr, &pc);
    ExpectBatchesIdentical(expect, got, "cycle " + std::to_string(v));
  }
  EXPECT_EQ(par_scan.index_builds(), 1u);  // one build, four reuses
}

// --- SortOp ------------------------------------------------------------------

/// Batch of `rows` tuples with heavy key duplication (exercises stability)
/// and randomized qid subsets.
DQBatch MakeSortInput(const SchemaPtr& schema, size_t rows, int num_queries) {
  DQBatch in(schema);
  Rng rng(3);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<QueryId> ids;
    for (int q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.4)) ids.push_back(static_cast<QueryId>(q));
    }
    in.Push({Value::Int(static_cast<int64_t>(i)), Value::Int(rng.Uniform(0, 20)),
             Value::Str("s" + std::to_string(i % 11))},
            QueryIdSet::FromSorted(std::move(ids)));
  }
  return in;
}

TEST(ParallelEquivalence, SortMatchesSerial) {
  const SchemaPtr schema = Schema::Make({{"id", ValueType::kInt},
                                         {"val", ValueType::kInt},
                                         {"name", ValueType::kString}});
  constexpr size_t kRows = 3000;
  constexpr int kQueries = 12;
  // Sort on a low-cardinality key, then the string: many ties, so the
  // stable order is thoroughly exercised.
  SortOp op(schema, {{1, true}, {2, false}});
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) queries[q].id = static_cast<QueryId>(q);

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  const DQBatch master = MakeSortInput(schema, kRows, kQueries);
  WorkStats serial_stats;
  std::vector<BatchRef> in0;
  in0.emplace_back(master);  // copy
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);  // copy
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "sort w=" + std::to_string(workers));
    EXPECT_EQ(stats.tuples_in, serial_stats.tuples_in);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
  }
}

TEST(ParallelEquivalence, SortWithNaNAndMixedNumericsMatchesSerial) {
  // Regression: Value::Compare must be a TOTAL order. NaN doubles used to
  // compare "equal" to every number, and mixed INT/DOUBLE keys were compared
  // through a lossy double conversion — either breaks strict-weak-ordering,
  // and the parallel partition sort + k-way merge can then produce an order
  // that diverges from the serial sort.
  const SchemaPtr schema =
      Schema::Make({{"id", ValueType::kInt}, {"key", ValueType::kDouble}});
  constexpr size_t kRows = 1500;
  DQBatch master(schema);
  Rng rng(17);
  const double nan = std::nan("");
  for (size_t i = 0; i < kRows; ++i) {
    Value key;
    switch (rng.Uniform(0, 3)) {
      case 0: key = Value::Double(nan); break;
      case 1: key = Value::Double(rng.Uniform(0, 20) * 0.5); break;
      case 2: key = Value::Int(rng.Uniform(0, 10)); break;
      default: key = Value::Null(); break;
    }
    master.Push({Value::Int(static_cast<int64_t>(i)), key},
                QueryIdSet::FromSorted({0}));
  }

  SortOp op(schema, {{1, true}, {0, true}});
  std::vector<OpQuery> queries(1);
  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  std::vector<BatchRef> in0;
  in0.emplace_back(master);
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx, nullptr);

  // The serial order itself must be sane: NULL first, then numerics
  // ascending, with every NaN after every non-NaN numeric.
  bool seen_nan = false;
  for (size_t i = 0; i < expect.size(); ++i) {
    const Value& k = expect.tuples[i][1];
    const bool is_nan = k.type() == ValueType::kDouble && std::isnan(k.AsDouble());
    if (is_nan) seen_nan = true;
    ASSERT_FALSE(seen_nan && !is_nan && !k.is_null()) << "row " << i;
    if (i > 0) {
      ASSERT_LE(expect.tuples[i - 1][1].Compare(expect.tuples[i][1]), 0)
          << "row " << i;
    }
  }
  ASSERT_TRUE(seen_nan);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, nullptr);
    ExpectBatchesIdentical(expect, got, "nan sort w=" + std::to_string(workers));
  }
}

// --- HashJoinOp --------------------------------------------------------------

TEST(ParallelEquivalence, HashJoinMatchesSerial) {
  const SchemaPtr left = Schema::Make({{"uid", ValueType::kInt},
                                       {"country", ValueType::kInt}});
  const SchemaPtr right = Schema::Make({{"oid", ValueType::kInt},
                                        {"uid", ValueType::kInt},
                                        {"amount", ValueType::kInt}});
  constexpr size_t kUsers = 400;
  constexpr size_t kOrders = 2400;
  constexpr int kQueries = 10;

  DQBatch lbatch(left), rbatch(right);
  Rng rng(29);
  auto qids_for = [&](int bias) {
    std::vector<QueryId> ids;
    for (int q = 0; q < kQueries; ++q) {
      if (rng.Bernoulli(q % 2 == bias ? 0.8 : 0.3)) {
        ids.push_back(static_cast<QueryId>(q));
      }
    }
    return QueryIdSet::FromSorted(std::move(ids));
  };
  for (size_t i = 0; i < kUsers; ++i) {
    // A few NULL keys: they must never join.
    const Value key =
        i % 31 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(i));
    lbatch.Push({key, Value::Int(rng.Uniform(0, 5))}, qids_for(0));
  }
  for (size_t i = 0; i < kOrders; ++i) {
    const Value key =
        i % 53 == 0 ? Value::Null() : Value::Int(rng.Uniform(0, kUsers - 1));
    rbatch.Push({Value::Int(static_cast<int64_t>(i)), key,
                 Value::Int(rng.Uniform(1, 500))},
                qids_for(1));
  }

  HashJoinOp op(left, right, /*left_key=*/0, /*right_key=*/1, "u", "o");
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    queries[q].id = static_cast<QueryId>(q);
    if (q % 3 == 0) {
      // Residual over the joined tuple: strips ids per query.
      queries[q].predicate =
          Expr::Ge(Expr::Column(4), Expr::Literal(Value::Int(100)));
    }
  }

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  std::vector<BatchRef> in0;
  in0.emplace_back(lbatch);
  in0.emplace_back(rbatch);
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(lbatch);
    in.emplace_back(rbatch);
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "join w=" + std::to_string(workers));
    EXPECT_EQ(stats.hash_builds, serial_stats.hash_builds);
    EXPECT_EQ(stats.hash_probes, serial_stats.hash_probes);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.predicate_evals, serial_stats.predicate_evals);
  }
}

/// Definitional join for BuildSideFollowsSmallerInput: every (left, right)
/// pair with equal non-NULL keys, annotated with the intersection of the
/// two interest sets minus the queries whose residual rejects the pair.
std::multiset<std::string> NestedLoopJoin(const DQBatch& l, const DQBatch& r,
                                          size_t lk, size_t rk,
                                          const std::vector<OpQuery>& queries) {
  static const std::vector<Value> kNoParams;
  std::multiset<std::string> out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      const Value& a = l.tuples[i][lk];
      if (a.is_null() || a.Compare(r.tuples[j][rk]) != 0) continue;
      const Tuple joined = ConcatTuples(l.tuples[i], r.tuples[j]);
      std::string ids;
      for (const QueryId q : l.qids[i].Intersect(r.qids[j])) {
        const ExprPtr& residual = queries[q].predicate;
        if (residual == nullptr || residual->EvalBool(joined, kNoParams)) {
          ids += " " + std::to_string(q);
        }
      }
      if (!ids.empty()) out.insert(TupleToString(joined) + ids);
    }
  }
  return out;
}

std::multiset<std::string> AnnotatedRows(const DQBatch& b) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < b.size(); ++i) {
    std::string ids;
    for (const QueryId q : b.qids[i]) ids += " " + std::to_string(q);
    out.insert(TupleToString(b.tuples[i]) + ids);
  }
  return out;
}

TEST(ParallelEquivalence, HashJoinBuildSideFollowsSmallerInput) {
  // One shared op over two cycles: the left input is the smaller one in the
  // first cycle and the larger one in the second, so the build side flips.
  const SchemaPtr left = Schema::Make({{"k", ValueType::kInt},
                                       {"lv", ValueType::kInt}});
  const SchemaPtr right = Schema::Make({{"rv", ValueType::kInt},
                                        {"k", ValueType::kInt}});
  constexpr int kQueries = 8;
  HashJoinOp op(left, right, /*left_key=*/0, /*right_key=*/1, "l", "r");
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    queries[q].id = static_cast<QueryId>(q);
    if (q % 4 == 1) {
      queries[q].predicate = Expr::Lt(Expr::Column(1), Expr::Column(2));  // lv < rv
    }
  }
  Rng rng(41);
  auto qids = [&] {
    std::vector<QueryId> ids;
    for (int q = 0; q < kQueries; ++q) {
      if (rng.Bernoulli(0.4)) ids.push_back(static_cast<QueryId>(q));
    }
    return QueryIdSet::FromSorted(std::move(ids));
  };
  auto key = [&](size_t i) {
    return i % 37 == 0 ? Value::Null() : Value::Int(rng.Uniform(0, 150));
  };

  for (const auto& [nl, nr] : {std::pair<size_t, size_t>{200, 700}, {700, 200}}) {
    const std::string label = "cycle " + std::to_string(nl) + "x" + std::to_string(nr);
    DQBatch lbatch(left), rbatch(right);
    for (size_t i = 0; i < nl; ++i) {
      lbatch.Push({key(i), Value::Int(rng.Uniform(0, 99))}, qids());
    }
    for (size_t i = 0; i < nr; ++i) {
      rbatch.Push({Value::Int(rng.Uniform(0, 99)), key(i)}, qids());
    }

    CycleContext serial_ctx;
    serial_ctx.read_snapshot = 1;
    serial_ctx.write_version = 2;
    std::vector<BatchRef> in0;
    in0.emplace_back(lbatch);
    in0.emplace_back(rbatch);
    WorkStats serial_stats;
    const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx, &serial_stats);
    ASSERT_GT(expect.size(), 0u) << label;
    // Built on the smaller side: one hash entry per live non-NULL key there.
    const DQBatch& smaller = nl < nr ? lbatch : rbatch;
    const size_t key_col = nl < nr ? 0 : 1;
    uint64_t builds = 0;
    for (size_t i = 0; i < smaller.size(); ++i) {
      builds += !smaller.tuples[i][key_col].is_null() && !smaller.qids[i].empty();
    }
    EXPECT_EQ(serial_stats.hash_builds, builds) << label;
    EXPECT_EQ(AnnotatedRows(expect), NestedLoopJoin(lbatch, rbatch, 0, 1, queries))
        << label;

    for (const size_t workers : {1, 2, 4}) {
      TaskPool pool(workers);
      const ParallelContext pc = MakeCtx(&pool);
      CycleContext ctx = serial_ctx;
      ctx.parallel = &pc;
      std::vector<BatchRef> in;
      in.emplace_back(lbatch);
      in.emplace_back(rbatch);
      WorkStats stats;
      const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
      ExpectBatchesIdentical(expect, got, label + " w=" + std::to_string(workers));
      EXPECT_EQ(stats.hash_builds, serial_stats.hash_builds) << label;
      EXPECT_EQ(stats.hash_probes, serial_stats.hash_probes) << label;
    }
  }
}

// --- GroupByOp ---------------------------------------------------------------

TEST(ParallelEquivalence, GroupByMatchesSerial) {
  const SchemaPtr schema = Schema::Make({{"id", ValueType::kInt},
                                         {"val", ValueType::kInt},
                                         {"name", ValueType::kString}});
  constexpr size_t kRows = 3000;
  constexpr int kQueries = 12;
  // Low-cardinality group key (21 values) so groups are fat, plus COUNT,
  // SUM and AVG (floating-point accumulation order matters) and a MIN over
  // the string column.
  GroupByOp op(schema, {1},
               {{AggFunc::kCount, -1, "cnt"},
                {AggFunc::kSum, 0, "sum_id"},
                {AggFunc::kAvg, 0, "avg_id"},
                {AggFunc::kMin, 2, "min_name"}});
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    queries[q].id = static_cast<QueryId>(q);
    if (q % 4 == 0) {
      // HAVING cnt >= 40 over the output schema (val, cnt, ...).
      queries[q].having =
          Expr::Ge(Expr::Column(1), Expr::Literal(Value::Int(40)));
    }
  }

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  const DQBatch master = MakeSortInput(schema, kRows, kQueries);
  std::vector<BatchRef> in0;
  in0.emplace_back(master);
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "groupby w=" + std::to_string(workers));
    EXPECT_EQ(stats.tuples_in, serial_stats.tuples_in);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.hash_builds, serial_stats.hash_builds);
    EXPECT_EQ(stats.hash_probes, serial_stats.hash_probes);
    EXPECT_EQ(stats.agg_updates, serial_stats.agg_updates);
    EXPECT_EQ(stats.predicate_evals, serial_stats.predicate_evals);
    EXPECT_EQ(stats.qid_elems, serial_stats.qid_elems);
  }
}

// --- DistinctOp --------------------------------------------------------------

TEST(ParallelEquivalence, DistinctMatchesSerial) {
  const SchemaPtr schema = Schema::Make({{"id", ValueType::kInt},
                                         {"val", ValueType::kInt},
                                         {"name", ValueType::kString}});
  constexpr size_t kRows = 3000;
  constexpr int kQueries = 10;
  // Tuples drawn from a small value space: heavy duplication, so the
  // annotation unions and the first-occurrence order both get exercised.
  DQBatch master(schema);
  Rng rng(41);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<QueryId> ids;
    for (int q = 0; q < kQueries; ++q) {
      if (rng.Bernoulli(0.35)) ids.push_back(static_cast<QueryId>(q));
    }
    master.Push({Value::Int(static_cast<int64_t>(i % 40)),
                 Value::Int(static_cast<int64_t>(i % 7)),
                 Value::Str("d" + std::to_string(i % 13))},
                QueryIdSet::FromSorted(std::move(ids)));
  }
  DistinctOp op(schema);
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) queries[q].id = static_cast<QueryId>(q);

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  std::vector<BatchRef> in0;
  in0.emplace_back(master);
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);
  ASSERT_GT(expect.size(), 0u);
  ASSERT_LT(expect.size(), kRows);  // the input really had duplicates

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "distinct w=" + std::to_string(workers));
    EXPECT_EQ(stats.tuples_in, serial_stats.tuples_in);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.hash_builds, serial_stats.hash_builds);
    EXPECT_EQ(stats.hash_probes, serial_stats.hash_probes);
    EXPECT_EQ(stats.qid_elems, serial_stats.qid_elems);
  }
}

// --- TopNOp ------------------------------------------------------------------

TEST(ParallelEquivalence, TopNMatchesSerial) {
  const SchemaPtr schema = Schema::Make({{"id", ValueType::kInt},
                                         {"val", ValueType::kInt},
                                         {"name", ValueType::kString}});
  constexpr size_t kRows = 3000;
  constexpr int kQueries = 12;
  TopNOp op(schema, {{1, true}, {0, false}}, /*default_limit=*/25);
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    queries[q].id = static_cast<QueryId>(q);
    if (q % 3 == 0) queries[q].limit = 5;
    if (q % 4 == 1) {
      queries[q].predicate =
          Expr::Ge(Expr::Column(1), Expr::Literal(Value::Int(5)));
    }
  }

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  const DQBatch master = MakeSortInput(schema, kRows, kQueries);
  std::vector<BatchRef> in0;
  in0.emplace_back(master);
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "topn w=" + std::to_string(workers));
    EXPECT_EQ(stats.tuples_in, serial_stats.tuples_in);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.predicate_evals, serial_stats.predicate_evals);
  }
}

// --- ProbeOp -----------------------------------------------------------------

TEST(ParallelEquivalence, ProbeMatchesSerial) {
  // One table + index shared by the serial and parallel runs: ProbeOp reads
  // under a snapshot and applies no updates here, so both runs see the same
  // rows.
  auto catalog = std::make_unique<Catalog>();
  Table* t = catalog->CreateTable(
      "t", Schema::Make({{"id", ValueType::kInt},
                         {"val", ValueType::kInt},
                         {"name", ValueType::kString}}));
  Rng rng(53);
  for (size_t i = 0; i < 2000; ++i) {
    t->Insert({Value::Int(static_cast<int64_t>(i)), Value::Int(rng.Uniform(0, 79)),
               Value::Str("n" + std::to_string(i % 29))},
              1);
  }
  t->CreateIndex("val_idx", "val");
  catalog->snapshots().Reset(1);

  // A wide mix of probe shapes: shared equality groups (several queries per
  // key), equalities with extra conjuncts, ranges, IN lists, and one
  // degenerate full-scan query — enough independent items for the parallel
  // fan-out to engage.
  std::vector<OpQuery> queries;
  QueryId id = 0;
  for (int v = 0; v < 20; ++v) {
    OpQuery q;
    q.id = id++;
    q.predicate = Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(v * 4)));
    queries.push_back(q);
    if (v % 2 == 0) {
      OpQuery dup;  // same key, extra conjunct: joins the probe group
      dup.id = id++;
      dup.predicate =
          Expr::And({Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(v * 4))),
                     Expr::Ge(Expr::Column(0), Expr::Literal(Value::Int(500)))});
      queries.push_back(dup);
    }
  }
  for (int lo = 0; lo < 3; ++lo) {
    OpQuery q;
    q.id = id++;
    q.predicate =
        Expr::And({Expr::Ge(Expr::Column(1), Expr::Literal(Value::Int(lo * 20))),
                   Expr::Le(Expr::Column(1), Expr::Literal(Value::Int(lo * 20 + 9)))});
    queries.push_back(q);
  }
  {
    OpQuery q;
    q.id = id++;
    q.predicate = Expr::In(Expr::Column(1),
                           {Expr::Literal(Value::Int(3)), Expr::Literal(Value::Int(9)),
                            Expr::Literal(Value::Int(27))});
    queries.push_back(q);
  }
  {
    OpQuery q;  // no constraint on the indexed column: filtered scan
    q.id = id++;
    q.predicate = Expr::Like(Expr::Column(2), "%n1%");
    queries.push_back(q);
  }

  ProbeOp op(t, "val_idx");
  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle({}, queries, serial_ctx, &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    WorkStats stats;
    const DQBatch got = op.RunCycle({}, queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "probe w=" + std::to_string(workers));
    EXPECT_EQ(stats.index_lookups, serial_stats.index_lookups);
    EXPECT_EQ(stats.predicate_evals, serial_stats.predicate_evals);
    EXPECT_EQ(stats.rows_scanned, serial_stats.rows_scanned);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
    EXPECT_EQ(stats.qid_elems, serial_stats.qid_elems);
  }
}

// --- IndexJoinOp -------------------------------------------------------------

TEST(ParallelEquivalence, IndexJoinMatchesSerial) {
  auto catalog = std::make_unique<Catalog>();
  Table* orders = catalog->CreateTable(
      "orders", Schema::Make({{"order_id", ValueType::kInt},
                              {"user_id", ValueType::kInt},
                              {"amount", ValueType::kInt}}));
  for (size_t i = 0; i < 1500; ++i) {
    orders->Insert({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 120)),
                    Value::Int(static_cast<int64_t>(i % 311))},
                   1);
  }
  orders->CreateIndex("uid_idx", "user_id");
  catalog->snapshots().Reset(1);

  const SchemaPtr outer_schema = Schema::Make({{"uid", ValueType::kInt},
                                               {"country", ValueType::kInt}});
  constexpr int kQueries = 10;
  DQBatch master(outer_schema);
  Rng rng(61);
  for (size_t i = 0; i < 600; ++i) {
    std::vector<QueryId> ids;
    for (int q = 0; q < kQueries; ++q) {
      if (rng.Bernoulli(0.4)) ids.push_back(static_cast<QueryId>(q));
    }
    // Keys repeat (shared look-up cache hits), some miss the inner table
    // entirely, and a few are NULL (must never join).
    const Value key = i % 31 == 0
                          ? Value::Null()
                          : Value::Int(static_cast<int64_t>(i % 150));
    master.Push({key, Value::Int(rng.Uniform(0, 5))},
                QueryIdSet::FromSorted(std::move(ids)));
  }

  IndexJoinOp op(outer_schema, /*outer_key=*/0, orders, "uid_idx", "u", "o");
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    queries[q].id = static_cast<QueryId>(q);
    if (q % 3 == 0) {
      // Residual over the joined tuple (amount is column 4: outer 2 ++ inner 3).
      queries[q].predicate =
          Expr::Ge(Expr::Column(4), Expr::Literal(Value::Int(150)));
    }
  }

  CycleContext serial_ctx;
  serial_ctx.read_snapshot = 1;
  serial_ctx.write_version = 2;
  std::vector<BatchRef> in0;
  in0.emplace_back(master);
  WorkStats serial_stats;
  const DQBatch expect = op.RunCycle(std::move(in0), queries, serial_ctx,
                                     &serial_stats);
  ASSERT_GT(expect.size(), 0u);

  for (const size_t workers : kWorkerCounts) {
    TaskPool pool(workers);
    const ParallelContext pc = MakeCtx(&pool);
    CycleContext ctx = serial_ctx;
    ctx.parallel = &pc;
    std::vector<BatchRef> in;
    in.emplace_back(master);
    WorkStats stats;
    const DQBatch got = op.RunCycle(std::move(in), queries, ctx, &stats);
    ExpectBatchesIdentical(expect, got, "ixjoin w=" + std::to_string(workers));
    EXPECT_EQ(stats.tuples_in, serial_stats.tuples_in);
    EXPECT_EQ(stats.index_lookups, serial_stats.index_lookups);
    EXPECT_EQ(stats.hash_probes, serial_stats.hash_probes);
    EXPECT_EQ(stats.predicate_evals, serial_stats.predicate_evals);
    EXPECT_EQ(stats.tuples_out, serial_stats.tuples_out);
  }
}

// --- End to end: a parallel engine matches a serial engine -------------------

class ParallelEngineFixture : public ::testing::Test {
 protected:
  std::unique_ptr<Catalog> MakeCatalog() {
    auto cat = std::make_unique<Catalog>();
    Table* users = cat->CreateTable(
        "users", Schema::Make({{"user_id", ValueType::kInt},
                               {"country", ValueType::kInt},
                               {"account", ValueType::kInt}}));
    Table* orders = cat->CreateTable(
        "orders", Schema::Make({{"order_id", ValueType::kInt},
                                {"user_id", ValueType::kInt},
                                {"amount", ValueType::kInt}}));
    users->set_rows_per_segment(32);
    orders->set_rows_per_segment(32);
    for (int i = 0; i < 300; ++i) {
      users->Insert({Value::Int(i), Value::Int(i % 5), Value::Int(i * 10)}, 1);
    }
    for (int i = 0; i < 900; ++i) {
      orders->Insert({Value::Int(i), Value::Int(i % 300), Value::Int(i % 173)}, 1);
    }
    cat->snapshots().Reset(1);
    return cat;
  }

  std::unique_ptr<GlobalPlan> BuildPlan(Catalog* cat) {
    GlobalPlanBuilder b(cat);
    const SchemaPtr us = cat->MustGetTable("users")->schema();
    b.AddQuery("user_orders",
               logical::HashJoin(
                   logical::Scan("users", Expr::Eq(Expr::Column(*us, "user_id"),
                                                   Expr::Param(0))),
                   logical::Scan("orders"), "user_id", "user_id", nullptr, "u", "o"));
    b.AddQuery("big_orders",
               logical::Sort(logical::Scan("orders",
                                           Expr::Ge(Expr::Column(2), Expr::Param(0))),
                             {{"amount", false}, {"order_id", true}}));
    b.AddUpdate("bump", "users",
                {{"account", Expr::Add(Expr::Column(2), Expr::Param(1))}},
                Expr::Eq(Expr::Column(0), Expr::Param(0)));
    return b.Build();
  }
};

TEST_F(ParallelEngineFixture, ParallelEngineMatchesSerialAcrossBatches) {
  // The pool runs the plan as a DAG and splits heavy operators into morsels;
  // results and per-node work must match the serial engine at every size.
  for (const size_t workers : kWorkerCounts) {
    auto serial_cat = MakeCatalog();
    auto par_cat = MakeCatalog();
    Engine serial_engine(BuildPlan(serial_cat.get()));
    EngineOptions popts;
    popts.parallel.num_workers = workers;
    popts.parallel.min_rows_per_task = 16;  // small tables must still split
    Engine par_engine(BuildPlan(par_cat.get()), std::move(popts));
    ASSERT_NE(par_engine.task_pool(), nullptr);
    api::ServerOptions sopts;
    sopts.start_paused = true;
    api::Server serial_server(&serial_engine, sopts);
    api::Server par_server(&par_engine, sopts);
    auto ss = serial_server.OpenSession();
    auto sp = par_server.OpenSession();

    for (int round = 0; round < 4; ++round) {
      std::vector<api::AsyncResult> fs, fp;
      for (int uid = 0; uid < 6; ++uid) {
        fs.push_back(ss->ExecuteAsync("user_orders", {Value::Int(uid)}));
        fp.push_back(sp->ExecuteAsync("user_orders", {Value::Int(uid)}));
      }
      fs.push_back(ss->ExecuteAsync("big_orders", {Value::Int(150)}));
      fp.push_back(sp->ExecuteAsync("big_orders", {Value::Int(150)}));
      fs.push_back(ss->ExecuteAsync("bump", {Value::Int(round), Value::Int(7)}));
      fp.push_back(sp->ExecuteAsync("bump", {Value::Int(round), Value::Int(7)}));
      const BatchReport serial_report = serial_server.StepBatch();
      const BatchReport par_report = par_server.StepBatch();

      const std::string label = "w=" + std::to_string(workers) + " round " +
                                std::to_string(round);
      // Morsel paths run other algorithms: skip their path-bound counters.
      ExpectNodeStatsEqual(serial_report.node_stats, par_report.node_stats, label,
                           /*same_algorithm=*/false);
      for (size_t i = 0; i < fs.size(); ++i) {
        ResultSet a = fs[i].Get();
        ResultSet b = fp[i].Get();
        ExpectResultsEqual(a, b, label + " q " + std::to_string(i));
      }
    }
  }
}

TEST_F(ParallelEngineFixture, GammaRoutingParallelMatchesSerialAndCountsSharing) {
  // Many concurrent calls, most sharing one statement+parameter: the
  // parallel server runs the plan on the pool while both servers route
  // results in Γ's one serial pass. The per-call results, the batch-level
  // sharing win, and the routing-miss counter must all agree.
  auto serial_cat = MakeCatalog();
  auto par_cat = MakeCatalog();
  Engine serial_engine(BuildPlan(serial_cat.get()));
  EngineOptions popts;
  popts.parallel.num_workers = 4;
  popts.parallel.min_rows_per_task = 16;
  popts.parallel.min_items_per_task = 1;  // no item-granular stage stays serial
  Engine par_engine(BuildPlan(par_cat.get()), std::move(popts));
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server serial_server(&serial_engine, sopts);
  api::Server par_server(&par_engine, sopts);
  auto ss = serial_server.OpenSession();
  auto sp = par_server.OpenSession();

  std::vector<api::AsyncResult> fs, fp;
  for (int i = 0; i < 10; ++i) {  // ten subscribers to identical results
    fs.push_back(ss->ExecuteAsync("user_orders", {Value::Int(42)}));
    fp.push_back(sp->ExecuteAsync("user_orders", {Value::Int(42)}));
  }
  for (int uid = 0; uid < 4; ++uid) {
    fs.push_back(ss->ExecuteAsync("user_orders", {Value::Int(uid)}));
    fp.push_back(sp->ExecuteAsync("user_orders", {Value::Int(uid)}));
  }
  const BatchReport serial_report = serial_server.StepBatch();
  const BatchReport par_report = par_server.StepBatch();

  for (size_t i = 0; i < fs.size(); ++i) {
    ResultSet a = fs[i].Get();
    ResultSet b = fp[i].Get();
    ExpectResultsEqual(a, b, "gamma q " + std::to_string(i));
    // Every call of the batch carries the batch-level sharing win.
    EXPECT_EQ(a.shared_work_saved, serial_report.shared_work_saved) << i;
    EXPECT_EQ(b.shared_work_saved, par_report.shared_work_saved) << i;
  }
  // Ten queries read rows materialized once: real sharing, identical
  // accounting on both servers.
  EXPECT_GT(par_report.shared_work_saved, 0u);
  EXPECT_EQ(par_report.shared_work_saved, serial_report.shared_work_saved);
  EXPECT_GE(par_report.rows_delivered, par_report.rows_touched);
  EXPECT_EQ(par_report.missing_root_outputs, 0u);
  EXPECT_EQ(serial_report.missing_root_outputs, 0u);
  EXPECT_EQ(par_server.stats().shared_work_saved, par_report.shared_work_saved);
  EXPECT_EQ(par_server.stats().missing_root_outputs, 0u);
}

}  // namespace
}  // namespace shareddb
