// Shared-operator tests. Each operator is checked against a per-query naive
// reference (the "few small operations" of the query-at-a-time model) —
// results must match exactly, and the shared work must stay bounded. This is
// the paper's §3.3/§3.4 semantics: one big operation + query-id routing
// equals many small operations.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/ops/distinct_op.h"
#include "core/ops/filter_op.h"
#include "core/ops/group_by_op.h"
#include "core/ops/hash_join_op.h"
#include "core/ops/index_join_op.h"
#include "core/ops/qid_join_op.h"
#include "core/ops/router.h"
#include "core/ops/scan_op.h"
#include "core/ops/probe_op.h"
#include "core/ops/sort_op.h"
#include "core/ops/top_n_op.h"

namespace shareddb {
namespace {

const std::vector<Value> kNoParams;

SchemaPtr RSchema() {
  return Schema::Make({{"id", ValueType::kInt}, {"city", ValueType::kInt}});
}
SchemaPtr SSchema() {
  return Schema::Make({{"id", ValueType::kInt}, {"price", ValueType::kInt}});
}

std::vector<Tuple> SortedTuples(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end(), TupleLess);
  return v;
}

CycleContext Ctx() {
  CycleContext ctx;
  ctx.read_snapshot = 1;
  ctx.write_version = 2;
  return ctx;
}

// --- Figure 3: shared hash join ------------------------------------------------

TEST(HashJoinOpTest, Figure3Semantics) {
  // R tuples relevant to {Q0}, {Q1}, {Q0,Q1}; S tuples similar. A pair joins
  // only if the data keys match AND the interest sets intersect.
  auto r = RSchema();
  auto s = SSchema();
  DQBatch left(r), right(s);
  left.Push({Value::Int(1), Value::Int(10)}, QueryIdSet{0});
  left.Push({Value::Int(2), Value::Int(20)}, QueryIdSet{1});
  left.Push({Value::Int(3), Value::Int(30)}, QueryIdSet{0, 1});
  right.Push({Value::Int(1), Value::Int(100)}, QueryIdSet{1});   // key 1: Q1 only
  right.Push({Value::Int(2), Value::Int(200)}, QueryIdSet{1});
  right.Push({Value::Int(3), Value::Int(300)}, QueryIdSet{0});

  HashJoinOp op(r, s, 0, 0, "r", "s");
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}, {1, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(left));
  inputs.push_back(std::move(right));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);

  // Key 1: R{Q0} x S{Q1} -> empty intersection, no output.
  // Key 2: R{Q1} x S{Q1} -> Q1. Key 3: R{Q0,Q1} x S{Q0} -> Q0.
  EXPECT_EQ(out.RowsFor(0).size(), 1u);
  EXPECT_EQ(out.RowsFor(1).size(), 1u);
  EXPECT_EQ(out.RowsFor(0)[0][0].AsInt(), 3);
  EXPECT_EQ(out.RowsFor(1)[0][0].AsInt(), 2);
  EXPECT_EQ(out.schema->column(0).name, "r.id");
  EXPECT_EQ(out.schema->column(2).name, "s.id");
  EXPECT_GT(stats.hash_builds, 0u);
}

TEST(HashJoinOpTest, PerQueryResidualStripsIds) {
  auto r = RSchema();
  auto s = SSchema();
  DQBatch left(r), right(s);
  left.Push({Value::Int(1), Value::Int(10)}, QueryIdSet{0, 1});
  right.Push({Value::Int(1), Value::Int(100)}, QueryIdSet{0, 1});
  HashJoinOp op(r, s, 0, 0);
  // Q0 requires s.price > 500 (fails); Q1 requires s.price > 50 (passes).
  std::vector<OpQuery> queries{
      {0, Expr::Gt(Expr::Column(3), Expr::Literal(Value::Int(500))), nullptr, -1},
      {1, Expr::Gt(Expr::Column(3), Expr::Literal(Value::Int(50))), nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(left));
  inputs.push_back(std::move(right));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_TRUE(out.RowsFor(0).empty());
  EXPECT_EQ(out.RowsFor(1).size(), 1u);
}

TEST(HashJoinOpTest, MasksForeignQueryIds) {
  // Tuples annotated for a query not active at this node must not leak.
  auto r = RSchema();
  auto s = SSchema();
  DQBatch left(r), right(s);
  left.Push({Value::Int(1), Value::Int(10)}, QueryIdSet{0, 7});
  right.Push({Value::Int(1), Value::Int(100)}, QueryIdSet{0, 7});
  HashJoinOp op(r, s, 0, 0);
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};  // 7 is foreign
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(left));
  inputs.push_back(std::move(right));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.qids[0].ids(), (std::vector<QueryId>{0}));
}

TEST(HashJoinOpTest, BuildSideSelectionEquivalent) {
  // The op hashes the smaller input. Padding the left side with rows that
  // join nothing flips the build side; the per-query output must not move.
  Rng rng(5);
  auto r = RSchema();
  auto s = SSchema();
  DQBatch left(r), right(s);
  for (int i = 0; i < 50; ++i) {
    left.Push({Value::Int(rng.Uniform(0, 10)), Value::Int(i)},
              QueryIdSet{static_cast<QueryId>(rng.Uniform(0, 2))});
  }
  for (int i = 0; i < 80; ++i) {
    right.Push({Value::Int(rng.Uniform(0, 10)), Value::Int(i)},
               QueryIdSet{static_cast<QueryId>(rng.Uniform(0, 2))});
  }
  DQBatch padded = left;
  for (int i = 0; i < 70; ++i) {
    padded.Push({Value::Int(1000 + i), Value::Int(i)}, QueryIdSet{0, 1, 2});
  }
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1},
                               {1, nullptr, nullptr, -1},
                               {2, nullptr, nullptr, -1}};
  HashJoinOp op(r, s, 0, 0);
  std::vector<BatchRef> in1, in2;
  in1.push_back(left);
  in1.push_back(right);
  in2.push_back(padded);
  in2.push_back(right);
  WorkStats st1, st2;
  DQBatch o1 = op.RunCycle(std::move(in1), queries, Ctx(), &st1);
  DQBatch o2 = op.RunCycle(std::move(in2), queries, Ctx(), &st2);
  EXPECT_EQ(st1.hash_builds, 50u);  // built on left (50 < 80)
  EXPECT_EQ(st2.hash_builds, 80u);  // built on right (80 < 120)
  ASSERT_GT(o1.size(), 0u);
  for (QueryId q = 0; q < 3; ++q) {
    EXPECT_EQ(SortedTuples(o1.RowsFor(q)), SortedTuples(o2.RowsFor(q)));
  }
}

// QidJoin (set-based join on query_id, [16]) must agree with HashJoin.
TEST(QidJoinOpTest, AgreesWithHashJoin) {
  Rng rng(77);
  auto r = RSchema();
  auto s = SSchema();
  for (int round = 0; round < 20; ++round) {
    DQBatch left(r), right(s);
    const int n = static_cast<int>(rng.Uniform(1, 60));
    for (int i = 0; i < n; ++i) {
      QueryIdSet ql, qr;
      for (QueryId q = 0; q < 4; ++q) {
        if (rng.Bernoulli(0.4)) ql.Insert(q);
        if (rng.Bernoulli(0.4)) qr.Insert(q);
      }
      if (!ql.empty()) {
        left.Push({Value::Int(rng.Uniform(0, 8)), Value::Int(i)}, ql);
      }
      if (!qr.empty()) {
        right.Push({Value::Int(rng.Uniform(0, 8)), Value::Int(1000 + i)}, qr);
      }
    }
    std::vector<OpQuery> queries;
    for (QueryId q = 0; q < 4; ++q) queries.push_back({q, nullptr, nullptr, -1});
    HashJoinOp hj(r, s, 0, 0);
    QidJoinOp qj(r, s, 0, 0);
    std::vector<BatchRef> in1, in2;
    in1.push_back(left);
    in1.push_back(right);
    in2.push_back(left);
    in2.push_back(right);
    DQBatch o1 = hj.RunCycle(std::move(in1), queries, Ctx(), nullptr);
    DQBatch o2 = qj.RunCycle(std::move(in2), queries, Ctx(), nullptr);
    for (QueryId q = 0; q < 4; ++q) {
      EXPECT_EQ(SortedTuples(o1.RowsFor(q)), SortedTuples(o2.RowsFor(q)))
          << "round " << round << " query " << q;
    }
  }
}

// --- shared sort (Figure 4) -----------------------------------------------------

TEST(SortOpTest, Figure4SharedSort) {
  // The paper's exact example: two queries, one shared sort by name.
  auto schema = Schema::Make({{"name", ValueType::kString},
                              {"account", ValueType::kInt},
                              {"birthdate", ValueType::kString}});
  DQBatch in(schema);
  // Query A: BIRTHDATE > 1980.01.01; Query B: ACCOUNT > 1000.
  auto add = [&](const char* n, int64_t acc, const char* bd,
                 std::initializer_list<QueryId> qs) {
    in.Push({Value::Str(n), Value::Int(acc), Value::Str(bd)}, QueryIdSet(qs));
  };
  add("John Smith", 3000, "1980.03.05", {0, 1});
  add("Bill Harisson", 1230, "1978.03.02", {1});
  add("Nick Lee", 540, "1982.02.09", {0});
  add("James Meyer", 2300, "1981.03.09", {0, 1});
  // Kate Johnson matches neither query: never enters the operator.

  SortOp op(schema, {{0, true}});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}, {1, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);

  // One shared sort of 4 tuples, not two sorts of 3 tuples each.
  EXPECT_EQ(out.size(), 4u);
  const std::vector<Tuple> a = out.RowsFor(0);
  const std::vector<Tuple> b = out.RowsFor(1);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(a[0][0].AsString(), "James Meyer");
  EXPECT_EQ(a[1][0].AsString(), "John Smith");
  EXPECT_EQ(a[2][0].AsString(), "Nick Lee");
  EXPECT_EQ(b[0][0].AsString(), "Bill Harisson");
  EXPECT_EQ(b[1][0].AsString(), "James Meyer");
  EXPECT_EQ(b[2][0].AsString(), "John Smith");
}

TEST(SortOpTest, DescendingAndMultiKey) {
  auto schema = RSchema();
  DQBatch in(schema);
  in.Push({Value::Int(1), Value::Int(5)}, QueryIdSet{0});
  in.Push({Value::Int(2), Value::Int(5)}, QueryIdSet{0});
  in.Push({Value::Int(3), Value::Int(1)}, QueryIdSet{0});
  SortOp op(schema, {{1, false}, {0, true}});  // city desc, id asc
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.tuples[0][0].AsInt(), 1);
  EXPECT_EQ(out.tuples[1][0].AsInt(), 2);
  EXPECT_EQ(out.tuples[2][0].AsInt(), 3);
}

// --- shared Top-N ------------------------------------------------------------------

TEST(TopNOpTest, PerQueryLimits) {
  auto schema = RSchema();
  DQBatch in(schema);
  for (int i = 0; i < 10; ++i) {
    in.Push({Value::Int(i), Value::Int(100 - i)}, QueryIdSet{0, 1});
  }
  TopNOp op(schema, {{0, true}});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, 3}, {1, nullptr, nullptr, 7}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_EQ(out.RowsFor(0).size(), 3u);
  EXPECT_EQ(out.RowsFor(1).size(), 7u);
  // Q0's rows are the global first three in sort order.
  const std::vector<Tuple> q0 = out.RowsFor(0);
  EXPECT_EQ(q0[0][0].AsInt(), 0);
  EXPECT_EQ(q0[2][0].AsInt(), 2);
}

TEST(TopNOpTest, PerQueryPredicateFiltersBeforeCounting) {
  auto schema = RSchema();
  DQBatch in(schema);
  for (int i = 0; i < 10; ++i) {
    in.Push({Value::Int(i), Value::Int(i % 2)}, QueryIdSet{0});
  }
  TopNOp op(schema, {{0, true}});
  // Only odd cities count; take top 2.
  std::vector<OpQuery> queries{
      {0, Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(1))), nullptr, 2}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  const std::vector<Tuple> rows = out.RowsFor(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[1][0].AsInt(), 3);
}

TEST(TopNOpTest, UnlimitedQueryGetsAll) {
  auto schema = RSchema();
  DQBatch in(schema);
  for (int i = 0; i < 5; ++i) in.Push({Value::Int(i), Value::Int(0)}, QueryIdSet{0});
  TopNOp op(schema, {{0, true}});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_EQ(out.RowsFor(0).size(), 5u);
}

// --- shared group-by ---------------------------------------------------------------

TEST(GroupByOpTest, SharedGroupingPerQueryAggregation) {
  auto schema = Schema::Make({{"country", ValueType::kInt},
                              {"amount", ValueType::kInt}});
  DQBatch in(schema);
  // Q0 subscribed to all; Q1 only to amount >= 10 rows (as if filtered).
  in.Push({Value::Int(1), Value::Int(5)}, QueryIdSet{0});
  in.Push({Value::Int(1), Value::Int(10)}, QueryIdSet{0, 1});
  in.Push({Value::Int(2), Value::Int(20)}, QueryIdSet{0, 1});
  GroupByOp op(schema, {0},
               {AggSpec{AggFunc::kCount, -1, "cnt"}, AggSpec{AggFunc::kSum, 1, "total"}});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}, {1, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);

  auto rows0 = SortedTuples(out.RowsFor(0));
  ASSERT_EQ(rows0.size(), 2u);
  EXPECT_EQ(rows0[0][0].AsInt(), 1);          // country 1
  EXPECT_EQ(rows0[0][1].AsInt(), 2);          // count 2
  EXPECT_DOUBLE_EQ(rows0[0][2].AsDouble(), 15.0);
  auto rows1 = SortedTuples(out.RowsFor(1));
  ASSERT_EQ(rows1.size(), 2u);
  EXPECT_EQ(rows1[0][1].AsInt(), 1);          // Q1 saw only one row in country 1
  EXPECT_DOUBLE_EQ(rows1[0][2].AsDouble(), 10.0);
}

TEST(GroupByOpTest, PerQueryHaving) {
  auto schema = Schema::Make({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  DQBatch in(schema);
  for (int i = 0; i < 8; ++i) {
    in.Push({Value::Int(i % 2), Value::Int(i)}, QueryIdSet{0, 1});
  }
  GroupByOp op(schema, {0}, {AggSpec{AggFunc::kCount, -1, "cnt"}});
  // Output schema: (k, cnt). Q0: HAVING cnt > 100 (drops all); Q1: cnt >= 4.
  std::vector<OpQuery> queries{
      {0, nullptr, Expr::Gt(Expr::Column(1), Expr::Literal(Value::Int(100))), -1},
      {1, nullptr, Expr::Ge(Expr::Column(1), Expr::Literal(Value::Int(4))), -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_TRUE(out.RowsFor(0).empty());
  EXPECT_EQ(out.RowsFor(1).size(), 2u);
}

TEST(GroupByOpTest, MinMaxAvg) {
  auto schema = Schema::Make({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  DQBatch in(schema);
  in.Push({Value::Int(1), Value::Int(4)}, QueryIdSet{0});
  in.Push({Value::Int(1), Value::Int(8)}, QueryIdSet{0});
  GroupByOp op(schema, {0},
               {AggSpec{AggFunc::kMin, 1, "mn"}, AggSpec{AggFunc::kMax, 1, "mx"},
                AggSpec{AggFunc::kAvg, 1, "avg"}});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.tuples[0][1].AsInt(), 4);
  EXPECT_EQ(out.tuples[0][2].AsInt(), 8);
  EXPECT_DOUBLE_EQ(out.tuples[0][3].AsDouble(), 6.0);
}

// --- filter / distinct / project / union -------------------------------------------

TEST(FilterOpTest, PerQueryPredicates) {
  auto schema = RSchema();
  DQBatch in(schema);
  for (int i = 0; i < 6; ++i) {
    in.Push({Value::Int(i), Value::Int(i * 10)}, QueryIdSet{0, 1});
  }
  FilterOp op(schema);
  std::vector<OpQuery> queries{
      {0, Expr::Lt(Expr::Column(0), Expr::Literal(Value::Int(2))), nullptr, -1},
      {1, Expr::Ge(Expr::Column(0), Expr::Literal(Value::Int(4))), nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);
  EXPECT_EQ(out.RowsFor(0).size(), 2u);
  EXPECT_EQ(out.RowsFor(1).size(), 2u);
  // Rows relevant to neither query are dropped entirely.
  EXPECT_EQ(out.size(), 4u);
  // Each (tuple, subscribed query) pair evaluated once: 6 tuples × 2 queries.
  EXPECT_EQ(stats.predicate_evals, 12u);
}

TEST(FilterOpTest, SharedPredicateEvaluatedOncePerTuple) {
  auto schema = RSchema();
  DQBatch in(schema);
  for (int i = 0; i < 4; ++i) in.Push({Value::Int(i), Value::Int(0)}, QueryIdSet{0, 1, 2});
  FilterOp op(schema, Expr::Lt(Expr::Column(0), Expr::Literal(Value::Int(2))));
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1},
                               {1, nullptr, nullptr, -1},
                               {2, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);
  EXPECT_EQ(out.size(), 2u);
  // Shared predicate: 4 evaluations (one per tuple), NOT 12.
  EXPECT_EQ(stats.predicate_evals, 4u);
}

TEST(DistinctOpTest, MergesDuplicatesAndUnionsIds) {
  auto schema = RSchema();
  DQBatch in(schema);
  in.Push({Value::Int(1), Value::Int(1)}, QueryIdSet{0});
  in.Push({Value::Int(1), Value::Int(1)}, QueryIdSet{1});
  in.Push({Value::Int(2), Value::Int(2)}, QueryIdSet{0});
  DistinctOp op(schema);
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}, {1, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_EQ(out.size(), 2u);  // physical: the duplicate collapsed
  EXPECT_EQ(out.RowsFor(0).size(), 2u);
  EXPECT_EQ(out.RowsFor(1).size(), 1u);
}

TEST(ProjectOpTest, ReordersColumns) {
  auto schema = RSchema();
  DQBatch in(schema);
  in.Push({Value::Int(7), Value::Int(70)}, QueryIdSet{0});
  ProjectOp op(schema, {1, 0});
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(in));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.tuples[0][0].AsInt(), 70);
  EXPECT_EQ(out.tuples[0][1].AsInt(), 7);
  EXPECT_EQ(out.schema->column(0).name, "city");
}

TEST(UnionOpTest, ConcatenatesInputs) {
  auto schema = RSchema();
  DQBatch a(schema), b(schema);
  a.Push({Value::Int(1), Value::Int(1)}, QueryIdSet{0});
  b.Push({Value::Int(2), Value::Int(2)}, QueryIdSet{0});
  UnionOp op(schema);
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(a));
  inputs.push_back(std::move(b));
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), nullptr);
  EXPECT_EQ(out.RowsFor(0).size(), 2u);
}

// --- scan / probe / index join over real tables --------------------------------------

class TableOpsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    items_ = std::make_unique<Table>(
        "items", Schema::Make({{"i_id", ValueType::kInt},
                               {"i_cat", ValueType::kInt},
                               {"i_price", ValueType::kInt}}));
    items_->CreateIndex("items_id", "i_id");
    for (int i = 0; i < 30; ++i) {
      items_->Insert({Value::Int(i), Value::Int(i % 3), Value::Int(i * 10)}, 1);
    }
  }
  std::unique_ptr<Table> items_;
};

TEST_F(TableOpsFixture, ScanOpAnnotates) {
  ScanOp op(items_.get());
  std::vector<OpQuery> queries{
      {0, Expr::Eq(Expr::Column(1), Expr::Literal(Value::Int(0))), nullptr, -1},
      {1, Expr::Lt(Expr::Column(0), Expr::Literal(Value::Int(3))), nullptr, -1}};
  WorkStats stats;
  DQBatch out = op.RunCycle({}, queries, Ctx(), &stats);
  EXPECT_EQ(out.RowsFor(0).size(), 10u);
  EXPECT_EQ(out.RowsFor(1).size(), 3u);
  EXPECT_EQ(stats.rows_scanned, 30u);
}

TEST_F(TableOpsFixture, ProbeOpSharedLookups) {
  ProbeOp op(items_.get(), "items_id");
  // Q0 and Q1 probe the same key; Q2 a different one.
  std::vector<OpQuery> queries{
      {0, Expr::Eq(Expr::Column(0), Expr::Literal(Value::Int(5))), nullptr, -1},
      {1, Expr::Eq(Expr::Column(0), Expr::Literal(Value::Int(5))), nullptr, -1},
      {2, Expr::Eq(Expr::Column(0), Expr::Literal(Value::Int(9))), nullptr, -1}};
  WorkStats stats;
  DQBatch out = op.RunCycle({}, queries, Ctx(), &stats);
  EXPECT_EQ(out.size(), 2u);  // two distinct rows
  EXPECT_EQ(out.RowsFor(0).size(), 1u);
  EXPECT_EQ(out.RowsFor(1).size(), 1u);
  EXPECT_EQ(out.RowsFor(2).size(), 1u);
  // The row for key 5 carries both query ids (emitted once).
  bool found = false;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.tuples[i][0].AsInt() == 5) {
      EXPECT_EQ(out.qids[i].ids(), (std::vector<QueryId>{0, 1}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TableOpsFixture, ProbeOpRangeAccess) {
  ProbeOp op(items_.get(), "items_id");
  std::vector<OpQuery> queries{
      {0,
       Expr::And({Expr::Ge(Expr::Column(0), Expr::Literal(Value::Int(10))),
                  Expr::Lt(Expr::Column(0), Expr::Literal(Value::Int(15)))}),
       nullptr, -1}};
  DQBatch out = op.RunCycle({}, queries, Ctx(), nullptr);
  EXPECT_EQ(out.RowsFor(0).size(), 5u);
}

TEST_F(TableOpsFixture, IndexJoinOpSharedLookupCache) {
  auto outer_schema = Schema::Make({{"o_item", ValueType::kInt},
                                    {"o_qty", ValueType::kInt}});
  DQBatch outer(outer_schema);
  // Three outer tuples share key 4: the B-tree is probed once.
  outer.Push({Value::Int(4), Value::Int(1)}, QueryIdSet{0});
  outer.Push({Value::Int(4), Value::Int(2)}, QueryIdSet{1});
  outer.Push({Value::Int(4), Value::Int(3)}, QueryIdSet{0});
  outer.Push({Value::Int(9), Value::Int(4)}, QueryIdSet{1});
  IndexJoinOp op(outer_schema, 0, items_.get(), "items_id", "o", "i");
  std::vector<OpQuery> queries{{0, nullptr, nullptr, -1}, {1, nullptr, nullptr, -1}};
  std::vector<BatchRef> inputs;
  inputs.push_back(std::move(outer));
  WorkStats stats;
  DQBatch out = op.RunCycle(std::move(inputs), queries, Ctx(), &stats);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(stats.index_lookups, 2u);  // distinct keys only
  EXPECT_EQ(out.RowsFor(0).size(), 2u);
  EXPECT_EQ(out.RowsFor(1).size(), 2u);
  EXPECT_EQ(out.schema->column(0).name, "o.o_item");
  EXPECT_EQ(out.schema->column(2).name, "i.i_id");
}

// --- router -------------------------------------------------------------------------

TEST(RouterTest, SplitsByQueryId) {
  DQBatch b(RSchema());
  b.Push({Value::Int(1), Value::Int(1)}, QueryIdSet{0, 1});
  b.Push({Value::Int(2), Value::Int(2)}, QueryIdSet{1});
  WorkStats stats;
  std::vector<std::vector<Tuple>> routed(2);
  RouteByQueryId(b, {&routed[0], &routed[1]}, &stats);
  EXPECT_EQ(routed[0].size(), 1u);
  EXPECT_EQ(routed[1].size(), 2u);
  EXPECT_EQ(stats.qid_elems, 3u);
}

TEST(RouterTest, OnePassVisitsEachMembershipOnce) {
  // N rows with one qid each and N subscribers: a linear Γ visits exactly N
  // memberships, where a per-subscriber rescan would visit N * N.
  constexpr size_t kN = 512;
  DQBatch b(RSchema());
  std::vector<std::vector<Tuple>> routed(kN);
  std::vector<std::vector<Tuple>*> dest;
  for (size_t i = 0; i < kN; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    b.Push({Value::Int(v), Value::Int(v)}, QueryIdSet(static_cast<QueryId>(i)));
    dest.push_back(&routed[i]);
  }
  WorkStats stats;
  RouteByQueryId(b, dest, &stats);
  EXPECT_EQ(stats.qid_elems, kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(routed[i].size(), 1u) << i;
    EXPECT_EQ(routed[i][0][0].AsInt(), static_cast<int64_t>(i));
  }
}

TEST(RouterTest, SkipsIdsRoutedFromAnotherRootAndKeepsBatchOrder) {
  // Query 1 has no destination here (its root is another node) and query 3
  // lies past the table; both are visited and skipped.
  DQBatch b(RSchema());
  b.Push({Value::Int(1), Value::Int(1)}, QueryIdSet{0, 1, 2});
  b.Push({Value::Int(2), Value::Int(2)}, QueryIdSet{1, 3});
  b.Push({Value::Int(3), Value::Int(3)}, QueryIdSet{0, 2, 3});
  std::vector<Tuple> q0, q2;
  WorkStats stats;
  RouteByQueryId(b, {&q0, nullptr, &q2}, &stats);
  EXPECT_EQ(stats.qid_elems, 8u);
  ASSERT_EQ(q0.size(), 2u);
  EXPECT_EQ(q0[0][0].AsInt(), 1);
  EXPECT_EQ(q0[1][0].AsInt(), 3);
  EXPECT_EQ(q0, q2);
}

// --- property: shared ops equal per-query reference -----------------------------------

TEST(SharedOpsProperty, JoinSortTopNMatchReference) {
  Rng rng(2024);
  auto r = RSchema();
  auto s = SSchema();
  for (int round = 0; round < 15; ++round) {
    const int nq = static_cast<int>(rng.Uniform(1, 12));
    const int nl = static_cast<int>(rng.Uniform(0, 80));
    const int nr = static_cast<int>(rng.Uniform(0, 80));
    DQBatch left(r), right(s);
    // Per-query membership mimics upstream per-query predicates.
    std::vector<std::vector<Tuple>> left_by_q(nq), right_by_q(nq);
    for (int i = 0; i < nl; ++i) {
      Tuple t{Value::Int(rng.Uniform(0, 12)), Value::Int(rng.Uniform(0, 100))};
      QueryIdSet qs;
      for (QueryId q = 0; q < static_cast<QueryId>(nq); ++q) {
        if (rng.Bernoulli(0.35)) {
          qs.Insert(q);
          left_by_q[q].push_back(t);
        }
      }
      if (!qs.empty()) left.Push(t, qs);
    }
    for (int i = 0; i < nr; ++i) {
      Tuple t{Value::Int(rng.Uniform(0, 12)), Value::Int(rng.Uniform(0, 100))};
      QueryIdSet qs;
      for (QueryId q = 0; q < static_cast<QueryId>(nq); ++q) {
        if (rng.Bernoulli(0.35)) {
          qs.Insert(q);
          right_by_q[q].push_back(t);
        }
      }
      if (!qs.empty()) right.Push(t, qs);
    }

    std::vector<OpQuery> queries;
    for (QueryId q = 0; q < static_cast<QueryId>(nq); ++q) {
      queries.push_back({q, nullptr, nullptr, -1});
    }
    HashJoinOp join(r, s, 0, 0);
    std::vector<BatchRef> inputs;
    inputs.push_back(std::move(left));
    inputs.push_back(std::move(right));
    DQBatch joined = join.RunCycle(std::move(inputs), queries, Ctx(), nullptr);

    for (QueryId q = 0; q < static_cast<QueryId>(nq); ++q) {
      // Reference: the small per-query join.
      std::vector<Tuple> expect;
      for (const Tuple& lt : left_by_q[q]) {
        for (const Tuple& rt : right_by_q[q]) {
          if (lt[0].Compare(rt[0]) == 0) expect.push_back(ConcatTuples(lt, rt));
        }
      }
      EXPECT_EQ(SortedTuples(joined.RowsFor(q)), SortedTuples(expect))
          << "round " << round << " q " << q;
    }
  }
}

}  // namespace
}  // namespace shareddb
