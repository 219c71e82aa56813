// Tuple: an immutable, refcounted row. Copies share one allocation, the
// comparison helpers keep the semantics rows had as std::vector<Value>, and
// a row handed out by a table or a result set outlives the table slot it
// came from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/tuple.h"
#include "core/engine.h"
#include "core/plan_builder.h"
#include "storage/table.h"

namespace shareddb {
namespace {

TEST(TupleTest, CopySharesStorageAndMoveEmpties) {
  const Tuple a = {Value::Int(1), Value::Str("a string longer than any SSO buffer")};
  Tuple b = a;
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(&b[1].AsString(), &a[1].AsString());

  Tuple c = std::move(b);
  EXPECT_EQ(c.data(), a.data());
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.begin(), b.end());

  Tuple d;
  d = c;
  EXPECT_EQ(d.data(), a.data());
  d = Tuple{Value::Int(2)};
  EXPECT_NE(d.data(), a.data());
  EXPECT_EQ(c.data(), a.data());  // reassigning one handle leaves the others
  EXPECT_EQ(a[0].AsInt(), 1);
}

TEST(TupleTest, EmptyTupleNeedsNoStorage) {
  const Tuple empty;
  const Tuple from_vector{std::vector<Value>{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(from_vector.data(), nullptr);
  EXPECT_EQ(empty, from_vector);
  EXPECT_TRUE(TuplesEqual(empty, from_vector));
  EXPECT_FALSE(TupleLess(empty, from_vector));
  EXPECT_TRUE(TupleLess(empty, Tuple{Value::Null()}));
}

// Every pairing of these cells must compare as the old std::vector<Value>
// rows did: INT 1 and DOUBLE 1.0 are equal, NULL equals NULL and sorts
// first, NaN equals NaN and sorts after every other number.
TEST(TupleTest, ComparisonsMatchVectorSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> cells = {Value::Null(),      Value::Int(1),
                                    Value::Double(1.0), Value::Double(1.5),
                                    Value::Double(nan), Value::Str("x")};
  std::vector<std::vector<Value>> rows;
  for (const Value& x : cells) {
    rows.push_back({x});
    for (const Value& y : cells) rows.push_back({x, y});
  }
  for (const std::vector<Value>& va : rows) {
    for (const std::vector<Value>& vb : rows) {
      const Tuple a(va), b(vb);
      const bool vec_less =
          std::lexicographical_compare(va.begin(), va.end(), vb.begin(), vb.end());
      EXPECT_EQ(a == b, va == vb) << TupleToString(a) << " vs " << TupleToString(b);
      EXPECT_EQ(a != b, va != vb);
      EXPECT_EQ(TuplesEqual(a, b), va == vb);
      EXPECT_EQ(TupleLess(a, b), vec_less)
          << TupleToString(a) << " < " << TupleToString(b);
      if (a == b) {
        EXPECT_EQ(TupleHash(a), TupleHash(b));
      }
    }
  }
  const Tuple with_nan = {Value::Double(nan)};
  EXPECT_EQ(with_nan, with_nan);
  EXPECT_EQ(Tuple({Value::Int(1)}), Tuple({Value::Double(1.0)}));
}

TEST(TupleTest, BuildAndConcat) {
  const Tuple squares =
      Tuple::Build(4, [](size_t i) { return Value::Int(static_cast<int64_t>(i * i)); });
  ASSERT_EQ(squares.size(), 4u);
  EXPECT_EQ(squares, Tuple({Value::Int(0), Value::Int(1), Value::Int(4), Value::Int(9)}));
  EXPECT_TRUE(Tuple::Build(0, [](size_t) { return Value::Null(); }).empty());

  const Tuple left = {Value::Int(7), Value::Str("seven")};
  const Tuple right = {Value::Double(2.5)};
  const Tuple joined = ConcatTuples(left, right);
  EXPECT_EQ(joined, Tuple({Value::Int(7), Value::Str("seven"), Value::Double(2.5)}));
  EXPECT_EQ(ConcatTuples(left, Tuple{}), left);
  EXPECT_EQ(ConcatTuples(Tuple{}, right), right);
  EXPECT_EQ(TupleToString(joined), "(7, 'seven', 2.5)");
}

TEST(TupleTest, GetRowOutlivesVacuum) {
  Table table("t", Schema::Make({{"id", ValueType::kInt}, {"name", ValueType::kString}}));
  const RowId id = table.Insert({Value::Int(1), Value::Str("before vacuum, long enough")}, 1);
  table.Insert({Value::Int(2), Value::Str("survivor")}, 1);
  const Row row = table.GetRow(id);
  EXPECT_EQ(row.data.data(), table.GetRow(id).data.data());  // shared, not copied

  ASSERT_TRUE(table.DeleteRow(id, 2));
  ASSERT_EQ(table.Vacuum(3), 1u);
  ASSERT_EQ(table.PhysicalSize(), 1u);
  EXPECT_EQ(row.data[0].AsInt(), 1);
  EXPECT_EQ(row.data[1].AsString(), "before vacuum, long enough");
  EXPECT_EQ(table.GetRow(0).data[1].AsString(), "survivor");
}

TEST(TupleTest, ResultSetRowOutlivesVacuum) {
  Catalog cat;
  Table* kv = cat.CreateTable(
      "kv", Schema::Make({{"id", ValueType::kInt}, {"name", ValueType::kString}}));
  for (int i = 0; i < 4; ++i) {
    kv->Insert({Value::Int(i), Value::Str("row number " + std::to_string(i))}, 1);
  }
  cat.snapshots().Reset(1);
  GlobalPlanBuilder b(&cat);
  b.AddQuery("get", logical::Scan("kv", Expr::Eq(Expr::Column(0), Expr::Param(0))));
  b.AddDelete("drop", "kv", Expr::Eq(Expr::Column(0), Expr::Param(0)));
  EngineOptions opts;
  opts.vacuum_interval = 1;
  Engine engine(b.Build(), opts);

  const ResultSet rs = engine.ExecuteSyncNamed("get", {Value::Int(2)});
  ASSERT_TRUE(rs.status.ok());
  ASSERT_EQ(rs.rows.size(), 1u);
  // The scan's result row is the stored row, not a copy of it.
  EXPECT_EQ(rs.rows[0].data(), kv->GetRow(2).data.data());

  ASSERT_EQ(engine.ExecuteSyncNamed("drop", {Value::Int(2)}).update_count, 1u);
  engine.ExecuteSyncNamed("get", {Value::Int(0)});  // a batch past the delete
  ASSERT_EQ(kv->PhysicalSize(), 3u);                // vacuumed away
  EXPECT_EQ(rs.rows[0][0].AsInt(), 2);
  EXPECT_EQ(rs.rows[0][1].AsString(), "row number 2");
}

TEST(TupleTest, ConcurrentCopiesAndDrops) {
  const Tuple shared = {Value::Int(42), Value::Str("shared by every thread, heap string")};
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared] {
      std::vector<Tuple> held;
      for (int i = 0; i < kRounds; ++i) {
        held.push_back(shared);
        if (held.size() == 16) {
          const Tuple moved = std::move(held.front());
          EXPECT_EQ(moved[0].AsInt(), 42);
          held.clear();
        }
      }
    });
  }
  // The last handle to a row may be dropped on any thread.
  Tuple last = Tuple{Value::Str("dropped on a worker thread, long enough for heap")};
  threads.emplace_back([owned = std::move(last)]() mutable { owned = Tuple{}; });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared[1].AsString(), "shared by every thread, heap string");
}

}  // namespace
}  // namespace shareddb
