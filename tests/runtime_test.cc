// Cycle-executor tests: running the global plan as a DAG on the worker pool
// must produce exactly what the serial plan-order schedule produces — the
// same results and the same per-node WorkStats — across many batches, with
// updates interleaved, at 1/2/4/8 workers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/server.h"
#include "core/engine.h"
#include "core/plan_builder.h"
#include "testing_util.h"

namespace shareddb {
namespace {

std::unique_ptr<Catalog> MakeCatalog() {
  auto catalog = std::make_unique<Catalog>();
  Table* users = catalog->CreateTable(
      "users", Schema::Make({{"user_id", ValueType::kInt},
                             {"country", ValueType::kInt},
                             {"account", ValueType::kInt}}));
  Table* orders = catalog->CreateTable(
      "orders", Schema::Make({{"order_id", ValueType::kInt},
                              {"user_id", ValueType::kInt},
                              {"amount", ValueType::kInt}}));
  for (int i = 0; i < 30; ++i) {
    users->Insert({Value::Int(i), Value::Int(i % 5), Value::Int(i * 10)}, 1);
  }
  for (int i = 0; i < 90; ++i) {
    orders->Insert({Value::Int(i), Value::Int(i % 30), Value::Int(i)}, 1);
  }
  catalog->snapshots().Reset(1);
  return catalog;
}

/// Two shared scans feed a join, a group-by and a top-N: after the scans,
/// three nodes are ready at once.
std::unique_ptr<GlobalPlan> BuildPlan(Catalog* catalog) {
  GlobalPlanBuilder b(catalog);
  const SchemaPtr us = catalog->MustGetTable("users")->schema();
  b.AddQuery("user_orders",
             logical::HashJoin(
                 logical::Scan("users", Expr::Eq(Expr::Column(*us, "user_id"),
                                                 Expr::Param(0))),
                 logical::Scan("orders"), "user_id", "user_id", nullptr, "u", "o"));
  b.AddQuery("by_country",
             logical::GroupBy(logical::Scan("users"), {"country"},
                              {{AggSpec{AggFunc::kSum, -1, "total"}, "account"}}));
  b.AddQuery("top_orders", logical::TopN(logical::Scan("orders"),
                                         {{"amount", false}}, Expr::Param(0)));
  b.AddUpdate("bump", "users",
              {{"account", Expr::Add(Expr::Column(2), Expr::Param(1))}},
              Expr::Eq(Expr::Column(0), Expr::Param(0)));
  return b.Build();
}

EngineOptions Workers(size_t n, size_t min_rows_per_task = 2048) {
  EngineOptions opts;
  opts.parallel.num_workers = n;
  opts.parallel.min_rows_per_task = min_rows_per_task;
  return opts;
}

class DagVsSerial : public ::testing::TestWithParam<size_t> {};

TEST_P(DagVsSerial, MatchesSerialAcrossBatchesWithUpdates) {
  // Two identical catalogs: the updates mutate each engine's own tables.
  // Paused servers + StepBatch pin the exact batch composition on both sides.
  auto serial_cat = MakeCatalog();
  auto dag_cat = MakeCatalog();
  Engine serial_engine(BuildPlan(serial_cat.get()));
  Engine dag_engine(BuildPlan(dag_cat.get()), Workers(GetParam()));
  ASSERT_EQ(serial_engine.task_pool(), nullptr);
  ASSERT_NE(dag_engine.task_pool(), nullptr);
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server serial_server(&serial_engine, sopts);
  api::Server dag_server(&dag_engine, sopts);
  auto ss = serial_server.OpenSession();
  auto sd = dag_server.OpenSession();

  for (int round = 0; round < 6; ++round) {
    std::vector<api::AsyncResult> fs, fd;
    const auto both = [&](const std::string& name, std::vector<Value> params) {
      fs.push_back(ss->ExecuteAsync(name, params));
      fd.push_back(sd->ExecuteAsync(name, std::move(params)));
    };
    for (int uid = 0; uid < 8; ++uid) both("user_orders", {Value::Int(uid)});
    both("by_country", {});
    both("top_orders", {Value::Int(7)});
    both("bump", {Value::Int(round), Value::Int(1000)});
    // Some rounds leave a subtree idle: nodes without queries must still
    // hand their consumers typed empty batches.
    if (round % 2 == 1) both("top_orders", {Value::Int(3)});

    const BatchReport rs = serial_server.StepBatch();
    const BatchReport rd = dag_server.StepBatch();
    const std::string label = "round " + std::to_string(round);
    EXPECT_EQ(rs.missing_root_outputs, 0u) << label;
    EXPECT_EQ(rd.missing_root_outputs, 0u) << label;
    EXPECT_EQ(rs.rows_touched, rd.rows_touched) << label;
    ExpectNodeStatsEqual(rs.node_stats, rd.node_stats, label);
    for (size_t i = 0; i < fs.size(); ++i) {
      ExpectResultsEqual(fs[i].Get(), fd[i].Get(), label + " call " + std::to_string(i));
    }
  }
}

TEST_P(DagVsSerial, IdleSubtreesAndSingleStatementBatches) {
  // One statement per batch: most of the plan does not participate, so the
  // DAG starts from a single source (or from an update-only scan).
  auto serial_cat = MakeCatalog();
  auto dag_cat = MakeCatalog();
  Engine serial_engine(BuildPlan(serial_cat.get()));
  Engine dag_engine(BuildPlan(dag_cat.get()), Workers(GetParam()));
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server serial_server(&serial_engine, sopts);
  api::Server dag_server(&dag_engine, sopts);
  auto ss = serial_server.OpenSession();
  auto sd = dag_server.OpenSession();
  const std::vector<std::pair<std::string, std::vector<Value>>> calls = {
      {"bump", {Value::Int(4), Value::Int(5)}},
      {"top_orders", {Value::Int(2)}},
      {"by_country", {}},
      {"user_orders", {Value::Int(4)}},
  };
  for (const auto& [name, params] : calls) {
    api::AsyncResult a = ss->ExecuteAsync(name, params);
    api::AsyncResult b = sd->ExecuteAsync(name, params);
    const BatchReport rs = serial_server.StepBatch();
    const BatchReport rd = dag_server.StepBatch();
    ExpectNodeStatsEqual(rs.node_stats, rd.node_stats, name);
    ExpectResultsEqual(a.Get(), b.Get(), name);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, DagVsSerial, ::testing::Values(1, 2, 4, 8));

TEST(DagExecutor, AppliesUpdates) {
  auto catalog = MakeCatalog();
  Engine engine(BuildPlan(catalog.get()), Workers(4));
  api::Server server(&engine);
  auto session = server.OpenSession();
  ResultSet up = session->Execute("bump", {Value::Int(5), Value::Int(1000)});
  EXPECT_EQ(up.update_count, 1u);
  ResultSet rs = session->Execute("user_orders", {Value::Int(5)});
  ASSERT_FALSE(rs.rows.empty());
  EXPECT_EQ(rs.rows[0][2].AsInt(), 50 + 1000);
}

class DagStress : public ::testing::TestWithParam<size_t> {};

TEST_P(DagStress, ManyBatchesNoDeadlock) {
  // A tiny split threshold makes operators fork nested morsel groups inside
  // their DAG tasks. At 1 worker, node tasks and their morsels all share the
  // single worker and the participating heartbeat thread.
  auto catalog = MakeCatalog();
  Engine engine(BuildPlan(catalog.get()), Workers(GetParam(), 4));
  // Live heartbeat driver: async submissions race batch formation here,
  // which is exactly the production shape this stress guards.
  api::Server server(&engine);
  auto session = server.OpenSession();
  for (int round = 0; round < 50; ++round) {
    std::vector<api::AsyncResult> fs;
    for (int i = 0; i < 5; ++i) {
      fs.push_back(session->ExecuteAsync("user_orders", {Value::Int(i)}));
    }
    fs.push_back(session->ExecuteAsync("by_country", {}));
    fs.push_back(session->ExecuteAsync("top_orders", {Value::Int(4)}));
    for (auto& f : fs) EXPECT_TRUE(f.Get().status.ok());
  }
  server.Pause();  // quiesce so the final heartbeat's report is recorded
  EXPECT_GE(engine.batches_run(), 1u);
  EXPECT_EQ(server.stats().statements_admitted, 50u * 7u);
  EXPECT_GT(engine.task_pool()->tasks_executed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, DagStress, ::testing::Values(1, 4));

}  // namespace
}  // namespace shareddb
