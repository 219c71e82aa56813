// Cross-module integration tests: the full TPC-W workload with the global
// plan run as a DAG on a worker pool (must be result-identical to serial
// plan-order execution), WAL-backed TPC-W recovery, and snapshot isolation
// across mixed query/update batches on the real workload.

#include <gtest/gtest.h>

#include <filesystem>

#include "api/server.h"
#include "testing_util.h"
#include "tpcw/global_plan.h"
#include "tpcw/harness.h"
#include "tpcw/schema.h"

namespace shareddb {
namespace {

tpcw::TpcwScale TinyScale() {
  tpcw::TpcwScale s;
  s.num_items = 300;
  s.num_ebs = 1;
  return s;
}

EngineOptions ThreeWorkers() {
  EngineOptions opts;
  opts.parallel.num_workers = 3;
  return opts;
}

// The DAG schedule on a 3-worker pool must produce exactly the serial
// schedule's results on the full TPC-W workload.
TEST(DagTpcw, MatchesSerialAcrossInteractions) {
  const tpcw::TpcwScale scale = TinyScale();

  auto db_i = tpcw::MakeTpcwDatabase(scale, 13);
  Engine serial_engine(tpcw::BuildTpcwGlobalPlan(&db_i->catalog));

  auto db_t = tpcw::MakeTpcwDatabase(scale, 13);
  Engine dag_engine(tpcw::BuildTpcwGlobalPlan(&db_t->catalog), ThreeWorkers());

  // Live drivers on both servers: each blocking Execute rides the next
  // heartbeat, preserving the statement-at-a-time snapshot semantics.
  api::Server serial_server(&serial_engine);
  api::Server dag_server(&dag_engine);
  auto session_i = serial_server.OpenSession();
  auto session_t = dag_server.OpenSession();

  tpcw::EbState eb_i, eb_t;
  eb_i.customer_id = eb_t.customer_id = 3;
  Rng rng_i(55), rng_t(55);
  for (int w = 0; w < tpcw::kNumInteractions; ++w) {
    const auto wi = static_cast<tpcw::WebInteraction>(w);
    const auto calls_i =
        tpcw::BuildInteraction(wi, scale, &eb_i, &db_i->ids, &rng_i);
    const auto calls_t =
        tpcw::BuildInteraction(wi, scale, &eb_t, &db_t->ids, &rng_t);
    ASSERT_EQ(calls_i.size(), calls_t.size());
    for (size_t c = 0; c < calls_i.size(); ++c) {
      ResultSet a = session_i->Execute(calls_i[c].statement, calls_i[c].params);
      ResultSet b = session_t->Execute(calls_t[c].statement, calls_t[c].params);
      ExpectResultsEqual(a, b, calls_i[c].statement);
    }
  }
}

// Mixed batches on a 3-worker pool vs serial: many queries + updates per
// heartbeat, across several heartbeats. Results and per-node work agree.
TEST(DagTpcw, MixedBatchesMatchSerial) {
  const tpcw::TpcwScale scale = TinyScale();
  auto db_s = tpcw::MakeTpcwDatabase(scale, 13);
  auto db_d = tpcw::MakeTpcwDatabase(scale, 13);
  Engine serial_engine(tpcw::BuildTpcwGlobalPlan(&db_s->catalog));
  Engine dag_engine(tpcw::BuildTpcwGlobalPlan(&db_d->catalog), ThreeWorkers());
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server serial_server(&serial_engine, sopts);
  api::Server dag_server(&dag_engine, sopts);
  auto ss = serial_server.OpenSession();
  auto sd = dag_server.OpenSession();

  for (int round = 0; round < 5; ++round) {
    std::vector<api::AsyncResult> fs, fd;
    const auto both = [&](const std::string& name, std::vector<Value> params) {
      fs.push_back(ss->ExecuteAsync(name, params));
      fd.push_back(sd->ExecuteAsync(name, std::move(params)));
    };
    for (int i = 0; i < 20; ++i) {
      both("search_by_subject", {Value::Int((round * 20 + i) % 24)});
    }
    both("item_by_id", {Value::Int(round)});
    both("best_sellers", {Value::Int(round % 24), Value::Int(30)});
    both("decrement_stock", {Value::Int(round), Value::Int(1)});
    const BatchReport rs = serial_server.StepBatch();
    const BatchReport rd = dag_server.StepBatch();
    const std::string label = "round " + std::to_string(round);
    EXPECT_EQ(rd.num_admitted, 23u) << label;
    EXPECT_EQ(rd.missing_root_outputs, 0u) << label;
    ExpectNodeStatsEqual(rs.node_stats, rd.node_stats, label);
    for (size_t i = 0; i < fs.size(); ++i) {
      const ResultSet a = fs[i].Get();
      const ResultSet b = fd[i].Get();
      EXPECT_TRUE(b.status.ok()) << label;
      ExpectResultsEqual(a, b, label + " call " + std::to_string(i));
    }
    // The last call is the update; ExpectResultsEqual compared its count.
  }
}

// Full TPC-W WAL round trip: run a write-heavy session with WAL enabled,
// "crash", recover from the initial load + log, verify a witness row.
TEST(TpcwRecovery, WalReplayRestoresOrders) {
  namespace fs = std::filesystem;
  const std::string wal_path =
      (fs::temp_directory_path() / "sdb_tpcw_wal_test.log").string();
  const tpcw::TpcwScale scale = TinyScale();

  int64_t order_id = -1;
  {
    auto db = tpcw::MakeTpcwDatabase(scale, 21);
    EngineOptions opts;
    opts.durability.mode = DurabilityMode::kGroupCommit;
    opts.durability.wal_path = wal_path;
    Engine engine(tpcw::BuildTpcwGlobalPlan(&db->catalog), std::move(opts));
    api::Server server(&engine);
    tpcw::SharedDbConnection conn(&server);
    tpcw::EbState eb;
    eb.customer_id = 2;
    Rng rng(9);
    RunInteraction(tpcw::WebInteraction::kShoppingCart, &conn, scale, &eb,
                   &db->ids, &rng);
    RunInteraction(tpcw::WebInteraction::kBuyRequest, &conn, scale, &eb,
                   &db->ids, &rng);
    RunInteraction(tpcw::WebInteraction::kBuyConfirm, &conn, scale, &eb,
                   &db->ids, &rng);
    order_id = eb.last_order_id;
    ASSERT_GE(order_id, 0);
  }

  // Recover: fresh load of the same initial data + WAL replay.
  auto recovered = tpcw::MakeTpcwDatabase(scale, 21);
  ASSERT_TRUE(Recover(&recovered->catalog, "", wal_path).ok());
  Engine engine(tpcw::BuildTpcwGlobalPlan(&recovered->catalog));
  api::Server server(&engine);
  auto session = server.OpenSession();
  const ResultSet lines = session->Execute("order_lines", {Value::Int(order_id)});
  EXPECT_GE(lines.rows.size(), 1u) << "order " << order_id;
  fs::remove(wal_path);
}

// Snapshot isolation on the real workload: queries batched WITH an update
// read the pre-batch snapshot; the next batch reads the new state.
TEST(TpcwIsolation, BatchReadsOneSnapshot) {
  const tpcw::TpcwScale scale = TinyScale();
  auto db = tpcw::MakeTpcwDatabase(scale, 5);
  Engine engine(tpcw::BuildTpcwGlobalPlan(&db->catalog));
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server server(&engine, sopts);
  auto session = server.OpenSession();
  const auto step_one = [&](const std::string& name, std::vector<Value> params) {
    api::AsyncResult r = session->ExecuteAsync(name, std::move(params));
    server.StepBatch();
    return r.Get();
  };

  const ResultSet before = step_one("item_by_id", {Value::Int(7)});
  ASSERT_EQ(before.rows.size(), 1u);
  const int64_t stock_before = before.rows[0][6].AsInt();

  auto fq = session->ExecuteAsync("item_by_id", {Value::Int(7)});
  auto fu = session->ExecuteAsync("decrement_stock",
                                  {Value::Int(7), Value::Int(3)});
  auto fq2 = session->ExecuteAsync("item_by_id", {Value::Int(7)});
  server.StepBatch();
  EXPECT_EQ(fu.Get().update_count, 1u);
  // Both queries of the batch saw the pre-batch stock, regardless of their
  // submission order relative to the update.
  EXPECT_EQ(fq.Get().rows[0][6].AsInt(), stock_before);
  EXPECT_EQ(fq2.Get().rows[0][6].AsInt(), stock_before);
  // The next batch sees the decrement.
  const ResultSet after = step_one("item_by_id", {Value::Int(7)});
  EXPECT_EQ(after.rows[0][6].AsInt(), stock_before - 3);
}

}  // namespace
}  // namespace shareddb
