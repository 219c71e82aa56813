// End-to-end engine tests: batch formation, heartbeats, shared execution of
// concurrent queries with different parameters, updates with snapshot
// isolation, bounded computation, WAL-backed recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "core/engine.h"
#include "core/plan_builder.h"

namespace shareddb {
namespace {

// A small bookstore-ish database exercised by all engine tests.
class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    users_ = catalog_.CreateTable(
        "users", Schema::Make({{"user_id", ValueType::kInt},
                               {"username", ValueType::kString},
                               {"country", ValueType::kInt},
                               {"account", ValueType::kInt}}));
    orders_ = catalog_.CreateTable(
        "orders", Schema::Make({{"order_id", ValueType::kInt},
                                {"user_id", ValueType::kInt},
                                {"amount", ValueType::kInt},
                                {"status", ValueType::kString}}));
    users_->CreateIndex("users_id", "user_id");
    const Version v = 1;
    for (int i = 0; i < 20; ++i) {
      users_->Insert({Value::Int(i), Value::Str("user" + std::to_string(i)),
                      Value::Int(i % 4), Value::Int(i * 100)},
                     v);
    }
    for (int i = 0; i < 60; ++i) {
      orders_->Insert({Value::Int(i), Value::Int(i % 20), Value::Int(i),
                       Value::Str(i % 3 == 0 ? "OK" : "PENDING")},
                      v);
    }
    catalog_.snapshots().Reset(v);
  }

  std::unique_ptr<GlobalPlan> BuildPlan() {
    GlobalPlanBuilder b(&catalog_);
    const SchemaPtr us = users_->schema();
    const SchemaPtr os = orders_->schema();

    // user_by_name(?name)
    b.AddQuery("user_by_name",
               logical::Scan("users", Expr::Eq(Expr::Column(*us, "username"),
                                               Expr::Param(0))));
    // orders_of_user(?uid): users ⋈ orders, status OK.
    b.AddQuery(
        "orders_of_user",
        logical::HashJoin(
            logical::Scan("users",
                          Expr::Eq(Expr::Column(*us, "user_id"), Expr::Param(0))),
            logical::Scan("orders", Expr::Eq(Expr::Column(*os, "status"),
                                             Expr::Literal(Value::Str("OK")))),
            "user_id", "user_id", nullptr, "u", "o"));
    // accounts_by_country: GROUP BY country SUM(account).
    b.AddQuery("accounts_by_country",
               logical::GroupBy(logical::Scan("users"), {"country"},
                                {{AggSpec{AggFunc::kSum, -1, "total"}, "account"},
                                 {AggSpec{AggFunc::kCount, -1, "cnt"}, ""}}));
    // top_spenders(?n): ORDER BY account DESC LIMIT ?.
    b.AddQuery("top_spenders",
               logical::TopN(logical::Scan("users"), {{"account", false}},
                             Expr::Param(0)));
    // DML.
    b.AddInsert("new_user", "users",
                {Expr::Param(0), Expr::Param(1), Expr::Param(2), Expr::Param(3)});
    // account := account + ?1 (assignment expressions read the old row).
    b.AddUpdate("credit_account", "users",
                {{"account", Expr::Add(Expr::Column(3), Expr::Param(1))}},
                Expr::Eq(Expr::Column(0), Expr::Param(0)));
    b.AddDelete("drop_user", "users", Expr::Eq(Expr::Column(0), Expr::Param(0)));
    return b.Build();
  }

  Catalog catalog_;
  Table* users_;
  Table* orders_;
};

TEST_F(EngineFixture, SingleQueryRoundTrip) {
  Engine engine(BuildPlan());
  ResultSet rs = engine.ExecuteSyncNamed("user_by_name", {Value::Str("user7")});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 7);
  EXPECT_TRUE(rs.status.ok());
}

TEST_F(EngineFixture, LastReportReadableWhileBatchesRun) {
  // Regression (TSan): last_report() used to hand out a reference to a
  // field RunOneBatch overwrites — monitors polling between heartbeats
  // raced the batch thread. It now copies under the engine mutex; this
  // test keeps a racing reader in the suite so TSan guards the fix.
  Engine engine(BuildPlan());
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const BatchReport r = engine.last_report();
      // A torn read could pair a nonzero query count with an impossible
      // zero-version snapshot; mostly this just must not trip TSan.
      (void)r.num_queries;
    }
  });
  for (int round = 0; round < 20; ++round) {
    auto f = engine.SubmitNamed("user_by_name",
                                {Value::Str("user" + std::to_string(round))});
    engine.RunOneBatch();
    (void)f.get();
  }
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(engine.last_report().num_queries, 1u);
}

TEST_F(EngineFixture, BatchSharesOneScanAcrossManyQueries) {
  Engine engine(BuildPlan());
  std::vector<std::future<ResultSet>> futures;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    futures.push_back(engine.SubmitNamed(
        "user_by_name", {Value::Str("user" + std::to_string(i % 20))}));
  }
  EXPECT_EQ(engine.PendingCount(), static_cast<size_t>(n));
  const BatchReport report = engine.RunOneBatch();
  EXPECT_EQ(report.num_queries, static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ResultSet rs = futures[i].get();
    ASSERT_EQ(rs.rows.size(), 1u) << i;
    EXPECT_EQ(rs.rows[0][0].AsInt(), i % 20);
  }
  // Bounded computation: the users table was scanned ONCE for all 50
  // queries — rows_scanned equals the table size, not 50x.
  const WorkStats total = report.TotalWork();
  EXPECT_EQ(total.rows_scanned, 20u);
}

TEST_F(EngineFixture, SharedJoinServesDifferentParameters) {
  Engine engine(BuildPlan());
  std::vector<std::future<ResultSet>> futures;
  for (int uid = 0; uid < 10; ++uid) {
    futures.push_back(engine.SubmitNamed("orders_of_user", {Value::Int(uid)}));
  }
  engine.RunOneBatch();
  for (int uid = 0; uid < 10; ++uid) {
    ResultSet rs = futures[uid].get();
    // user uid has orders uid, uid+20, uid+40; status OK iff divisible by 3.
    size_t expect = 0;
    for (int o = uid; o < 60; o += 20) {
      if (o % 3 == 0) ++expect;
    }
    EXPECT_EQ(rs.rows.size(), expect) << "uid " << uid;
    for (const Tuple& row : rs.rows) {
      EXPECT_EQ(row[0].AsInt(), uid);
      EXPECT_EQ(row[7].AsString(), "OK");
    }
  }
}

TEST_F(EngineFixture, GammaRoutesSharedProbeRootInOnePass) {
  // One batch of 240 point lookups on one probe root. User ids repeat, so a
  // probed row carries the qids of every call on that id; ids 20-24 match
  // nothing. Every eighth call is a sort over the same probe, so the probe's
  // root batch also carries qids that Γ routes from the sort node. Each call
  // must get exactly its rows, in the order a solo run returns them.
  orders_->CreateIndex("orders_user", "user_id");
  GlobalPlanBuilder b(&catalog_);
  const SchemaPtr os = orders_->schema();
  const auto by_user = [&] {
    return logical::Probe("orders", "orders_user",
                          Expr::Eq(Expr::Column(*os, "user_id"), Expr::Param(0)));
  };
  b.AddQuery("orders_by_user", by_user());
  b.AddQuery("orders_by_user_sorted", logical::Sort(by_user(), {{"amount", false}}));
  Engine engine(b.Build());
  const StatementDef* probe = engine.plan().FindStatement("orders_by_user");
  const StatementDef* sorted = engine.plan().FindStatement("orders_by_user_sorted");
  ASSERT_EQ(engine.plan().node(sorted->root).inputs, std::vector<int>{probe->root});

  std::vector<std::pair<std::string, int64_t>> calls;
  for (int i = 0; i < 240; ++i) {
    calls.emplace_back(i % 8 == 7 ? "orders_by_user_sorted" : "orders_by_user",
                       (i * 7) % 25);
  }
  std::vector<std::future<ResultSet>> futures;
  for (const auto& [name, uid] : calls) {
    futures.push_back(engine.SubmitNamed(name, {Value::Int(uid)}));
  }
  const BatchReport report = engine.RunOneBatch();
  EXPECT_EQ(report.num_queries, calls.size());
  EXPECT_EQ(report.missing_root_outputs, 0u);
  EXPECT_GT(report.shared_work_saved, 0u);

  size_t delivered = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    const auto& [name, uid] = calls[i];
    const ResultSet got = futures[i].get();
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_EQ(got.rows.size(), uid < 20 ? 3u : 0u) << i;  // 60 orders, 20 users
    for (const Tuple& row : got.rows) EXPECT_EQ(row[1].AsInt(), uid) << i;
    const ResultSet solo = engine.ExecuteSyncNamed(name, {Value::Int(uid)});
    EXPECT_EQ(got.rows, solo.rows) << i << " " << name << "(" << uid << ")";
    delivered += got.rows.size();
  }
  EXPECT_EQ(report.rows_delivered, delivered);
}

TEST_F(EngineFixture, GroupByAndTopNInOneBatch) {
  Engine engine(BuildPlan());
  auto f1 = engine.SubmitNamed("accounts_by_country", {});
  auto f2 = engine.SubmitNamed("top_spenders", {Value::Int(3)});
  auto f3 = engine.SubmitNamed("top_spenders", {Value::Int(5)});
  engine.RunOneBatch();
  ResultSet g = f1.get();
  EXPECT_EQ(g.rows.size(), 4u);  // countries 0..3
  int64_t total_cnt = 0;
  for (const Tuple& row : g.rows) total_cnt += row[2].AsInt();
  EXPECT_EQ(total_cnt, 20);
  ResultSet t3 = f2.get(), t5 = f3.get();
  ASSERT_EQ(t3.rows.size(), 3u);
  ASSERT_EQ(t5.rows.size(), 5u);
  EXPECT_EQ(t3.rows[0][3].AsInt(), 1900);  // top account
  // Both Top-N queries saw the same shared sort: t3 is a prefix of t5.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(TuplesEqual(t3.rows[i], t5.rows[i]));
  }
}

TEST_F(EngineFixture, UpdatesVisibleNextBatchNotSameBatch) {
  Engine engine(BuildPlan());
  // Same batch: an insert and a query for the inserted user.
  auto fu = engine.SubmitNamed("new_user", {Value::Int(100), Value::Str("newbie"),
                                            Value::Int(0), Value::Int(5)});
  auto fq = engine.SubmitNamed("user_by_name", {Value::Str("newbie")});
  engine.RunOneBatch();
  EXPECT_EQ(fu.get().update_count, 1u);
  // Snapshot isolation: the query read the pre-batch snapshot.
  EXPECT_TRUE(fq.get().rows.empty());
  // Next batch sees it.
  ResultSet rs = engine.ExecuteSyncNamed("user_by_name", {Value::Str("newbie")});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 100);
}

TEST_F(EngineFixture, UpdateAndDeleteCountsReported) {
  Engine engine(BuildPlan());
  ResultSet up = engine.ExecuteSyncNamed("credit_account",
                                         {Value::Int(3), Value::Int(777)});
  EXPECT_EQ(up.update_count, 1u);
  ResultSet rs = engine.ExecuteSyncNamed("user_by_name", {Value::Str("user3")});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][3].AsInt(), 300 + 777);
  ResultSet del = engine.ExecuteSyncNamed("drop_user", {Value::Int(3)});
  EXPECT_EQ(del.update_count, 1u);
  EXPECT_TRUE(
      engine.ExecuteSyncNamed("user_by_name", {Value::Str("user3")}).rows.empty());
  ResultSet del2 = engine.ExecuteSyncNamed("drop_user", {Value::Int(3)});
  EXPECT_EQ(del2.update_count, 0u);  // already gone
}

// Unknown statement names are a Status error on the ResultSet, not an abort
// (the old behavior killed the process; the error-path replaces that death).
TEST_F(EngineFixture, UnknownStatementNameIsStatusError) {
  Engine engine(BuildPlan());
  std::future<ResultSet> f = engine.SubmitNamed("no_such_statement", {});
  // The future is ready immediately: the statement never enters the queue.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ResultSet rs = f.get();
  EXPECT_EQ(rs.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(rs.rows.empty());

  const ResultSet sync = engine.ExecuteSyncNamed("also_missing", {});
  EXPECT_EQ(sync.status.code(), StatusCode::kNotFound);
}

TEST_F(EngineFixture, OutOfRangeStatementIdIsStatusError) {
  Engine engine(BuildPlan());
  std::future<ResultSet> f = engine.Submit(9999, {});
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().status.code(), StatusCode::kInvalidArgument);
}

// Admission control: a capped formation admits FIFO, spills the overflow to
// the next generation, and reports the counters.
TEST_F(EngineFixture, AdmissionCapSpillsOverflowToNextGeneration) {
  Engine engine(BuildPlan());
  std::vector<std::future<ResultSet>> fs;
  for (int i = 0; i < 5; ++i) {
    fs.push_back(engine.SubmitNamed("user_by_name",
                                    {Value::Str("user" + std::to_string(i))}));
  }

  const BatchReport r1 = engine.RunOneBatch(/*max_admissions=*/2);
  EXPECT_EQ(r1.queue_depth_at_formation, 5u);
  EXPECT_EQ(r1.num_admitted, 2u);
  EXPECT_EQ(r1.num_spilled, 3u);
  EXPECT_EQ(r1.num_queries, 2u);
  EXPECT_EQ(engine.PendingCount(), 3u);

  const BatchReport r2 = engine.RunOneBatch(/*max_admissions=*/2);
  EXPECT_EQ(r2.queue_depth_at_formation, 3u);
  EXPECT_EQ(r2.num_admitted, 2u);
  EXPECT_EQ(r2.num_spilled, 1u);

  const BatchReport r3 = engine.RunOneBatch(/*max_admissions=*/2);
  EXPECT_EQ(r3.num_admitted, 1u);
  EXPECT_EQ(r3.num_spilled, 0u);

  // FIFO admission: results arrive in submission order with per-call
  // telemetry recording the batches waited and the spill count.
  for (int i = 0; i < 5; ++i) {
    const ResultSet rs = fs[static_cast<size_t>(i)].get();
    ASSERT_EQ(rs.rows.size(), 1u) << i;
    EXPECT_EQ(rs.rows[0][0].AsInt(), i);
    const uint64_t expected_spills = static_cast<uint64_t>(i / 2);
    EXPECT_EQ(rs.admission_spills, expected_spills) << i;
    EXPECT_EQ(rs.batches_waited, expected_spills + 1) << i;
  }
}

// A cancel flag set before admission drains the entry with an Aborted
// status; it never executes.
TEST_F(EngineFixture, CancelledBeforeAdmissionIsAborted) {
  Engine engine(BuildPlan());
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  std::future<ResultSet> f =
      engine.SubmitNamed("user_by_name", {Value::Str("user1")}, cancel);
  auto f2 = engine.SubmitNamed("user_by_name", {Value::Str("user2")});
  cancel->store(true);
  const BatchReport r = engine.RunOneBatch();
  EXPECT_EQ(r.num_cancelled, 1u);
  EXPECT_EQ(r.num_admitted, 1u);
  EXPECT_EQ(f.get().status.code(), StatusCode::kAborted);
  EXPECT_TRUE(f2.get().status.ok());
}

// The completion sink is the engine's one fulfilment path: every queued
// call's sink runs exactly once, whether the call is admitted, cancelled,
// shed at formation or drained by CloseSubmissions. A synchronous rejection
// comes back as the Submit status and never runs the sink.
TEST_F(EngineFixture, SinkFiresExactlyOncePerQueuedCall) {
  Engine engine(BuildPlan());
  const StatementId by_name = engine.plan().FindStatement("user_by_name")->id;
  std::vector<int> fired(4, 0);
  std::vector<StatusCode> codes(4, StatusCode::kOk);
  int rejected_fired = 0;
  const auto sink_for = [&](size_t i) -> Engine::CompletionSink {
    return [&fired, &codes, i](ResultSet rs) {
      ++fired[i];
      codes[i] = rs.status.code();
    };
  };
  const Engine::CompletionSink rejected_sink = [&](ResultSet) {
    ++rejected_fired;
  };
  const auto params = [] { return std::vector<Value>{Value::Str("user1")}; };

  ASSERT_TRUE(engine.Submit(by_name, params(), {}, sink_for(0)).ok());
  Engine::SubmitOptions cancelled;
  cancelled.cancel = std::make_shared<std::atomic<bool>>(true);
  ASSERT_TRUE(engine.Submit(by_name, params(), cancelled, sink_for(1)).ok());
  Engine::SubmitOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(engine.Submit(by_name, params(), expired, sink_for(2)).ok());

  // Synchronous rejections: bad id, bad arity, full queue, in-flight cap.
  EXPECT_EQ(engine.Submit(9999, {}, {}, rejected_sink).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Submit(by_name, {}, {}, rejected_sink).code(),
            StatusCode::kInvalidArgument);
  Engine::SubmitOptions full;
  full.max_queue_depth = 3;
  EXPECT_EQ(engine.Submit(by_name, params(), full, rejected_sink).code(),
            StatusCode::kResourceExhausted);
  Engine::SubmitOptions capped;
  capped.inflight = std::make_shared<std::atomic<int64_t>>(1);
  capped.max_inflight = 1;
  EXPECT_EQ(engine.Submit(by_name, params(), capped, rejected_sink).code(),
            StatusCode::kResourceExhausted);

  const BatchReport r = engine.RunOneBatch();
  EXPECT_EQ(r.num_admitted, 1u);
  EXPECT_EQ(r.num_cancelled, 1u);
  EXPECT_EQ(r.num_shed, 1u);

  // Queued but never admitted: the shutdown drain runs its sink.
  ASSERT_TRUE(engine.Submit(by_name, params(), {}, sink_for(3)).ok());
  EXPECT_EQ(engine.CloseSubmissions(Status::Unavailable("closing")), 1u);
  EXPECT_EQ(engine.Submit(by_name, params(), {}, rejected_sink).code(),
            StatusCode::kUnavailable);
  (void)engine.RunOneBatch();  // nothing left to fulfil a second time

  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(codes[0], StatusCode::kOk);
  EXPECT_EQ(codes[1], StatusCode::kAborted);
  EXPECT_EQ(codes[2], StatusCode::kDeadlineExceeded);
  EXPECT_EQ(codes[3], StatusCode::kUnavailable);
  EXPECT_EQ(rejected_fired, 0);
}

TEST_F(EngineFixture, EmptyBatchIsNoop) {
  Engine engine(BuildPlan());
  const Version before = catalog_.snapshots().ReadSnapshot();
  const BatchReport r = engine.RunOneBatch();
  EXPECT_EQ(r.num_queries, 0u);
  EXPECT_EQ(catalog_.snapshots().ReadSnapshot(), before);
}

TEST_F(EngineFixture, BoundedComputationAsQueriesGrow) {
  // The paper's core claim: batch work is bounded by data size, independent
  // of the number of concurrent queries (for scans/joins).
  Engine engine(BuildPlan());
  auto run_batch = [&](int queries) {
    std::vector<std::future<ResultSet>> fs;
    for (int i = 0; i < queries; ++i) {
      fs.push_back(engine.SubmitNamed("orders_of_user", {Value::Int(i % 20)}));
    }
    const BatchReport r = engine.RunOneBatch();
    for (auto& f : fs) f.get();
    return r.TotalWork();
  };
  const WorkStats w10 = run_batch(10);
  const WorkStats w200 = run_batch(200);
  // Scan work identical; join work grows sub-linearly (more annotations but
  // one hash table build over at most the whole table).
  EXPECT_EQ(w10.rows_scanned, w200.rows_scanned);
  EXPECT_LE(w200.hash_builds, w10.hash_builds * 3);
  // A query-at-a-time system would do 20x the scans.
}

TEST_F(EngineFixture, VacuumKeepsResultsCorrect) {
  EngineOptions opts;
  opts.vacuum_interval = 1;
  Engine engine(BuildPlan(), opts);
  for (int round = 0; round < 5; ++round) {
    engine.ExecuteSyncNamed("credit_account",
                            {Value::Int(1), Value::Int(round * 10)});
  }
  ResultSet rs = engine.ExecuteSyncNamed("user_by_name", {Value::Str("user1")});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][3].AsInt(), 100 + (0 + 10 + 20 + 30 + 40));
  EXPECT_LE(users_->PhysicalSize(), 21u);  // old versions reclaimed
}

TEST_F(EngineFixture, WalRecoveryRestoresCommittedState) {
  namespace fs = std::filesystem;
  const std::string wal_path =
      (fs::temp_directory_path() / "sdb_engine_wal_test.log").string();
  {
    EngineOptions opts;
    opts.durability.mode = DurabilityMode::kGroupCommit;
    opts.durability.wal_path = wal_path;
    Engine engine(BuildPlan(), opts);
    engine.ExecuteSyncNamed("new_user", {Value::Int(55), Value::Str("walter"),
                                         Value::Int(1), Value::Int(42)});
    engine.ExecuteSyncNamed("credit_account", {Value::Int(55), Value::Int(99)});
  }
  // "Crash": rebuild the database from the initial load + WAL replay.
  Catalog recovered;
  recovered.CreateTable("users", users_->schema());
  recovered.CreateTable("orders", orders_->schema());
  // Reload the same initial data (a real deployment would checkpoint it;
  // the base load used version 1, which the WAL's commit records cover).
  Table* rusers = recovered.MustGetTable("users");
  Table* rorders = recovered.MustGetTable("orders");
  for (const Row& r : users_->DumpRows()) {
    if (r.begin == 1) rusers->RecoverAppendRow(Row{r.data, 1, kVersionMax});
  }
  for (const Row& r : orders_->DumpRows()) {
    if (r.begin == 1) rorders->RecoverAppendRow(Row{r.data, 1, kVersionMax});
  }
  recovered.snapshots().Reset(1);
  ASSERT_TRUE(Recover(&recovered, "", wal_path).ok());
  const Version snap = recovered.snapshots().ReadSnapshot();
  bool found = false;
  rusers->ScanVisible(snap, [&](RowId, const Tuple& t) {
    if (t[1].AsString() == "walter") {
      EXPECT_EQ(t[3].AsInt(), 42 + 99);
      found = true;
    }
    return true;
  });
  EXPECT_TRUE(found);
  fs::remove(wal_path);
}

}  // namespace
}  // namespace shareddb
