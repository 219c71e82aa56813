// Front-end API tests: Server heartbeat driver, Session lifecycle,
// Status-first error paths, admission-control spilling, deadline/cancel
// semantics, and concurrent blocking clients sharing batches.

#include <gtest/gtest.h>

#include <thread>

#include "api/server.h"
#include "core/plan_builder.h"

namespace shareddb {
namespace {

class ApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    users_ = catalog_.CreateTable(
        "users", Schema::Make({{"user_id", ValueType::kInt},
                               {"country", ValueType::kInt},
                               {"account", ValueType::kInt}}));
    for (int i = 0; i < 40; ++i) {
      users_->Insert({Value::Int(i), Value::Int(i % 4), Value::Int(i * 10)}, 1);
    }
    catalog_.snapshots().Reset(1);
  }

  std::unique_ptr<GlobalPlan> BuildPlan() {
    GlobalPlanBuilder b(&catalog_);
    const SchemaPtr us = users_->schema();
    b.AddQuery("user_by_id",
               logical::Scan("users", Expr::Eq(Expr::Column(*us, "user_id"),
                                               Expr::Param(0))));
    b.AddQuery("by_country",
               logical::Scan("users", Expr::Eq(Expr::Column(*us, "country"),
                                               Expr::Param(0))));
    b.AddUpdate("credit", "users",
                {{"account", Expr::Add(Expr::Column(2), Expr::Param(1))}},
                Expr::Eq(Expr::Column(0), Expr::Param(0)));
    return b.Build();
  }

  Catalog catalog_;
  Table* users_;
};

TEST_F(ApiFixture, PrepareValidatesStatementNames) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  auto session = server.OpenSession();

  api::PreparedStatement good;
  EXPECT_TRUE(session->Prepare("user_by_id", &good).ok());
  EXPECT_TRUE(good.valid());
  EXPECT_EQ(good.name(), "user_by_id");

  api::PreparedStatement bad;
  const Status s = session->Prepare("no_such_statement", &bad);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(bad.valid());

  // Executing an invalid handle is a Status error, not an abort.
  const ResultSet rs = session->Execute(bad, {Value::Int(1)});
  EXPECT_EQ(rs.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ApiFixture, ExecuteByNameSurfacesNotFound) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  auto session = server.OpenSession();
  const ResultSet rs = session->Execute("missing_statement", {});
  EXPECT_EQ(rs.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(rs.rows.empty());
}

TEST_F(ApiFixture, BlockingExecuteRidesTheDriver) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  auto session = server.OpenSession();
  const ResultSet rs = session->Execute("user_by_id", {Value::Int(7)});
  ASSERT_TRUE(rs.status.ok());
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 7);
  EXPECT_GE(rs.batches_waited, 1u);
  EXPECT_EQ(session->stats().statements, 1u);
}

// Session::Submit is the push path under every Execute: a queued call's
// sink runs exactly once (here: admitted, cancelled, and drained by
// Shutdown), and a synchronous rejection is returned without running it.
TEST_F(ApiFixture, SubmitSinkFiresOncePerQueuedCall) {
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.start_paused = true;
  opts.max_queue_depth = 3;
  api::Server server(&engine, opts);
  auto session = server.OpenSession();
  api::PreparedStatement stmt;
  ASSERT_TRUE(session->Prepare("user_by_id", &stmt).ok());

  std::vector<int> fired(3, 0);
  std::vector<StatusCode> codes(3, StatusCode::kOk);
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

  api::CallCanceller c0;
  api::CallCanceller c1;
  ASSERT_TRUE(
      session->Submit(stmt, {Value::Int(1)}, {}, sink_for(0), &c0).ok());
  ASSERT_TRUE(session->Submit("user_by_id", {Value::Int(2)}, {}, sink_for(1),
                              &c1)
                  .ok());
  c1.Cancel();
  const BatchReport r = server.StepBatch();
  EXPECT_EQ(r.num_admitted, 1u);
  EXPECT_EQ(r.num_cancelled, 1u);
  ASSERT_TRUE(
      session->Submit(stmt, {Value::Int(3)}, {}, sink_for(2), nullptr).ok());

  // Synchronous rejections: invalid handle, unknown name, bad arity, full
  // queue.
  EXPECT_EQ(session->Submit(api::PreparedStatement(), {Value::Int(1)}, {},
                            rejected_sink, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Submit("missing", {}, {}, rejected_sink, nullptr).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session->Submit(stmt, {}, {}, rejected_sink, nullptr).code(),
            StatusCode::kInvalidArgument);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session
                    ->Submit(stmt, {Value::Int(i)}, {},
                             [](ResultSet) {}, nullptr)
                    .ok());
  }
  EXPECT_EQ(session->Submit(stmt, {Value::Int(9)}, {}, rejected_sink, nullptr)
                .code(),
            StatusCode::kResourceExhausted);

  server.Shutdown();  // drains the queued calls through their sinks
  EXPECT_EQ(session->Submit(stmt, {Value::Int(1)}, {}, rejected_sink, nullptr)
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(codes[0], StatusCode::kOk);
  EXPECT_EQ(codes[1], StatusCode::kAborted);
  EXPECT_EQ(codes[2], StatusCode::kUnavailable);
  EXPECT_EQ(rejected_fired, 0);
  EXPECT_EQ(session->inflight(), 0);
}

TEST_F(ApiFixture, PausedServerStepsDeterministicBatches) {
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.start_paused = true;
  api::Server server(&engine, opts);
  ASSERT_TRUE(server.paused());
  auto session = server.OpenSession();

  std::vector<api::AsyncResult> fs;
  for (int i = 0; i < 5; ++i) {
    fs.push_back(session->ExecuteAsync("user_by_id", {Value::Int(i)}));
  }
  EXPECT_FALSE(fs[0].WaitFor(std::chrono::milliseconds(0)));
  const BatchReport r = server.StepBatch();
  EXPECT_EQ(r.num_queries, 5u);
  EXPECT_EQ(r.num_admitted, 5u);
  for (int i = 0; i < 5; ++i) {
    const ResultSet rs = fs[static_cast<size_t>(i)].Get();
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0].AsInt(), i);
    EXPECT_EQ(rs.batches_waited, 1u);
  }
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_EQ(server.stats().max_batch_occupancy, 5u);

  // Resume picks up anything still pending.
  auto late = session->ExecuteAsync("by_country", {Value::Int(2)});
  server.Resume();
  EXPECT_EQ(late.Get().rows.size(), 10u);
}

TEST_F(ApiFixture, AdmissionCapSpillsAndReportsPerCall) {
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.start_paused = true;
  opts.max_admissions_per_batch = 2;
  api::Server server(&engine, opts);
  auto session = server.OpenSession();

  std::vector<api::AsyncResult> fs;
  for (int i = 0; i < 5; ++i) {
    fs.push_back(session->ExecuteAsync("user_by_id", {Value::Int(i)}));
  }
  const BatchReport r1 = server.StepBatch();
  EXPECT_EQ(r1.queue_depth_at_formation, 5u);
  EXPECT_EQ(r1.num_admitted, 2u);
  EXPECT_EQ(r1.num_spilled, 3u);
  // The driver owes the spilled statements more heartbeats.
  server.StepBatch();
  server.StepBatch();
  for (int i = 0; i < 5; ++i) {
    const ResultSet rs = fs[static_cast<size_t>(i)].Get();
    ASSERT_TRUE(rs.status.ok()) << i;
    EXPECT_EQ(rs.admission_spills, static_cast<uint64_t>(i / 2)) << i;
  }
  const api::Server::Stats stats = server.stats();
  EXPECT_EQ(stats.statements_admitted, 5u);
  EXPECT_EQ(stats.statements_spilled, 3u + 1u);  // spill events per formation
}

TEST_F(ApiFixture, MinimumWaitTelemetryNeverUnderflows) {
  // Regression: admission_spills was computed as batches_waited - 1 with an
  // unchecked uint64 subtraction. A call fulfilled by the very next
  // heartbeat sits at the boundary (waited == 1, spills == 0); the clamped
  // computation must hold it at exactly zero — never a wrapped huge value —
  // and the session's summed telemetry must stay exact.
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.start_paused = true;
  api::Server server(&engine, opts);
  auto session = server.OpenSession();

  for (int round = 0; round < 3; ++round) {
    auto f = session->ExecuteAsync("user_by_id", {Value::Int(round)});
    server.StepBatch();
    const ResultSet rs = f.Get();
    ASSERT_TRUE(rs.status.ok()) << round;
    EXPECT_EQ(rs.batches_waited, 1u) << round;
    EXPECT_EQ(rs.admission_spills, 0u) << round;
  }
  // The blocking path feeds Session::Stats; with zero spills per call the
  // sums must be exactly (3 statements, 3 batches waited, 0 spills) — any
  // single underflowed term would blow these up by ~2^64.
  server.Resume();
  for (int round = 0; round < 3; ++round) {
    const ResultSet rs = session->Execute("user_by_id", {Value::Int(round)});
    ASSERT_TRUE(rs.status.ok()) << round;
    EXPECT_EQ(rs.admission_spills, 0u) << round;
  }
  EXPECT_EQ(session->stats().admission_spills, 0u);
  EXPECT_GE(session->stats().batches_waited, 3u);
  EXPECT_LT(session->stats().batches_waited, 100u);  // no wrapped term
}

TEST_F(ApiFixture, SpilloverDrainsWithoutNewSubmissions) {
  // A capped live driver must keep beating until the spill queue is empty —
  // the overflow itself seeds the next generation.
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.max_admissions_per_batch = 3;
  api::Server server(&engine, opts);
  auto session = server.OpenSession();
  std::vector<api::AsyncResult> fs;
  for (int i = 0; i < 10; ++i) {
    fs.push_back(session->ExecuteAsync("user_by_id", {Value::Int(i)}));
  }
  for (auto& f : fs) {
    EXPECT_TRUE(f.Get().status.ok());
  }
  // Quiesce before asserting stats: results are fulfilled inside the
  // heartbeat, the server records the report just after.
  server.Pause();
  EXPECT_EQ(server.stats().statements_admitted, 10u);
}

TEST_F(ApiFixture, CancelBeforeAdmissionAborts) {
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.start_paused = true;
  api::Server server(&engine, opts);
  auto session = server.OpenSession();

  api::AsyncResult doomed = session->ExecuteAsync("user_by_id", {Value::Int(1)});
  api::AsyncResult fine = session->ExecuteAsync("user_by_id", {Value::Int(2)});
  doomed.Cancel();
  const BatchReport r = server.StepBatch();
  EXPECT_EQ(r.num_cancelled, 1u);
  EXPECT_EQ(r.num_admitted, 1u);
  EXPECT_EQ(doomed.Get().status.code(), StatusCode::kAborted);
  EXPECT_TRUE(fine.Get().status.ok());
  EXPECT_EQ(server.stats().statements_cancelled, 1u);
}

TEST_F(ApiFixture, DeadlineExpiryCancelsThroughLiveDriver) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  auto session = server.OpenSession();
  // An already-satisfiable query: the deadline is generous, so this is the
  // fast path.
  api::AsyncResult quick = session->ExecuteAsync("user_by_id", {Value::Int(3)});
  const ResultSet rs = quick.GetWithDeadline(std::chrono::steady_clock::now() +
                                             std::chrono::seconds(30));
  EXPECT_TRUE(rs.status.ok());
  ASSERT_EQ(rs.rows.size(), 1u);

  // An immediately-expired deadline: best-effort cancel. Either the entry
  // was drained before admission (Aborted) or it raced the heartbeat and
  // completed — both are terminal, neither hangs.
  api::AsyncResult doomed = session->ExecuteAsync("user_by_id", {Value::Int(4)});
  const ResultSet rs2 = doomed.GetWithDeadline(std::chrono::steady_clock::now());
  EXPECT_TRUE(rs2.status.ok() || rs2.status.code() == StatusCode::kAborted);
}

TEST_F(ApiFixture, ConcurrentSessionsShareBatches) {
  Engine engine(BuildPlan());
  api::ServerOptions opts;
  opts.min_batch_window = std::chrono::milliseconds(2);
  api::Server server(&engine, opts);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = server.OpenSession();
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int uid = (t * kCallsPerThread + i) % 40;
        const ResultSet rs = session->Execute("user_by_id", {Value::Int(uid)});
        if (!rs.status.ok() || rs.rows.size() != 1 ||
            rs.rows[0][0].AsInt() != uid) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  server.Pause();  // quiesce so the final heartbeat's report is recorded
  const api::Server::Stats stats = server.stats();
  EXPECT_EQ(stats.statements_admitted,
            static_cast<uint64_t>(kThreads * kCallsPerThread));
  // The whole point: concurrent clients ride shared generations.
  EXPECT_GT(stats.MeanBatchOccupancy(), 1.0);
  EXPECT_GT(stats.max_batch_occupancy, 1u);
}

TEST_F(ApiFixture, UpdatesAndQueriesShareGenerationsAcrossSessions) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  auto writer = server.OpenSession();
  auto reader = server.OpenSession();

  const ResultSet up = writer->Execute("credit", {Value::Int(5), Value::Int(100)});
  EXPECT_TRUE(up.status.ok());
  EXPECT_EQ(up.update_count, 1u);
  // A later generation (blocking Execute submits after the commit above
  // fulfilled) must observe the write.
  const ResultSet rs = reader->Execute("user_by_id", {Value::Int(5)});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][2].AsInt(), 50 + 100);
}

}  // namespace
}  // namespace shareddb
