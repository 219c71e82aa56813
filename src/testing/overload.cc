#include "testing/overload.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "api/server.h"
#include "common/sync.h"
#include "common/string_util.h"
#include "testing/canonical.h"
#include "testing/chaos.h"

namespace shareddb {
namespace testing {

namespace {

/// Per-seed randomized capacity + chaos configuration. Capacities are tiny
/// on purpose: the workload below is sized to overflow them.
struct OverloadEnv {
  size_t workers = 0;
  size_t cap = 1;           // max_admissions_per_batch
  size_t queue_depth = 4;   // max_queue_depth
  size_t inflight_cap = 0;  // max_session_inflight (0 = off)
  int64_t window_us = 0;
  ChaosInjector::Options chaos;

  std::string ToString() const {
    return StringPrintf(
        "workers=%zu cap=%zu queue=%zu inflight=%zu window_us=%lld "
        "chaos(stall=%.2f/%dus slow=%.2f/%dus hiccup=%.2f/%dus)",
        workers, cap, queue_depth,
        inflight_cap, static_cast<long long>(window_us), chaos.stall_p,
        chaos.max_stall_us, chaos.slow_exec_p, chaos.max_exec_us,
        chaos.hiccup_p, chaos.max_hiccup_us);
  }
};

OverloadEnv DrawOverloadEnv(Rng* rng) {
  OverloadEnv env;
  static const size_t kWorkers[] = {0, 0, 1, 2};
  static const size_t kCaps[] = {1, 1, 2, 4};
  static const size_t kQueues[] = {2, 4, 4, 8};
  static const size_t kInflight[] = {0, 0, 1, 2};
  static const int64_t kWindows[] = {0, 0, 100, 500};
  env.workers = kWorkers[rng->Uniform(0, 3)];
  env.cap = kCaps[rng->Uniform(0, 3)];
  env.queue_depth = kQueues[rng->Uniform(0, 3)];
  env.inflight_cap = kInflight[rng->Uniform(0, 3)];
  env.window_us = kWindows[rng->Uniform(0, 3)];
  env.chaos.stall_p = rng->NextDouble() * 0.4;
  env.chaos.max_stall_us = static_cast<int>(rng->Uniform(50, 400));
  env.chaos.slow_exec_p = rng->NextDouble() * 0.3;
  env.chaos.max_exec_us = static_cast<int>(rng->Uniform(50, 500));
  env.chaos.hiccup_p = env.workers > 0 ? rng->NextDouble() * 0.2 : 0.0;
  env.chaos.max_hiccup_us = static_cast<int>(rng->Uniform(20, 150));
  return env;
}

/// Shared stack with chaos installed. Declaration order matters: the chaos
/// hook must outlive the engine (workers call it until the pool joins).
struct OverloadStack {
  std::unique_ptr<ChaosInjector> chaos;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<api::Server> server;
};

OverloadStack BuildOverloadStack(const RandomWorkloadGenerator& gen,
                                 const OverloadEnv& env, uint64_t seed) {
  OverloadStack s;
  ChaosInjector::Options copts = env.chaos;
  copts.seed = SubSeed(seed, 8100);
  s.chaos = std::make_unique<ChaosInjector>(copts);
  s.catalog = gen.BuildCatalog();
  GlobalPlanBuilder builder(s.catalog.get());
  gen.RegisterShared(&builder);
  std::unique_ptr<GlobalPlan> plan = builder.Build();
  EngineOptions opts;
  opts.parallel.num_workers = env.workers;
  opts.parallel.min_rows_per_task = 16;
  opts.chaos = s.chaos.get();
  s.engine = std::make_unique<Engine>(std::move(plan), std::move(opts));
  api::ServerOptions sopts;
  sopts.max_admissions_per_batch = env.cap;
  sopts.min_batch_window = std::chrono::microseconds(env.window_us);
  sopts.max_queue_depth = env.queue_depth;
  sopts.max_session_inflight = env.inflight_cap;
  s.server = std::make_unique<api::Server>(s.engine.get(), sopts);
  return s;
}

}  // namespace

OverloadReport RunOverloadSeed(const OverloadOptions& opts) {
  OverloadReport report;
  report.seed = opts.gen.seed;

  Rng env_rng(SubSeed(opts.gen.seed, 8000));
  const OverloadEnv env = DrawOverloadEnv(&env_rng);
  report.config = env.ToString();

  RandomWorkloadGenerator gen(opts.gen);
  OverloadStack stack = BuildOverloadStack(gen, env, opts.gen.seed);

  // Frozen-data oracle: the phase is read-only, so per-call expectations are
  // interleaving-independent and can be precomputed up front.
  std::unique_ptr<Catalog> oracle_catalog = gen.BuildCatalog();
  baseline::BaselineEngine oracle(oracle_catalog.get(), SystemXLikeProfile());
  gen.RegisterBaseline(&oracle);

  Mutex fail_mu("overload.failures");
  std::vector<std::string> failures;
  const auto fail = [&](std::string detail) {
    MutexLock lock(&fail_mu);
    failures.push_back(std::move(detail));
  };

  // Call modes. Sessions with an even index run their blocking calls under
  // the retry policy (the jittered-backoff client the README recommends);
  // odd sessions surface rejections raw.
  enum Mode {
    kBlocking = 0,      // Execute (+ retry policy on even sessions)
    kAsyncGet,          // ExecuteAsync + Get
    kClientDeadline,    // ExecuteAsync + GetWithDeadline (client-side expiry)
    kEngineDeadline,    // CallOptions.deadline carried to formation + Get
    kCancel,            // ExecuteAsync + Cancel + Get
    kAbandon,           // ExecuteAsync, handle dropped (destructor cancels)
    kNumModes,
  };

  struct CallPlan {
    StatementCall call;
    int mode = kBlocking;
    std::multiset<std::string> expected;
  };
  std::vector<std::vector<CallPlan>> plans(opts.sessions);
  for (size_t c = 0; c < opts.sessions; ++c) {
    Rng crng(SubSeed(opts.gen.seed, 8200 + c));
    plans[c].resize(opts.calls_per_session);
    for (CallPlan& p : plans[c]) {
      p.call = gen.MakeQueryCall(&crng);
      p.mode = static_cast<int>(crng.Uniform(0, kNumModes - 1));
      const baseline::BaselineResult br =
          oracle.ExecuteNamed(p.call.statement, p.call.params);
      p.expected = CanonicalRows(br.result);
    }
  }

  // --- saturation: every session floods the tiny admission pipeline --------
  std::atomic<size_t> ok_count{0}, rejected_count{0}, shed_count{0};
  std::atomic<size_t> cancelled_count{0}, unavailable_count{0};
  std::atomic<size_t> compared_count{0};
  std::atomic<uint64_t> retry_count{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < opts.sessions; ++c) {
    threads.emplace_back([&, c] {
      auto session = stack.server->OpenSession();
      if (c % 2 == 0) {
        api::RetryPolicy policy;
        policy.max_attempts = 3;
        policy.initial_backoff = std::chrono::microseconds(50);
        policy.max_backoff = std::chrono::microseconds(800);
        policy.budget = std::chrono::microseconds(5000);
        policy.seed = SubSeed(opts.gen.seed, 8300 + c);
        session->set_retry_policy(policy);
      }
      Rng trng(SubSeed(opts.gen.seed, 8400 + c));
      for (size_t i = 0; i < plans[c].size(); ++i) {
        const CallPlan& p = plans[c][i];
        ResultSet rs;
        bool observed = true;
        if (p.mode == kBlocking) {
          rs = session->Execute(p.call.statement, p.call.params);
        } else {
          api::CallOptions copts;
          if (p.mode == kEngineDeadline) {
            copts.deadline = std::chrono::steady_clock::now() +
                             std::chrono::microseconds(trng.Uniform(0, 800));
          }
          api::AsyncResult ar =
              session->ExecuteAsync(p.call.statement, p.call.params, copts);
          if (p.mode == kAbandon) {
            observed = false;  // handle dropped; destructor cancels
          } else if (p.mode == kCancel) {
            ar.Cancel();
            rs = ar.Get();
          } else if (p.mode == kClientDeadline) {
            rs = ar.GetWithDeadline(
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(trng.Uniform(0, 1500)));
          } else {
            rs = ar.Get();
          }
        }
        if (!observed) continue;
        switch (rs.status.code()) {
          case StatusCode::kOk: {
            ok_count.fetch_add(1, std::memory_order_relaxed);
            // Degrade availability, never correctness: an accepted call
            // under any amount of chaos returns exactly the oracle's rows.
            if (CanonicalRows(rs) != p.expected) {
              fail(StringPrintf("session %zu call %zu (%s): OK result "
                                "diverges from oracle (%zu vs %zu rows)",
                                c, i, p.call.statement.c_str(), rs.rows.size(),
                                p.expected.size()));
            }
            compared_count.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case StatusCode::kResourceExhausted:
            rejected_count.fetch_add(1, std::memory_order_relaxed);
            break;
          case StatusCode::kDeadlineExceeded:
            shed_count.fetch_add(1, std::memory_order_relaxed);
            break;
          case StatusCode::kAborted:
            cancelled_count.fetch_add(1, std::memory_order_relaxed);
            // Aborted only ever comes from OUR cancellation (explicit or
            // client-deadline expiry); a plain call must never see it.
            if (p.mode != kCancel && p.mode != kClientDeadline) {
              fail(StringPrintf(
                  "session %zu call %zu (mode %d): spurious Aborted", c, i,
                  p.mode));
            }
            break;
          default:
            fail(StringPrintf("session %zu call %zu: status outside the "
                              "overload taxonomy: %s",
                              c, i, rs.status.ToString().c_str()));
            break;
        }
      }
      retry_count.fetch_add(session->stats().retries,
                            std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();

  // --- drain + accounting identity -----------------------------------------
  // Abandoned handles left cancelled entries in the queue; the live driver
  // drains them. Bounded wait, then quiesce and check the books.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stack.engine->PendingCount() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stack.server->Pause();
  if (stack.engine->PendingCount() != 0) {
    fail(StringPrintf("queue failed to drain: %zu entries still pending "
                      "after 5s (driver wedged?)",
                      stack.engine->PendingCount()));
  } else {
    const Engine::AdmissionTotals t = stack.engine->admission_totals();
    if (t.submitted != t.admitted + t.rejected + t.shed + t.cancelled +
                           t.unavailable) {
      fail(StringPrintf(
          "accounting identity broken: submitted %llu != admitted %llu + "
          "rejected %llu + shed %llu + cancelled %llu + unavailable %llu",
          static_cast<unsigned long long>(t.submitted),
          static_cast<unsigned long long>(t.admitted),
          static_cast<unsigned long long>(t.rejected),
          static_cast<unsigned long long>(t.shed),
          static_cast<unsigned long long>(t.cancelled),
          static_cast<unsigned long long>(t.unavailable)));
    }
  }

  // --- recovery probe: after the flood, a plain call must succeed ----------
  stack.server->Resume();
  if (failures.empty() && gen.num_query_templates() > 0) {
    Rng prng(SubSeed(opts.gen.seed, 8500));
    auto session = stack.server->OpenSession();
    const StatementCall probe = gen.MakeQueryCall(&prng);
    const baseline::BaselineResult br =
        oracle.ExecuteNamed(probe.statement, probe.params);
    const ResultSet rs = session->Execute(probe.statement, probe.params);
    if (!rs.status.ok()) {
      fail("recovery probe not accepted after load dropped: " +
           rs.status.ToString());
    } else if (CanonicalRows(rs) != CanonicalRows(br.result)) {
      fail("recovery probe result diverges from oracle");
    }
  }

  // --- shutdown race: Shutdown() vs in-flight submissions ------------------
  // Every future must turn terminal (kUnavailable for drained/refused calls,
  // real statuses for anything that still rode a batch) — no hang, no
  // broken promise.
  {
    std::vector<std::thread> racers;
    const size_t kRacers = 4, kCallsPerRacer = 8;
    for (size_t c = 0; c < kRacers; ++c) {
      racers.emplace_back([&, c] {
        auto session = stack.server->OpenSession();
        Rng rrng(SubSeed(opts.gen.seed, 8600 + c));
        for (size_t i = 0; i < kCallsPerRacer; ++i) {
          const StatementCall call = gen.MakeQueryCall(&rrng);
          api::AsyncResult ar =
              session->ExecuteAsync(call.statement, call.params);
          const ResultSet rs = ar.Get();
          switch (rs.status.code()) {
            case StatusCode::kOk:
            case StatusCode::kResourceExhausted:
            case StatusCode::kUnavailable:
              if (rs.status.code() == StatusCode::kUnavailable) {
                unavailable_count.fetch_add(1, std::memory_order_relaxed);
              }
              break;
            default:
              fail(StringPrintf(
                  "shutdown race: racer %zu call %zu got status %s", c, i,
                  rs.status.ToString().c_str()));
              break;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    stack.server->Shutdown();
    for (std::thread& t : racers) t.join();

    // Post-shutdown: submissions are refused synchronously, nothing queues.
    auto session = stack.server->OpenSession();
    Rng prng(SubSeed(opts.gen.seed, 8700));
    const StatementCall call = gen.MakeQueryCall(&prng);
    const ResultSet rs = session->Execute(call.statement, call.params);
    if (rs.status.code() != StatusCode::kUnavailable) {
      fail("post-shutdown Execute returned " + rs.status.ToString() +
           ", want Unavailable");
    }
    if (stack.engine->PendingCount() != 0) {
      fail("entries queued after CloseSubmissions");
    }
    const Engine::AdmissionTotals t = stack.engine->admission_totals();
    if (t.submitted != t.admitted + t.rejected + t.shed + t.cancelled +
                           t.unavailable) {
      fail("accounting identity broken after shutdown");
    }
  }

  report.calls_ok = ok_count.load();
  report.calls_rejected = rejected_count.load();
  report.calls_shed = shed_count.load();
  report.calls_cancelled = cancelled_count.load();
  report.calls_unavailable = unavailable_count.load();
  report.compared = compared_count.load();
  report.retries = retry_count.load();
  const ChaosInjector::Counts chaos = stack.chaos->counts();
  report.chaos_stalls = chaos.stalls;
  report.chaos_slow_execs = chaos.slow_execs;
  report.chaos_hiccups = chaos.hiccups;
  report.failures = failures.size();
  report.ok = failures.empty();
  if (!report.ok) report.first_failure = failures.front();
  if (opts.verbose) {
    std::fprintf(
        stderr,
        "overload seed %llu: %s (%s) ok=%zu rej=%zu shed=%zu cancel=%zu "
        "unavail=%zu retries=%llu chaos=%llu/%llu/%llu\n",
        static_cast<unsigned long long>(report.seed),
        report.ok ? "ok" : report.first_failure.c_str(), report.config.c_str(),
        report.calls_ok, report.calls_rejected, report.calls_shed,
        report.calls_cancelled, report.calls_unavailable,
        static_cast<unsigned long long>(report.retries),
        static_cast<unsigned long long>(report.chaos_stalls),
        static_cast<unsigned long long>(report.chaos_slow_execs),
        static_cast<unsigned long long>(report.chaos_hiccups));
  }
  return report;
}

}  // namespace testing
}  // namespace shareddb
