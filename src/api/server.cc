#include "api/server.h"

namespace shareddb {
namespace api {

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(options) {
  SDB_CHECK(engine_ != nullptr);
  {
    MutexLock lock(&mu_);
    paused_ = options_.start_paused;
  }
  driver_ = std::thread([this] { DriverLoop(); });
}

Server::Server(std::unique_ptr<Engine> engine, ServerOptions options)
    : Server(engine.get(), options) {
  owned_engine_ = std::move(engine);
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  // Serialize callers: the second Shutdown() (or the destructor after an
  // explicit Shutdown()) waits for the first to finish, then no-ops.
  MutexLock shutdown_lock(&shutdown_mu_);
  if (shutdown_) return;
  shutdown_ = true;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  if (driver_.joinable()) driver_.join();
  // The driver is gone; the batch that was in flight (if any) has fulfilled
  // its calls. Everything still queued never ran — complete those calls
  // with kUnavailable and refuse submissions from here on, so no client
  // call ever dangles on a destroyed server.
  engine_->CloseSubmissions(
      Status::Unavailable("server shut down before the statement was admitted"));
}

std::unique_ptr<Session> Server::OpenSession() {
  return std::unique_ptr<Session>(new Session(this));
}

Status Server::Submit(StatementId statement, std::vector<Value> params,
                      Engine::SubmitOptions opts, Engine::CompletionSink sink) {
  opts.max_queue_depth = options_.max_queue_depth;
  opts.max_inflight = options_.max_session_inflight;
  Status s = engine_->Submit(statement, std::move(params), std::move(opts),
                             std::move(sink));
  NudgeDriver();
  return s;
}

void Server::NudgeDriver() {
  {
    MutexLock lock(&mu_);
    work_pending_ = true;
  }
  wake_cv_.NotifyOne();
}

void Server::DriverLoop() {
  ReleasableMutexLock lock(&mu_);
  for (;;) {
    idle_cv_.NotifyAll();  // parked (or between heartbeats)
    // !running_ matters: a StepBatch may still be executing if Resume()
    // raced it — the engine requires serialized RunOneBatch callers.
    while (!stop_ && (paused_ || !work_pending_ || running_)) {
      wake_cv_.Wait(&mu_);
    }
    if (stop_) return;
    if (options_.min_batch_window.count() > 0) {
      // Gather window: let concurrently arriving clients join this
      // generation. Interrupted only by stop/pause; arrivals just queue.
      const auto deadline =
          std::chrono::steady_clock::now() + options_.min_batch_window;
      while (!stop_ && !paused_) {
        if (wake_cv_.WaitUntil(&mu_, deadline)) break;  // window elapsed
      }
      if (stop_) return;
      // Park again on pause (work_pending_ stays set for Resume()) or if a
      // StepBatch snuck in during the window.
      if (paused_ || running_) continue;
    }
    work_pending_ = false;
    running_ = true;
    lock.Unlock();
    const BatchReport report =
        engine_->RunOneBatch(options_.max_admissions_per_batch);
    lock.Relock();
    running_ = false;
    RecordLocked(report);
    // Admission overflow seeds the next generation without a new arrival.
    if (report.num_spilled > 0) work_pending_ = true;
  }
}

void Server::Pause() {
  MutexLock lock(&mu_);
  paused_ = true;
  wake_cv_.NotifyAll();  // break out of a gather window
  while (running_) idle_cv_.Wait(&mu_);
}

void Server::Resume() {
  {
    MutexLock lock(&mu_);
    paused_ = false;
    if (engine_->PendingCount() > 0) work_pending_ = true;
  }
  wake_cv_.NotifyAll();
}

bool Server::paused() const {
  MutexLock lock(&mu_);
  return paused_;
}

BatchReport Server::StepBatch() {
  ReleasableMutexLock lock(&mu_);
  SDB_CHECK(paused_);  // the driver must be parked; see Pause()
  while (running_) idle_cv_.Wait(&mu_);
  SDB_CHECK(paused_);  // a concurrent Resume() during StepBatch is misuse
  running_ = true;
  lock.Unlock();
  const BatchReport report =
      engine_->RunOneBatch(options_.max_admissions_per_batch);
  lock.Relock();
  running_ = false;
  RecordLocked(report);
  idle_cv_.NotifyAll();
  // A Resume() issued mid-step parked the driver on !running_; re-wake it.
  wake_cv_.NotifyAll();
  return report;
}

Status Server::Checkpoint(const std::string& path) {
  bool was_paused;
  {
    MutexLock lock(&mu_);
    was_paused = paused_;
  }
  // Quiesce: no batch may mutate tables while rows are being serialized.
  if (!was_paused) Pause();
  const Status s = engine_->Checkpoint(path);
  if (!was_paused) Resume();
  return s;
}

void Server::RecordLocked(const BatchReport& report) {
  last_report_ = report;
  stats_.statements_cancelled += report.num_cancelled;
  stats_.shared_work_saved += report.shared_work_saved;
  stats_.missing_root_outputs += report.missing_root_outputs;
  if (report.num_admitted > 0) {
    ++stats_.batches;
    stats_.statements_admitted += report.num_admitted;
    stats_.statements_spilled += report.num_spilled;
    stats_.max_batch_occupancy =
        std::max<uint64_t>(stats_.max_batch_occupancy, report.num_admitted);
  }
}

Server::Stats Server::stats() const {
  // The engine's admission counters are the authoritative overload story
  // (they also cover sheds/cancels drained by StepBatch and the shutdown
  // drain); batch-shape stats stay report-based.
  const Engine::AdmissionTotals totals = engine_->admission_totals();
  MutexLock lock(&mu_);
  Stats s = stats_;
  s.statements_submitted = totals.submitted;
  s.statements_admitted = totals.admitted;
  s.statements_cancelled = totals.cancelled;
  s.statements_rejected = totals.rejected;
  s.statements_shed = totals.shed;
  s.statements_unavailable = totals.unavailable;
  return s;
}

BatchReport Server::last_report() const {
  MutexLock lock(&mu_);
  return last_report_;
}

}  // namespace api
}  // namespace shareddb
