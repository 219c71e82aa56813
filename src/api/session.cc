#include "api/session.h"

#include <algorithm>
#include <thread>

#include "api/server.h"
#include "core/plan.h"

namespace shareddb {
namespace api {

AsyncResult::~AsyncResult() {
  // Abandoned-call fix: a handle dropped without Get() must not leave its
  // statement to execute as unobservable dead work. Best-effort: an already-
  // admitted call still runs to completion (the engine never tears a batch).
  if (future_.valid()) Cancel();
}

AsyncResult& AsyncResult::operator=(AsyncResult&& other) {
  if (this != &other) {
    if (future_.valid()) Cancel();
    future_ = std::move(other.future_);
    canceller_ = std::move(other.canceller_);
  }
  return *this;
}

ResultSet AsyncResult::Get() {
  SDB_CHECK(future_.valid());
  return future_.get();
}

bool AsyncResult::WaitFor(std::chrono::milliseconds timeout) const {
  SDB_CHECK(future_.valid());
  return future_.wait_for(timeout) == std::future_status::ready;
}

ResultSet AsyncResult::GetWithDeadline(
    std::chrono::steady_clock::time_point deadline) {
  SDB_CHECK(future_.valid());
  if (future_.wait_until(deadline) == std::future_status::ready) {
    return future_.get();
  }
  Cancel();
  return future_.get();
}

void CallCanceller::Cancel() const {
  if (flag_ == nullptr) return;
  flag_->store(true, std::memory_order_release);
  // Flush heartbeat: an otherwise-idle driver must still drain the entry so
  // the caller observes the Aborted status promptly.
  server_->NudgeDriver();
}

Status Session::Prepare(const std::string& name, PreparedStatement* out) {
  SDB_CHECK(out != nullptr);
  const StatementDef* def = server_->engine()->plan().FindStatement(name);
  if (def == nullptr) {
    out->valid_ = false;
    return Status::NotFound("unknown statement '" + name + "'");
  }
  out->id_ = def->id;
  out->name_ = name;
  out->num_params_ = def->num_params;
  out->valid_ = true;
  return Status::OK();
}

void Session::set_retry_policy(RetryPolicy policy) {
  retry_ = policy;
  retry_enabled_ = policy.max_attempts > 1;
  retry_rng_ = Rng(policy.seed);
}

ResultSet Session::Finish(std::future<ResultSet> f) {
  ResultSet rs = f.get();
  // Both counters are clamped at the engine (a same-batch fulfillment has
  // batches_waited == 0 and spills == 0, never a wrapped uint64), so these
  // sums cannot overflow from a single bad term.
  stats_.batches_waited += rs.batches_waited;
  stats_.admission_spills += rs.admission_spills;
  if (rs.status.code() == StatusCode::kResourceExhausted) ++stats_.rejected;
  return rs;
}

ResultSet Session::Execute(const PreparedStatement& stmt,
                           std::vector<Value> params, CallOptions opts) {
  if (!stmt.valid()) {
    ResultSet rs;
    rs.status = Status::InvalidArgument("invalid prepared statement");
    return rs;
  }
  const int attempts = retry_enabled_ ? std::max(1, retry_.max_attempts) : 1;
  std::chrono::microseconds backoff = retry_.initial_backoff;
  std::chrono::microseconds budget = retry_.budget;
  for (int attempt = 1;; ++attempt) {
    // Keep the params for a potential resubmission; the last permitted
    // attempt hands them over without a copy.
    std::vector<Value> p;
    if (attempt < attempts) {
      p = params;
    } else {
      p = std::move(params);
    }
    ResultSet rs = Finish(SubmitForFuture([&](Engine::CompletionSink sink) {
      return Submit(stmt, std::move(p), opts, std::move(sink),
                    /*canceller=*/nullptr);
    }));
    if (rs.status.code() != StatusCode::kResourceExhausted ||
        attempt >= attempts) {
      // Budget/attempts exhausted: the caller sees the original rejection.
      return rs;
    }
    // Jittered exponential backoff: uniform over [backoff/2, backoff].
    const auto half = backoff / 2;
    const auto sleep = half + std::chrono::microseconds(static_cast<int64_t>(
                                  static_cast<double>(half.count()) *
                                  retry_rng_.NextDouble()));
    if (sleep > budget) return rs;
    std::this_thread::sleep_for(sleep);
    budget -= sleep;
    backoff = std::min(
        std::chrono::microseconds(static_cast<int64_t>(
            static_cast<double>(backoff.count()) * retry_.multiplier)),
        retry_.max_backoff);
    ++stats_.retries;
  }
}

ResultSet Session::Execute(const std::string& name, std::vector<Value> params,
                           CallOptions opts) {
  PreparedStatement stmt;
  ResultSet rs;
  rs.status = Prepare(name, &stmt);
  if (!rs.status.ok()) {
    ++stats_.statements;
    return rs;
  }
  return Execute(stmt, std::move(params), opts);
}

AsyncResult Session::ExecuteAsync(const PreparedStatement& stmt,
                                  std::vector<Value> params, CallOptions opts) {
  AsyncResult r;
  r.future_ = SubmitForFuture([&](Engine::CompletionSink sink) {
    return Submit(stmt, std::move(params), opts, std::move(sink),
                  &r.canceller_);
  });
  return r;
}

AsyncResult Session::ExecuteAsync(const std::string& name,
                                  std::vector<Value> params, CallOptions opts) {
  AsyncResult r;
  r.future_ = SubmitForFuture([&](Engine::CompletionSink sink) {
    return Submit(name, std::move(params), opts, std::move(sink),
                  &r.canceller_);
  });
  return r;
}

Status Session::Submit(const PreparedStatement& stmt, std::vector<Value> params,
                       const CallOptions& opts, Engine::CompletionSink sink,
                       CallCanceller* canceller) {
  if (!stmt.valid()) return Status::InvalidArgument("invalid prepared statement");
  Engine::SubmitOptions sub;
  sub.deadline = opts.deadline;
  sub.inflight = inflight_;
  if (canceller != nullptr) {
    canceller->flag_ = std::make_shared<std::atomic<bool>>(false);
    canceller->server_ = server_;
    sub.cancel = canceller->flag_;
  }
  ++stats_.statements;
  return server_->Submit(stmt.id(), std::move(params), std::move(sub),
                         std::move(sink));
}

Status Session::Submit(const std::string& name, std::vector<Value> params,
                       const CallOptions& opts, Engine::CompletionSink sink,
                       CallCanceller* canceller) {
  PreparedStatement stmt;
  const Status s = Prepare(name, &stmt);
  if (!s.ok()) {
    ++stats_.statements;
    return s;
  }
  return Submit(stmt, std::move(params), opts, std::move(sink), canceller);
}

}  // namespace api
}  // namespace shareddb
