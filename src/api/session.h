// Session: one client's handle onto a running SharedDB server.
//
// Sessions are cheap per-client objects; every statement they execute rides
// the next shared batch formed by the server's heartbeat driver, together
// with the statements of every OTHER session — that concurrency is the whole
// point of shared execution ("pay one, get hundreds for free"). A session is
// not itself thread-safe: each client thread opens its own.

#ifndef SHAREDDB_API_SESSION_H_
#define SHAREDDB_API_SESSION_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/query.h"

namespace shareddb {
namespace api {

class Server;

/// A validated handle to a prepared statement of the global plan. Obtained
/// from Session::Prepare; a default-constructed handle is invalid and every
/// Execute on it returns an InvalidArgument ResultSet.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  bool valid() const { return valid_; }
  StatementId id() const { return id_; }
  const std::string& name() const { return name_; }
  /// Parameter slots the statement's templates reference; Execute must
  /// supply at least this many values (shorter vectors yield an
  /// InvalidArgument ResultSet, never an abort).
  size_t num_params() const { return num_params_; }

 private:
  friend class Session;
  StatementId id_ = 0;
  std::string name_;
  size_t num_params_ = 0;
  bool valid_ = false;
};

/// Best-effort cancellation of one submitted call: a statement not yet
/// admitted into a batch is drained with an Aborted status when formation
/// reaches it; once admitted it runs to completion. Thread-safe against a
/// concurrent wait or completion (a flag store plus a driver nudge). A
/// default-constructed handle cancels nothing.
class CallCanceller {
 public:
  void Cancel() const;

 private:
  friend class Session;
  std::shared_ptr<std::atomic<bool>> flag_;
  Server* server_ = nullptr;
};

/// Handle to one in-flight async execution (a future over Submit). Move-only.
class AsyncResult {
 public:
  AsyncResult() = default;
  AsyncResult(AsyncResult&&) = default;
  /// Move-assign cancels the call the target was tracking (same abandoned-
  /// call guarantee as the destructor) before adopting the new one.
  AsyncResult& operator=(AsyncResult&& other);
  /// Abandoning an unconsumed handle is not a leak: the destructor issues a
  /// best-effort engine-side cancel, so a call nobody will ever Get() is
  /// drained at the next formation instead of executing as dead work.
  /// Non-blocking (it does not wait for the drain).
  ~AsyncResult();

  bool valid() const { return future_.valid(); }

  /// Blocks until the statement's batch has committed (or the statement
  /// erred / was cancelled — see ResultSet.status). Consumes the handle's
  /// result: call at most once.
  ResultSet Get();

  /// Waits up to `timeout`; true if the result is ready.
  bool WaitFor(std::chrono::milliseconds timeout) const;

  /// Blocks until ready or `deadline`. On expiry requests best-effort
  /// cancellation and then waits for the terminal result: an Aborted-status
  /// ResultSet if the statement had not been admitted yet, or the real
  /// result if cancellation raced admission. Requires a running driver to
  /// flush the cancellation — on a paused server the terminal wait lasts
  /// until the next StepBatch()/Resume() (pausing is a control-plane action
  /// by the same caller; an implicit flush would steal the composition of
  /// the batch the pause is protecting).
  ResultSet GetWithDeadline(std::chrono::steady_clock::time_point deadline);

  /// Best-effort cancel (see CallCanceller); thread-safe against a
  /// CONCURRENT Get()/WaitFor() on the same handle.
  void Cancel() { canceller_.Cancel(); }

 private:
  friend class Session;
  std::future<ResultSet> future_;
  CallCanceller canceller_;
};

/// Client-side retry policy for blocking Execute calls. Retries are
/// restricted to kResourceExhausted results — a backpressure rejection
/// happens strictly BEFORE admission, so the statement never executed and a
/// resubmission cannot double-apply an update. Deadline sheds, shutdown
/// drains, and execution errors are surfaced immediately (the client, not
/// the library, knows whether re-running those is safe).
struct RetryPolicy {
  /// Total tries, including the first. <= 1 disables retrying.
  int max_attempts = 4;
  /// First backoff; each subsequent retry multiplies it (capped below).
  /// The actual sleep is jittered uniformly over [backoff/2, backoff] so a
  /// rejected thundering herd decorrelates instead of re-colliding.
  std::chrono::microseconds initial_backoff{200};
  double multiplier = 2.0;
  std::chrono::microseconds max_backoff{10000};
  /// Total sleep budget across all retries of ONE Execute. When the next
  /// backoff does not fit, the call gives up and surfaces the original
  /// kResourceExhausted.
  std::chrono::microseconds budget{50000};
  /// Jitter determinism (per-session stream).
  uint64_t seed = 0x42;
};

/// Per-call options for Execute/ExecuteAsync.
struct CallOptions {
  /// Engine-side deadline, carried with the submission: if the call is
  /// still queued when a batch forms past this point it is shed with a
  /// ready kDeadlineExceeded result instead of executing dead work.
  /// time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// A client connection. All statement execution is Status-first: errors
/// (unknown statement, invalid handle, cancellation, overload rejection)
/// arrive in ResultSet.status, never as an abort.
class Session {
 public:
  /// Validates `name` against the global plan. NotFound for unknown names.
  Status Prepare(const std::string& name, PreparedStatement* out);

  /// Installs a retry policy for blocking Executes (see RetryPolicy). Off
  /// by default: every rejection surfaces immediately.
  void set_retry_policy(RetryPolicy policy);

  /// Blocking execution: submits into the server's admission queue and
  /// waits for the shared batch that carries it. Do not call while the
  /// server is paused (use ExecuteAsync + Server::StepBatch there).
  ResultSet Execute(const PreparedStatement& stmt, std::vector<Value> params,
                    CallOptions opts = {});
  /// Convenience: prepare-by-name + execute; unknown names surface NotFound.
  ResultSet Execute(const std::string& name, std::vector<Value> params,
                    CallOptions opts = {});

  /// Non-blocking execution: returns a handle with deadline/cancel
  /// semantics. The result is fulfilled by the heartbeat driver.
  AsyncResult ExecuteAsync(const PreparedStatement& stmt,
                           std::vector<Value> params, CallOptions opts = {});
  AsyncResult ExecuteAsync(const std::string& name, std::vector<Value> params,
                           CallOptions opts = {});

  /// Push-style execution, the path every Execute is layered on: `sink`
  /// gets the terminal ResultSet once (see Engine::CompletionSink). A
  /// synchronous rejection (invalid handle, unknown statement, bad arity,
  /// full queue, in-flight cap, shut-down server) is returned instead and
  /// the sink never runs. `canceller` (may be null) receives a cancel handle.
  Status Submit(const PreparedStatement& stmt, std::vector<Value> params,
                const CallOptions& opts, Engine::CompletionSink sink,
                CallCanceller* canceller);
  Status Submit(const std::string& name, std::vector<Value> params,
                const CallOptions& opts, Engine::CompletionSink sink,
                CallCanceller* canceller);

  /// Per-session telemetry, accumulated from the ResultSets of blocking
  /// Executes (async results carry their own telemetry).
  struct Stats {
    uint64_t statements = 0;        // statements submitted (sync + async)
    uint64_t batches_waited = 0;    // summed over blocking Executes
    uint64_t admission_spills = 0;  // summed over blocking Executes
    uint64_t rejected = 0;          // kResourceExhausted results observed
    uint64_t retries = 0;           // resubmissions by the retry policy
  };
  const Stats& stats() const { return stats_; }

  /// Calls submitted by this session whose result has not been fulfilled
  /// yet (the gauge behind ServerOptions.max_session_inflight).
  int64_t inflight() const {
    return inflight_->load(std::memory_order_acquire);
  }

 private:
  friend class Server;
  explicit Session(Server* server)
      : server_(server),
        inflight_(std::make_shared<std::atomic<int64_t>>(0)) {}

  ResultSet Finish(std::future<ResultSet> f);

  Server* server_;
  Stats stats_;
  std::shared_ptr<std::atomic<int64_t>> inflight_;
  RetryPolicy retry_;
  bool retry_enabled_ = false;
  Rng retry_rng_;  // reseeded by set_retry_policy
};

}  // namespace api
}  // namespace shareddb

#endif  // SHAREDDB_API_SESSION_H_
