// Server: the client-facing front-end of SharedDB.
//
// The paper's engine is a continuously beating heart (§3.2): "while one
// batch of queries and updates is processed, newly arriving queries and
// updates are queued". The Server owns that heartbeat: a background driver
// thread forms and executes batches whenever statements are pending (parking
// on a condvar when idle), so N concurrent Sessions sharing one generation
// is the DEFAULT execution mode — not something callers hand-crank with
// Engine::RunOneBatch().
//
// Batch-formation policy knobs (ServerOptions):
//  - max_admissions_per_batch: overload protection; the overflow spills to
//    the next generation in FIFO order and is counted per call.
//  - min_batch_window: after work arrives, wait briefly so concurrent
//    clients join the same generation (trades a little latency for more
//    sharing; 0 = form immediately).
//
// Control plane: Pause()/StepBatch()/Resume() quiesce the driver and run
// single deterministic heartbeats — the supported way for tests and admin
// tooling to pin down exact batch composition.

#ifndef SHAREDDB_API_SERVER_H_
#define SHAREDDB_API_SERVER_H_

#include <chrono>
#include <memory>
#include <thread>

#include "api/session.h"
#include "common/sync.h"
#include "core/engine.h"

namespace shareddb {
namespace api {

/// Heartbeat / batch-formation policy.
struct ServerOptions {
  /// Max statements admitted per heartbeat; the overflow spills to the next
  /// generation (0 = unlimited).
  size_t max_admissions_per_batch = 0;
  /// After the first pending arrival, wait this long before forming the
  /// batch so concurrently submitting sessions share the generation
  /// (0 = form immediately; run-when-pending).
  std::chrono::microseconds min_batch_window{0};
  /// Bounded admission: reject a submission with a ready kResourceExhausted
  /// result when this many statements are already queued (0 = unbounded).
  /// Rejection is synchronous — the driver thread is never blocked by a
  /// flooded front door — and rejected-before-admission calls are the safe
  /// retry target (they never executed).
  size_t max_queue_depth = 0;
  /// Per-session in-flight cap: a session whose submitted-but-unfulfilled
  /// call count is at the cap gets kResourceExhausted (0 = unlimited).
  size_t max_session_inflight = 0;
  /// Start with the driver parked (Resume() or StepBatch() drives it).
  bool start_paused = false;
};

/// The server facade: owns the heartbeat driver over an Engine and hands
/// out Sessions. All sessions of one server share every batch.
class Server {
 public:
  /// Non-owning: `engine` must outlive the server (declare the server after
  /// the engine). The server's driver thread becomes the only
  /// RunOneBatch caller; do not crank the engine manually while it runs.
  explicit Server(Engine* engine, ServerOptions options = {});
  /// Owning convenience.
  explicit Server(std::unique_ptr<Engine> engine, ServerOptions options = {});
  ~Server();  // Shutdown(): drains queued calls with kUnavailable

  /// Graceful drain, idempotent: stops the heartbeat driver (the batch in
  /// flight finishes and fulfills its calls), then completes every
  /// queued-but-unadmitted statement with kUnavailable and refuses further
  /// submissions (synchronous kUnavailable). No call is left unanswered.
  void Shutdown();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Engine* engine() const { return engine_; }
  const ServerOptions& options() const { return options_; }

  /// Opens a client session. One per client thread; the handle must not
  /// outlive the server.
  std::unique_ptr<Session> OpenSession();

  // --- driver control (quiesce / deterministic stepping) ---------------------
  /// Parks the driver between heartbeats; returns once no batch is running.
  /// Blocking Session::Execute calls deadlock while paused — use
  /// ExecuteAsync + StepBatch for deterministic batch composition.
  void Pause();
  /// Restarts the driver (pending work is picked up immediately).
  void Resume();
  bool paused() const;
  /// Runs exactly one heartbeat on the caller's thread. Requires Pause().
  BatchReport StepBatch();

  /// Admin API: quiesces the heartbeat, writes an atomic checkpoint of the
  /// whole catalog to `path` (tmp + fsync + rename — a crash mid-checkpoint
  /// leaves the previous one intact), then resumes. Because all updates
  /// commit at batch boundaries, the checkpoint is a consistent snapshot of
  /// the last committed generation. Restores the prior paused/running state.
  Status Checkpoint(const std::string& path);

  /// Aggregate admission telemetry over all heartbeats that admitted work,
  /// plus the overload counters (rejections happen at Submit, sheds at
  /// formation — both are folded in here so one read shows the whole
  /// admission story). The accounting identity, once the queue is drained:
  ///   submitted == admitted + rejected + shed + cancelled + unavailable
  struct Stats {
    uint64_t batches = 0;  // heartbeats that admitted >= 1 statement
    uint64_t statements_submitted = 0;  // well-formed submissions
    uint64_t statements_admitted = 0;
    uint64_t statements_spilled = 0;    // spill events summed over formations
    uint64_t statements_cancelled = 0;  // drained before admission
    uint64_t statements_rejected = 0;   // kResourceExhausted backpressure
    uint64_t statements_shed = 0;       // kDeadlineExceeded at formation
    uint64_t statements_unavailable = 0;  // drained/refused at shutdown
    uint64_t max_batch_occupancy = 0;
    /// Rows delivered to subscribers beyond the rows the shared cycles
    /// materialized once (Γ fan-out), summed over batches: the concrete
    /// row-count sharing won — 0 when every batch carried one query.
    uint64_t shared_work_saved = 0;
    /// Γ routing misses (a needed root produced no output entry). Always a
    /// bug in the runtime; surfaced here so tests and the fuzzer can assert
    /// it stays zero.
    uint64_t missing_root_outputs = 0;

    /// Mean statements per non-empty batch: > 1 means clients actually
    /// shared generations.
    double MeanBatchOccupancy() const {
      return batches > 0
                 ? static_cast<double>(statements_admitted) /
                       static_cast<double>(batches)
                 : 0.0;
    }
  };
  Stats stats() const;
  /// Thread-safe copy of the most recent heartbeat's report.
  BatchReport last_report() const;

 private:
  friend class Session;
  friend class CallCanceller;

  /// `opts` carries the per-call pieces (cancel token, deadline, in-flight
  /// gauge); the server stamps its queue-depth / in-flight policy on top.
  /// Same contract as Engine::Submit: OK = queued and `sink` will run once;
  /// otherwise the synchronous rejection, and the sink never runs.
  Status Submit(StatementId statement, std::vector<Value> params,
                Engine::SubmitOptions opts, Engine::CompletionSink sink);
  /// Wakes the driver for new work (submission or cancellation flush).
  void NudgeDriver();
  void DriverLoop();
  void RecordLocked(const BatchReport& report) SDB_REQUIRES(mu_);

  Engine* engine_;
  std::unique_ptr<Engine> owned_engine_;
  const ServerOptions options_;

  // Lock order: shutdown_mu_ before mu_ (Shutdown is the only nesting).
  mutable Mutex mu_{"server.state"};
  Mutex shutdown_mu_{"server.shutdown"};  // serializes Shutdown callers
  CondVar wake_cv_;  // wakes the driver (work / stop / resume)
  CondVar idle_cv_;  // signals "no batch running"
  bool stop_ SDB_GUARDED_BY(mu_) = false;
  bool shutdown_ SDB_GUARDED_BY(shutdown_mu_) = false;
  bool paused_ SDB_GUARDED_BY(mu_) = false;
  bool work_pending_ SDB_GUARDED_BY(mu_) = false;
  bool running_ SDB_GUARDED_BY(mu_) = false;  // a heartbeat is executing now
  Stats stats_ SDB_GUARDED_BY(mu_);
  BatchReport last_report_ SDB_GUARDED_BY(mu_);

  std::thread driver_;  // last member: starts after everything above exists
};

}  // namespace api
}  // namespace shareddb

#endif  // SHAREDDB_API_SERVER_H_
