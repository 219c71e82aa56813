// Engine: SharedDB's batching front-end (paper §3.2):
//
//   "While one batch of queries and updates is processed, newly arriving
//    queries and updates are queued. When the current batch ... has been
//    processed, then the queues are emptied in order to form the next batch.
//    Metaphorically, SharedDB works like the blood circulation: with every
//    heartbeat, tuples are pushed through the global query plan in order to
//    process the next generation of queries and updates."
//
// The engine owns admission, batch formation (query-id assignment and
// parameter binding), snapshot/commit management, WAL logging, and result
// routing (Γ by query_id). Dataflow execution is delegated to the cycle
// executor (runtime/executor.h), serial or on the engine's worker pool.

#ifndef SHAREDDB_CORE_ENGINE_H_
#define SHAREDDB_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/chaos.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/work_stats.h"
#include "runtime/task_pool.h"
#include "storage/wal.h"

namespace shareddb {

/// Summary of one heartbeat, for monitoring and the simulator.
struct BatchReport {
  uint64_t batch_number = 0;
  size_t num_queries = 0;
  size_t num_updates = 0;
  double exec_ms = 0;
  // Admission control (batch formation):
  size_t queue_depth_at_formation = 0;  // pending statements when formed
  size_t num_admitted = 0;              // statements admitted (queries+updates)
  size_t num_spilled = 0;               // left queued for the next generation
  size_t num_cancelled = 0;  // drained by cancellation as formation reached them
  size_t num_shed = 0;  // deadline-expired at formation: never executed
  // Γ (result routing) amortization accounting:
  uint64_t rows_touched = 0;    // rows the shared cycle materialized once
  uint64_t rows_delivered = 0;  // rows handed out across all subscribers
  /// The sharing win of this batch: rows delivered to queries beyond the
  /// rows the shared operators actually produced (rows-times-subscribers
  /// minus rows-touched-once, clamped at 0). 0 means no result row was
  /// shared by more than one query this heartbeat.
  uint64_t shared_work_saved = 0;
  /// Γ routing misses: a query's root produced no output entry at all. The
  /// executor always delivers an entry for every needed root (even when it is
  /// empty), so any nonzero count is a dropped routing — a bug, asserted by
  /// SDB_DCHECK and watched by the differential fuzzer.
  uint64_t missing_root_outputs = 0;
  std::vector<WorkStats> node_stats;  // indexed by node id

  WorkStats TotalWork() const {
    WorkStats t;
    for (const WorkStats& s : node_stats) t.Add(s);
    return t;
  }
};

/// Worker-pool knobs (see ParallelContext in task_pool.h).
struct ParallelOptions {
  /// Worker threads in the shared pool. 0 = serial execution everywhere:
  /// plan nodes in plan order, every operator on its serial path. With
  /// workers, independent plan nodes run concurrently and heavy operators
  /// split their cycle into morsels.
  size_t num_workers = 0;
  /// Inputs smaller than this stay on the serial paths.
  size_t min_rows_per_task = 2048;
  /// Item-granular work (probe groups) below this stays serial.
  size_t min_items_per_task = 8;
};

/// Durability knobs: which WAL discipline commits get, and where the bytes
/// go. The group-commit mode is the paper-faithful one — a heartbeat batch
/// commits atomically, so one fsync at the batch boundary covers every
/// update in it.
struct DurabilityOptions {
  DurabilityMode mode = DurabilityMode::kNone;
  std::string wal_path;  // required unless mode == kNone
  /// Storage backend; null = the real POSIX filesystem. Tests pass a
  /// storage::FaultyEnv to inject crashes, torn writes, and lying fsyncs.
  storage::Env* env = nullptr;
  /// Start a fresh log. Pass false to append to a recovered log (Recover()
  /// truncates damaged tails, so appending after recovery is safe).
  bool truncate_wal = true;
};

/// Engine options.
struct EngineOptions {
  DurabilityOptions durability;
  /// Vacuum dead row versions every N batches (0 = never). Must stay 0 with
  /// a WAL: Vacuum renumbers rows, and WAL update/delete records still name
  /// rows by physical position, so replay would close the wrong rows.
  int vacuum_interval = 0;
  /// Shared worker pool for parallel cycle execution.
  ParallelOptions parallel;
  /// Execution-side fault injection (heartbeat stalls, slow operators,
  /// worker hiccups); must outlive the engine. Null = no injection.
  ChaosHook* chaos = nullptr;
};

/// The SharedDB engine.
class Engine {
 public:
  explicit Engine(std::unique_ptr<GlobalPlan> plan, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// kInvalidArgument when `options` combine vacuum with a WAL. Such an
  /// engine starts closed: it opens no log and every Submit returns this.
  const Status& init_status() const { return init_status_; }

  const GlobalPlan& plan() const { return *plan_; }
  Catalog* catalog() const { return plan_->catalog(); }

  /// Best-effort cancellation token: set it before the statement is admitted
  /// into a batch and the next formation drains the entry with an Aborted
  /// status instead of executing it (once admitted, it runs to completion).
  using CancelFlag = std::shared_ptr<std::atomic<bool>>;

  /// Per-submission overload-protection knobs. Everything here resolves
  /// SYNCHRONOUSLY at Submit (a full queue rejects at once with
  /// kResourceExhausted — the caller is never blocked) or at batch
  /// formation (an expired deadline sheds with kDeadlineExceeded instead of
  /// executing dead work).
  struct SubmitOptions {
    CancelFlag cancel;  // may be null
    /// Shed the call at formation if still unadmitted past this point.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Reject with kResourceExhausted when the pending queue already holds
    /// this many statements (0 = unbounded).
    size_t max_queue_depth = 0;
    /// Caller's in-flight gauge: incremented when the entry is queued,
    /// decremented at fulfillment (whatever the terminal status). With
    /// max_inflight > 0, a gauge already at the cap rejects with
    /// kResourceExhausted. Null = untracked.
    std::shared_ptr<std::atomic<int64_t>> inflight;
    size_t max_inflight = 0;
  };

  /// Gets a queued statement's terminal ResultSet exactly once, on the
  /// fulfilling thread (RunOneBatch's or CloseSubmissions' caller), with no
  /// engine lock held. Must not block.
  using CompletionSink = std::function<void(ResultSet)>;

  /// Enqueues a statement instance for the next batch; `sink` receives its
  /// result. Thread-safe (clients submit while a batch executes; that is
  /// the heartbeat model). A synchronous rejection is returned instead and
  /// the sink never runs: InvalidArgument (bad id or arity),
  /// kResourceExhausted (queue / in-flight caps), kUnavailable (closed).
  Status Submit(StatementId statement, std::vector<Value> params,
                SubmitOptions opts, CompletionSink sink);

  /// Future adapters over the sink path (see SubmitForFuture below); an
  /// unknown name is a NotFound result.
  std::future<ResultSet> Submit(StatementId statement, std::vector<Value> params,
                                CancelFlag cancel = nullptr);
  std::future<ResultSet> SubmitNamed(const std::string& name,
                                     std::vector<Value> params,
                                     CancelFlag cancel = nullptr);

  /// Shutdown drain: atomically stops accepting submissions (subsequent
  /// Submits are rejected with kUnavailable) and fulfills every
  /// queued-but-unadmitted statement with `status` — no sink is ever left
  /// uncalled. Returns the number drained. The caller must ensure no
  /// RunOneBatch is executing concurrently (api::Server joins its driver
  /// first).
  size_t CloseSubmissions(Status status);
  bool submissions_closed() const {
    MutexLock lock(&mu_);
    return closed_;
  }

  /// Admission accounting, monotone over the engine's lifetime. The
  /// overload invariant every caller can check:
  ///   submitted == admitted + rejected + shed + cancelled + unavailable
  ///                + PendingCount()
  /// `submitted` counts only well-formed submissions (validation errors —
  /// unknown statement, bad arity — never enter the admission pipeline).
  struct AdmissionTotals {
    uint64_t submitted = 0;    // entered the admission pipeline
    uint64_t admitted = 0;     // executed in a batch
    uint64_t rejected = 0;     // kResourceExhausted at Submit (queue/in-flight)
    uint64_t shed = 0;         // kDeadlineExceeded at formation
    uint64_t cancelled = 0;    // kAborted drain at formation
    uint64_t unavailable = 0;  // kUnavailable: drained or submitted post-close
  };
  AdmissionTotals admission_totals() const;

  /// Number of queued (unbatched) statement instances.
  size_t PendingCount() const;

  /// Runs one heartbeat: drains the queue (up to `max_admissions`
  /// statements; 0 = all — the overflow spills to the next generation in
  /// FIFO order), executes the batch through the global plan, commits, and
  /// runs the calls' sinks. Returns the report. A batch with no pending
  /// statements is a no-op heartbeat.
  ///
  /// This is the low-level testing/simulation API: calls must be serialized
  /// by the caller. Production clients go through api::Server, whose
  /// heartbeat driver thread is the single caller.
  BatchReport RunOneBatch(size_t max_admissions = 0);

  /// Convenience for tests/examples: Submit + RunOneBatch + get.
  ResultSet ExecuteSync(StatementId statement, std::vector<Value> params);
  ResultSet ExecuteSyncNamed(const std::string& name, std::vector<Value> params);

  /// Thread-safe copy of the most recent batch's report (api::Server keeps
  /// its own copy with richer admission stats for production readers).
  BatchReport last_report() const {
    MutexLock lock(&mu_);
    return last_report_;
  }

  uint64_t batches_run() const {
    return batch_number_.load(std::memory_order_acquire);
  }

  /// The engine's shared worker pool (null when running serial).
  TaskPool* task_pool() const { return task_pool_.get(); }
  /// The per-cycle parallelism view handed to operators (pool may be null).
  const ParallelContext& parallel_context() const { return parallel_ctx_; }

  /// Engine-wide PredicateIndex cache counters, summed over every shared
  /// scan in the global plan. A steady prepared-statement workload that only
  /// rebinds parameters between batches accrues `index_rebinds` (cheap
  /// constant swaps) while `index_builds` stays at one build per scan per
  /// statement-mix change.
  struct PredicateCacheStats {
    uint64_t index_builds = 0;
    uint64_t index_rebinds = 0;
  };
  PredicateCacheStats predicate_cache_stats() const;

  /// First WAL I/O error, latched. The engine keeps serving after a WAL
  /// failure (availability over durability — the heartbeat never stops),
  /// but callers that promised durability must check this before acking.
  Status wal_status() const {
    MutexLock lock(&mu_);
    return wal_status_;
  }

  /// Logical WAL length in bytes (0 when durability is off). After a
  /// group-commit batch this is the durable size — the crash fuzzer records
  /// it per batch to aim crash points at batch boundaries.
  uint64_t wal_bytes_logged() const {
    return wal_ != nullptr ? wal_->bytes_logged() : 0;
  }

  /// Writes an atomic checkpoint of the catalog to `path` using the
  /// durability backend (POSIX when none was configured). Caller must
  /// ensure no batch is executing (api::Server::Checkpoint pauses the
  /// heartbeat around this).
  Status Checkpoint(const std::string& path) const;

 private:
  struct Pending {
    StatementId statement;
    std::vector<Value> params;
    CompletionSink sink;
    std::unique_ptr<uint64_t> update_count;  // stable address for applied_out
    CancelFlag cancel;                       // may be null
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    std::shared_ptr<std::atomic<int64_t>> inflight;  // may be null
    uint64_t submit_batch = 0;  // batches_run() at submission
  };

  void InstallWal();
  /// Decrements the caller's in-flight gauge, then runs the sink.
  static void Fulfill(Pending* p, ResultSet rs);

  std::unique_ptr<GlobalPlan> plan_;
  EngineOptions options_;
  Status init_status_;
  std::unique_ptr<TaskPool> task_pool_;
  ParallelContext parallel_ctx_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<class WalTableLogger> wal_logger_;

  mutable Mutex mu_{"engine.state"};
  // FIFO; formation pops admitted from the front.
  std::deque<Pending> pending_ SDB_GUARDED_BY(mu_);
  bool closed_ SDB_GUARDED_BY(mu_) = false;  // set by CloseSubmissions

  // Admission accounting (see AdmissionTotals). Writers hold mu_ or are the
  // single RunOneBatch caller; atomics let readers skip the lock.
  std::atomic<uint64_t> stat_submitted_{0};
  std::atomic<uint64_t> stat_admitted_{0};
  std::atomic<uint64_t> stat_rejected_{0};
  std::atomic<uint64_t> stat_shed_{0};
  std::atomic<uint64_t> stat_cancelled_{0};
  std::atomic<uint64_t> stat_unavailable_{0};

  std::atomic<uint64_t> batch_number_{0};
  BatchReport last_report_ SDB_GUARDED_BY(mu_);
  Status wal_status_ SDB_GUARDED_BY(mu_);  // first WAL error, latched
};

/// Future adapter over the sink path: `submit(sink)` queues one call or
/// returns its synchronous rejection, which becomes a ready future.
template <typename SubmitFn>
std::future<ResultSet> SubmitForFuture(SubmitFn&& submit) {
  auto promise = std::make_shared<std::promise<ResultSet>>();
  std::future<ResultSet> f = promise->get_future();
  Status s = submit(Engine::CompletionSink(
      [promise](ResultSet rs) { promise->set_value(std::move(rs)); }));
  if (!s.ok()) {
    ResultSet rs;
    rs.status = std::move(s);
    promise->set_value(std::move(rs));
  }
  return f;
}

/// Logs every table mutation into the WAL (installed by the engine).
class WalTableLogger : public TableWriteObserver {
 public:
  WalTableLogger(Wal* wal, const Catalog* catalog) : wal_(wal), catalog_(catalog) {}

  void OnInsert(const Table& table, RowId row, const Tuple& t, Version v) override;
  void OnUpdate(const Table& table, RowId old_row, RowId new_row, const Tuple& t,
                Version v) override;
  void OnDelete(const Table& table, RowId row, Version v) override;

 private:
  Wal* wal_;
  const Catalog* catalog_;
};

}  // namespace shareddb

#endif  // SHAREDDB_CORE_ENGINE_H_
