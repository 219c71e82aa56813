// TaskPool: the engine's one work-stealing worker pool. It carries both
// kinds of parallelism the executor uses within a heartbeat:
//   * INTER-operator: the global plan's DAG, one task per plan node,
//     submitted when the node's last input arrives (runtime/executor.cc);
//   * INTRA-operator (paper §4.4–§4.5: Crescando "supports horizontal
//     partitioning of data and processing several partitions with different
//     cores in parallel"): a heavy operator — ClockScan, sort, hash join —
//     fans one cycle out into morsel tasks.
//
// Design:
//   * Each worker owns a deque. A TaskGroup enqueues its tasks onto ONE home
//     deque (round-robin per group); idle workers steal from the front of
//     other workers' deques, so morsels migrate to free cores automatically.
//   * TaskGroup::Wait() PARTICIPATES: the waiting thread executes queued
//     tasks (its own group's or others') instead of blocking, so a pool with
//     zero workers degrades to inline serial execution and nested groups
//     (a plan-node task that fans out scan morsels) cannot deadlock.
//   * The first exception thrown by a task is captured and rethrown from
//     Wait(); remaining tasks still run (operators must not be torn mid-
//     cycle).
//
// Threading contract: TaskPool is internally synchronized. Destroying a pool
// while a TaskGroup still has pending tasks is undefined — cycle barriers
// (TaskGroup::Wait) always complete before the engine tears the pool down.

#ifndef SHAREDDB_RUNTIME_TASK_POOL_H_
#define SHAREDDB_RUNTIME_TASK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace shareddb {

class TaskGroup;

/// Work-stealing pool of `num_workers` threads (0 = everything runs inline
/// on the submitting thread inside TaskGroup::Wait).
class TaskPool {
 public:
  struct Options {
    size_t num_workers = 0;
    /// Chaos injection: invoked before each task executes (on workers AND
    /// participating waiters). May sleep ("worker hiccup"), must not throw.
    /// Null = no overhead beyond one branch.
    std::function<void()> task_hook;
  };

  explicit TaskPool(size_t num_workers)
      : TaskPool(Options{num_workers, nullptr}) {}
  explicit TaskPool(const Options& options);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Tasks popped by a worker thread from another worker's deque (not
  /// counting waiter participation). Observability for tests/benches.
  uint64_t worker_steals() const {
    return worker_steals_.load(std::memory_order_relaxed);
  }
  /// Total tasks executed (by workers and participating waiters).
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct Worker {
    Mutex mu{"task_pool.worker"};
    std::deque<Task> tasks SDB_GUARDED_BY(mu);
    std::thread thread;
  };

  /// Enqueues onto `home`'s deque and wakes one sleeper.
  void Submit(size_t home, Task task);

  /// Pops one task (own deque back first, then steals from others' fronts)
  /// and runs it. `self` is the calling worker's index, or SIZE_MAX for a
  /// participating waiter. Returns false when every deque was empty.
  bool RunOneTask(size_t self);

  void WorkerLoop(size_t index);

  const Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Sleep/wake for idle workers.
  Mutex idle_mu_{"task_pool.idle"};
  CondVar idle_cv_;
  size_t queued_ SDB_GUARDED_BY(idle_mu_) = 0;
  bool stop_ SDB_GUARDED_BY(idle_mu_) = false;

  std::atomic<size_t> next_home_{0};
  std::atomic<uint64_t> worker_steals_{0};
  std::atomic<uint64_t> tasks_executed_{0};
};

/// A set of tasks forming one fork-join region (the morsels of one scan
/// cycle, or the plan nodes of one heartbeat). Run() is thread-safe: a task
/// of the group may spawn further tasks into it (the executor submits a plan
/// node from the task of its last-finishing input). A spawned task counts as
/// pending from its Run() call, before the spawning task finishes, so the
/// group never looks drained mid-cascade. Wait() has one caller at a time.
class TaskGroup {
 public:
  /// `pool` may be null or have zero workers: Run() then executes inline.
  explicit TaskGroup(TaskPool* pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules one task (or runs it inline without a pool). Exceptions are
  /// captured; the first one is rethrown by Wait(). Callable from any thread,
  /// including this group's own tasks.
  void Run(std::function<void()> fn);

  /// Executes queued work on the calling thread until every task of this
  /// group has finished, then rethrows the first captured exception (if any).
  void Wait();

 private:
  friend class TaskPool;

  /// Called by the pool when one of this group's tasks finishes.
  void Finish(std::exception_ptr error);

  TaskPool* pool_;
  size_t home_ = 0;
  Mutex mu_{"task_group"};
  CondVar cv_;
  size_t pending_ SDB_GUARDED_BY(mu_) = 0;
  /// Bumped after each pooled Run() has queued its task: a waiter that found
  /// no task to run sleeps only while this stays unchanged.
  uint64_t submitted_ SDB_GUARDED_BY(mu_) = 0;
  /// The waiter is asleep in Wait(); Run() wakes it only then.
  bool waiter_asleep_ SDB_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ SDB_GUARDED_BY(mu_);
};

/// Per-cycle parallelism configuration, plumbed to operators through
/// CycleContext. A null ParallelContext (or one without a pool) selects the
/// serial paths everywhere — parallel and serial paths produce byte-identical
/// batches, so this is purely a performance knob.
struct ParallelContext {
  /// Morsel granularity: aim for this many tasks per worker so stealing can
  /// rebalance skewed morsels.
  static constexpr size_t kMorselsPerWorker = 4;

  TaskPool* pool = nullptr;

  /// Inputs smaller than this stay serial (task dispatch would dominate).
  size_t min_rows_per_task = 2048;
  /// Item-granular work (probe groups): fewer items than this
  /// stay serial. Items are coarse units — each may touch many rows — so the
  /// threshold is much lower than min_rows_per_task.
  size_t min_items_per_task = 8;

  size_t workers() const { return pool == nullptr ? 0 : pool->num_workers(); }

  /// Upper bound on the tasks one operator cycle splits into.
  size_t max_tasks() const { return workers() * kMorselsPerWorker; }

  /// True when the parallel path should run for `rows` input rows.
  bool Enabled(size_t rows) const {
    return workers() > 0 && rows >= 2 * min_rows_per_task;
  }

  /// Item-granular variant of Enabled() (see min_items_per_task).
  bool EnabledItems(size_t items) const {
    return workers() > 0 && items >= min_items_per_task;
  }
};

}  // namespace shareddb

#endif  // SHAREDDB_RUNTIME_TASK_POOL_H_
