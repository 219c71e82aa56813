#include "runtime/task_pool.h"

#include <chrono>

#include "common/logging.h"

namespace shareddb {

TaskPool::TaskPool(const Options& options) : options_(options) {
  workers_.reserve(options.num_workers);
  for (size_t i = 0; i < options.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < options.num_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(&idle_mu_);
    stop_ = true;
  }
  idle_cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void TaskPool::Submit(size_t home, Task task) {
  // Publish the count BEFORE the task: a pop can then never observe a task
  // whose increment is still pending (queued_ would underflow). The converse
  // window — a worker waking to a count whose task is not yet pushed — only
  // costs that worker one empty scan before it re-checks the predicate.
  {
    MutexLock lock(&idle_mu_);
    ++queued_;
  }
  {
    MutexLock lock(&workers_[home]->mu);
    workers_[home]->tasks.push_back(std::move(task));
  }
  idle_cv_.NotifyOne();
}

bool TaskPool::RunOneTask(size_t self) {
  const size_t n = workers_.size();
  if (n == 0) return false;
  Task task;
  bool found = false;
  bool stolen = false;
  const size_t first = self < n ? self : 0;
  for (size_t k = 0; k < n && !found; ++k) {
    const size_t w = (first + k) % n;
    Worker& worker = *workers_[w];
    MutexLock lock(&worker.mu);
    if (worker.tasks.empty()) continue;
    if (w == self) {
      // Own deque: LIFO end for cache locality.
      task = std::move(worker.tasks.back());
      worker.tasks.pop_back();
    } else {
      // Steal the oldest task — the classic stealing end.
      task = std::move(worker.tasks.front());
      worker.tasks.pop_front();
      stolen = self < n;  // participation by a waiter is not a worker steal
    }
    found = true;
  }
  if (!found) return false;
  {
    MutexLock lock(&idle_mu_);
    SDB_DCHECK(queued_ > 0);
    --queued_;
  }
  if (stolen) worker_steals_.fetch_add(1, std::memory_order_relaxed);

  if (options_.task_hook) options_.task_hook();

  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  task.group->Finish(error);
  return true;
}

void TaskPool::WorkerLoop(size_t index) {
  for (;;) {
    if (RunOneTask(index)) continue;
    MutexLock lock(&idle_mu_);
    while (queued_ == 0 && !stop_) idle_cv_.Wait(&idle_mu_);
    if (stop_ && queued_ == 0) return;
  }
}

TaskGroup::TaskGroup(TaskPool* pool) : pool_(pool) {
  if (pool_ != nullptr && pool_->num_workers() > 0) {
    home_ = pool_->next_home_.fetch_add(1, std::memory_order_relaxed) %
            pool_->num_workers();
  } else {
    pool_ = nullptr;  // inline mode
  }
}

TaskGroup::~TaskGroup() {
  // Wait() is the normal join point; the destructor only has to survive an
  // exceptional unwind without leaving tasks referencing a dead group.
  if (pool_ == nullptr) return;
  MutexLock lock(&mu_);
  while (pending_ != 0) cv_.Wait(&mu_);
}

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr) {
    // Inline mode: same capture semantics as the pooled path.
    try {
      fn();
    } catch (...) {
      MutexLock lock(&mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    return;
  }
  {
    MutexLock lock(&mu_);
    ++pending_;
  }
  pool_->Submit(home_, TaskPool::Task{std::move(fn), this});
  bool wake;
  {
    MutexLock lock(&mu_);
    ++submitted_;
    wake = waiter_asleep_;
  }
  // When the caller is one of this group's tasks, the waiter may be asleep
  // with nothing left to run but this new task.
  if (wake) cv_.NotifyAll();
}

void TaskGroup::Wait() {
  if (pool_ != nullptr) {
    for (;;) {
      uint64_t seen = 0;
      {
        MutexLock lock(&mu_);
        if (pending_ == 0) break;
        seen = submitted_;
      }
      // Participate: run any queued task (ours or another group's).
      if (pool_->RunOneTask(SIZE_MAX)) continue;
      // Nothing queued, so the stragglers are running on workers. They may
      // still spawn into this group: sleep only while no Run() has completed
      // since the scan, or a task queued behind it would wait out the sleep.
      // Run() bumps submitted_ after queueing, so a task the scan missed
      // either shows up here or wakes us. The timeout only bounds how long
      // other groups' queued tasks go without our help.
      MutexLock lock(&mu_);
      if (pending_ == 0) break;
      if (submitted_ != seen) continue;
      waiter_asleep_ = true;
      cv_.WaitFor(&mu_, std::chrono::milliseconds(1));
      waiter_asleep_ = false;
    }
  }
  std::exception_ptr e;
  {
    MutexLock lock(&mu_);
    e = error_;
    error_ = nullptr;
  }
  if (e != nullptr) std::rethrow_exception(e);
}

void TaskGroup::Finish(std::exception_ptr error) {
  MutexLock lock(&mu_);
  if (error != nullptr && error_ == nullptr) error_ = error;
  SDB_DCHECK(pending_ > 0);
  if (--pending_ == 0) cv_.NotifyAll();
}

}  // namespace shareddb
