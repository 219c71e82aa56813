// TaskPool unit tests: submit/steal/shutdown, caller participation,
// exception propagation, nesting, and tasks spawning into their own group.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>

#include "runtime/task_pool.h"

namespace shareddb {
namespace {

TEST(TaskPoolTest, RunsEveryTask) {
  TaskPool pool(4);
  std::atomic<int> sum{0};
  TaskGroup group(&pool);
  for (int i = 1; i <= 100; ++i) {
    group.Run([&sum, i] { sum.fetch_add(i); });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.tasks_executed(), 100u);
}

TEST(TaskPoolTest, ZeroWorkerPoolRunsInline) {
  TaskPool pool(0);
  std::atomic<int> count{0};
  const std::thread::id self = std::this_thread::get_id();
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.Run([&count, self] {
      EXPECT_EQ(std::this_thread::get_id(), self);  // inline on the caller
      ++count;
    });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskPoolTest, NullPoolRunsInline) {
  std::atomic<int> count{0};
  TaskGroup group(nullptr);
  group.Run([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskPoolTest, WorkIsStolenAcrossWorkers) {
  // A group enqueues all its tasks onto ONE home deque. Occupy one worker
  // with a blocker, then enqueue a second task while the waiter is NOT yet
  // participating: the only thread that can run it is the other worker, and
  // it reaches the task by stealing from a deque it does not own. (If the
  // blocker itself was stolen, that already recorded the steal.)
  TaskPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> second_ran{false};
  TaskGroup group(&pool);
  group.Run([&] {
    blocker_running = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!blocker_running.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  group.Run([&] { second_ran = true; });
  while (!second_ran.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.worker_steals(), 1u);
  release = true;
  group.Wait();
  EXPECT_EQ(pool.tasks_executed(), 2u);
}

TEST(TaskPoolTest, WaiterParticipatesWhenWorkersAreBusy) {
  // One worker, blocked on a slow task: the waiting thread must drain the
  // rest of the queue itself instead of deadlocking.
  TaskPool pool(1);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  group.Run([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++count;
  });
  for (int i = 0; i < 20; ++i) {
    group.Run([&count] { ++count; });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 21);
}

TEST(TaskPoolTest, ExceptionPropagatesToWait) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&ran, i] {
      ++ran;
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // the failing task does not cancel the rest

  // The pool survives and can run new groups.
  TaskGroup again(&pool);
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) again.Run([&ok] { ++ok; });
  again.Wait();
  EXPECT_EQ(ok.load(), 4);
}

TEST(TaskPoolTest, ExceptionPropagatesInline) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(TaskPoolTest, NestedGroupsDoNotDeadlock) {
  // A pool task forks its own group on the same pool (the plan-DAG shape:
  // a plan-node task fans out scan morsels). Waiting tasks participate,
  // so this completes even when tasks outnumber workers.
  TaskPool pool(2);
  std::atomic<int> leaves{0};
  TaskGroup outer(&pool);
  for (int p = 0; p < 4; ++p) {
    outer.Run([&pool, &leaves] {
      TaskGroup inner(&pool);
      for (int m = 0; m < 8; ++m) {
        inner.Run([&leaves] { ++leaves; });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(TaskPoolTest, TasksSpawnIntoTheirOwnGroupFromNestedMorsels) {
  // The executor's shape: the heartbeat thread waits on a group whose tasks
  // (plan nodes) submit further tasks into that same group, and they do it
  // from inside an inner morsel group of their own. Every spawned task must
  // run, and Wait() must neither return early nor hang — at 1 worker, where
  // everything shares one worker plus the waiter, and at 4.
  constexpr int kSeeds = 3;
  constexpr int kDepth = 6;  // each task below kDepth spawns two children
  constexpr int kMorsels = 4;
  constexpr int kTasks = kSeeds * ((1 << (kDepth + 1)) - 1);
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    for (int rep = 0; rep < 5; ++rep) {
      TaskPool pool(workers);
      std::atomic<int> tasks{0};
      std::atomic<int> morsels{0};
      TaskGroup outer(&pool);
      std::function<void(int)> node = [&](int depth) {
        ++tasks;
        TaskGroup inner(&pool);
        for (int m = 0; m < kMorsels; ++m) {
          inner.Run([&, depth, m] {
            ++morsels;
            if (depth < kDepth && m < 2) {
              outer.Run([&node, depth] { node(depth + 1); });
            }
          });
        }
        inner.Wait();
      };
      for (int i = 0; i < kSeeds; ++i) outer.Run([&node] { node(0); });
      outer.Wait();
      EXPECT_EQ(tasks.load(), kTasks) << "workers=" << workers;
      EXPECT_EQ(morsels.load(), kTasks * kMorsels) << "workers=" << workers;
    }
  }
}

TEST(TaskPoolTest, ManyGroupsStress) {
  TaskPool pool(4);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    TaskGroup group(&pool);
    for (int i = 0; i < 40; ++i) {
      group.Run([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
  }
  EXPECT_EQ(sum.load(), 50 * 40);
}

TEST(TaskPoolTest, ShutdownWithIdleWorkersJoinsCleanly) {
  auto pool = std::make_unique<TaskPool>(4);
  TaskGroup group(pool.get());
  for (int i = 0; i < 16; ++i) group.Run([] {});
  group.Wait();
  pool.reset();  // must join without hanging
  SUCCEED();
}

}  // namespace
}  // namespace shareddb
