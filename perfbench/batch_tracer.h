// BatchTracer: the server-side recorder of the benchmark's traced run.
//
// It is a ChaosHook that never delays anything, installed through the
// public EngineOptions::chaos field, so the engine needs no tracing code of
// its own:
//   * OnBatchFormation stamps the start of batch N and copies
//     Engine::last_report() for batch N-1, whose node_stats, exec_ms and
//     row counts it then aggregates;
//   * OnBeforeExecute stamps the end of formation and counts the batch;
//   * OnWorkerTask counts TaskPool tasks.
// Only batches that start while recording is on are aggregated and kept
// as spans; batch and pool-task counting never stops.

#ifndef SHAREDDB_PERFBENCH_BATCH_TRACER_H_
#define SHAREDDB_PERFBENCH_BATCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "common/sync.h"
#include "core/chaos.h"
#include "core/engine.h"

namespace shareddb {
namespace perfbench {

class BatchTracer final : public ChaosHook {
 public:
  using Clock = std::chrono::steady_clock;

  /// Aggregates over every recorded batch.
  struct Summary {
    uint64_t batches = 0;
    uint64_t statements = 0;  // admitted, summed over recorded batches
    uint64_t updates = 0;
    LatencySamples exec_ms;       // RESULT-head exec_ms of each batch
    LatencySamples formation_ms;  // formation start -> OnBeforeExecute
    /// Next formation - this formation - exec_ms: Γ routing, future
    /// fulfilment and the driver's turnaround (batches with a successor).
    LatencySamples post_exec_ms;
    uint64_t rows_touched = 0;
    uint64_t rows_delivered = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_batches = 0;  // batches that wrote (and synced) the WAL
    OpWork ops;
  };

  explicit BatchTracer(size_t max_spans) : max_spans_(max_spans) {}

  BatchTracer(const BatchTracer&) = delete;
  BatchTracer& operator=(const BatchTracer&) = delete;

  /// Binds the engine whose batches are traced. Call before it runs one.
  void Attach(const Engine* engine);
  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_release);
  }

  void OnBatchFormation(uint64_t batch_number) override;
  void OnBeforeExecute(uint64_t batch_number, size_t num_admitted) override;
  void OnWorkerTask() override {
    pool_tasks_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Completes the last batch from the engine's report. Call only while the
  /// server runs no batch (after the load has drained).
  void Flush();

  /// Batches that executed (admitted >= 1), recorded or not.
  uint64_t batches_executed() const {
    return batches_executed_.load(std::memory_order_acquire);
  }
  uint64_t pool_tasks() const {
    return pool_tasks_.load(std::memory_order_relaxed);
  }

  Summary summary() const;

  /// Writes the recorded batch spans as Chrome trace events (one JSON
  /// object per line after the header) under process id `pid`.
  bool WriteSpans(const std::string& path, int pid) const;

 private:
  /// The latest formed batch, waiting for its report.
  struct OpenBatch {
    bool valid = false;
    bool recording = false;
    bool executed = false;
    uint64_t number = 0;
    Clock::time_point start;
    Clock::time_point formed;
    uint64_t wal_bytes_at_start = 0;
  };
  struct Span {
    uint64_t number = 0;
    size_t admitted = 0;
    Clock::time_point start;
    Clock::time_point formed;
    double exec_ms = 0;
    bool has_next = false;
    Clock::time_point next_start;
  };

  void CompleteLocked(const BatchReport& report, bool has_next,
                      Clock::time_point next_start, uint64_t wal_bytes_now)
      SDB_REQUIRES(mu_);

  const size_t max_spans_;
  // unguarded: written once by Attach() before the engine's driver starts.
  const Engine* engine_ = nullptr;
  // unguarded: written once by Attach() before the engine's driver starts.
  std::vector<std::string> node_kinds_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> batches_executed_{0};
  std::atomic<uint64_t> pool_tasks_{0};

  mutable Mutex mu_{"perfbench.tracer"};
  OpenBatch open_ SDB_GUARDED_BY(mu_);
  Summary summary_ SDB_GUARDED_BY(mu_);
  std::vector<Span> spans_ SDB_GUARDED_BY(mu_);
};

}  // namespace perfbench
}  // namespace shareddb

#endif  // SHAREDDB_PERFBENCH_BATCH_TRACER_H_
