// Virtual-time load simulation of the SharedDB server.
//
// The engine executes every batch FOR REAL (serial executor) — results,
// snapshots and updates are all genuine; only the clock is simulated:
// per-node work from the batch report is converted to time on N simulated
// cores via the cost model, with operators assigned to cores as in §4.3
// (operator-per-core; LPT packing when operators outnumber cores).
//
// Closed-loop mode drives TPC-W emulated browsers (Figures 7-9);
// open-loop mode drives fixed-rate statement streams (Figure 11).

#ifndef SHAREDDB_SIM_SHAREDDB_SIM_H_
#define SHAREDDB_SIM_SHAREDDB_SIM_H_

#include <functional>

#include "core/engine.h"
#include "sim/client_sim.h"
#include "sim/cost_model.h"
#include "tpcw/harness.h"

namespace shareddb {
namespace sim {

/// Server-model knobs.
struct SharedDbSimOptions {
  int num_cores = 24;
  CostModel cost;
  /// Heartbeat floor: a batch occupies at least this much time (scheduling,
  /// queue turnover). Adds the paper's batching latency (§3.5: worst case
  /// one cycle of queueing + one cycle of processing).
  double min_heartbeat_seconds = 0.02;
  /// Admission cap per heartbeat, mirroring
  /// api::ServerOptions::max_admissions_per_batch (0 = unlimited). Spilled
  /// statements stay queued in the engine and complete in a later
  /// generation; the sim tracks completion through the statement futures.
  size_t max_admissions_per_batch = 0;
};

/// One fixed-rate statement stream (open-loop mode).
struct OpenLoopStream {
  std::string name;
  double rate_per_second = 1.0;
  double timeout_seconds = 3.0;
  /// Produces the next call of this stream.
  std::function<tpcw::StatementCall(Rng*)> make_call;
};

/// Open-loop results, per stream.
struct OpenLoopResult {
  struct PerStream {
    uint64_t issued = 0;
    uint64_t completed_in_time = 0;
    double sum_latency = 0;
  };
  std::vector<PerStream> streams;
  double duration_seconds = 0;

  double ThroughputInTime() const {
    uint64_t n = 0;
    for (const PerStream& s : streams) n += s.completed_in_time;
    return duration_seconds > 0 ? static_cast<double>(n) / duration_seconds : 0;
  }
};

/// Batch-driven co-simulation of SharedDB under client load.
///
/// The sim deliberately drives Engine::SubmitNamed + RunOneBatch — the
/// documented low-level simulation API — because its clock is VIRTUAL:
/// api::Server's wall-clock heartbeat driver cannot express
/// "now += BatchSeconds(report)". The batch-formation policy it simulates
/// (admission cap, spill-to-next-generation) is the same one the server's
/// driver applies in real time.
class SharedDbLoadSim {
 public:
  SharedDbLoadSim(Engine* engine, tpcw::TpcwDatabase* db, SharedDbSimOptions options)
      : engine_(engine), db_(db), options_(options) {}

  /// Closed-loop EB workload (Figures 7, 8, 9).
  LoadResult Run(const ClientConfig& config);

  /// Open-loop statement streams (Figure 11).
  OpenLoopResult RunOpenLoop(const std::vector<OpenLoopStream>& streams,
                             double duration_seconds, uint64_t seed);

  /// Converts one batch report into batch-execution seconds on the
  /// configured core count (exposed for tests and Figure 10).
  double BatchSeconds(const BatchReport& report) const;

  uint64_t batches_executed() const { return batches_; }

 private:
  Engine* engine_;
  tpcw::TpcwDatabase* db_;
  SharedDbSimOptions options_;
  uint64_t batches_ = 0;
};

}  // namespace sim
}  // namespace shareddb

#endif  // SHAREDDB_SIM_SHAREDDB_SIM_H_
