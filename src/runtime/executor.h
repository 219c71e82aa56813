// The cycle executor: runs one heartbeat of the global plan.
//
// Without a pool (or with a zero-worker pool) it runs every node on the
// calling thread in plan (topological) order — deterministic, and what the
// virtual-time simulator converts into time on a simulated N-core machine.
// With pool workers it runs the plan as a DAG: each node is one task,
// submitted when its last input arrives, so independent nodes execute at the
// same time. Both schedules hand every operator the same inputs and so yield
// the same outputs and the same per-node WorkStats.
//
// This departs from the paper's thread-per-operator design (§4.3: one
// pinned thread per operator, connected by synchronized queues). A fixed
// pool gives the same inter-operator parallelism without a thread per plan
// node, and the same workers also carry intra-operator morsels.

#ifndef SHAREDDB_RUNTIME_EXECUTOR_H_
#define SHAREDDB_RUNTIME_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "core/plan.h"

namespace shareddb {

/// Everything the executor needs to run one cycle.
struct BatchInput {
  /// Snapshot, write version and (optionally) the pool that runs the cycle.
  CycleContext ctx;
  /// Active queries per node id (bound configs).
  std::unordered_map<int, std::vector<OpQuery>> node_queries;
  /// Updates per source node id (bound).
  std::unordered_map<int, std::vector<UpdateOp>> node_updates;
  /// Node ids whose outputs the engine needs (statement roots).
  std::vector<int> needed_outputs;
};

/// What one cycle produces.
struct BatchOutput {
  /// Root-node outputs, keyed by node id: one entry per needed root.
  std::unordered_map<int, DQBatch> outputs;
  /// Per-node work, indexed by node id.
  std::vector<WorkStats> node_stats;
};

/// Executes one cycle of `plan`. Runs on `in.ctx.parallel->pool` when it has
/// workers, serially on the calling thread otherwise.
void ExecuteCycle(GlobalPlan* plan, const BatchInput& in, BatchOutput* out);

}  // namespace shareddb

#endif  // SHAREDDB_RUNTIME_EXECUTOR_H_
