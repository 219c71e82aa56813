// SharedOp: the abstract shared operator (Algorithm 1 of the paper).
//
// The paper's operator skeleton runs an endless loop: dequeue pending
// queries, activate them, consume input tuples, produce output, signal
// end-of-stream. We factor the *logic* of one such cycle into a
// runtime-agnostic call:
//
//     output = op->RunCycle(inputs, active_queries, ctx, &work)
//
// so the same operator code runs whether the cycle executor
// (runtime/executor.h) calls it serially in plan order or as one task of
// the plan's DAG on the worker pool.
//
// Contract:
//   * `inputs` carries one DQBatch per child edge, in child order.
//   * Output tuples must be annotated only with ids of queries in `queries`
//     (operators mask their inputs with ActiveIdSet — a tuple can carry ids
//     of queries that do not pass through this node).
//   * Operators are stateless across cycles except for explicitly documented
//     state (e.g. ClockScan's clock hand).

#ifndef SHAREDDB_CORE_OP_H_
#define SHAREDDB_CORE_OP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/batch.h"
#include "core/query.h"
#include "core/work_stats.h"
#include "storage/clock_scan.h"
#include "storage/mvcc.h"

namespace shareddb {

/// Per-cycle execution context shared by all operators.
struct CycleContext {
  Version read_snapshot = 0;  // selects read here
  Version write_version = 1;  // updates apply here
  /// Updates routed to source nodes, keyed by plan-node id.
  const std::unordered_map<int, std::vector<UpdateOp>>* updates = nullptr;
  /// Plan-node id of the operator currently running (set by the executor).
  int node_id = -1;
  /// Intra-operator parallelism: worker pool + thresholds (null = serial).
  /// Heavy operators (ClockScan, Sort, HashJoin) fan their cycle out over
  /// the shared pool; parallel and serial paths emit identical batches.
  const ParallelContext* parallel = nullptr;

  const std::vector<UpdateOp>& UpdatesForCurrentNode() const {
    static const std::vector<UpdateOp> kNone;
    if (updates == nullptr) return kNone;
    const auto it = updates->find(node_id);
    return it == updates->end() ? kNone : it->second;
  }
};

/// Abstract shared operator.
class SharedOp {
 public:
  virtual ~SharedOp() = default;

  /// Executes one batch cycle. `inputs` carries one BatchRef per child edge:
  /// a refcounted handle when the producer fans out to several consumers
  /// (zero-copy), an owned batch otherwise. Operators that mutate their
  /// input call BatchRef::Take() (move-or-copy-on-write); read-only
  /// operators use view().
  virtual DQBatch RunCycle(std::vector<BatchRef> inputs,
                           const std::vector<OpQuery>& queries,
                           const CycleContext& ctx, WorkStats* stats) = 0;

  /// Operator kind, for explain output and stats ("HashJoin", "Sort", ...).
  virtual const char* kind_name() const = 0;

  /// Output schema of this operator.
  virtual const SchemaPtr& output_schema() const = 0;
};

/// Masks every tuple's annotation to the node's active query set and drops
/// dead tuples. Returns the masked batch. Helper shared by operators.
/// The BatchRef overload rewrites in place when it owns the batch and
/// builds a fresh batch of the survivors when the input is shared (the
/// shared original is left untouched for the other consumers).
DQBatch MaskToActive(DQBatch in, const QueryIdSet& active, WorkStats* stats);
DQBatch MaskToActive(BatchRef in, const QueryIdSet& active, WorkStats* stats);

}  // namespace shareddb

#endif  // SHAREDDB_CORE_OP_H_
