#include "runtime/executor.h"

#include <atomic>
#include <functional>
#include <memory>

#include "runtime/task_pool.h"

namespace shareddb {
namespace {

/// State both schedules share: which nodes run, which outputs the engine
/// keeps, and the published output of every node that ran.
class Cycle {
 public:
  Cycle(GlobalPlan* plan, const BatchInput& in, BatchOutput* out)
      : plan_(plan), in_(in), out_(out), n_(plan->num_nodes()),
        participates_(n_, 0), needed_(n_, 0), outputs_(n_) {
    out_->node_stats.assign(n_, WorkStats{});
    // A node participates if it has active queries or routed updates (so
    // sources with updates still run). Inner nodes whose queries all died
    // upstream still run — masking keeps that cheap.
    for (const auto& [node, queries] : in_.node_queries) {
      if (!queries.empty()) participates_[node] = 1;
    }
    for (const auto& [node, updates] : in_.node_updates) {
      if (!updates.empty()) participates_[node] = 1;
    }
    for (const int r : in_.needed_outputs) needed_[r] = 1;
  }

  /// Plan order on the calling thread.
  void RunSerial() {
    // How many participating consumers still need each node's output.
    std::vector<int> pending_consumers(n_, 0);
    for (size_t i = 0; i < n_; ++i) {
      const PlanNode& node = plan_->node(i);
      if (!participates_[i]) {
        // Emit a typed empty batch so participating parents still execute.
        outputs_[i] = std::make_shared<DQBatch>(node.op->output_schema());
        continue;
      }
      // Outputs are published once as shared batches; consumer edges hand
      // out refcounted BatchRefs instead of deep copies. The last
      // participating consumer of a non-root node receives the only
      // remaining reference, so its Take() moves instead of copying.
      std::vector<BatchRef> inputs;
      inputs.reserve(node.inputs.size());
      for (const int child : node.inputs) {
        if (--pending_consumers[child] == 0 && !needed_[child]) {
          inputs.emplace_back(std::shared_ptr<const DQBatch>(std::move(outputs_[child])));
        } else {
          inputs.emplace_back(std::shared_ptr<const DQBatch>(outputs_[child]));
        }
      }
      outputs_[i] = Run(i, std::move(inputs));
      for (const int c : node.consumers) {
        if (participates_[c]) ++pending_consumers[i];
      }
    }
  }

  /// The plan as a DAG on `pool`: a participating node is submitted once its
  /// last participating input has arrived. Non-participating nodes never
  /// run; their consumers see a typed empty batch from the start.
  void RunDag(TaskPool* pool) {
    // One input slot per edge, filled by the producer; `missing` counts the
    // slots still empty.
    std::vector<std::vector<BatchRef>> inputs(n_);
    std::vector<std::atomic<size_t>> missing(n_);
    std::vector<size_t> ready;
    for (size_t i = 0; i < n_; ++i) {
      if (!participates_[i]) continue;
      const PlanNode& node = plan_->node(i);
      inputs[i].resize(node.inputs.size());
      size_t m = 0;
      for (size_t k = 0; k < node.inputs.size(); ++k) {
        const PlanNode& child = plan_->node(static_cast<size_t>(node.inputs[k]));
        if (participates_[child.id]) {
          ++m;
        } else {
          inputs[i][k] = DQBatch(child.op->output_schema());
        }
      }
      missing[i] = m;
      if (m == 0) ready.push_back(i);
    }

    TaskGroup group(pool);
    std::function<void(size_t)> run_node = [&](size_t i) {
      std::shared_ptr<DQBatch> result = Run(i, std::move(inputs[i]));
      // Hand each participating consumer edge a reference. AddNode records
      // a consumer once per edge, all of a consumer's entries adjacent, so
      // skipping repeats visits each consumer once and fills all its edges.
      const std::vector<int>& consumers = plan_->node(i).consumers;
      std::vector<size_t> now_ready;
      for (size_t j = 0; j < consumers.size(); ++j) {
        const int c = consumers[j];
        if (!participates_[c] || (j > 0 && consumers[j - 1] == c)) continue;
        const std::vector<int>& edges = plan_->node(static_cast<size_t>(c)).inputs;
        for (size_t k = 0; k < edges.size(); ++k) {
          if (edges[k] != static_cast<int>(i)) continue;
          inputs[c][k] = std::shared_ptr<const DQBatch>(result);
          if (--missing[c] == 0) now_ready.push_back(static_cast<size_t>(c));
        }
      }
      // Drop our reference before the consumers start, so a sole consumer's
      // Take() moves, as in the serial schedule. Roots stay published.
      if (needed_[i]) outputs_[i] = std::move(result);
      result.reset();
      for (const size_t c : now_ready) group.Run([&run_node, c] { run_node(c); });
    };
    for (const size_t i : ready) group.Run([&run_node, i] { run_node(i); });
    group.Wait();
  }

  /// Moves every needed root's output into `out->outputs`.
  void DeliverRoots() {
    for (const int r : in_.needed_outputs) {
      // `needed_outputs` may list a root more than once; move on first sight.
      const auto [it, inserted] = out_->outputs.try_emplace(r);
      if (inserted && outputs_[r] != nullptr) it->second = std::move(*outputs_[r]);
    }
  }

 private:
  /// Runs node `i`'s operator cycle and records its work.
  std::shared_ptr<DQBatch> Run(size_t i, std::vector<BatchRef> inputs) {
    static const std::vector<OpQuery> kNoQueries;
    const auto qit = in_.node_queries.find(static_cast<int>(i));
    const std::vector<OpQuery>& queries =
        qit == in_.node_queries.end() ? kNoQueries : qit->second;
    CycleContext ctx = in_.ctx;
    ctx.updates = &in_.node_updates;
    ctx.node_id = static_cast<int>(i);
    return std::make_shared<DQBatch>(plan_->node(i).op->RunCycle(
        std::move(inputs), queries, ctx, &out_->node_stats[i]));
  }

  GlobalPlan* plan_;
  const BatchInput& in_;
  BatchOutput* out_;
  const size_t n_;
  std::vector<char> participates_;
  std::vector<char> needed_;
  std::vector<std::shared_ptr<DQBatch>> outputs_;
};

}  // namespace

void ExecuteCycle(GlobalPlan* plan, const BatchInput& in, BatchOutput* out) {
  Cycle cycle(plan, in, out);
  TaskPool* pool = in.ctx.parallel != nullptr ? in.ctx.parallel->pool : nullptr;
  if (pool != nullptr && pool->num_workers() > 0) {
    cycle.RunDag(pool);
  } else {
    cycle.RunSerial();
  }
  cycle.DeliverRoots();
}

}  // namespace shareddb
