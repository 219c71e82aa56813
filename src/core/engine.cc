#include "core/engine.h"

#include <chrono>
#include <unordered_map>

#include "core/ops/router.h"
#include "core/ops/scan_op.h"
#include "runtime/executor.h"

namespace shareddb {

void WalTableLogger::OnInsert(const Table& table, RowId row, const Tuple& t,
                              Version v) {
  const int id = catalog_->TableId(table.name());
  SDB_CHECK(id >= 0);
  wal_->LogInsert(static_cast<uint32_t>(id), v, row, t);
}

void WalTableLogger::OnUpdate(const Table& table, RowId old_row, RowId new_row,
                              const Tuple& t, Version v) {
  (void)new_row;  // replay re-derives the new row id by appending
  const int id = catalog_->TableId(table.name());
  SDB_CHECK(id >= 0);
  wal_->LogUpdate(static_cast<uint32_t>(id), v, old_row, t);
}

void WalTableLogger::OnDelete(const Table& table, RowId row, Version v) {
  const int id = catalog_->TableId(table.name());
  SDB_CHECK(id >= 0);
  wal_->LogDelete(static_cast<uint32_t>(id), v, row);
}

Engine::Engine(std::unique_ptr<GlobalPlan> plan, EngineOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  SDB_CHECK(plan_ != nullptr);
  if (options_.vacuum_interval > 0 && options_.durability.mode != DurabilityMode::kNone) {
    init_status_ = Status::InvalidArgument(
        "vacuum_interval > 0 with a WAL: vacuum renumbers the rows that WAL "
        "records name by position");
    MutexLock lock(&mu_);
    closed_ = true;
    return;
  }
  const ParallelOptions& po = options_.parallel;
  if (po.num_workers > 0) {
    TaskPool::Options tp;
    tp.num_workers = po.num_workers;
    if (options_.chaos != nullptr) {
      ChaosHook* chaos = options_.chaos;
      tp.task_hook = [chaos] { chaos->OnWorkerTask(); };
    }
    task_pool_ = std::make_unique<TaskPool>(tp);
    parallel_ctx_.pool = task_pool_.get();
    parallel_ctx_.min_rows_per_task = po.min_rows_per_task;
    parallel_ctx_.min_items_per_task = po.min_items_per_task;
  }
  if (options_.durability.mode != DurabilityMode::kNone) InstallWal();
}

Engine::~Engine() {
  // Detach observers before the logger dies.
  if (wal_logger_ != nullptr) {
    Catalog* cat = plan_->catalog();
    for (size_t i = 0; i < cat->NumTables(); ++i) {
      cat->TableById(i)->set_write_observer(nullptr);
    }
  }
}

void Engine::InstallWal() {
  const DurabilityOptions& d = options_.durability;
  SDB_CHECK(!d.wal_path.empty());
  storage::Env* env = d.env != nullptr ? d.env : storage::Env::Posix();
  wal_ = std::make_unique<Wal>(d.wal_path, env);
  const Status s = wal_->Open(d.truncate_wal);
  SDB_CHECK(s.ok());
  wal_logger_ = std::make_unique<WalTableLogger>(wal_.get(), plan_->catalog());
  Catalog* cat = plan_->catalog();
  for (size_t i = 0; i < cat->NumTables(); ++i) {
    cat->TableById(i)->set_write_observer(wal_logger_.get());
  }
}

Status Engine::Checkpoint(const std::string& path) const {
  storage::Env* env = options_.durability.env != nullptr
                          ? options_.durability.env
                          : storage::Env::Posix();
  return WriteCheckpoint(*plan_->catalog(), path, env);
}

Status Engine::Submit(StatementId statement, std::vector<Value> params,
                      SubmitOptions opts, CompletionSink sink) {
  if (statement >= plan_->num_statements()) {
    return Status::InvalidArgument("statement id " + std::to_string(statement) +
                                   " out of range");
  }
  // Arity check up front: binding a missing slot at batch formation would
  // abort the whole heartbeat; a short parameter vector is a client error.
  const StatementDef& def = plan_->statement(statement);
  if (params.size() < def.num_params) {
    return Status::InvalidArgument(
        "statement '" + def.name + "' needs " + std::to_string(def.num_params) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  Pending p;
  p.statement = statement;
  p.params = std::move(params);
  p.sink = std::move(sink);
  p.update_count = std::make_unique<uint64_t>(0);
  p.cancel = std::move(opts.cancel);
  p.submit_time = std::chrono::steady_clock::now();
  p.deadline = opts.deadline;
  p.submit_batch = batch_number_.load(std::memory_order_acquire);
  // Every overload decision below is synchronous: a rejected caller hears
  // back at once and the lock is never held across a wait, so a flooded
  // front door can never stall the heartbeat driver.
  MutexLock lock(&mu_);
  stat_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (closed_) {
    stat_unavailable_.fetch_add(1, std::memory_order_relaxed);
    if (!init_status_.ok()) return init_status_;
    return Status::Unavailable("engine is shut down; submission refused");
  }
  if (opts.max_inflight > 0 && opts.inflight != nullptr &&
      opts.inflight->load(std::memory_order_acquire) >=
          static_cast<int64_t>(opts.max_inflight)) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted("session in-flight cap (" +
                                     std::to_string(opts.max_inflight) +
                                     ") reached");
  }
  if (opts.max_queue_depth > 0 && pending_.size() >= opts.max_queue_depth) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(pending_.size()) + "/" +
        std::to_string(opts.max_queue_depth) + " statements pending)");
  }
  if (opts.inflight != nullptr) {
    p.inflight = opts.inflight;
    p.inflight->fetch_add(1, std::memory_order_acq_rel);
  }
  pending_.push_back(std::move(p));
  return Status::OK();
}

std::future<ResultSet> Engine::Submit(StatementId statement,
                                      std::vector<Value> params,
                                      CancelFlag cancel) {
  return SubmitForFuture([&](CompletionSink sink) {
    SubmitOptions opts;
    opts.cancel = std::move(cancel);
    return Submit(statement, std::move(params), std::move(opts),
                  std::move(sink));
  });
}

std::future<ResultSet> Engine::SubmitNamed(const std::string& name,
                                           std::vector<Value> params,
                                           CancelFlag cancel) {
  const StatementDef* def = plan_->FindStatement(name);
  return SubmitForFuture([&](CompletionSink sink) {
    if (def == nullptr) {
      return Status::NotFound("unknown statement '" + name + "'");
    }
    SubmitOptions opts;
    opts.cancel = std::move(cancel);
    return Submit(def->id, std::move(params), std::move(opts), std::move(sink));
  });
}

void Engine::Fulfill(Pending* p, ResultSet rs) {
  // Release the gauge BEFORE the sink: a client woken by the result can
  // immediately submit again without tripping its own in-flight cap.
  if (p->inflight != nullptr) {
    p->inflight->fetch_sub(1, std::memory_order_acq_rel);
  }
  p->sink(std::move(rs));
}

size_t Engine::CloseSubmissions(Status status) {
  SDB_CHECK(!status.ok());
  std::deque<Pending> drained;
  {
    MutexLock lock(&mu_);
    closed_ = true;
    drained.swap(pending_);
  }
  for (Pending& p : drained) {
    stat_unavailable_.fetch_add(1, std::memory_order_relaxed);
    ResultSet rs;
    rs.status = status;
    Fulfill(&p, std::move(rs));
  }
  return drained.size();
}

Engine::AdmissionTotals Engine::admission_totals() const {
  AdmissionTotals t;
  t.submitted = stat_submitted_.load(std::memory_order_relaxed);
  t.admitted = stat_admitted_.load(std::memory_order_relaxed);
  t.rejected = stat_rejected_.load(std::memory_order_relaxed);
  t.shed = stat_shed_.load(std::memory_order_relaxed);
  t.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  t.unavailable = stat_unavailable_.load(std::memory_order_relaxed);
  return t;
}

size_t Engine::PendingCount() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

Engine::PredicateCacheStats Engine::predicate_cache_stats() const {
  PredicateCacheStats s;
  for (size_t i = 0; i < plan_->num_nodes(); ++i) {
    const auto* scan = dynamic_cast<const ScanOp*>(plan_->node(i).op.get());
    if (scan == nullptr) continue;
    s.index_builds += scan->clock_scan().index_builds();
    s.index_rebinds += scan->clock_scan().index_rebinds();
  }
  return s;
}

BatchReport Engine::RunOneBatch(size_t max_admissions) {
  if (options_.chaos != nullptr) {
    // Injected heartbeat stall: the driver arrives late at formation, so
    // queued deadlines below genuinely expire.
    options_.chaos->OnBatchFormation(
        batch_number_.load(std::memory_order_acquire) + 1);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Pending> batch;
  std::vector<Pending> cancelled;
  std::vector<Pending> shed;
  size_t queue_depth = 0;
  size_t spilled = 0;
  {
    // Formation touches only the admitted prefix (O(admitted + cancelled +
    // shed)), so a deep backlog under a small cap drains without quadratic
    // rebuilds of the queue; the overflow simply stays where it is.
    // Cancelled and deadline-expired entries do not consume admission slots.
    MutexLock lock(&mu_);
    queue_depth = pending_.size();
    while (!pending_.empty() &&
           (max_admissions == 0 || batch.size() < max_admissions)) {
      Pending& p = pending_.front();
      if (p.cancel != nullptr && p.cancel->load(std::memory_order_acquire)) {
        cancelled.push_back(std::move(p));
      } else if (p.deadline < t0) {
        shed.push_back(std::move(p));
      } else {
        batch.push_back(std::move(p));
      }
      pending_.pop_front();
    }
    spilled = pending_.size();
  }

  BatchReport report;
  report.batch_number = batch_number_.fetch_add(1, std::memory_order_acq_rel) + 1;
  report.queue_depth_at_formation = queue_depth;
  report.num_admitted = batch.size();
  report.num_spilled = spilled;
  report.num_cancelled = cancelled.size();
  report.num_shed = shed.size();
  report.node_stats.assign(plan_->num_nodes(), WorkStats{});
  stat_admitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  stat_cancelled_.fetch_add(cancelled.size(), std::memory_order_relaxed);
  stat_shed_.fetch_add(shed.size(), std::memory_order_relaxed);

  const auto queued_ms = [&t0](const Pending& p) {
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
               t0 - p.submit_time)
        .count();
  };
  // Per-call admission telemetry, shared by the formation drains and Γ.
  // Both counters clamp instead of subtracting blindly: a call fulfilled in
  // the batch it was submitted to must report spills == 0, and a
  // batch_number <= submit_batch observation must not underflow uint64 —
  // Session::Stats and Server::stats() sum these values, so one wrapped
  // result would poison every aggregate downstream.
  const auto fill_admission = [&](ResultSet* rs, const Pending& p) {
    rs->queue_ms = queued_ms(p);
    rs->batches_waited = report.batch_number > p.submit_batch
                             ? report.batch_number - p.submit_batch
                             : 0;
    // Every heartbeat between submission and fulfillment beyond the one
    // that carried the call passed the entry over at formation, so no
    // per-entry spill counter is needed; same-batch fulfillment
    // (batches_waited <= 1) spilled zero times.
    rs->admission_spills =
        rs->batches_waited > 0 ? rs->batches_waited - 1 : 0;
  };
  const auto drain = [&](std::vector<Pending>* entries, const Status& status) {
    for (Pending& p : *entries) {
      ResultSet rs;
      rs.status = status;
      fill_admission(&rs, p);
      Fulfill(&p, std::move(rs));
    }
  };
  drain(&cancelled, Status::Aborted("cancelled before admission"));
  drain(&shed, Status::DeadlineExceeded(
                   "deadline expired before the batch formed; call shed"));

  Catalog* cat = plan_->catalog();
  BatchInput in;
  in.ctx.read_snapshot = cat->snapshots().ReadSnapshot();
  in.ctx.write_version = cat->snapshots().WriteVersion();
  if (task_pool_ != nullptr) in.ctx.parallel = &parallel_ctx_;

  // --- batch formation: assign query ids, bind parameters -------------------
  struct QueryRouting {
    size_t pending_index;
    QueryId qid;
    int root;
    SchemaPtr schema;
  };
  std::vector<QueryRouting> routings;
  QueryId next_id = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    const StatementDef& stmt = plan_->statement(p.statement);
    if (stmt.is_query) {
      const QueryId qid = next_id++;
      ++report.num_queries;
      for (const auto& [node, tmpl] : stmt.node_configs) {
        OpQuery oq;
        oq.id = qid;
        if (tmpl.predicate != nullptr) oq.predicate = tmpl.predicate->Bind(p.params);
        if (tmpl.having != nullptr) oq.having = tmpl.having->Bind(p.params);
        if (tmpl.limit != nullptr) {
          static const Tuple kNoTuple;
          const Value v = tmpl.limit->Evaluate(kNoTuple, p.params);
          if (!v.is_null()) oq.limit = v.AsInt();
        }
        in.node_queries[node].push_back(std::move(oq));
      }
      routings.push_back(QueryRouting{i, qid, stmt.root, stmt.result_schema});
    } else {
      ++report.num_updates;
      const UpdateStmtTemplate& u = stmt.update;
      UpdateOp op;
      op.kind = u.kind;
      op.applied_out = p.update_count.get();
      static const Tuple kNoTuple;
      if (u.kind == UpdateKind::kInsert) {
        op.row = Tuple::Build(u.row_values.size(), [&](size_t i) {
          return u.row_values[i]->Evaluate(kNoTuple, p.params);
        });
      } else {
        if (u.where != nullptr) op.where = u.where->Bind(p.params);
        for (const auto& [col, expr] : u.sets) {
          op.sets.emplace_back(col, expr->Bind(p.params));
        }
      }
      const int node = plan_->UpdateNodeForTable(u.table);
      SDB_CHECK(node >= 0);
      in.node_updates[node].push_back(std::move(op));
    }
  }
  // Γ's subscriber lists: the query ids rooted at each needed node.
  std::unordered_map<int, std::vector<QueryId>> subscribers;
  for (const QueryRouting& r : routings) subscribers[r.root].push_back(r.qid);
  for (const auto& [root, qids] : subscribers) in.needed_outputs.push_back(root);

  // --- execute one cycle of the global plan ---------------------------------
  BatchOutput out;
  if (!batch.empty()) {
    if (options_.chaos != nullptr) {
      // Injected slow operator: every call riding this batch waits it out.
      options_.chaos->OnBeforeExecute(report.batch_number, batch.size());
    }
    ExecuteCycle(plan_.get(), in, &out);
    report.node_stats = std::move(out.node_stats);
  }

  // --- commit ----------------------------------------------------------------
  if (report.num_updates > 0 || report.num_queries > 0) {
    const Version committed = cat->snapshots().Commit();
    if (wal_ != nullptr) {
      wal_->LogCommit(committed);
      // Group commit: the whole batch — every update record plus the commit
      // record sealing it — goes out in one write, and under kGroupCommit
      // one fsync. A crash before the sync loses the entire batch cleanly
      // (recovery finds no commit record); never a partial batch.
      const Status s = options_.durability.mode == DurabilityMode::kGroupCommit
                           ? wal_->Sync()
                           : wal_->Flush();
      if (!s.ok()) {
        MutexLock lock(&mu_);
        if (wal_status_.ok()) wal_status_ = s;  // latch the first failure
      }
    }
  }

  // --- Γ: route results, fulfill calls ---------------------------------------
  const auto t1 = std::chrono::steady_clock::now();
  report.exec_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
          .count();

  const auto fill_telemetry = [&](ResultSet* rs, const Pending& p) {
    rs->exec_ms = report.exec_ms;
    fill_admission(rs, p);
  };

  // Amortization accounting: the shared cycle materialized each needed
  // root's batch once; Γ fans every row out to all of its subscribers.
  for (const auto& [node, root_batch] : out.outputs) {
    (void)node;
    report.rows_touched += root_batch.size();
  }

  // Γ: one pass over each subscribed root batch appends every row to the
  // result of each call rooted there, in batch row order. Query ids are
  // dense (routing ri carries qid ri), so a vector indexed by qid is the
  // destination table; ids routed from another root stay null. The runtimes
  // deliver an output entry for EVERY needed root (empty batches included),
  // so a miss is always a dropped routing, never a legitimately-empty
  // result. Count it (the differential fuzzer asserts the counter stays 0)
  // and serve an empty result in release builds.
  std::vector<ResultSet> routed(routings.size());
  for (size_t ri = 0; ri < routings.size(); ++ri) {
    SDB_DCHECK(routings[ri].qid == ri);
    routed[ri].schema = routings[ri].schema;
    fill_telemetry(&routed[ri], batch[routings[ri].pending_index]);
  }
  std::vector<std::vector<Tuple>*> dest(routings.size(), nullptr);
  for (const auto& [root, qids] : subscribers) {
    const auto it = out.outputs.find(root);
    if (it == out.outputs.end()) {
      SDB_DCHECK(false && "gamma: runtime delivered no output for a needed root");
      report.missing_root_outputs += qids.size();
      continue;
    }
    for (const QueryId q : qids) dest[q] = &routed[q].rows;
    RouteByQueryId(it->second, dest, nullptr);
    for (const QueryId q : qids) dest[q] = nullptr;
  }

  for (const ResultSet& rs : routed) report.rows_delivered += rs.rows.size();
  report.shared_work_saved = report.rows_delivered > report.rows_touched
                                 ? report.rows_delivered - report.rows_touched
                                 : 0;

  for (size_t ri = 0; ri < routings.size(); ++ri) {
    routed[ri].shared_work_saved = report.shared_work_saved;
    Fulfill(&batch[routings[ri].pending_index], std::move(routed[ri]));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const StatementDef& stmt = plan_->statement(batch[i].statement);
    if (stmt.is_query) continue;
    ResultSet rs;
    rs.update_count = *batch[i].update_count;
    fill_telemetry(&rs, batch[i]);
    rs.shared_work_saved = report.shared_work_saved;
    Fulfill(&batch[i], std::move(rs));
  }

  // --- maintenance ------------------------------------------------------------
  if (options_.vacuum_interval > 0 &&
      report.batch_number % static_cast<uint64_t>(options_.vacuum_interval) == 0) {
    const Version horizon = cat->snapshots().ReadSnapshot();
    for (size_t i = 0; i < cat->NumTables(); ++i) {
      cat->TableById(i)->Vacuum(horizon);
    }
  }

  {
    MutexLock lock(&mu_);
    last_report_ = report;
  }
  return report;
}

ResultSet Engine::ExecuteSync(StatementId statement, std::vector<Value> params) {
  std::future<ResultSet> f = Submit(statement, std::move(params));
  RunOneBatch();
  return f.get();
}

ResultSet Engine::ExecuteSyncNamed(const std::string& name,
                                   std::vector<Value> params) {
  std::future<ResultSet> f = SubmitNamed(name, std::move(params));
  RunOneBatch();
  return f.get();
}

}  // namespace shareddb
