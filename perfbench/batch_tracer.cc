#include "batch_tracer.h"

#include <cstdio>

namespace shareddb {
namespace perfbench {

namespace {

double Ms(BatchTracer::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Us(BatchTracer::Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

}  // namespace

void BatchTracer::Attach(const Engine* engine) {
  engine_ = engine;
  const GlobalPlan& plan = engine->plan();
  node_kinds_.clear();
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    node_kinds_.push_back(plan.node(i).op->kind_name());
  }
}

void BatchTracer::OnBatchFormation(uint64_t batch_number) {
  const Clock::time_point now = Clock::now();
  const uint64_t wal_now = engine_->wal_bytes_logged();
  bool need_report = false;
  {
    MutexLock lock(&mu_);
    need_report = open_.valid && open_.recording && open_.executed;
  }
  // Copied outside mu_: the engine's own lock is never taken under ours.
  BatchReport report;
  if (need_report) report = engine_->last_report();
  MutexLock lock(&mu_);
  if (need_report && report.batch_number == open_.number) {
    CompleteLocked(report, /*has_next=*/true, now, wal_now);
  }
  open_ = OpenBatch();
  open_.valid = true;
  open_.recording = recording_.load(std::memory_order_acquire);
  open_.number = batch_number;
  open_.start = now;
  open_.wal_bytes_at_start = wal_now;
}

void BatchTracer::OnBeforeExecute(uint64_t batch_number, size_t num_admitted) {
  const Clock::time_point now = Clock::now();
  if (num_admitted > 0) {
    batches_executed_.fetch_add(1, std::memory_order_acq_rel);
  }
  MutexLock lock(&mu_);
  if (!open_.valid || open_.number != batch_number) return;
  open_.formed = now;
  open_.executed = num_admitted > 0;
}

void BatchTracer::Flush() {
  const BatchReport report = engine_->last_report();
  const uint64_t wal_now = engine_->wal_bytes_logged();
  MutexLock lock(&mu_);
  if (open_.valid && open_.recording && open_.executed &&
      report.batch_number == open_.number) {
    CompleteLocked(report, /*has_next=*/false, Clock::time_point(), wal_now);
  }
  open_.valid = false;
}

void BatchTracer::CompleteLocked(const BatchReport& report, bool has_next,
                                 Clock::time_point next_start,
                                 uint64_t wal_bytes_now) {
  if (report.num_admitted == 0) return;
  Summary& s = summary_;
  ++s.batches;
  s.statements += report.num_admitted;
  s.updates += report.num_updates;
  s.exec_ms.Add(report.exec_ms);
  s.formation_ms.Add(Ms(open_.formed - open_.start));
  if (has_next) s.post_exec_ms.Add(Ms(next_start - open_.start) - report.exec_ms);
  s.rows_touched += report.rows_touched;
  s.rows_delivered += report.rows_delivered;
  const uint64_t wal = wal_bytes_now - open_.wal_bytes_at_start;
  s.wal_bytes += wal;
  if (wal > 0) ++s.wal_batches;
  s.ops.AddBatch(node_kinds_, report.node_stats, report.num_admitted);
  if (spans_.size() < max_spans_) {
    Span sp;
    sp.number = report.batch_number;
    sp.admitted = report.num_admitted;
    sp.start = open_.start;
    sp.formed = open_.formed;
    sp.exec_ms = report.exec_ms;
    sp.has_next = has_next;
    sp.next_start = next_start;
    spans_.push_back(sp);
  }
}

BatchTracer::Summary BatchTracer::summary() const {
  MutexLock lock(&mu_);
  return summary_;
}

bool BatchTracer::WriteSpans(const std::string& path, int pid) const {
  std::vector<Span> spans;
  {
    MutexLock lock(&mu_);
    spans = spans_;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One complete ("X") event per span; tid 1 is the heartbeat driver. The
  // batch span's children tile it: formation, then execute + commit; the
  // post-exec span (Γ, fulfilment, turnaround) runs to the next formation.
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  const auto emit = [&](const char* name, double ts, double dur, uint64_t n,
                        size_t admitted) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%llu,"
                 "\"admitted\":%zu}}\n",
                 first ? "" : ",", name, pid, ts, dur < 0 ? 0.0 : dur,
                 static_cast<unsigned long long>(n), admitted);
    first = false;
  };
  for (const Span& sp : spans) {
    const double start = Us(sp.start);
    const double formed = Us(sp.formed);
    const double exec_end = start + sp.exec_ms * 1000.0;
    emit("core.batch", start, exec_end - start, sp.number, sp.admitted);
    emit("core.formation", start, formed - start, sp.number, sp.admitted);
    emit("core.execute_commit", formed, exec_end - formed, sp.number,
         sp.admitted);
    if (sp.has_next) {
      emit("core.post_exec", exec_end, Us(sp.next_start) - exec_end, sp.number,
           sp.admitted);
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace shareddb
