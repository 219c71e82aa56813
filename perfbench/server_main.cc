// perfbench_server: the server process of the wall-clock TPC-W benchmark.
//
// Sets up the TPC-W database, the global plan, an api::Server and a
// net::Server with library defaults for every option except the ones the
// workload defines (ordering: group-commit WAL; traced runs: a BatchTracer
// as EngineOptions::chaos). Set-up is timed from database population until
// net::Server::Start() has the port listening; it runs --setup-reps times
// and the last stack serves. The process then prints one JSON "ready" line
// and obeys line commands on stdin, answering each with one JSON line:
//
//   begin <0|1>   open a measurement window (1 = record batch spans)
//   end           close the window
//   report        check the invariants once the load has drained and
//                 print the report
//   setup <n>     tear the serving stack down and time n more set-ups
//   (EOF)         shut down and exit
//
//   perfbench_server --workload=W --seed=N [--setup-reps=K] [--tmp-dir=D]
//                    [--trace=0|1] [--trace-out=FILE] [--cpus=1,2,3]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/server.h"
#include "batch_tracer.h"
#include "bench_logic.h"
#include "net/server.h"
#include "tpcw/global_plan.h"
#include "tpcw/harness.h"

using namespace shareddb;
using namespace shareddb::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMaxBatchSpans = 50000;

struct Options {
  Workload workload = Workload::kBrowsing;
  uint64_t seed = 1;
  int setup_reps = 1;
  std::string tmp_dir = ".";
  bool trace = false;
  std::string trace_out;
  std::vector<int> cpus;
};

/// One serving stack. Members are destroyed in reverse order: the front
/// door shuts down before the api::Server, which drains before the engine.
struct Stack {
  std::unique_ptr<tpcw::TpcwDatabase> db;
  std::unique_ptr<BatchTracer> tracer;  // traced runs only
  std::unique_ptr<Engine> engine;
  std::unique_ptr<api::Server> api;
  std::unique_ptr<net::Server> net;
};

/// Counters read at a window boundary.
struct Snapshot {
  Clock::time_point wall;
  double cpu_s = 0;
  api::Server::Stats api;
  net::NetServerStats net;
  uint64_t wal_bytes = 0;
  Engine::PredicateCacheStats pred;
  uint64_t pool_tasks = 0;
};

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// VmHWM of this process in kB (0 when /proc is unavailable).
uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

bool PinToCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::vector<int> ParseCpus(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      if (!ParseWorkload(val, &o->workload)) return false;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--setup-reps") {
      o->setup_reps = std::max(1, std::atoi(val.c_str()));
    } else if (key == "--tmp-dir") {
      o->tmp_dir = val;
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--trace-out") {
      o->trace_out = val;
    } else if (key == "--cpus") {
      o->cpus = ParseCpus(val);
    } else {
      std::fprintf(stderr, "perfbench_server: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// Builds and starts one stack; returns the seconds it took.
Status BuildStack(const Options& o, Stack* s, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  s->db = tpcw::MakeTpcwDatabase(BenchScale(), DatabaseSeed(o.seed));
  EngineOptions eo;
  if (o.workload == Workload::kOrdering) {
    // Group commit, one fsync per heartbeat, to a fresh log.
    eo.durability.mode = DurabilityMode::kGroupCommit;
    eo.durability.wal_path = o.tmp_dir + "/perfbench.wal";
  }
  if (o.trace) {
    s->tracer = std::make_unique<BatchTracer>(kMaxBatchSpans);
    eo.chaos = s->tracer.get();
  }
  s->engine = std::make_unique<Engine>(
      tpcw::BuildTpcwGlobalPlan(&s->db->catalog), std::move(eo));
  if (s->tracer != nullptr) s->tracer->Attach(s->engine.get());
  s->api = std::make_unique<api::Server>(s->engine.get());
  s->net = std::make_unique<net::Server>(s->api.get());
  const Status st = s->net->Start();
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return st;
}

/// Builds `reps` stacks one after another, appending each one's set-up
/// time to `*seconds`; returns the last (null if one failed to start).
std::unique_ptr<Stack> TimedSetups(const Options& o, int reps,
                                   std::vector<double>* seconds) {
  std::unique_ptr<Stack> s;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();  // tears the previous stack down, untimed
    s = std::make_unique<Stack>();
    double secs = 0;
    const Status st = BuildStack(o, s.get(), &secs);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench_server: start failed: %s\n",
                   st.ToString().c_str());
      return nullptr;
    }
    seconds->push_back(secs);
  }
  return s;
}

Snapshot Take(const Stack& s) {
  Snapshot snap;
  snap.wall = Clock::now();
  snap.cpu_s = ProcessCpuSeconds();
  snap.api = s.api->stats();
  snap.net = s.net->stats();
  snap.wal_bytes = s.engine->wal_bytes_logged();
  snap.pred = s.engine->predicate_cache_stats();
  snap.pool_tasks = s.tracer != nullptr ? s.tracer->pool_tasks() : 0;
  return snap;
}

void WriteWindow(const Snapshot& a, const Snapshot& b, bool traced,
                 JsonWriter* w) {
  w->Begin();
  w->Field("traced", traced);
  w->Field("wall_s", std::chrono::duration<double>(b.wall - a.wall).count());
  w->Field("cpu_s", b.cpu_s - a.cpu_s);
  w->Field("batches", b.api.batches - a.api.batches);
  w->Field("submitted", b.api.statements_submitted - a.api.statements_submitted);
  w->Field("admitted", b.api.statements_admitted - a.api.statements_admitted);
  w->Field("rejected", b.api.statements_rejected - a.api.statements_rejected);
  w->Field("shed", b.api.statements_shed - a.api.statements_shed);
  w->Field("cancelled", b.api.statements_cancelled - a.api.statements_cancelled);
  w->Field("unavailable",
           b.api.statements_unavailable - a.api.statements_unavailable);
  w->Field("shared_work_saved", b.api.shared_work_saved - a.api.shared_work_saved);
  w->Field("frames_in", b.net.frames_in - a.net.frames_in);
  w->Field("frames_out", b.net.frames_out - a.net.frames_out);
  w->Field("bytes_in", b.net.bytes_in - a.net.bytes_in);
  w->Field("bytes_out", b.net.bytes_out - a.net.bytes_out);
  w->Field("wal_bytes", b.wal_bytes - a.wal_bytes);
  w->Field("index_builds", b.pred.index_builds - a.pred.index_builds);
  w->Field("index_rebinds", b.pred.index_rebinds - a.pred.index_rebinds);
  w->Field("pool_tasks", b.pool_tasks - a.pool_tasks);
  w->End();
}

void WriteTracerSummary(const BatchTracer& tracer, JsonWriter* w) {
  const BatchTracer::Summary s = tracer.summary();
  w->Begin("tracer");
  w->Field("batches", s.batches);
  w->Field("statements", s.statements);
  w->Field("updates", s.updates);
  w->Field("exec_ms_p50", s.exec_ms.Percentile(0.50));
  w->Field("exec_ms_p99", s.exec_ms.Percentile(0.99));
  w->Field("formation_ms_mean", s.formation_ms.FiniteMean());
  w->Field("post_exec_ms_mean", s.post_exec_ms.FiniteMean());
  w->Field("rows_touched", s.rows_touched);
  w->Field("rows_delivered", s.rows_delivered);
  w->Field("wal_bytes", s.wal_bytes);
  w->Field("wal_batches", s.wal_batches);
  w->Begin("work_by_kind");
  for (const auto& [kind, work] : s.ops.work_by_kind) {
    w->Field(kind.c_str(), work);
  }
  w->End();
  w->Begin("counters");
  for (const auto& [name, value] : CounterFields(s.ops.counters)) {
    w->Field(name.c_str(), value);
  }
  w->End();
  w->End();
}

void Emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  if (!PinToCpus(o.cpus)) {
    std::fprintf(stderr, "perfbench_server: cannot pin to the given cpus\n");
    return 2;
  }

  std::vector<double> setup_s;
  std::unique_ptr<Stack> owned = TimedSetups(o, o.setup_reps, &setup_s);
  if (owned == nullptr) return 1;
  Stack& stack = *owned;

  {
    const tpcw::IdAllocator& ids = stack.db->ids;
    JsonWriter w;
    w.Begin().Begin("ready");
    w.Field("port", static_cast<int>(stack.net->port()));
    w.Raw("setup_s", JsonArray(setup_s));
    w.Field("next_order", static_cast<int64_t>(ids.next_order.load()));
    w.Field("next_order_line", static_cast<int64_t>(ids.next_order_line.load()));
    w.Field("next_cart", static_cast<int64_t>(ids.next_cart.load()));
    w.Field("next_customer", static_cast<int64_t>(ids.next_customer.load()));
    w.Field("compiler", __VERSION__);
    w.Field("build_type", PERFBENCH_BUILD_TYPE);
    w.End().End();
    Emit(w.str());
  }

  std::string window_list;  // the closed windows, comma-separated
  Snapshot open;
  bool window_open = false;
  bool open_traced = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.rfind("setup ", 0) == 0) {
      // More set-up samples, taken after the measurement so that setup_s
      // sees the host at two moments of the run. The serving stack goes
      // first; peak RSS was read by "report" before this.
      owned.reset();
      std::vector<double> more;
      const bool ok =
          TimedSetups(o, std::max(1, std::atoi(line.c_str() + 6)), &more) !=
          nullptr;
      JsonWriter w;
      w.Begin().Field("ok", ok).Raw("setup_s", JsonArray(more)).End();
      Emit(w.str());
      break;  // the process only waits for EOF now
    }
    if (line.rfind("begin", 0) == 0) {
      open_traced = line.size() > 6 && line[6] == '1';
      if (stack.tracer != nullptr) stack.tracer->SetRecording(open_traced);
      open = Take(stack);
      window_open = true;
      Emit("{\"ack\":\"begin\"}");
    } else if (line == "end") {
      if (window_open) {
        const Snapshot close = Take(stack);
        if (stack.tracer != nullptr) stack.tracer->SetRecording(false);
        JsonWriter w;
        WriteWindow(open, close, open_traced, &w);
        if (!window_list.empty()) window_list += ',';
        window_list += w.str();
        window_open = false;
      }
      Emit("{\"ack\":\"end\"}");
    } else if (line == "report") {
      // The generator has drained every call before asking, so nothing is
      // queued; the pause only waits out a heartbeat still finishing.
      stack.api->Pause();
      const size_t pending = stack.engine->PendingCount();
      if (stack.tracer != nullptr) stack.tracer->Flush();
      const api::Server::Stats st = stack.api->stats();
      stack.api->Resume();
      const uint64_t accounted = st.statements_admitted + st.statements_rejected +
                                 st.statements_shed + st.statements_cancelled +
                                 st.statements_unavailable + pending;
      bool spans_written = false;
      if (stack.tracer != nullptr && !o.trace_out.empty()) {
        spans_written = stack.tracer->WriteSpans(o.trace_out, /*pid=*/2);
      }
      JsonWriter w;
      w.Begin().Begin("report");
      w.Field("pending", static_cast<uint64_t>(pending));
      w.Field("identity_ok", st.statements_submitted == accounted);
      w.Field("submitted", st.statements_submitted);
      w.Field("admitted", st.statements_admitted);
      w.Field("rejected", st.statements_rejected);
      w.Field("shed", st.statements_shed);
      w.Field("cancelled", st.statements_cancelled);
      w.Field("unavailable", st.statements_unavailable);
      w.Field("batches", st.batches);
      w.Field("max_batch_occupancy", st.max_batch_occupancy);
      w.Field("shared_work_saved", st.shared_work_saved);
      w.Field("missing_root_outputs", st.missing_root_outputs);
      w.Field("wal_ok", stack.engine->wal_status().ok());
      w.Field("tracer_batches",
              stack.tracer != nullptr
                  ? static_cast<int64_t>(stack.tracer->batches_executed())
                  : int64_t{-1});
      w.Field("spans_written", spans_written);
      w.Field("peak_rss_kb", PeakRssKb());
      w.Field("cpu_total_s", ProcessCpuSeconds());
      if (stack.tracer != nullptr) WriteTracerSummary(*stack.tracer, &w);
      w.Raw("windows", "[" + window_list + "]");
      w.End().End();
      Emit(w.str());
    } else if (!line.empty()) {
      std::fprintf(stderr, "perfbench_server: unknown command '%s'\n",
                   line.c_str());
      Emit("{\"ack\":\"error\"}");
    }
  }
  while (std::getline(std::cin, line)) {
  }
  // EOF on stdin: the stack's destructors shut the front door, drain the
  // api::Server and stop the engine, in that order.
  return 0;
}
