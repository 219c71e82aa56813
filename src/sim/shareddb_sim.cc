#include "sim/shareddb_sim.h"

#include <queue>

namespace shareddb {
namespace sim {

double SharedDbLoadSim::BatchSeconds(const BatchReport& report) const {
  // Operator-per-core assignment (LPT when ops > cores).
  std::vector<double> node_seconds;
  double total = 0;
  node_seconds.reserve(report.node_stats.size());
  for (const WorkStats& w : report.node_stats) {
    const double s = options_.cost.Seconds(w);
    if (s > 0) node_seconds.push_back(s);
    total += s;
  }
  const double lpt = LptMakespanSeconds(node_seconds, options_.num_cores);
  // ...plus per-statement admission/routing overhead, modeled as perfectly
  // divisible load across cores.
  const double admission =
      static_cast<double>(report.num_queries + report.num_updates) *
      options_.cost.StatementSeconds();
  const double divisible =
      (total + admission) / static_cast<double>(options_.num_cores);
  const double busy = std::max(lpt, divisible);
  return std::max(busy, options_.min_heartbeat_seconds);
}

LoadResult SharedDbLoadSim::Run(const ClientConfig& config) {
  LoadResult result;
  std::vector<EbRuntimeState> ebs = MakeEbs(config, db_->scale);

  // (wake time, eb) min-heap for thinking EBs.
  using Wake = std::pair<double, int>;
  std::priority_queue<Wake, std::vector<Wake>, std::greater<Wake>> wakes;
  Rng stagger(config.seed);
  for (int i = 0; i < config.num_ebs; ++i) {
    // Stagger initial arrivals across one think period.
    wakes.push({stagger.NextDouble() * tpcw::kThinkTimeMeanSeconds *
                    std::max(config.think_time_scale, 0.01),
                i});
  }

  std::vector<int> ready;  // EBs whose next statement joins the next batch
  struct InFlight {
    int eb;
    std::future<ResultSet> done;
  };
  std::vector<InFlight> in_flight;  // submitted, not yet admitted+executed
  double now = 0;
  const double end = config.duration_seconds;

  while (now < end) {
    // Admit all EBs that woke up by now.
    while (!wakes.empty() && wakes.top().first <= now) {
      const int eb = wakes.top().second;
      wakes.pop();
      BeginInteraction(&ebs[eb], config, db_->scale, &db_->ids, now,
                       config.warmup_seconds);
      ready.push_back(eb);
    }
    if (ready.empty() && in_flight.empty()) {
      if (wakes.empty()) break;
      now = wakes.top().first;  // idle until the next client arrives
      continue;
    }

    // Submit the next statement of every EB without one in flight; a
    // statement spilled by the admission cap stays queued and must NOT be
    // resubmitted — its future completes in a later generation.
    for (const int eb : ready) {
      EbRuntimeState& st = ebs[eb];
      SDB_CHECK(st.next_call < st.calls.size());
      const tpcw::StatementCall& call = st.calls[st.next_call];
      in_flight.push_back({eb, engine_->SubmitNamed(call.statement, call.params)});
    }
    ready.clear();
    const BatchReport report =
        engine_->RunOneBatch(options_.max_admissions_per_batch);
    ++batches_;
    now += BatchSeconds(report);

    // Admitted statements complete at batch end; their EBs advance. Spilled
    // ones ride the next generation.
    std::vector<InFlight> still_queued;
    for (InFlight& f : in_flight) {
      if (f.done.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        still_queued.push_back(std::move(f));
        continue;
      }
      f.done.get();
      EbRuntimeState& st = ebs[f.eb];
      ++st.next_call;
      if (st.next_call < st.calls.size()) {
        ready.push_back(f.eb);  // next statement joins the next batch
      } else {
        RecordInteraction(&result, st, now);
        const double think = tpcw::SampleThinkTimeSeconds(&st.rng) *
                             config.think_time_scale;
        wakes.push({now + think, f.eb});
      }
    }
    in_flight.swap(still_queued);
  }

  result.duration_seconds = end - config.warmup_seconds;
  return result;
}

OpenLoopResult SharedDbLoadSim::RunOpenLoop(
    const std::vector<OpenLoopStream>& streams, double duration_seconds,
    uint64_t seed) {
  OpenLoopResult result;
  result.streams.resize(streams.size());
  result.duration_seconds = duration_seconds;

  struct Arrival {
    double time;
    size_t stream;
    bool operator>(const Arrival& o) const { return time > o.time; }
  };
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>> arrivals;
  Rng rng(seed);
  std::vector<Rng> stream_rngs;
  for (size_t s = 0; s < streams.size(); ++s) {
    stream_rngs.emplace_back(seed * 7919 + s);
    if (streams[s].rate_per_second > 0) {
      arrivals.push({rng.Exponential(1.0 / streams[s].rate_per_second), s});
    }
  }

  struct PendingCall {
    size_t stream;
    double submit_time;
    std::future<ResultSet> done;
  };
  std::vector<PendingCall> pending;
  double now = 0;

  while (now < duration_seconds || !pending.empty()) {
    // Admit arrivals up to now.
    while (!arrivals.empty() && arrivals.top().time <= now) {
      const Arrival a = arrivals.top();
      arrivals.pop();
      if (a.time < duration_seconds) {
        const tpcw::StatementCall call =
            streams[a.stream].make_call(&stream_rngs[a.stream]);
        pending.push_back(
            {a.stream, a.time, engine_->SubmitNamed(call.statement, call.params)});
        ++result.streams[a.stream].issued;
        arrivals.push({a.time + rng.Exponential(1.0 / streams[a.stream].rate_per_second),
                       a.stream});
      }
    }
    if (pending.empty()) {
      if (arrivals.empty() || arrivals.top().time >= duration_seconds) break;
      now = arrivals.top().time;
      continue;
    }
    const BatchReport report =
        engine_->RunOneBatch(options_.max_admissions_per_batch);
    ++batches_;
    now += BatchSeconds(report);
    // Statements the admission cap spilled stay pending into the next
    // generation; only admitted ones complete at this batch end.
    std::vector<PendingCall> still_queued;
    for (PendingCall& pc : pending) {
      if (pc.done.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        still_queued.push_back(std::move(pc));
        continue;
      }
      pc.done.get();
      const double latency = now - pc.submit_time;
      OpenLoopResult::PerStream& s = result.streams[pc.stream];
      s.sum_latency += latency;
      if (latency <= streams[pc.stream].timeout_seconds) ++s.completed_in_time;
    }
    pending.swap(still_queued);
    if (now >= duration_seconds && pending.empty()) break;
  }
  return result;
}

}  // namespace sim
}  // namespace shareddb
