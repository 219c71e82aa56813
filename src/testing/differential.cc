#include "testing/differential.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "api/server.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/io.h"
#include "storage/wal.h"
#include "testing/canonical.h"
#include "testing/overload.h"

namespace shareddb {
namespace testing {

namespace {

/// Per-seed randomized execution environment of the shared stack.
struct EnvConfig {
  size_t workers = 0;
  size_t cap = 0;         // max_admissions_per_batch (0 = unlimited)
  int64_t window_us = 0;  // min_batch_window
  int vacuum = 0;
  bool mysql_profile = false;
  size_t pauses = 0;  // pause/resume injections during the concurrent phase

  std::string ToString() const {
    return StringPrintf(
        "workers=%zu cap=%zu window_us=%lld vacuum=%d profile=%s "
        "pauses=%zu",
        workers, cap,
        static_cast<long long>(window_us), vacuum,
        mysql_profile ? "MySQL-like" : "SystemX-like", pauses);
  }
};

EnvConfig DrawEnv(Rng* rng) {
  EnvConfig env;
  static const size_t kWorkers[] = {0, 0, 0, 1, 2, 4};
  static const size_t kCaps[] = {0, 0, 0, 1, 2, 5};
  static const int64_t kWindows[] = {0, 0, 0, 200, 1000};
  static const int kVacuums[] = {0, 0, 0, 1, 3};
  env.workers = kWorkers[rng->Uniform(0, 5)];
  env.cap = kCaps[rng->Uniform(0, 5)];
  env.window_us = kWindows[rng->Uniform(0, 4)];
  env.vacuum = kVacuums[rng->Uniform(0, 4)];
  env.mysql_profile = rng->Bernoulli(0.5);
  env.pauses = static_cast<size_t>(rng->Uniform(0, 2));
  return env;
}

struct SharedStack {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<api::Server> server;
};

SharedStack BuildShared(const RandomWorkloadGenerator& gen, const EnvConfig& env,
                        bool start_paused,
                        const DurabilityOptions& durability = {}) {
  SharedStack s;
  s.catalog = gen.BuildCatalog();
  GlobalPlanBuilder builder(s.catalog.get());
  gen.RegisterShared(&builder);
  std::unique_ptr<GlobalPlan> plan = builder.Build();
  EngineOptions opts;
  opts.durability = durability;
  opts.vacuum_interval = env.vacuum;
  opts.parallel.num_workers = env.workers;
  opts.parallel.min_rows_per_task = 16;  // small tables must still split
  s.engine = std::make_unique<Engine>(std::move(plan), std::move(opts));
  api::ServerOptions sopts;
  sopts.max_admissions_per_batch = env.cap;
  sopts.min_batch_window = std::chrono::microseconds(env.window_us);
  sopts.start_paused = start_paused;
  s.server = std::make_unique<api::Server>(s.engine.get(), sopts);
  return s;
}

struct OracleStack {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<baseline::BaselineEngine> engine;
};

OracleStack BuildOracle(const RandomWorkloadGenerator& gen, bool mysql_profile) {
  OracleStack o;
  o.catalog = gen.BuildCatalog();
  o.engine = std::make_unique<baseline::BaselineEngine>(
      o.catalog.get(),
      mysql_profile ? MySQLLikeProfile() : SystemXLikeProfile());
  gen.RegisterBaseline(o.engine.get());
  return o;
}

/// Canonical whole-database state at the catalog's own read snapshot: per
/// table (catalog order is deterministic), the multiset of visible rows.
/// Side-independent — the shared engine, the oracle, and a recovered
/// catalog all reduce to the same string iff they hold the same data.
std::string DumpCatalogState(const Catalog& cat) {
  const Version snap = cat.snapshots().ReadSnapshot();
  std::string out;
  for (size_t ti = 0; ti < cat.NumTables(); ++ti) {
    const Table* t = cat.TableById(ti);
    std::multiset<std::string> rows;
    t->ScanVisible(snap, [&rows](RowId, const Tuple& row) {
      rows.insert(CanonicalRow(row));
      return true;
    });
    out += t->name();
    out += ":\n";
    for (const std::string& r : rows) {
      out += r;
      out += "\n";
    }
  }
  return out;
}

/// Fault injection (see RunOptions::inject_fault): corrupts the SHARED
/// side's canonical rows for one statement so the mismatch is real enough
/// to flow through artifact writing AND reproduces on replay.
void MaybeInjectFault(bool inject, const std::string& statement,
                      const std::string& fault_statement,
                      std::multiset<std::string>* rows) {
  if (inject && statement == fault_statement) {
    rows->insert("(FAULT-INJECTED)");
  }
}

/// Verifies a Sort/TopN root's output really is ordered by the template's
/// keys under the Value total order.
bool CheckOrdered(const std::vector<Tuple>& rows, const QueryTemplateInfo& tmpl,
                  std::string* err) {
  if (tmpl.order_keys.empty() || rows.size() < 2) return true;
  std::vector<std::pair<size_t, bool>> keys;
  for (const auto& [name, asc] : tmpl.order_keys) {
    const int idx = tmpl.result_schema->FindColumn(name);
    if (idx < 0) return true;
    keys.emplace_back(static_cast<size_t>(idx), asc);
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const auto& [col, asc] : keys) {
      const int c = rows[i - 1][col].Compare(rows[i][col]);
      const int want = asc ? c : -c;
      if (want < 0) break;
      if (want > 0) {
        *err = "rows " + std::to_string(i - 1) + "/" + std::to_string(i) +
               " violate order key '" + tmpl.result_schema->column(col).name +
               "': " + CanonicalRow(rows[i - 1]) + " then " + CanonicalRow(rows[i]);
        return false;
      }
    }
  }
  return true;
}

struct Mismatch {
  std::string phase;
  std::string statement;
  std::string params;
  std::string expected;
  std::string got;
  std::string detail;  // one-line summary

  std::string Summary() const {
    std::string s = phase + " " + statement;
    if (!params.empty()) s += " [" + params + "]";
    if (!detail.empty()) s += ": " + detail;
    return s;
  }
};

/// Serial replay of a call list against fresh stacks (one call per
/// heartbeat). Returns true iff the LAST call's results diverge — the
/// minimizer's target predicate.
bool TryRepro(const RandomWorkloadGenerator& gen,
              const std::vector<StatementCall>& calls, bool inject_fault,
              std::string* log) {
  if (calls.empty()) return false;
  EnvConfig env;  // serial defaults: no workers, no caps
  SharedStack shared = BuildShared(gen, env, /*start_paused=*/true);
  OracleStack oracle = BuildOracle(gen, /*mysql_profile=*/false);
  const std::string fault_statement =
      gen.num_query_templates() > 0 ? gen.query_template(0).name : "";
  auto session = shared.server->OpenSession();
  bool last_mismatch = false;
  for (size_t i = 0; i < calls.size(); ++i) {
    const StatementCall& call = calls[i];
    api::AsyncResult r = session->ExecuteAsync(call.statement, call.params);
    for (int step = 0; step < 4 && !r.WaitFor(std::chrono::milliseconds(0));
         ++step) {
      shared.server->StepBatch();
    }
    const ResultSet rs = r.Get();
    // Status-first lookup: a hand-edited or stale artifact may name a
    // statement the regenerated workload lacks — report it, don't abort.
    const int oracle_id = oracle.engine->TryFindStatement(call.statement);
    const baseline::BaselineResult br =
        oracle_id >= 0
            ? oracle.engine->Execute(static_cast<StatementId>(oracle_id),
                                     call.params)
            : [&] {
                baseline::BaselineResult unknown;
                unknown.result.status =
                    Status::NotFound("unknown statement '" + call.statement + "'");
                return unknown;
              }();
    bool mismatch = false;
    std::string line = call.statement;
    if (!call.params.empty()) {
      line += " [" + RandomWorkloadGenerator::ParamsToString(call.params) + "]";
    }
    if (rs.status.ok() != br.result.status.ok()) {
      mismatch = true;
      line += " status " + rs.status.ToString() + " vs " +
              br.result.status.ToString();
    } else if (call.is_update) {
      mismatch = rs.update_count != br.result.update_count;
      line += StringPrintf(" update_count %llu vs %llu",
                           static_cast<unsigned long long>(rs.update_count),
                           static_cast<unsigned long long>(br.result.update_count));
    } else {
      std::multiset<std::string> got = CanonicalRows(rs);
      MaybeInjectFault(inject_fault, call.statement, fault_statement, &got);
      const std::multiset<std::string> want = CanonicalRows(br.result);
      mismatch = got != want;
      line += StringPrintf(" rows %zu vs %zu", got.size(), want.size());
    }
    line += mismatch ? "  << MISMATCH" : "  ok";
    if (log != nullptr) {
      *log += line;
      *log += "\n";
    }
    if (i + 1 == calls.size()) last_mismatch = mismatch;
  }
  return last_mismatch;
}

std::string GenOptionsToString(const GeneratorOptions& g) {
  return StringPrintf(
      "min_tables:%zu,max_tables:%zu,min_rows:%zu,max_rows:%zu,"
      "min_query_templates:%zu,max_query_templates:%zu,max_update_templates:%zu",
      g.min_tables, g.max_tables, g.min_rows, g.max_rows,
      g.min_query_templates, g.max_query_templates, g.max_update_templates);
}

bool ParseGenOptions(const std::string& s, GeneratorOptions* g) {
  for (const std::string& part : Split(s, ',')) {
    const std::vector<std::string> kv = Split(part, ':');
    if (kv.size() != 2) return false;
    const size_t v = static_cast<size_t>(std::strtoull(kv[1].c_str(), nullptr, 10));
    if (kv[0] == "min_tables") g->min_tables = v;
    else if (kv[0] == "max_tables") g->max_tables = v;
    else if (kv[0] == "min_rows") g->min_rows = v;
    else if (kv[0] == "max_rows") g->max_rows = v;
    else if (kv[0] == "min_query_templates") g->min_query_templates = v;
    else if (kv[0] == "max_query_templates") g->max_query_templates = v;
    else if (kv[0] == "max_update_templates") g->max_update_templates = v;
    else return false;
  }
  return true;
}

std::string WriteArtifact(const RunOptions& opts, const Mismatch& mm,
                          const std::vector<StatementCall>& calls,
                          bool reproduced_by_replay) {
  const std::string dir =
      opts.artifact_dir.empty() ? std::string(".") : opts.artifact_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  const std::string path =
      dir + "/fuzz_repro_seed" + std::to_string(opts.gen.seed) + ".txt";
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return "";
  out << "# shareddb differential fuzz repro\n";
  out << "# replay: fuzz_differential --replay=" << path << "\n";
  out << "seed=" << opts.gen.seed << "\n";
  out << "gen=" << GenOptionsToString(opts.gen) << "\n";
  out << "inject_fault=" << (opts.inject_fault ? 1 : 0) << "\n";
  out << "mismatch=" << mm.Summary() << "\n";
  if (!mm.expected.empty()) out << "expected=" << mm.expected << "\n";
  if (!mm.got.empty()) out << "got=" << mm.got << "\n";
  if (!reproduced_by_replay) {
    out << "# NOTE: the minimized serial replay did not reproduce this "
           "mismatch;\n# it is batching- or concurrency-dependent. Rerun the "
           "whole seed:\n# fuzz_differential --seed=" << opts.gen.seed
        << " --iters=1\n";
  }
  out << "calls:\n";
  for (const StatementCall& c : calls) {
    out << (c.is_update ? "U " : "Q ") << c.statement << " :: "
        << RandomWorkloadGenerator::ParamsToString(c.params) << "\n";
  }
  return path;
}

}  // namespace

SeedReport RunSeed(const RunOptions& opts) {
  SeedReport report;
  report.seed = opts.gen.seed;

  Rng env_rng(SubSeed(opts.gen.seed, 9));
  const EnvConfig env = DrawEnv(&env_rng);
  report.config = env.ToString();

  RandomWorkloadGenerator gen(opts.gen);
  SharedStack shared = BuildShared(gen, env, /*start_paused=*/true);
  OracleStack oracle = BuildOracle(gen, env.mysql_profile);
  const std::string fault_statement =
      gen.num_query_templates() > 0 ? gen.query_template(0).name : "";

  std::vector<Mismatch> mismatches;
  std::vector<StatementCall> executed_updates;  // minimization candidates
  bool scan_template_compared = false;
  uint64_t insert_id_counter = 0;
  size_t total_submitted = 0;

  const auto compare_query = [&](const std::string& phase,
                                 const StatementCall& call, const ResultSet& rs,
                                 const std::multiset<std::string>& want,
                                 bool oracle_ok) {
    ++report.calls_compared;
    Mismatch mm;
    mm.phase = phase;
    mm.statement = call.statement;
    mm.params = RandomWorkloadGenerator::ParamsToString(call.params);
    if (rs.status.ok() != oracle_ok) {
      mm.detail = "status " + rs.status.ToString() + " vs oracle " +
                  (oracle_ok ? "OK" : "error");
      mismatches.push_back(std::move(mm));
      return;
    }
    if (!rs.status.ok()) return;  // both erred identically (not expected)
    std::multiset<std::string> got = CanonicalRows(rs);
    MaybeInjectFault(opts.inject_fault, call.statement, fault_statement, &got);
    if (got != want) {
      mm.detail = StringPrintf("result rows differ (%zu vs %zu)", got.size(),
                               want.size());
      mm.expected = CanonicalToString(want);
      mm.got = CanonicalToString(got);
      mismatches.push_back(std::move(mm));
      return;
    }
    const QueryTemplateInfo* tmpl = gen.FindQueryTemplate(call.statement);
    if (tmpl != nullptr) {
      if (tmpl->uses_table_scan) scan_template_compared = true;
      std::string err;
      if (!CheckOrdered(rs.rows, *tmpl, &err)) {
        mm.detail = "order invariant: " + err;
        mismatches.push_back(std::move(mm));
      }
    }
  };

  const auto invariant_failure = [&](const std::string& detail) {
    Mismatch mm;
    mm.phase = "invariant";
    mm.statement = "-";
    mm.detail = detail;
    mismatches.push_back(std::move(mm));
  };

  // --- phase 1: mixed deterministic batches (paused server) -----------------
  {
    Rng rng(SubSeed(opts.gen.seed, 20));
    auto session = shared.server->OpenSession();
    for (size_t round = 0; round < opts.mixed_rounds && mismatches.empty();
         ++round) {
      const size_t nq = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(opts.max_queries_per_round)));
      const size_t nu =
          gen.num_update_templates() > 0
              ? static_cast<size_t>(rng.Uniform(
                    0, static_cast<int64_t>(opts.max_updates_per_round)))
              : 0;
      std::vector<StatementCall> calls;
      for (size_t i = 0; i < nq; ++i) calls.push_back(gen.MakeQueryCall(&rng));
      for (size_t i = 0; i < nu; ++i) {
        calls.push_back(gen.MakeUpdateCall(&rng, &insert_id_counter));
      }
      // Deterministic shuffle: submission order IS admission order (FIFO).
      for (size_t i = calls.size(); i > 1; --i) {
        std::swap(calls[i - 1],
                  calls[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }

      struct MixedEntry {
        StatementCall call;
        api::AsyncResult res;
        bool cancel = false;
      };
      std::vector<MixedEntry> entries;
      entries.reserve(calls.size());
      for (StatementCall& c : calls) {
        MixedEntry e;
        e.res = session->ExecuteAsync(c.statement, c.params);
        e.cancel = rng.Bernoulli(0.12);
        e.call = std::move(c);
        entries.push_back(std::move(e));
      }
      total_submitted += entries.size();
      // Cancel BEFORE any heartbeat: formation is guaranteed to drain these
      // with Aborted (the cancel-racing-admission case lives in phase 2).
      for (MixedEntry& e : entries) {
        if (e.cancel) e.res.Cancel();
      }

      std::vector<BatchReport> reports;
      const size_t max_steps = entries.size() + 8;
      const auto all_ready = [&] {
        for (const MixedEntry& e : entries) {
          if (!e.res.WaitFor(std::chrono::milliseconds(0))) return false;
        }
        return true;
      };
      while (!all_ready()) {
        if (reports.size() > max_steps) break;
        reports.push_back(shared.server->StepBatch());
      }
      if (!all_ready()) {
        invariant_failure("mixed round " + std::to_string(round) +
                          ": statements still pending after " +
                          std::to_string(reports.size()) + " heartbeats");
        break;
      }

      // Oracle replay, heartbeat by heartbeat. Admission is FIFO, so each
      // report's num_admitted/num_cancelled identifies the exact entries.
      size_t fi = 0;
      for (const BatchReport& r : reports) {
        std::vector<size_t> admitted;
        size_t cancelled = 0;
        while (fi < entries.size() &&
               (env.cap == 0 || admitted.size() < env.cap)) {
          if (entries[fi].cancel) {
            ++cancelled;
          } else {
            admitted.push_back(fi);
          }
          ++fi;
        }
        if (admitted.size() != r.num_admitted || cancelled != r.num_cancelled) {
          invariant_failure(StringPrintf(
              "FIFO replay diverged from BatchReport: admitted %zu vs %zu, "
              "cancelled %zu vs %zu",
              admitted.size(), r.num_admitted, cancelled, r.num_cancelled));
          break;
        }
        // Queries of the heartbeat read the pre-heartbeat state...
        for (const size_t idx : admitted) {
          if (entries[idx].call.is_update) continue;
          const ResultSet rs = entries[idx].res.Get();
          const baseline::BaselineResult br = oracle.engine->ExecuteNamed(
              entries[idx].call.statement, entries[idx].call.params);
          compare_query("mixed", entries[idx].call, rs,
                        CanonicalRows(br.result), br.result.status.ok());
        }
        // ...then updates apply in arrival order.
        for (const size_t idx : admitted) {
          if (!entries[idx].call.is_update) continue;
          const ResultSet rs = entries[idx].res.Get();
          const baseline::BaselineResult br = oracle.engine->ExecuteNamed(
              entries[idx].call.statement, entries[idx].call.params);
          ++report.calls_compared;
          if (!rs.status.ok() || rs.update_count != br.result.update_count) {
            Mismatch mm;
            mm.phase = "mixed-update";
            mm.statement = entries[idx].call.statement;
            mm.params =
                RandomWorkloadGenerator::ParamsToString(entries[idx].call.params);
            mm.detail = StringPrintf(
                "update_count %llu (status %s) vs oracle %llu",
                static_cast<unsigned long long>(rs.update_count),
                rs.status.ToString().c_str(),
                static_cast<unsigned long long>(br.result.update_count));
            mismatches.push_back(std::move(mm));
          } else {
            executed_updates.push_back(entries[idx].call);
          }
        }
        if (!mismatches.empty()) break;
      }
      if (mismatches.empty() && fi != entries.size()) {
        invariant_failure("FIFO replay consumed " + std::to_string(fi) + " of " +
                          std::to_string(entries.size()) + " entries");
      }
      // Cancelled entries must carry Aborted (drain them for the check).
      for (MixedEntry& e : entries) {
        if (!e.cancel || !mismatches.empty()) continue;
        const ResultSet rs = e.res.Get();
        ++report.calls_aborted;
        if (rs.status.code() != StatusCode::kAborted) {
          invariant_failure("pre-admission cancel returned status " +
                            rs.status.ToString());
        }
      }
      if (!mismatches.empty()) break;
    }
  }

  // --- phase 2: concurrent read-only sessions vs the frozen oracle ----------
  struct CallPlan {
    StatementCall call;
    int mode = 0;  // 0-5 blocking, 6-7 async, 8 deadline, 9 cancel
    bool use_prepared = false;
    std::multiset<std::string> expected;
  };
  struct CallResult {
    bool aborted = false;
    Status status;
    std::vector<Tuple> rows;
    uint64_t batches_waited = 0;
    uint64_t spills = 0;
  };
  std::vector<std::vector<CallPlan>> plans(opts.sessions);
  std::vector<std::vector<CallResult>> results(opts.sessions);
  if (mismatches.empty()) {
    for (size_t c = 0; c < opts.sessions; ++c) {
      Rng crng(SubSeed(opts.gen.seed, 700 + c));
      plans[c].resize(opts.calls_per_session);
      results[c].resize(opts.calls_per_session);
      for (size_t i = 0; i < opts.calls_per_session; ++i) {
        CallPlan& p = plans[c][i];
        if (c == 0 && i == 0 && gen.num_query_templates() > 0) {
          // Pin the first call to the fault-designated template so
          // inject_fault always demonstrates the repro pipeline.
          const QueryTemplateInfo& q0 = gen.query_template(0);
          p.call = {q0.name, gen.DrawParams(q0.params, &crng, nullptr), false};
        } else {
          p.call = gen.MakeQueryCall(&crng);
        }
        p.mode = static_cast<int>(crng.Uniform(0, 9));
        p.use_prepared = crng.Bernoulli(0.5);
        const baseline::BaselineResult br =
            oracle.engine->ExecuteNamed(p.call.statement, p.call.params);
        p.expected = CanonicalRows(br.result);
      }
    }

    // --transport=tcp: the same call plans run through net::Client over a
    // live loopback front door, so the wire protocol and event loop sit
    // inside the differential check instead of beside it.
    std::unique_ptr<net::Server> net_front;
    if (opts.tcp_transport) {
      net_front = std::make_unique<net::Server>(shared.server.get());
      const Status ns = net_front->Start();
      if (!ns.ok()) {
        invariant_failure("tcp front door failed to start: " + ns.ToString());
        net_front.reset();
      }
    }

    shared.server->Resume();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < opts.sessions; ++c) {
      threads.emplace_back([&, c] {
        // Generic over the client API: api::Session and net::Client expose
        // the same Prepare/Execute/ExecuteAsync shapes by design.
        const auto run_calls = [&](auto& session, auto stmt_proto) {
          for (size_t i = 0; i < plans[c].size(); ++i) {
            const CallPlan& p = plans[c][i];
            CallResult& r = results[c][i];
            decltype(stmt_proto) stmt;
            bool have_stmt = false;
            if (p.use_prepared) {
              have_stmt = session.Prepare(p.call.statement, &stmt).ok();
            }
            if (p.mode <= 5) {
              const ResultSet rs =
                  have_stmt ? session.Execute(stmt, p.call.params)
                            : session.Execute(p.call.statement, p.call.params);
              r.status = rs.status;
              r.rows = rs.rows;
              r.batches_waited = rs.batches_waited;
              r.spills = rs.admission_spills;
            } else {
              auto ar = have_stmt
                            ? session.ExecuteAsync(stmt, p.call.params)
                            : session.ExecuteAsync(p.call.statement,
                                                   p.call.params);
              if (p.mode == 9) ar.Cancel();  // cancel racing batch formation
              ResultSet rs;
              if (p.mode == 8) {
                rs = ar.GetWithDeadline(std::chrono::steady_clock::now() +
                                        std::chrono::seconds(2));
              } else {
                rs = ar.Get();
              }
              r.status = rs.status;
              r.rows = rs.rows;
              r.batches_waited = rs.batches_waited;
              r.spills = rs.admission_spills;
              r.aborted = rs.status.code() == StatusCode::kAborted;
            }
          }
        };
        if (net_front != nullptr) {
          net::Client client;
          const Status cs = client.Connect("127.0.0.1", net_front->port());
          if (!cs.ok()) {
            for (CallResult& r : results[c]) r.status = cs;
            return;
          }
          run_calls(client, net::PreparedStatement{});
        } else {
          auto session = shared.server->OpenSession();
          run_calls(*session, api::PreparedStatement{});
        }
      });
    }
    // Driver control-plane churn while clients run.
    for (size_t pz = 0; pz < env.pauses; ++pz) {
      std::this_thread::sleep_for(std::chrono::microseconds(400));
      shared.server->Pause();
      std::this_thread::sleep_for(std::chrono::microseconds(150));
      shared.server->Resume();
    }
    for (std::thread& t : threads) t.join();
    // Every call is consumed, so the front door has nothing in flight; close
    // it before the final quiesce (its sessions must not outlive the drain).
    if (net_front != nullptr) net_front->Shutdown();
    total_submitted += opts.sessions * opts.calls_per_session;

    for (size_t c = 0; c < opts.sessions; ++c) {
      for (size_t i = 0; i < plans[c].size(); ++i) {
        const CallPlan& p = plans[c][i];
        CallResult& r = results[c][i];
        if (r.aborted) {
          ++report.calls_aborted;
          if (p.mode < 8) {
            invariant_failure(StringPrintf(
                "client %zu call %zu (%s) aborted without cancel/deadline", c,
                i, p.call.statement.c_str()));
          }
          continue;
        }
        ResultSet rs;
        rs.status = r.status;
        rs.rows = r.rows;
        compare_query(StringPrintf("concurrent c%zu#%zu", c, i), p.call, rs,
                      p.expected, /*oracle_ok=*/true);
        if (r.status.ok() &&
            (r.batches_waited < 1 || r.spills != r.batches_waited - 1)) {
          invariant_failure(StringPrintf(
              "telemetry: batches_waited=%llu admission_spills=%llu",
              static_cast<unsigned long long>(r.batches_waited),
              static_cast<unsigned long long>(r.spills)));
        }
      }
    }
  }

  // --- invariants over the whole run ----------------------------------------
  shared.server->Pause();  // quiesce so stats include the last heartbeat
  const api::Server::Stats stats = shared.server->stats();
  report.batches = stats.batches;
  report.mean_occupancy = stats.MeanBatchOccupancy();
  if (mismatches.empty()) {
    if (stats.statements_admitted + stats.statements_cancelled !=
        total_submitted) {
      invariant_failure(StringPrintf(
          "admission accounting: admitted %llu + cancelled %llu != submitted %zu",
          static_cast<unsigned long long>(stats.statements_admitted),
          static_cast<unsigned long long>(stats.statements_cancelled),
          total_submitted));
    }
    if (stats.batches > 0 && stats.MeanBatchOccupancy() < 1.0) {
      invariant_failure("mean batch occupancy < 1");
    }
    // Γ routing must find an output batch for every needed root; a miss is
    // silently dropped work (the query would get an empty ResultSet).
    if (stats.missing_root_outputs != 0) {
      invariant_failure(StringPrintf(
          "gamma routing missed %llu root outputs",
          static_cast<unsigned long long>(stats.missing_root_outputs)));
    }
    if (scan_template_compared &&
        shared.engine->predicate_cache_stats().index_builds < 1) {
      invariant_failure("shared scans executed but predicate index never built");
    }
  }

  // --- crash-recovery phase: WAL crash-point equivalence ---------------------
  // A fresh serial group-commit stack runs an update-heavy workload over a
  // fault-injecting in-memory filesystem, with the oracle mirroring every
  // batch. The per-batch WAL offsets make the durability contract exact:
  // a crash image cut (or corrupted) at byte X must recover to PRECISELY
  // the batches whose commit record lies at or before X — state included.
  if (opts.crash_points > 0 && gen.num_update_templates() > 0 &&
      mismatches.empty()) {
    const std::string kWalPath = "crash.wal";

    struct CrashRun {
      std::vector<uint64_t> offsets;   // WAL size after each batch's sync
      std::vector<std::string> dumps;  // oracle state after 0..B batches
      uint64_t final_size = 0;
      bool ok = true;
    };

    // Runs `batches` update-only heartbeats, mirroring each call into a
    // fresh oracle. Serial environment, vacuum off: WAL replay targets
    // physical row ids of the full no-vacuum history (compaction-aware
    // replay is the MVCC follow-up).
    const auto run_crash_workload = [&](storage::FaultyEnv* fault_env,
                                        size_t batches, uint64_t salt) {
      CrashRun run;
      EnvConfig serial;  // no workers, no caps, no vacuum: deterministic
      DurabilityOptions dur;
      dur.mode = DurabilityMode::kGroupCommit;
      dur.wal_path = kWalPath;
      dur.env = fault_env;
      SharedStack crash_shared =
          BuildShared(gen, serial, /*start_paused=*/true, dur);
      OracleStack crash_oracle = BuildOracle(gen, /*mysql_profile=*/false);
      run.dumps.push_back(DumpCatalogState(*crash_oracle.catalog));
      if (DumpCatalogState(*crash_shared.catalog) != run.dumps[0]) {
        invariant_failure("crash phase: initial states diverge");
        run.ok = false;
        return run;
      }
      Rng rng(SubSeed(opts.gen.seed, salt));
      uint64_t insert_ids = 0;
      auto session = crash_shared.server->OpenSession();
      for (size_t b = 0; b < batches && run.ok; ++b) {
        const size_t n = static_cast<size_t>(rng.Uniform(1, 3));
        std::vector<StatementCall> calls;
        std::vector<api::AsyncResult> res;
        for (size_t i = 0; i < n; ++i) {
          calls.push_back(gen.MakeUpdateCall(&rng, &insert_ids));
          res.push_back(
              session->ExecuteAsync(calls[i].statement, calls[i].params));
        }
        crash_shared.server->StepBatch();
        for (size_t i = 0; i < n && run.ok; ++i) {
          const ResultSet rs = res[i].Get();
          const baseline::BaselineResult br = crash_oracle.engine->ExecuteNamed(
              calls[i].statement, calls[i].params);
          if (!rs.status.ok() || rs.update_count != br.result.update_count) {
            invariant_failure(StringPrintf(
                "crash phase batch %zu: update '%s' diverged before any crash",
                b, calls[i].statement.c_str()));
            run.ok = false;
          }
        }
        if (!crash_shared.engine->wal_status().ok()) {
          invariant_failure("crash phase: WAL error with no fault injected: " +
                            crash_shared.engine->wal_status().ToString());
          run.ok = false;
        }
        run.offsets.push_back(crash_shared.engine->wal_bytes_logged());
        run.dumps.push_back(DumpCatalogState(*crash_oracle.catalog));
      }
      if (run.ok &&
          DumpCatalogState(*crash_shared.catalog) != run.dumps.back()) {
        invariant_failure(
            "crash phase: shared state diverged from oracle before any crash");
        run.ok = false;
      }
      run.final_size = fault_env->FileSize(kWalPath);
      return run;
    };

    // Batches whose commit record is entirely within the first `keep` bytes.
    const auto batches_within = [](const CrashRun& run, uint64_t keep) {
      size_t n = 0;
      for (const uint64_t off : run.offsets) {
        if (off <= keep) ++n;
      }
      return n;
    };

    const auto check_crash_image = [&](const std::string& label,
                                       storage::FaultyEnv* img_env,
                                       size_t expected_batches,
                                       const CrashRun& run) {
      ++report.crash_points_checked;
      std::unique_ptr<Catalog> cat = gen.BuildCatalog();
      RecoverOptions ropts;
      ropts.wal_path = kWalPath;
      ropts.env = img_env;
      RecoveryReport rr;
      const Status s = Recover(cat.get(), ropts, &rr);
      Mismatch mm;
      mm.phase = "crash-recovery";
      mm.statement = "-";
      if (!s.ok()) {
        mm.detail = label + ": recovery failed: " + s.ToString();
        mismatches.push_back(std::move(mm));
        return;
      }
      if (rr.batches_committed != expected_batches) {
        mm.detail = StringPrintf(
            "%s: recovered %llu batches, expected exactly %zu (stop=%s, "
            "discarded=%llu)",
            label.c_str(),
            static_cast<unsigned long long>(rr.batches_committed),
            expected_batches, rr.stop_reason.c_str(),
            static_cast<unsigned long long>(rr.bytes_discarded));
        mismatches.push_back(std::move(mm));
        return;
      }
      if (cat->snapshots().ReadSnapshot() !=
          static_cast<Version>(1 + expected_batches)) {
        mm.detail = label + StringPrintf(
            ": recovered snapshot %llu, expected %zu",
            static_cast<unsigned long long>(cat->snapshots().ReadSnapshot()),
            1 + expected_batches);
        mismatches.push_back(std::move(mm));
        return;
      }
      if (DumpCatalogState(*cat) != run.dumps[expected_batches]) {
        mm.detail = label + StringPrintf(
            ": recovered state differs from the oracle at batch %zu "
            "(never-wrong-data invariant violated)", expected_batches);
        mismatches.push_back(std::move(mm));
      }
    };

    Rng crash_rng(SubSeed(opts.gen.seed, 4000));
    storage::FaultyEnv base_env;
    const CrashRun run = run_crash_workload(&base_env, opts.crash_batches, 4100);
    if (run.ok) {
      // Group commit's own contract: after the last heartbeat every logged
      // byte is durable (one fsync per batch, none dropped).
      if (base_env.SyncedSize(kWalPath) != run.final_size) {
        invariant_failure("group commit left unsynced WAL bytes");
      }
      const std::string full = base_env.Contents(kWalPath);
      for (size_t k = 0; k < opts.crash_points && mismatches.empty(); ++k) {
        storage::FaultyEnv img_env;
        if (k % 2 == 0) {
          // Torn write: the log ends mid-stream at an arbitrary byte
          // (offsets below 8 tear the header itself).
          const uint64_t cut = static_cast<uint64_t>(
              crash_rng.Uniform(0, static_cast<int64_t>(run.final_size)));
          img_env.SetContents(kWalPath, full.substr(0, cut));
          check_crash_image(
              StringPrintf("torn@%llu/%llu",
                           static_cast<unsigned long long>(cut),
                           static_cast<unsigned long long>(run.final_size)),
              &img_env, batches_within(run, cut), run);
        } else if (run.final_size >= 9) {
          // Silent media corruption: one flipped bit past the header. The
          // record holding the flipped byte must fail its checksum, so
          // recovery stops at the last commit before it — exactly.
          const uint64_t flip = static_cast<uint64_t>(
              crash_rng.Uniform(8, static_cast<int64_t>(run.final_size) - 1));
          img_env.SetContents(kWalPath, full);
          img_env.FlipBit(kWalPath, flip);
          check_crash_image(
              StringPrintf("flip@%llu/%llu",
                           static_cast<unsigned long long>(flip),
                           static_cast<unsigned long long>(run.final_size)),
              &img_env, batches_within(run, flip), run);
        }
      }

      // A disk that acks fsync but lies, then power fails: every batch the
      // engine believed durable is gone but for a bounded torn tail, and
      // recovery must land on whatever prefix physically survived — never
      // resurrect the acked-but-dropped batches partially.
      if (mismatches.empty()) {
        storage::FaultyEnv liar_env;
        storage::FaultInjection faults;
        faults.drop_syncs = true;
        liar_env.SetFaults(kWalPath, faults);
        const CrashRun liar = run_crash_workload(&liar_env, 3, 4200);
        if (liar.ok) {
          const uint64_t torn =
              static_cast<uint64_t>(crash_rng.Uniform(0, 64));
          liar_env.PowerLoss(torn);
          const uint64_t kept = liar_env.FileSize(kWalPath);
          if (liar.final_size > torn && kept >= liar.final_size) {
            invariant_failure("dropped syncs: power loss lost nothing");
          } else {
            check_crash_image(
                StringPrintf("dropped-sync-powerloss kept=%llu/%llu",
                             static_cast<unsigned long long>(kept),
                             static_cast<unsigned long long>(liar.final_size)),
                &liar_env, batches_within(liar, kept), liar);
          }
        }
      }
    }
  }

  // --- overload phase: saturation under chaos (fresh stack) -----------------
  if (opts.overload && mismatches.empty()) {
    OverloadOptions oopts;
    oopts.gen = opts.gen;
    oopts.sessions = opts.overload_sessions;
    oopts.calls_per_session = opts.overload_calls_per_session;
    oopts.verbose = opts.verbose;
    const OverloadReport orep = RunOverloadSeed(oopts);
    report.overload_ok = orep.calls_ok;
    report.overload_rejected = orep.calls_rejected;
    report.overload_shed = orep.calls_shed;
    report.calls_compared += orep.compared;
    if (!orep.ok) {
      Mismatch mm;
      mm.phase = "overload";
      mm.statement = "-";
      mm.detail = orep.first_failure + " [" + orep.config + "]";
      mismatches.push_back(std::move(mm));
    }
  }

  report.mismatches = mismatches.size();
  report.ok = mismatches.empty();
  if (!report.ok) {
    report.first_mismatch = mismatches.front().Summary();
    if (!opts.artifact_dir.empty()) {
      // Minimize: committed updates (they shaped the state) + the failing
      // call, then greedily drop updates while the serial replay still
      // reproduces.
      const Mismatch& mm = mismatches.front();
      std::vector<StatementCall> calls = executed_updates;
      if (mm.statement != "-") {
        StatementCall failing;
        failing.statement = mm.statement;
        failing.is_update = mm.phase == "mixed-update";
        RandomWorkloadGenerator::ParseParams(mm.params, &failing.params);
        calls.push_back(std::move(failing));
      }
      bool reproduced = !calls.empty() && TryRepro(gen, calls, opts.inject_fault,
                                                  nullptr);
      if (reproduced) {
        for (size_t i = 0; i + 1 < calls.size();) {
          std::vector<StatementCall> candidate;
          for (size_t j = 0; j < calls.size(); ++j) {
            if (j != i) candidate.push_back(calls[j]);
          }
          if (TryRepro(gen, candidate, opts.inject_fault, nullptr)) {
            calls = std::move(candidate);
          } else {
            ++i;
          }
        }
      }
      report.artifact_path = WriteArtifact(opts, mm, calls, reproduced);
    }
  }
  if (opts.verbose) {
    std::fprintf(stderr, "seed %llu: %s (%s) compared=%zu aborted=%zu occ=%.2f\n",
                 static_cast<unsigned long long>(report.seed),
                 report.ok ? "ok" : report.first_mismatch.c_str(),
                 report.config.c_str(), report.calls_compared,
                 report.calls_aborted, report.mean_occupancy);
  }
  return report;
}

bool ReplayArtifact(const std::string& path, std::string* log) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (log != nullptr) *log = "cannot open artifact: " + path;
    return false;
  }
  GeneratorOptions gen_opts;
  bool inject_fault = false;
  std::vector<StatementCall> calls;
  bool in_calls = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (in_calls) {
      if (line.size() < 3 || (line[0] != 'Q' && line[0] != 'U')) continue;
      StatementCall call;
      call.is_update = line[0] == 'U';
      const std::string body = line.substr(2);
      const size_t sep = body.find(" :: ");
      call.statement = sep == std::string::npos ? body : body.substr(0, sep);
      if (sep != std::string::npos &&
          !RandomWorkloadGenerator::ParseParams(body.substr(sep + 4),
                                                &call.params)) {
        if (log != nullptr) *log = "unparseable params line: " + line;
        return false;
      }
      calls.push_back(std::move(call));
      continue;
    }
    if (line == "calls:") {
      in_calls = true;
    } else if (StartsWith(line, "seed=")) {
      gen_opts.seed = std::strtoull(line.c_str() + 5, nullptr, 10);
    } else if (StartsWith(line, "gen=")) {
      if (!ParseGenOptions(line.substr(4), &gen_opts)) {
        if (log != nullptr) *log = "unparseable gen line: " + line;
        return false;
      }
    } else if (StartsWith(line, "inject_fault=")) {
      inject_fault = line.back() == '1';
    }
  }
  if (calls.empty()) {
    if (log != nullptr) *log = "artifact carries no replayable calls";
    return false;
  }
  RandomWorkloadGenerator gen(gen_opts);
  return TryRepro(gen, calls, inject_fault, log);
}

}  // namespace testing
}  // namespace shareddb
