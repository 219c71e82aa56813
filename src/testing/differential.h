// Differential seed runner: one seed = one randomized workload executed two
// ways and compared call-for-call.
//
//   * shared side — a live api::Server/Session stack over the SharedDB
//     engine, with the execution environment randomized per seed (worker-
//     pool size — 0 runs plan nodes serially, more runs them concurrently
//     as a DAG — admission caps, batch gather windows, vacuum cadence) plus
//     driver pauses, cancellations and
//     deadlines exercised along the way;
//   * oracle side — the query-at-a-time src/baseline engine (profile
//     randomized per seed) executing the same statement instances.
//
// Two phases per seed:
//   1. mixed deterministic phase — queries and updates submitted from one
//     thread onto a PAUSED server and advanced with StepBatch; admission is
//     FIFO, so each BatchReport's num_admitted identifies exactly which
//     pending statements shared a heartbeat and the oracle replays them
//     heartbeat-by-heartbeat (queries against the pre-heartbeat state, then
//     updates in arrival order) even under admission-cap spills and
//     pre-admission cancellations.
//   2. concurrent phase — N session threads drive deterministic read-only
//     call streams through the live heartbeat driver (blocking, async,
//     deadline and cancel modes mixed); per-call results are compared
//     against the oracle, which is interleaving-independent because the
//     data is frozen after phase 1.
//
// Optional crash-recovery phase (crash_points > 0): an update-heavy
// workload runs on a fresh group-commit stack over a fault-injecting
// in-memory filesystem, recording the WAL byte offset of every batch
// boundary and the oracle state after every batch. Then, per crash point,
// a crash image of the log is built (truncation at a random byte offset,
// or a random bit flip) and recovered into a fresh catalog; the number of
// batches recovery reports AND the full recovered table state must equal
// the oracle replayed to exactly the last durable batch. A dropped-sync
// run (the disk acks fsync but lies, then power fails) closes the loop.
//
// Invariants checked besides result equality: per-call status, ordered
// output of Sort/TopN roots, admission accounting (admitted + cancelled ==
// submitted), mean batch occupancy >= 1, predicate-cache builds >= 1 when
// shared scans executed, and telemetry consistency (batches_waited >= 1,
// admission_spills == batches_waited - 1).
//
// On mismatch a self-contained repro artifact is written: the seed, the
// generator knobs, and a minimized statement list that replays with
// `fuzz_differential --replay=<artifact>`.

#ifndef SHAREDDB_TESTING_DIFFERENTIAL_H_
#define SHAREDDB_TESTING_DIFFERENTIAL_H_

#include <string>

#include "testing/workload_generator.h"

namespace shareddb {
namespace testing {

struct RunOptions {
  GeneratorOptions gen;
  size_t sessions = 4;
  size_t calls_per_session = 8;   // concurrent phase
  size_t mixed_rounds = 3;
  size_t max_queries_per_round = 6;
  size_t max_updates_per_round = 3;
  /// Directory for repro artifacts ("" = don't write).
  std::string artifact_dir;
  /// Fault injection: corrupt the shared side's canonical rows for the
  /// first query template. Forces a mismatch whose artifact must replay —
  /// the self-test of the repro pipeline. Recorded in the artifact so the
  /// replay reproduces it too.
  bool inject_fault = false;
  bool verbose = false;
  /// Crash-recovery phase: crash images built and recovered per seed
  /// (0 = skip the phase).
  size_t crash_points = 0;
  /// Update-heavy batches in the crash-phase workload.
  size_t crash_batches = 6;
  /// Overload phase (see testing/overload.h): saturate a fresh stack with
  /// tiny admission capacity under chaos injection and check the
  /// robustness contract (definite statuses, oracle-exact accepted
  /// results, the accounting identity, recovery, clean shutdown).
  bool overload = false;
  size_t overload_sessions = 8;
  size_t overload_calls_per_session = 24;
  /// Concurrent phase over TCP: a net::Server front door is started on an
  /// ephemeral loopback port and every phase-2 thread drives a net::Client
  /// instead of an in-process api::Session — same call plans, same oracle,
  /// same invariants (telemetry, accounting, occupancy), so any divergence
  /// introduced by the wire protocol / event loop surfaces as a mismatch.
  bool tcp_transport = false;
};

struct SeedReport {
  uint64_t seed = 0;
  bool ok = true;
  size_t mismatches = 0;
  size_t calls_compared = 0;
  size_t calls_aborted = 0;  // cancelled / deadline-expired, not compared
  size_t crash_points_checked = 0;  // crash images recovered + compared
  // Overload phase census (zero when the phase is off).
  size_t overload_ok = 0;        // accepted calls, compared against the oracle
  size_t overload_rejected = 0;  // kResourceExhausted
  size_t overload_shed = 0;      // kDeadlineExceeded
  uint64_t batches = 0;
  double mean_occupancy = 0;
  std::string config;          // randomized environment summary
  std::string artifact_path;   // non-empty when a repro artifact was written
  std::string first_mismatch;  // one-line summary of the first failure
};

/// Runs one seed end to end.
SeedReport RunSeed(const RunOptions& opts);

/// Replays a repro artifact written by RunSeed: rebuilds the workload from
/// the recorded seed, executes the minimized statement list against fresh
/// shared + oracle stacks, and returns true iff the mismatch reproduces.
/// `log` (optional) receives a human-readable transcript.
bool ReplayArtifact(const std::string& path, std::string* log);

}  // namespace testing
}  // namespace shareddb

#endif  // SHAREDDB_TESTING_DIFFERENTIAL_H_
