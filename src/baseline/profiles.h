// Baseline system profiles (paper §5.2). The paper compares SharedDB against
// MySQL 5.1/InnoDB and a commercial "SystemX". Neither is available offline,
// so we substitute a real query-at-a-time volcano engine (this module) whose
// *execution model* matches both — per-query plans, work linear in the number
// of queries — plus a profile capturing the two documented differences:
//
//   * maturity/efficiency: SystemX "is simply the better and more mature
//     system" (§5.6) — lower per-operation cost; MySQL higher;
//   * multicore scaling: "MySQL does not scale beyond twelve cores,
//     independent of the workload" (§5.4, citing Salomie et al. [23]);
//   * join methods: MySQL 5.1 had no hash join — only (index) nested loops.
//
// The profile parametrizes the baseline planner (join method selection) and
// the virtual-time simulator (cost factor, core cap, contention).

#ifndef SHAREDDB_BASELINE_PROFILES_H_
#define SHAREDDB_BASELINE_PROFILES_H_

#include <string>

namespace shareddb {

/// Tuning knobs standing in for one query-at-a-time comparator.
struct BaselineProfile {
  std::string name;
  /// Per-work-unit cost multiplier relative to the reference cost model
  /// (lower = faster system). SystemX < 1.0 < MySQL.
  double cost_factor = 1.0;
  /// Cores beyond this add no throughput (MySQL: 12 [23]).
  int max_effective_cores = 1 << 20;
  /// Service-time inflation per additional concurrent query (lock/latch and
  /// memory-bus interference of the thread-per-query model, §3.5).
  double contention_per_query = 0.0;
  /// Planner: hash joins available? (MySQL 5.1: no.)
  bool has_hash_join = true;
  /// Planner: use B-tree indexes for selections when possible.
  bool use_indexes = true;
};

/// MySQL 5.1 / InnoDB stand-in.
inline BaselineProfile MySQLLikeProfile() {
  BaselineProfile p;
  p.name = "MySQL-like";
  p.cost_factor = 1.6;
  p.max_effective_cores = 12;
  p.contention_per_query = 0.012;
  p.has_hash_join = false;
  return p;
}

/// Top-of-the-line commercial system stand-in.
inline BaselineProfile SystemXLikeProfile() {
  BaselineProfile p;
  p.name = "SystemX-like";
  p.cost_factor = 0.8;
  p.max_effective_cores = 1 << 20;
  p.contention_per_query = 0.006;
  p.has_hash_join = true;
  return p;
}

}  // namespace shareddb

#endif  // SHAREDDB_BASELINE_PROFILES_H_
