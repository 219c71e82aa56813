#include "storage/partition.h"

namespace shareddb {

PartitionedTable::PartitionedTable(std::string name, SchemaPtr schema,
                                   size_t key_column, size_t num_partitions)
    : name_(std::move(name)), schema_(std::move(schema)), key_column_(key_column) {
  SDB_CHECK(num_partitions >= 1);
  SDB_CHECK(key_column_ < schema_->num_columns());
  partitions_.reserve(num_partitions);
  for (size_t i = 0; i < num_partitions; ++i) {
    partitions_.push_back(
        std::make_unique<Table>(name_ + ".p" + std::to_string(i), schema_));
    scans_.push_back(std::make_unique<ClockScan>(partitions_.back().get()));
  }
}

size_t PartitionedTable::PartitionFor(const Value& key) const {
  return key.Hash() % partitions_.size();
}

void PartitionedTable::Insert(Tuple row, Version commit) {
  SDB_DCHECK(row.size() == schema_->num_columns());
  const size_t p = PartitionFor(row[key_column_]);
  partitions_[p]->Insert(std::move(row), commit);
}

void PartitionedTable::ScanVisible(
    Version snapshot, const std::function<bool(RowId, const Tuple&)>& cb) const {
  for (const auto& p : partitions_) {
    bool stopped = false;
    p->ScanVisible(snapshot, [&](RowId id, const Tuple& t) {
      if (!cb(id, t)) {
        stopped = true;
        return false;
      }
      return true;
    });
    if (stopped) return;
  }
}

size_t PartitionedTable::VisibleCount(Version snapshot) const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->VisibleCount(snapshot);
  return n;
}

DQBatch PartitionedTable::RunScanCycle(
    const std::vector<ScanQuerySpec>& queries, const std::vector<UpdateOp>& updates,
    Version read_snapshot, Version write_version,
    std::vector<ClockScanStats>* per_partition_stats,
    const ParallelContext* parallel) {
  const size_t num_parts = partitions_.size();
  if (per_partition_stats != nullptr) {
    per_partition_stats->assign(num_parts, ClockScanStats{});
  }

  // Route queries and updates to partitions (cheap, serial).
  std::vector<std::vector<ScanQuerySpec>> local_queries(num_parts);
  std::vector<std::vector<UpdateOp>> local_updates(num_parts);
  std::vector<std::vector<size_t>> local_update_src(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    // Partition pruning: keep only queries that may match rows in p —
    // a query anchored on an equality over the key column goes to exactly
    // one partition.
    std::vector<ScanQuerySpec>& local = local_queries[p];
    local.reserve(queries.size());
    for (const ScanQuerySpec& q : queries) {
      bool prunable = false;
      if (q.predicate != nullptr) {
        const AnalyzedPredicate ap = AnalyzePredicate(q.predicate);
        for (const EqConstraint& eq : ap.equalities) {
          if (eq.column == key_column_ && PartitionFor(eq.value) != p) {
            prunable = true;
            break;
          }
        }
      }
      if (!prunable) local.push_back(q);
    }
    // Updates: inserts route by key; update/delete predicates run everywhere.
    for (size_t ui = 0; ui < updates.size(); ++ui) {
      const UpdateOp& u = updates[ui];
      if (u.kind == UpdateKind::kInsert &&
          PartitionFor(u.row[key_column_]) != p) {
        continue;
      }
      local_updates[p].push_back(u);
      local_update_src[p].push_back(ui);
    }
  }
  // An update/delete op fans out to EVERY partition, and partition cycles
  // may run concurrently — the shared applied_out counter would be a data
  // race. Each local copy counts into its own slot; the originals are summed
  // after the barrier. (Skipped entirely on the query-only steady state to
  // keep the hot cycle allocation-free.)
  std::vector<std::vector<uint64_t>> local_counts;
  if (!updates.empty()) {
    local_counts.resize(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      local_counts[p].assign(local_updates[p].size(), 0);
      for (size_t k = 0; k < local_updates[p].size(); ++k) {
        local_updates[p][k].applied_out = &local_counts[p][k];
      }
    }
  }

  // One cycle per partition — each as a pool task when a pool is available
  // and there is more than one partition; partitions are independent tables,
  // so tasks share no mutable state. Each partition's own cycle may further
  // morsel-parallelize its segment pass via the same pool (nested groups are
  // safe: waiting tasks participate in execution).
  std::vector<DQBatch> parts(num_parts);
  const bool parallelize =
      parallel != nullptr && num_parts > 1 && parallel->workers() > 0;
  TaskGroup group(parallelize ? parallel->pool : nullptr);
  for (size_t p = 0; p < num_parts; ++p) {
    group.Run([this, p, &local_queries, &local_updates, read_snapshot,
               write_version, per_partition_stats, parallel, &parts] {
      ClockScanStats stats;
      parts[p] = scans_[p]->RunCycle(local_queries[p], local_updates[p],
                                     read_snapshot, write_version, &stats,
                                     parallel);
      if (per_partition_stats != nullptr) (*per_partition_stats)[p] = stats;
    });
  }
  group.Wait();

  if (!updates.empty()) {
    for (size_t p = 0; p < num_parts; ++p) {
      for (size_t k = 0; k < local_updates[p].size(); ++k) {
        uint64_t* sink = updates[local_update_src[p][k]].applied_out;
        if (sink != nullptr) *sink += local_counts[p][k];
      }
    }
  }

  DQBatch out(schema_);
  for (size_t p = 0; p < num_parts; ++p) out.Append(std::move(parts[p]));
  return out;
}

}  // namespace shareddb
