// WAL durability bench: what each DurabilityMode costs per heartbeat batch.
//
// Two series, both on the real POSIX backend (actual fsync):
//
//   wal_raw/<flush|sync>      — the log in isolation: encode + append a
//     100-record batch and push it to the OS (flush) or to the platter
//     (sync). The gap is the fsync price one group commit pays.
//   wal_durability/<mode>     — end to end: an engine running update-heavy
//     heartbeat batches with the WAL off (none), flushed per batch
//     (buffered), or fsynced per batch (group_commit). Group commit's
//     whole point is that ONE sync covers every update of the batch.
//
// Output (tab-separated, parsed by run_benches.sh into BENCH_micro.json):
//   <name>  ns_per_batch  ops_per_sec  wal_bytes
//
//   ./build/micro_wal [--quick]

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/plan_builder.h"
#include "storage/wal.h"

using namespace shareddb;

namespace {

constexpr size_t kRawRecordsPerBatch = 100;
constexpr size_t kUpdatesPerBatch = 16;
constexpr int64_t kRows = 1024;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sdb_micro_wal_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

Tuple Kv(int64_t id, int64_t val) { return {Value::Int(id), Value::Int(val)}; }

/// Raw log throughput: `batches` x (100 records + commit + flush-or-sync).
void BenchRaw(bool sync, size_t batches) {
  const std::string path = TempPath(sync ? "raw_sync" : "raw_flush");
  Wal wal(path);
  if (!wal.Open(true).ok()) {
    std::fprintf(stderr, "micro_wal: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  const Tuple row = Kv(7, 7000);
  const int64_t t0 = NowNs();
  for (size_t b = 0; b < batches; ++b) {
    const Version v = static_cast<Version>(b + 1);
    for (size_t r = 0; r < kRawRecordsPerBatch; ++r) {
      wal.LogInsert(0, v, static_cast<RowId>(b * kRawRecordsPerBatch + r), row);
    }
    wal.LogCommit(v);
    const Status s = sync ? wal.Sync() : wal.Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "micro_wal: %s\n", s.message().c_str());
      std::exit(1);
    }
  }
  const int64_t elapsed = NowNs() - t0;
  const Status closed = wal.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "micro_wal: %s\n", closed.message().c_str());
    std::exit(1);
  }
  const double per_batch =
      static_cast<double>(elapsed) / static_cast<double>(batches);
  const double recs_per_sec =
      1e9 * static_cast<double>(batches * kRawRecordsPerBatch) /
      static_cast<double>(elapsed);
  std::printf("wal_raw/%s\t%.1f\t%.1f\t%llu\n", sync ? "sync" : "flush",
              per_batch, recs_per_sec,
              static_cast<unsigned long long>(wal.bytes_logged()));
  std::filesystem::remove(path);
}

std::unique_ptr<GlobalPlan> BuildPlan(Catalog* cat) {
  Table* kv = cat->CreateTable(
      "kv", Schema::Make({{"id", ValueType::kInt}, {"val", ValueType::kInt}}));
  for (int64_t i = 0; i < kRows; ++i) kv->Insert(Kv(i, i), 1);
  cat->snapshots().Reset(1);
  GlobalPlanBuilder b(cat);
  b.AddUpdate("bump", "kv",
              {{"val", Expr::Add(Expr::Column(1), Expr::Param(1))}},
              Expr::Eq(Expr::Column(0), Expr::Param(0)));
  return b.Build();
}

/// Engine-level: update-heavy heartbeat batches under one durability mode.
void BenchEngine(DurabilityMode mode, const char* label, size_t batches) {
  const std::string path = TempPath(std::string("engine_") + label);
  Catalog cat;
  EngineOptions opts;
  opts.durability.mode = mode;
  opts.durability.wal_path = path;
  Engine engine(BuildPlan(&cat), opts);

  const auto run_batch = [&](size_t b) {
    std::vector<std::future<ResultSet>> fs;
    fs.reserve(kUpdatesPerBatch);
    for (size_t u = 0; u < kUpdatesPerBatch; ++u) {
      const int64_t id =
          static_cast<int64_t>((b * kUpdatesPerBatch + u) % kRows);
      fs.push_back(engine.SubmitNamed("bump", {Value::Int(id), Value::Int(1)}));
    }
    engine.RunOneBatch();
    for (auto& f : fs) f.get();
  };

  for (size_t b = 0; b < 4; ++b) run_batch(b);  // warm-up
  const int64_t t0 = NowNs();
  for (size_t b = 0; b < batches; ++b) run_batch(b);
  const int64_t elapsed = NowNs() - t0;
  if (!engine.wal_status().ok()) {
    std::fprintf(stderr, "micro_wal: wal error: %s\n",
                 engine.wal_status().message().c_str());
    std::exit(1);
  }
  const double per_batch =
      static_cast<double>(elapsed) / static_cast<double>(batches);
  const double updates_per_sec =
      1e9 * static_cast<double>(batches * kUpdatesPerBatch) /
      static_cast<double>(elapsed);
  std::printf("wal_durability/%s\t%.1f\t%.1f\t%llu\n", label, per_batch,
              updates_per_sec,
              static_cast<unsigned long long>(engine.wal_bytes_logged()));
  std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (const char* env = std::getenv("SDB_BENCH_QUICK")) {
    if (env[0] == '1') quick = true;
  }
  const size_t raw_batches = quick ? 50 : 400;
  const size_t engine_batches = quick ? 25 : 200;

  std::printf("# name\tns_per_batch\tops_per_sec\twal_bytes\n");
  BenchRaw(/*sync=*/false, raw_batches);
  BenchRaw(/*sync=*/true, raw_batches);
  BenchEngine(DurabilityMode::kNone, "none", engine_batches);
  BenchEngine(DurabilityMode::kBuffered, "buffered", engine_batches);
  BenchEngine(DurabilityMode::kGroupCommit, "group_commit", engine_batches);
  return 0;
}
