// Serial-tails bench: the merge and aggregate cycle stages that stayed
// single-threaded until the loser-tree merge and the partition-parallel
// aggregate cycles landed, plus one Γ-heavy batch. Each stage runs serial
// (workers:0) and at each requested worker count; serial and parallel paths
// emit byte-identical output (tests/parallel_test.cc), so the delta is pure
// wall-time.
//
//   merge     SortOp cycle over a pre-annotated batch: morsel sort + k-way
//             loser-tree merge (parallel: balanced merge rounds).
//   group_by  GroupByOp cycle, low-cardinality key, COUNT/SUM/AVG/MIN
//             (parallel: hash morsels + hash-partitioned build).
//   gamma     Engine::RunOneBatch with 48 calls sharing 8 distinct
//             statement+parameter pairs: the whole batch, whose Γ routes
//             each shared root batch in one serial pass (workers only run
//             the plan around it); the third column is the batch's
//             shared_work_saved (rows delivered beyond rows materialized
//             once — a plain count).
//
// Output (tab-separated, parsed by run_benches.sh into BENCH_micro.json):
//   serial_tails/merge/workers:W     ns_per_row   rows   reps
//   serial_tails/group_by/workers:W  ns_per_row   rows   reps
//   serial_tails/gamma/workers:W     ns_per_batch shared_work_saved reps
//
//   ./build/serial_tails [--quick] [--rows=N] [--reps=N] [--workers=0,2,4]
//
// On a 1-core container the parallel numbers measure scheduling overhead,
// not speedup — run_benches.sh skips this bench there instead of recording
// misleading wall-times.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/server.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/ops/group_by_op.h"
#include "core/ops/sort_op.h"
#include "core/plan_builder.h"
#include "runtime/task_pool.h"
#include "storage/catalog.h"

using namespace shareddb;

namespace {

struct Args {
  bool quick = false;
  size_t rows = 60000;
  int reps = 12;
  std::vector<size_t> workers = {0, 2, 4};

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        const size_t n = std::strlen(prefix);
        return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
      };
      if (arg == "--quick") {
        a.quick = true;
      } else if (const char* v = val("--rows=")) {
        a.rows = static_cast<size_t>(std::atoll(v));
      } else if (const char* v = val("--reps=")) {
        a.reps = std::atoi(v);
      } else if (const char* v = val("--workers=")) {
        a.workers.clear();
        for (const char* p = v; *p != '\0';) {
          a.workers.push_back(static_cast<size_t>(std::strtoul(p, nullptr, 10)));
          while (*p != '\0' && *p != ',') ++p;
          if (*p == ',') ++p;
        }
      } else {
        std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    if (a.quick) {
      a.rows = std::min<size_t>(a.rows, 20000);
      a.reps = std::min(a.reps, 5);
    }
    return a;
  }
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Median(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Pre-annotated input shared by the merge and group-by stages: a
/// low-cardinality sort/group key (many ties → the merge is tie-heavy and
/// the groups are fat) and ~5 subscribers per row.
DQBatch MakeInput(const SchemaPtr& schema, size_t rows, int num_queries) {
  DQBatch in(schema);
  Rng rng(3);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<QueryId> ids;
    for (int q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.4)) ids.push_back(static_cast<QueryId>(q));
    }
    in.Push({Value::Int(static_cast<int64_t>(i)),
             Value::Int(rng.Uniform(0, 20)),
             Value::Str("s" + std::to_string(i % 11))},
            QueryIdSet::FromSorted(std::move(ids)));
  }
  return in;
}

/// Times one shared-op cycle per rep and prints the median ns/row.
void RunOpStage(const char* name, SharedOp* op, const DQBatch& master,
                const std::vector<OpQuery>& queries, size_t workers,
                int reps) {
  std::unique_ptr<TaskPool> pool;
  ParallelContext pc;
  CycleContext ctx;
  ctx.read_snapshot = 1;
  ctx.write_version = 2;
  if (workers > 0) {
    pool = std::make_unique<TaskPool>(workers);
    pc.pool = pool.get();
    ctx.parallel = &pc;
  }
  std::vector<int64_t> ns;
  for (int r = 0; r < reps; ++r) {
    std::vector<BatchRef> in;
    in.emplace_back(master);  // copy; the cycle may take it
    WorkStats stats;
    const int64_t t0 = NowNs();
    DQBatch out = op->RunCycle(std::move(in), queries, ctx, &stats);
    const int64_t t1 = NowNs();
    if (out.size() == 0) std::abort();  // defeat dead-code elimination
    ns.push_back(t1 - t0);
  }
  std::printf("serial_tails/%s/workers:%zu\t%.1f\t%zu\t%d\n", name, workers,
              static_cast<double>(Median(ns)) / static_cast<double>(master.size()),
              master.size(), reps);
}

std::unique_ptr<Catalog> MakeGammaCatalog() {
  auto cat = std::make_unique<Catalog>();
  Table* users = cat->CreateTable(
      "users", Schema::Make({{"user_id", ValueType::kInt},
                             {"country", ValueType::kInt},
                             {"account", ValueType::kInt}}));
  Table* orders = cat->CreateTable(
      "orders", Schema::Make({{"order_id", ValueType::kInt},
                              {"user_id", ValueType::kInt},
                              {"amount", ValueType::kInt}}));
  for (int i = 0; i < 400; ++i) {
    users->Insert({Value::Int(i), Value::Int(i % 5), Value::Int(i * 10)}, 1);
  }
  for (int i = 0; i < 4000; ++i) {
    orders->Insert({Value::Int(i), Value::Int(i % 400), Value::Int(i % 173)}, 1);
  }
  cat->snapshots().Reset(1);
  return cat;
}

std::unique_ptr<GlobalPlan> MakeGammaPlan(Catalog* cat) {
  GlobalPlanBuilder b(cat);
  const SchemaPtr us = cat->MustGetTable("users")->schema();
  b.AddQuery("user_orders",
             logical::HashJoin(
                 logical::Scan("users", Expr::Eq(Expr::Column(*us, "user_id"),
                                                 Expr::Param(0))),
                 logical::Scan("orders"), "user_id", "user_id", nullptr, "u",
                 "o"));
  return b.Build();
}

/// Times StepBatch on a paused server with 48 calls over 8 distinct
/// parameters: Γ must deliver each shared result to every subscriber.
void RunGammaStage(size_t workers, int reps) {
  auto cat = MakeGammaCatalog();
  EngineOptions opts;
  opts.parallel.num_workers = workers;
  Engine engine(MakeGammaPlan(cat.get()), std::move(opts));
  api::ServerOptions sopts;
  sopts.start_paused = true;
  api::Server server(&engine, sopts);
  auto session = server.OpenSession();

  std::vector<int64_t> ns;
  uint64_t saved = 0;
  for (int r = 0; r < reps; ++r) {
    std::vector<api::AsyncResult> futures;
    for (int i = 0; i < 48; ++i) {
      futures.push_back(
          session->ExecuteAsync("user_orders", {Value::Int(i % 8)}));
    }
    const int64_t t0 = NowNs();
    const BatchReport report = server.StepBatch();
    const int64_t t1 = NowNs();
    for (auto& f : futures) f.Get();
    ns.push_back(t1 - t0);
    saved = report.shared_work_saved;
  }
  std::printf("serial_tails/gamma/workers:%zu\t%lld\t%llu\t%d\n", workers,
              static_cast<long long>(Median(ns)),
              static_cast<unsigned long long>(saved), reps);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  std::printf("# serial_tails: merge/group_by ns_per_row, gamma ns_per_batch;"
              " workers:0 = serial path\n");

  const SchemaPtr schema = Schema::Make({{"id", ValueType::kInt},
                                         {"val", ValueType::kInt},
                                         {"name", ValueType::kString}});
  constexpr int kQueries = 12;
  const DQBatch master = MakeInput(schema, args.rows, kQueries);
  std::vector<OpQuery> queries(kQueries);
  for (int q = 0; q < kQueries; ++q) queries[q].id = static_cast<QueryId>(q);

  SortOp sort_op(schema, {{1, true}, {2, false}});
  GroupByOp group_op(schema, {1},
                     {{AggFunc::kCount, -1, "cnt"},
                      {AggFunc::kSum, 0, "sum_id"},
                      {AggFunc::kAvg, 0, "avg_id"},
                      {AggFunc::kMin, 2, "min_name"}});

  for (const size_t w : args.workers) {
    RunOpStage("merge", &sort_op, master, queries, w, args.reps);
    RunOpStage("group_by", &group_op, master, queries, w, args.reps);
    RunGammaStage(w, args.reps);
  }
  return 0;
}
