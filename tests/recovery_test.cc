// Crash-fault injection tests: the durability stack (Wal, checkpoint,
// Engine group commit) running over storage::FaultyEnv, which can tear
// appends mid-record, ack fsyncs without making bytes durable, fail syncs
// outright, and simulate power loss. Every scenario asserts the recovery
// contract: committed batches survive, damaged tails are truncated, and
// wrong data is never replayed.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/plan_builder.h"
#include "storage/io.h"
#include "storage/wal.h"

namespace shareddb {
namespace {

using storage::FaultInjection;
using storage::FaultyEnv;

SchemaPtr KvSchema() {
  return Schema::Make({{"id", ValueType::kInt}, {"val", ValueType::kInt}});
}

Tuple Kv(int64_t id, int64_t val) { return {Value::Int(id), Value::Int(val)}; }

/// One-table database with insert/update/point-query statements; every
/// ExecuteSyncNamed call runs as its own heartbeat batch (one commit each).
class RecoveryTest : public ::testing::Test {
 protected:
  std::unique_ptr<GlobalPlan> BuildPlan(Catalog* cat) {
    Table* kv = cat->GetTable("kv") != nullptr ? cat->MustGetTable("kv")
                                               : cat->CreateTable("kv", KvSchema());
    if (kv->PhysicalSize() == 0) {
      for (int i = 0; i < 4; ++i) kv->Insert(Kv(i, i * 10), 1);
      cat->snapshots().Reset(1);
    }
    GlobalPlanBuilder b(cat);
    const SchemaPtr s = kv->schema();
    b.AddQuery("get", logical::Scan("kv", Expr::Eq(Expr::Column(*s, "id"),
                                                   Expr::Param(0))));
    b.AddInsert("put", "kv", {Expr::Param(0), Expr::Param(1)});
    b.AddUpdate("bump", "kv",
                {{"val", Expr::Add(Expr::Column(1), Expr::Param(1))}},
                Expr::Eq(Expr::Column(0), Expr::Param(0)));
    return b.Build();
  }

  EngineOptions GroupCommit(FaultyEnv* env, const std::string& wal_path,
                            bool truncate = true) {
    EngineOptions opts;
    opts.durability.mode = DurabilityMode::kGroupCommit;
    opts.durability.wal_path = wal_path;
    opts.durability.env = env;
    opts.durability.truncate_wal = truncate;
    return opts;
  }

  /// The value of row `id` at the catalog's own read snapshot, or -1.
  static int64_t ValueOf(Catalog* cat, int64_t id) {
    int64_t out = -1;
    cat->MustGetTable("kv")->ScanVisible(
        cat->snapshots().ReadSnapshot(), [&](RowId, const Tuple& t) {
          if (t[0].AsInt() == id) out = t[1].AsInt();
          return true;
        });
    return out;
  }
};

// ---------------------------------------------------------------------------
// FaultyEnv semantics (the test double itself must be trustworthy).

TEST_F(RecoveryTest, PowerLossKeepsSyncedPrefixPlusBoundedTail) {
  FaultyEnv env;
  std::unique_ptr<storage::File> f;
  ASSERT_TRUE(env.NewAppendableFile("f", true, &f).ok());
  const std::string durable(100, 'd');
  const std::string volatile_tail(50, 'v');
  ASSERT_TRUE(f->Append(durable.data(), durable.size()).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append(volatile_tail.data(), volatile_tail.size()).ok());
  EXPECT_EQ(env.FileSize("f"), 150u);
  EXPECT_EQ(env.SyncedSize("f"), 100u);

  env.PowerLoss(/*torn_tail_bytes=*/10);
  EXPECT_GE(env.FileSize("f"), 100u);
  EXPECT_LE(env.FileSize("f"), 110u);
  EXPECT_EQ(env.Contents("f").substr(0, 100), durable);

  // The pre-crash handle is wedged; a fresh open works.
  EXPECT_FALSE(f->Append("x", 1).ok());
  std::unique_ptr<storage::File> g;
  ASSERT_TRUE(env.NewAppendableFile("f", false, &g).ok());
  EXPECT_TRUE(g->Append("x", 1).ok());
}

TEST_F(RecoveryTest, CrashBudgetTearsTheCrossingAppend) {
  FaultyEnv env;
  FaultInjection faults;
  faults.crash_after_bytes = 10;
  env.SetFaults("f", faults);
  std::unique_ptr<storage::File> f;
  ASSERT_TRUE(env.NewAppendableFile("f", true, &f).ok());
  ASSERT_TRUE(f->Append("01234567", 8).ok());   // within budget
  EXPECT_FALSE(f->Append("abcdefgh", 8).ok());  // crosses: torn at byte 10
  EXPECT_EQ(env.Contents("f"), "01234567ab");
  EXPECT_FALSE(f->Append("x", 1).ok());  // wedged until cleared
  env.ClearFaults("f");
  std::unique_ptr<storage::File> g;
  ASSERT_TRUE(env.NewAppendableFile("f", false, &g).ok());
  EXPECT_TRUE(g->Append("x", 1).ok());
}

// ---------------------------------------------------------------------------
// WAL over injected faults.

TEST_F(RecoveryTest, DroppedSyncsLoseAckedBatchesOnPowerLoss) {
  // The disk acks fsync but lies. The engine cannot detect this (nobody
  // can); the contract is that recovery still lands on SOME batch boundary
  // — the last truly durable one — instead of corrupt state.
  FaultyEnv env;
  uint64_t durable_end = 0;
  {
    Wal wal("wal", &env);
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 2, 0, Kv(1, 10));
    wal.LogCommit(2);
    ASSERT_TRUE(wal.Sync().ok());  // honest sync: batch 2 is durable
    durable_end = wal.bytes_logged();

    FaultInjection faults;
    faults.drop_syncs = true;
    env.SetFaults("wal", faults);
    wal.LogInsert(0, 3, 1, Kv(2, 20));
    wal.LogCommit(3);
    ASSERT_TRUE(wal.Sync().ok());  // acked... but the disk lied
    EXPECT_EQ(env.SyncedSize("wal"), durable_end);
  }
  env.PowerLoss(/*torn_tail_bytes=*/3);

  Catalog cat;
  cat.CreateTable("kv", KvSchema());
  RecoverOptions opts;
  opts.wal_path = "wal";
  opts.env = &env;
  RecoveryReport report;
  ASSERT_TRUE(Recover(&cat, opts, &report).ok());
  EXPECT_EQ(report.batches_committed, 1u);  // batch 3 is gone
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 2u);
  EXPECT_EQ(cat.MustGetTable("kv")->PhysicalSize(), 1u);
  EXPECT_EQ(env.FileSize("wal"), durable_end);  // torn tail truncated away
}

TEST_F(RecoveryTest, FailedSyncReportsAndRecoveryLandsOnBoundary) {
  FaultyEnv env;
  {
    Wal wal("wal", &env);
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 2, 0, Kv(1, 10));
    wal.LogCommit(2);
    ASSERT_TRUE(wal.Sync().ok());

    FaultInjection faults;
    faults.fail_syncs = true;
    env.SetFaults("wal", faults);
    wal.LogInsert(0, 3, 1, Kv(2, 20));
    wal.LogCommit(3);
    EXPECT_FALSE(wal.Sync().ok());  // honest failure, caller knows
  }
  env.PowerLoss(0);

  Catalog cat;
  cat.CreateTable("kv", KvSchema());
  RecoverOptions opts;
  opts.wal_path = "wal";
  opts.env = &env;
  RecoveryReport report;
  ASSERT_TRUE(Recover(&cat, opts, &report).ok());
  EXPECT_EQ(report.batches_committed, 1u);
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoints under crashes.

TEST_F(RecoveryTest, CrashMidCheckpointKeepsThePreviousCheckpoint) {
  // tmp → fsync → rename means a crash while writing the NEW checkpoint
  // must leave the OLD one loadable, never a torn file under `path`.
  FaultyEnv env;
  Catalog v1;
  Table* t = v1.CreateTable("kv", KvSchema());
  t->Insert(Kv(1, 10), 1);
  v1.snapshots().Reset(1);
  ASSERT_TRUE(WriteCheckpoint(v1, "ckpt", &env).ok());
  const std::string old_bytes = env.Contents("ckpt");

  t->Insert(Kv(2, 20), 2);
  v1.snapshots().Reset(2);
  FaultInjection faults;
  faults.crash_after_bytes = 5;  // tear the tmp file almost immediately
  env.SetFaults("ckpt.tmp", faults);
  EXPECT_FALSE(WriteCheckpoint(v1, "ckpt", &env).ok());
  EXPECT_EQ(env.Contents("ckpt"), old_bytes);  // untouched

  env.PowerLoss(0);
  Catalog fresh;
  fresh.CreateTable("kv", KvSchema());
  ASSERT_TRUE(LoadCheckpoint(&fresh, "ckpt", &env).ok());
  EXPECT_EQ(fresh.MustGetTable("kv")->PhysicalSize(), 1u);
  EXPECT_EQ(fresh.snapshots().ReadSnapshot(), 1u);
}

TEST_F(RecoveryTest, CheckpointSyncFailureLeavesOldCheckpoint) {
  FaultyEnv env;
  Catalog v1;
  Table* t = v1.CreateTable("kv", KvSchema());
  t->Insert(Kv(1, 10), 1);
  v1.snapshots().Reset(1);
  ASSERT_TRUE(WriteCheckpoint(v1, "ckpt", &env).ok());
  const std::string old_bytes = env.Contents("ckpt");

  t->Insert(Kv(2, 20), 2);
  v1.snapshots().Reset(2);
  FaultInjection faults;
  faults.fail_syncs = true;  // the new bytes never become durable
  env.SetFaults("ckpt.tmp", faults);
  EXPECT_FALSE(WriteCheckpoint(v1, "ckpt", &env).ok());
  EXPECT_EQ(env.Contents("ckpt"), old_bytes);
}

TEST_F(RecoveryTest, CorruptCheckpointIsIoErrorNeverPartialState) {
  FaultyEnv env;
  Catalog cat;
  Table* t = cat.CreateTable("kv", KvSchema());
  for (int i = 0; i < 8; ++i) t->Insert(Kv(i, i), 1);
  cat.snapshots().Reset(1);
  ASSERT_TRUE(WriteCheckpoint(cat, "ckpt", &env).ok());
  env.FlipBit("ckpt", env.FileSize("ckpt") / 2);

  Catalog fresh;
  fresh.CreateTable("kv", KvSchema());
  const Status s = LoadCheckpoint(&fresh, "ckpt", &env);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(fresh.MustGetTable("kv")->PhysicalSize(), 0u);  // no partial load
  EXPECT_EQ(fresh.snapshots().ReadSnapshot(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: group commit, wal_status latching, availability.

TEST_F(RecoveryTest, EngineLatchesWalErrorAndKeepsServing) {
  FaultyEnv env;
  Catalog cat;
  Engine engine(BuildPlan(&cat), GroupCommit(&env, "wal"));
  ASSERT_EQ(engine.ExecuteSyncNamed("bump", {Value::Int(0), Value::Int(5)})
                .update_count,
            1u);
  ASSERT_TRUE(engine.wal_status().ok());

  FaultInjection faults;
  faults.fail_syncs = true;
  env.SetFaults("wal", faults);
  engine.ExecuteSyncNamed("bump", {Value::Int(1), Value::Int(5)});
  EXPECT_EQ(engine.wal_status().code(), StatusCode::kIoError);  // latched

  // Availability over durability: the heartbeat keeps serving reads and
  // the in-memory state is current even though the log is stuck.
  ResultSet rs = engine.ExecuteSyncNamed("get", {Value::Int(1)});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 15);
  EXPECT_EQ(engine.wal_status().code(), StatusCode::kIoError);  // still latched
}

TEST_F(RecoveryTest, EngineTornWriteCrashRecoversToBatchBoundary) {
  FaultyEnv env;
  uint64_t boundary_after_two = 0;
  {
    Catalog cat;
    Engine engine(BuildPlan(&cat), GroupCommit(&env, "wal"));
    engine.ExecuteSyncNamed("bump", {Value::Int(0), Value::Int(7)});   // v2
    engine.ExecuteSyncNamed("put", {Value::Int(100), Value::Int(1)});  // v3
    boundary_after_two = engine.wal_bytes_logged();
    ASSERT_EQ(env.SyncedSize("wal"), boundary_after_two);

    // The disk dies partway through the next batch's log append.
    FaultInjection faults;
    faults.crash_after_bytes = 10;
    env.SetFaults("wal", faults);
    engine.ExecuteSyncNamed("bump", {Value::Int(0), Value::Int(100)});  // v4
    EXPECT_FALSE(engine.wal_status().ok());
  }
  env.PowerLoss(/*torn_tail_bytes=*/64);

  Catalog recovered;
  Table* kv = recovered.CreateTable("kv", KvSchema());
  for (int i = 0; i < 4; ++i) kv->RecoverAppendRow(Row{Kv(i, i * 10), 1, kVersionMax});
  recovered.snapshots().Reset(1);
  RecoverOptions opts;
  opts.wal_path = "wal";
  opts.env = &env;
  RecoveryReport report;
  ASSERT_TRUE(Recover(&recovered, opts, &report).ok());
  EXPECT_EQ(report.batches_committed, 2u);  // v2 and v3; the torn v4 is gone
  EXPECT_EQ(recovered.snapshots().ReadSnapshot(), 3u);
  EXPECT_EQ(ValueOf(&recovered, 0), 7);     // v2's bump, not v4's
  EXPECT_EQ(ValueOf(&recovered, 100), 1);   // v3's insert
  EXPECT_EQ(env.FileSize("wal"), boundary_after_two);
}

TEST_F(RecoveryTest, RecoverAppendRecoverRoundTrip) {
  // Crash → recover (truncates the damaged tail) → reopen the SAME log for
  // appending (truncate_wal=false) → commit more → recover again. The
  // second recovery must see pre-crash and post-crash batches seamlessly.
  FaultyEnv env;
  {
    Catalog cat;
    Engine engine(BuildPlan(&cat), GroupCommit(&env, "wal"));
    engine.ExecuteSyncNamed("bump", {Value::Int(0), Value::Int(7)});  // v2
    engine.ExecuteSyncNamed("bump", {Value::Int(1), Value::Int(8)});  // v3
  }
  // Power loss mid-batch: chop 3 bytes off the log — v3's commit record is
  // torn, so batch v3 never happened.
  const std::string full = env.Contents("wal");
  env.SetContents("wal", full.substr(0, full.size() - 3));

  const auto seed_base = [](Catalog* cat) {
    Table* kv = cat->CreateTable("kv", KvSchema());
    for (int i = 0; i < 4; ++i) {
      kv->RecoverAppendRow(Row{Kv(i, i * 10), 1, kVersionMax});
    }
    cat->snapshots().Reset(1);
  };

  Catalog recovered;
  seed_base(&recovered);
  RecoverOptions opts;
  opts.wal_path = "wal";
  opts.env = &env;
  RecoveryReport report;
  ASSERT_TRUE(Recover(&recovered, opts, &report).ok());
  EXPECT_EQ(report.batches_committed, 1u);  // v2 survived, v3 is gone
  EXPECT_GT(report.bytes_discarded, 0u);
  ASSERT_EQ(recovered.snapshots().ReadSnapshot(), 2u);

  // Resume service on the recovered state, APPENDING to the truncated log.
  {
    Engine engine(BuildPlan(&recovered),
                  GroupCommit(&env, "wal", /*truncate=*/false));
    ASSERT_EQ(engine.ExecuteSyncNamed("bump", {Value::Int(2), Value::Int(9)})
                  .update_count,
              1u);  // commits as the NEW v3
    ASSERT_TRUE(engine.wal_status().ok());
  }

  // Final recovery sees the pre-crash batch and the post-recovery batch.
  Catalog final_cat;
  seed_base(&final_cat);
  RecoveryReport final_report;
  ASSERT_TRUE(Recover(&final_cat, opts, &final_report).ok());
  EXPECT_EQ(final_report.batches_committed, 2u);
  EXPECT_EQ(final_report.stop_reason, "eof");
  EXPECT_EQ(final_report.bytes_discarded, 0u);
  EXPECT_EQ(final_cat.snapshots().ReadSnapshot(), 3u);
  EXPECT_EQ(ValueOf(&final_cat, 0), 7);    // old v2
  EXPECT_EQ(ValueOf(&final_cat, 1), 10);   // torn v3 never happened
  EXPECT_EQ(ValueOf(&final_cat, 2), 29);   // new v3 (20 + 9)
}

TEST_F(RecoveryTest, EngineCheckpointPlusLogTailRecovery) {
  // Checkpoint mid-history, keep committing, then recover from checkpoint +
  // log tail: records at or before the checkpoint version must be skipped.
  FaultyEnv env;
  {
    Catalog cat;
    Engine engine(BuildPlan(&cat), GroupCommit(&env, "wal"));
    engine.ExecuteSyncNamed("put", {Value::Int(100), Value::Int(1)});  // v2
    ASSERT_TRUE(engine.Checkpoint("ckpt").ok());
    engine.ExecuteSyncNamed("bump", {Value::Int(100), Value::Int(5)});  // v3
  }
  Catalog recovered;
  recovered.CreateTable("kv", KvSchema());  // checkpoint stores rows, not schema
  RecoverOptions opts;
  opts.checkpoint_path = "ckpt";
  opts.wal_path = "wal";
  opts.env = &env;
  RecoveryReport report;
  ASSERT_TRUE(Recover(&recovered, opts, &report).ok());
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.batches_committed, 1u);  // only v3 lies beyond the checkpoint
  EXPECT_EQ(recovered.snapshots().ReadSnapshot(), 3u);
  EXPECT_EQ(ValueOf(&recovered, 100), 6);  // 1 from v2 (checkpoint) + 5 from v3
}

// Vacuum compacts a table and renumbers its rows, while WAL update and
// delete records name rows by physical position: replayed into a catalog
// that was never compacted, they close the wrong rows (this workload once
// recovered 9 visible rows for 4 ids). Until WAL records carry logical row
// ids the engine refuses vacuum with a WAL; with the refusal lifted, the
// vacuum run must recover exactly like the run without vacuum.
TEST_F(RecoveryTest, RecoveryWithVacuumKeepsOneRowPerId) {
  for (const int vacuum : {0, 1}) {
    SCOPED_TRACE("vacuum_interval=" + std::to_string(vacuum));
    FaultyEnv env;
    Catalog cat;
    EngineOptions eopts = GroupCommit(&env, "wal");
    eopts.vacuum_interval = vacuum;
    Engine engine(BuildPlan(&cat), eopts);
    for (const int64_t id : {0, 2, 0, 2, 0, 2, 3, 1}) {
      const ResultSet rs = engine.ExecuteSyncNamed("bump", {Value::Int(id), Value::Int(5)});
      EXPECT_EQ(rs.status.code(), engine.init_status().code());
    }
    if (!engine.init_status().ok()) {
      EXPECT_EQ(engine.init_status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(env.FileExists("wal"));  // refused before opening a log
      EXPECT_EQ(ValueOf(&cat, 0), 0);       // and before applying anything
      continue;
    }

    Catalog recovered;
    Table* kv = recovered.CreateTable("kv", KvSchema());
    for (int i = 0; i < 4; ++i) kv->RecoverAppendRow(Row{Kv(i, i * 10), 1, kVersionMax});
    recovered.snapshots().Reset(1);
    RecoverOptions ropts;
    ropts.wal_path = "wal";
    ropts.env = &env;
    RecoveryReport report;
    ASSERT_TRUE(Recover(&recovered, ropts, &report).ok());
    EXPECT_EQ(report.batches_committed, 8u);
    EXPECT_EQ(kv->VisibleCount(recovered.snapshots().ReadSnapshot()), 4u);
    for (int64_t id = 0; id < 4; ++id) {
      EXPECT_EQ(ValueOf(&recovered, id), ValueOf(&cat, id)) << "id " << id;
    }
    EXPECT_EQ(ValueOf(&recovered, 0), 15);
    EXPECT_EQ(ValueOf(&recovered, 2), 35);
  }
}

}  // namespace
}  // namespace shareddb
