// Durability tests: WAL append/replay, commit filtering (atomic batches),
// checkpoint round-trip, full recovery, torn-tail tolerance.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "runtime/task_pool.h"
#include "storage/wal.h"

namespace shareddb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sdb_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& f) const { return (dir_ / f).string(); }

  static SchemaPtr S() {
    return Schema::Make({{"id", ValueType::kInt},
                         {"name", ValueType::kString},
                         {"score", ValueType::kDouble}});
  }
  static Tuple R(int64_t id, const std::string& n, double s) {
    return {Value::Int(id), Value::Str(n), Value::Double(s)};
  }

  /// XORs 0x10 into one byte of a real file (media corruption by hand).
  static void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::filesystem::path dir_;
};

TEST_F(WalTest, AppendAndReplayRoundTrip) {
  Wal wal(Path("wal"));
  ASSERT_TRUE(wal.Open(true).ok());
  wal.LogInsert(0, 1, 0, R(1, "ann", 1.5));
  wal.LogUpdate(0, 2, 0, R(1, "ann", 2.5));
  wal.LogDelete(1, 2, 7);
  wal.LogCommit(2);
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Close().ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord& r) {
                records.push_back(r);
              }).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].op, WalOp::kInsert);
  EXPECT_EQ(records[0].tuple[1].AsString(), "ann");
  EXPECT_EQ(records[1].op, WalOp::kUpdate);
  EXPECT_DOUBLE_EQ(records[1].tuple[2].AsDouble(), 2.5);
  EXPECT_EQ(records[2].op, WalOp::kDelete);
  EXPECT_EQ(records[2].table_id, 1u);
  EXPECT_EQ(records[2].row, 7u);
  EXPECT_EQ(records[3].op, WalOp::kCommit);
  EXPECT_EQ(records[3].version, 2u);
}

TEST_F(WalTest, ConcurrentAppendsStaySerialized) {
  // Table write observers fire from whichever thread mutates the table;
  // plan nodes updating different tables on the pool make that several
  // threads against ONE shared log. Every record must land complete — interleaved bytes would
  // corrupt the tail (and replay would silently stop there).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  Wal wal(Path("wal"));
  ASSERT_TRUE(wal.Open(true).ok());
  {
    TaskPool pool(kThreads);
    TaskGroup group(&pool);
    for (int t = 0; t < kThreads; ++t) {
      group.Run([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          wal.LogInsert(static_cast<uint32_t>(t), 1,
                        static_cast<RowId>(t * kPerThread + i),
                        R(t * kPerThread + i, "row" + std::to_string(i), i * 0.5));
        }
      });
    }
    group.Wait();
  }
  wal.LogCommit(1);
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_EQ(wal.records_written(), kThreads * kPerThread + 1u);

  size_t records = 0;
  std::vector<size_t> per_table(kThreads, 0);
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord& r) {
                ++records;
                if (r.op == WalOp::kInsert) {
                  ASSERT_LT(r.table_id, static_cast<uint32_t>(kThreads));
                  ASSERT_EQ(r.tuple.size(), 3u);
                  ++per_table[r.table_id];
                }
              }).ok());
  EXPECT_EQ(records, kThreads * kPerThread + 1u);  // no torn tail, no loss
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_table[static_cast<size_t>(t)], static_cast<size_t>(kPerThread));
  }
}

TEST_F(WalTest, CountersReadableWhileWritersAppend) {
  // Regression (TSan): records_written()/bytes_logged() are polled by
  // monitors and the crash fuzzer while write observers append under the
  // log mutex. The counters were plain uint64_t once — a data race even
  // though the torn reads were "only" telemetry. Now atomics; this test
  // makes the racing reader explicit so TSan guards the fix.
  constexpr int kThreads = 2;
  constexpr int kPerThread = 200;
  Wal wal(Path("wal"));
  ASSERT_TRUE(wal.Open(true).ok());
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    uint64_t last_records = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t r = wal.records_written();
      EXPECT_GE(r, last_records);  // monotone while the log stays open
      EXPECT_GE(wal.bytes_logged(), 0u);
      last_records = r;
    }
  });
  {
    TaskPool pool(kThreads);
    TaskGroup group(&pool);
    for (int t = 0; t < kThreads; ++t) {
      group.Run([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          wal.LogInsert(0, 1, static_cast<RowId>(t * kPerThread + i),
                        R(i, "r", 1.0));
        }
      });
    }
    group.Wait();
  }
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(wal.records_written(), kThreads * kPerThread);
  (void)wal.Close();  // test tempdir teardown discards the file anyway
}

TEST_F(WalTest, ReplayMissingFileIsNotFound) {
  const Status s = Wal::Replay(Path("nonexistent"), [](const WalRecord&) {});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(WalTest, RecoverAppliesOnlyCommittedVersions) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "committed", 1));
    wal.LogCommit(1);
    wal.LogInsert(0, 2, 1, R(2, "uncommitted", 2));
    // No commit record for version 2 (crash mid-batch).
    ASSERT_TRUE(wal.Flush().ok());
  }
  Catalog cat;
  cat.CreateTable("t", S());
  ASSERT_TRUE(Recover(&cat, "", Path("wal")).ok());
  Table* t = cat.MustGetTable("t");
  EXPECT_EQ(t->VisibleCount(1), 1u);
  EXPECT_EQ(t->PhysicalSize(), 1u);  // the uncommitted insert was dropped
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 1u);
}

TEST_F(WalTest, RecoverReplaysUpdateChains) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "v1", 1));
    wal.LogCommit(1);
    wal.LogUpdate(0, 2, 0, R(1, "v2", 2));
    wal.LogCommit(2);
    wal.LogDelete(0, 3, 1);  // deletes the updated version (row id 1)
    wal.LogCommit(3);
    ASSERT_TRUE(wal.Flush().ok());
  }
  Catalog cat;
  cat.CreateTable("t", S());
  ASSERT_TRUE(Recover(&cat, "", Path("wal")).ok());
  Table* t = cat.MustGetTable("t");
  EXPECT_EQ(t->VisibleCount(1), 1u);
  EXPECT_EQ(t->VisibleCount(2), 1u);
  EXPECT_EQ(t->VisibleCount(3), 0u);
  size_t n2 = 0;
  t->ScanVisible(2, [&](RowId, const Tuple& row) {
    EXPECT_EQ(row[1].AsString(), "v2");
    ++n2;
    return true;
  });
  EXPECT_EQ(n2, 1u);
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 3u);
}

TEST_F(WalTest, CheckpointRoundTrip) {
  Catalog cat;
  Table* t = cat.CreateTable("t", S());
  t->Insert(R(1, "a", 1), 1);
  const RowId r = t->Insert(R(2, "b", 2), 1);
  t->UpdateRow(r, R(2, "b2", 3), 2);
  cat.snapshots().Reset(2);
  ASSERT_TRUE(WriteCheckpoint(cat, Path("ckpt")).ok());

  Catalog fresh;
  fresh.CreateTable("t", S());
  ASSERT_TRUE(LoadCheckpoint(&fresh, Path("ckpt")).ok());
  Table* ft = fresh.MustGetTable("t");
  EXPECT_EQ(ft->PhysicalSize(), 3u);
  EXPECT_EQ(ft->VisibleCount(1), 2u);
  EXPECT_EQ(ft->VisibleCount(2), 2u);
  EXPECT_EQ(fresh.snapshots().ReadSnapshot(), 2u);
  size_t hits = 0;
  ft->ScanVisible(2, [&](RowId, const Tuple& row) {
    if (row[0].AsInt() == 2) {
      EXPECT_EQ(row[1].AsString(), "b2");
      ++hits;
    }
    return true;
  });
  EXPECT_EQ(hits, 1u);
}

TEST_F(WalTest, RecoverFromCheckpointPlusTail) {
  // Build state: checkpoint after version 1, WAL tail for versions 2..3.
  Catalog cat;
  Table* t = cat.CreateTable("t", S());
  t->Insert(R(1, "base", 1), 1);
  cat.snapshots().Reset(1);
  ASSERT_TRUE(WriteCheckpoint(cat, Path("ckpt")).ok());
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    // Version 1 records would be in the checkpoint; replay must skip them.
    wal.LogInsert(0, 1, 0, R(1, "base", 1));
    wal.LogCommit(1);
    wal.LogInsert(0, 2, 1, R(2, "tail", 2));
    wal.LogCommit(2);
    wal.LogUpdate(0, 3, 0, R(1, "patched", 9));
    wal.LogCommit(3);
    ASSERT_TRUE(wal.Flush().ok());
  }
  Catalog fresh;
  fresh.CreateTable("t", S());
  ASSERT_TRUE(Recover(&fresh, Path("ckpt"), Path("wal")).ok());
  Table* ft = fresh.MustGetTable("t");
  EXPECT_EQ(ft->VisibleCount(3), 2u);
  EXPECT_EQ(fresh.snapshots().ReadSnapshot(), 3u);
  bool saw_patched = false;
  ft->ScanVisible(3, [&](RowId, const Tuple& row) {
    if (row[1].AsString() == "patched") saw_patched = true;
    return true;
  });
  EXPECT_TRUE(saw_patched);
}

TEST_F(WalTest, TornTailIsIgnored) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "good", 1));
    wal.LogCommit(1);
    ASSERT_TRUE(wal.Flush().ok());
  }
  // Append garbage simulating a torn write.
  {
    std::FILE* f = std::fopen(Path("wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = {0x01, 0x02};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  std::vector<WalRecord> records;
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord& r) {
                records.push_back(r);
              }).ok());
  EXPECT_EQ(records.size(), 2u);  // the garbage tail is dropped
}

TEST_F(WalTest, RecoverWithoutAnyFilesIsOk) {
  Catalog cat;
  cat.CreateTable("t", S());
  EXPECT_TRUE(Recover(&cat, Path("no_ckpt"), Path("no_wal")).ok());
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 0u);
}

TEST_F(WalTest, EmptyLogRecoversToEmptyState) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    ASSERT_TRUE(wal.Sync().ok());  // just the header
  }
  Catalog cat;
  cat.CreateTable("t", S());
  RecoverOptions opts;
  opts.wal_path = Path("wal");
  RecoveryReport report;
  ASSERT_TRUE(Recover(&cat, opts, &report).ok());
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.batches_committed, 0u);
  EXPECT_EQ(report.bytes_discarded, 0u);
  EXPECT_EQ(cat.MustGetTable("t")->PhysicalSize(), 0u);
}

TEST_F(WalTest, CorruptChecksumHidesLaterRecords) {
  // A bad CRC mid-file must stop replay THERE: the intact-looking records
  // after it are unreachable (their batch's prefix is gone) and replaying
  // them would resurrect writes whose predecessors were lost.
  uint64_t first_record_end = 0;
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "first", 1));
    first_record_end = wal.bytes_logged();
    wal.LogCommit(1);
    wal.LogInsert(0, 2, 1, R(2, "second", 2));
    wal.LogCommit(2);
    ASSERT_TRUE(wal.Sync().ok());
  }
  FlipByte(Path("wal"), first_record_end - 1);  // payload byte of record 1

  std::vector<WalRecord> records;
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord& r) {
                records.push_back(r);
              }).ok());
  EXPECT_TRUE(records.empty());  // nothing before the corruption

  Catalog cat;
  cat.CreateTable("t", S());
  RecoverOptions opts;
  opts.wal_path = Path("wal");
  RecoveryReport report;
  ASSERT_TRUE(Recover(&cat, opts, &report).ok());
  EXPECT_EQ(report.stop_reason, "bad-crc");
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.batches_committed, 0u);
  EXPECT_GT(report.bytes_discarded, 0u);
  EXPECT_EQ(cat.MustGetTable("t")->PhysicalSize(), 0u);  // never wrong data
}

TEST_F(WalTest, FlippedLengthWordCannotDerailReplay) {
  // The CRC covers the length word, so framing damage is caught as a
  // checksum mismatch instead of sending the reader to a bogus offset.
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "a", 1));
    wal.LogCommit(1);
    ASSERT_TRUE(wal.Sync().ok());
  }
  FlipByte(Path("wal"), 8);  // first byte of the first record's length word
  std::vector<WalRecord> records;
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord& r) {
                records.push_back(r);
              }).ok());
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, CorruptHeaderIsHardError) {
  // A damaged tail is a crash; a damaged HEADER is the wrong file (or an
  // overwritten one) — silently treating it as empty would discard a log.
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogCommit(1);
    ASSERT_TRUE(wal.Sync().ok());
  }
  FlipByte(Path("wal"), 0);
  const Status s = Wal::Replay(Path("wal"), [](const WalRecord&) {});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  Catalog cat;
  cat.CreateTable("t", S());
  EXPECT_EQ(Recover(&cat, "", Path("wal")).code(), StatusCode::kIoError);
}

TEST_F(WalTest, UncommittedTailIsTruncatedByRecover) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "committed", 1));
    wal.LogCommit(1);
    wal.LogInsert(0, 2, 1, R(2, "unsealed", 2));  // batch 2 never commits
    ASSERT_TRUE(wal.Sync().ok());
  }
  Catalog cat;
  cat.CreateTable("t", S());
  RecoverOptions opts;
  opts.wal_path = Path("wal");
  RecoveryReport report;
  ASSERT_TRUE(Recover(&cat, opts, &report).ok());
  EXPECT_EQ(report.batches_committed, 1u);
  EXPECT_GT(report.bytes_discarded, 0u);
  // The tail is physically gone: a second recovery finds a clean log.
  Catalog cat2;
  cat2.CreateTable("t", S());
  RecoveryReport report2;
  ASSERT_TRUE(Recover(&cat2, opts, &report2).ok());
  EXPECT_EQ(report2.bytes_discarded, 0u);
  EXPECT_EQ(report2.stop_reason, "eof");
  EXPECT_EQ(cat2.MustGetTable("t")->PhysicalSize(), 1u);
}

TEST_F(WalTest, BytesLoggedMatchesFileSizeAfterSync) {
  Wal wal(Path("wal"));
  ASSERT_TRUE(wal.Open(true).ok());
  wal.LogInsert(0, 1, 0, R(1, "a", 1));
  wal.LogCommit(1);
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.bytes_logged(), std::filesystem::file_size(Path("wal")));
  ASSERT_TRUE(wal.Close().ok());
}

TEST_F(WalTest, ReopenAppendPreservesHistory) {
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(true).ok());
    wal.LogInsert(0, 1, 0, R(1, "first", 1));
    wal.LogCommit(1);
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    Wal wal(Path("wal"));
    ASSERT_TRUE(wal.Open(false).ok());  // append; header must validate
    wal.LogInsert(0, 2, 1, R(2, "second", 2));
    wal.LogCommit(2);
    ASSERT_TRUE(wal.Close().ok());
  }
  size_t records = 0;
  ASSERT_TRUE(Wal::Replay(Path("wal"), [&](const WalRecord&) {
                ++records;
              }).ok());
  EXPECT_EQ(records, 4u);
  Catalog cat;
  cat.CreateTable("t", S());
  ASSERT_TRUE(Recover(&cat, "", Path("wal")).ok());
  EXPECT_EQ(cat.MustGetTable("t")->VisibleCount(2), 2u);
  EXPECT_EQ(cat.snapshots().ReadSnapshot(), 2u);
}

}  // namespace
}  // namespace shareddb
