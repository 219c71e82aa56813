// Durability: write-ahead logging and checkpointing (paper §4.4):
// "Crescando keeps all data in main memory, but it also supports full
// recovery by checkpointing and logging all data to disk."
//
// Physical value logging: every row-version mutation appends one record;
// a commit record seals each batch version. A checkpoint serializes all
// physical rows plus the last committed version; recovery loads the latest
// checkpoint and replays the log tail. Records of uncommitted versions
// (no commit record) are discarded during replay, giving atomic batches.
//
// On-disk format (v2), little-endian:
//
//   file   := header record*
//   header := magic:u32 ("SDBW") version:u32 (2)
//   record := len:u32 crc:u32 payload[len]
//             where crc = CRC32C(len_le_bytes || payload)
//   payload:= op:u8 table_id:u32 version:u64 row:u64 [tuple]
//   tuple  := count:u32 (tag:u8 value)*
//
// The CRC covers the length word, so a torn or bit-flipped length cannot
// send the reader off the rails: any framing damage shows up as a checksum
// mismatch and scanning stops at the last intact record.
//
// Group commit: Log* calls only append to an in-memory buffer; Flush()
// pushes the buffer to the OS and Sync() makes it durable. The engine calls
// Sync() once per heartbeat batch — one fsync covers every update of the
// batch (DurabilityMode::kGroupCommit).

#ifndef SHAREDDB_STORAGE_WAL_H_
#define SHAREDDB_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "storage/catalog.h"
#include "storage/io.h"

namespace shareddb {

/// How much durability each committed batch gets.
enum class DurabilityMode {
  kNone,         // no WAL at all
  kBuffered,     // WAL flushed to the OS per batch; lost on power failure
  kGroupCommit,  // one fsync per heartbeat batch; survives power failure
};

/// Kinds of log records.
enum class WalOp : uint8_t {
  kInsert = 1,  // table, version, rowid, tuple
  kUpdate = 2,  // table, version, old rowid, new tuple (new version appended)
  kDelete = 3,  // table, version, rowid
  kCommit = 4,  // version
};

/// One decoded log record.
struct WalRecord {
  WalOp op = WalOp::kCommit;
  uint32_t table_id = 0;
  Version version = 0;
  RowId row = 0;
  Tuple tuple;
};

/// Append-only log writer/reader.
///
/// Appends are serialized by an internal mutex: table-write observers fire
/// from whichever thread performs the mutation, and plan nodes running on
/// the TaskPool mutate different tables concurrently — without the latch
/// their records would interleave mid-record. Each Log* call appends one complete record atomically to the
/// in-memory buffer; nothing reaches the file until Flush()/Sync().
class Wal {
 public:
  explicit Wal(std::string path, storage::Env* env = storage::Env::Posix());
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens for appending; `truncate` starts a fresh log. Appending to an
  /// existing file validates its header (run recovery first — it truncates
  /// damaged tails, so a recovered log is always safe to append to).
  Status Open(bool truncate) SDB_EXCLUDES(mu_);

  /// Syncs buffered records to disk, then closes the file.
  Status Close() SDB_EXCLUDES(mu_);

  void LogInsert(uint32_t table_id, Version v, RowId row, const Tuple& t);
  void LogUpdate(uint32_t table_id, Version v, RowId old_row, const Tuple& t);
  void LogDelete(uint32_t table_id, Version v, RowId row);
  void LogCommit(Version v);

  /// Pushes buffered records to the OS. Survives a process crash, not a
  /// power failure — call Sync() for that.
  Status Flush() SDB_EXCLUDES(mu_);

  /// Flush() + fsync: everything logged so far survives power failure.
  /// One call per heartbeat batch is the group-commit discipline.
  Status Sync() SDB_EXCLUDES(mu_);

  /// Number of records written since Open. Atomic: read by monitors and the
  /// crash fuzzer while concurrent write observers append under mu_.
  uint64_t records_written() const {
    return records_written_.load(std::memory_order_relaxed);
  }

  /// Logical length of the log in bytes (header + every record logged so
  /// far, buffered or not). After Sync() this equals the durable file size.
  uint64_t bytes_logged() const {
    return bytes_logged_.load(std::memory_order_relaxed);
  }

  /// How a Scan() of the log ended.
  struct ScanStats {
    uint64_t records = 0;        // intact records seen
    uint64_t commits = 0;        // of which commit records
    uint64_t valid_bytes = 0;    // prefix ending at the last intact record
    uint64_t committed_prefix_bytes = 0;  // prefix ending at the last commit
    std::string stop_reason = "eof";  // eof|torn-header|torn-record|bad-crc|decode-error
  };

  using ScanCallback =
      std::function<void(const WalRecord&, uint64_t end_offset)>;

  /// Reads intact records in order, stopping at the first torn or corrupt
  /// one; `end_offset` is the file offset just past each record. A file too
  /// short to hold the header counts as fully torn (0 records), but a
  /// well-formed header with the wrong magic is a hard IoError — that is a
  /// wrong or overwritten file, not a crashed one.
  static Status Scan(const std::string& path, storage::Env* env,
                     const ScanCallback& cb, ScanStats* stats);

  /// Legacy wrapper: all intact records via the POSIX backend.
  static Status Replay(const std::string& path,
                       const std::function<void(const WalRecord&)>& cb);

 private:
  void AppendRecord(const WalRecord& rec) SDB_EXCLUDES(mu_);

  std::string path_;
  storage::Env* env_;
  Mutex mu_{"wal"};  // serializes appends/flush against concurrent observers
  std::unique_ptr<storage::File> file_ SDB_GUARDED_BY(mu_);
  // Encoded records not yet handed to the OS.
  std::string pending_ SDB_GUARDED_BY(mu_);
  // Written under mu_, read lock-free by accessors (see above).
  std::atomic<uint64_t> records_written_{0};
  std::atomic<uint64_t> bytes_logged_{0};
};

/// What Recover() found and did.
struct RecoveryReport {
  uint64_t records_replayed = 0;   // data records applied to the catalog
  uint64_t batches_committed = 0;  // commit records replayed (beyond checkpoint)
  uint64_t bytes_discarded = 0;    // log tail dropped (torn/corrupt/uncommitted)
  Version max_committed = 0;       // snapshot version after recovery
  bool checkpoint_loaded = false;
  std::string stop_reason;         // ScanStats::stop_reason, or "no-wal"
};

struct RecoverOptions {
  std::string checkpoint_path;  // empty: no checkpoint
  std::string wal_path;
  storage::Env* env = storage::Env::Posix();
  /// Physically truncate the log to the committed prefix. Required before
  /// appending: a restarted engine reuses version numbers, so a surviving
  /// uncommitted tail would alias future batches.
  bool truncate_tail = true;
};

/// Serializes all tables + the committed version to `path`, atomically:
/// the bytes go to `path`.tmp, are fsynced, then renamed over `path`, so a
/// crash mid-checkpoint leaves the previous checkpoint intact.
Status WriteCheckpoint(const Catalog& catalog, const std::string& path,
                       storage::Env* env = storage::Env::Posix());

/// Loads a checkpoint into an *empty* catalog whose tables were already
/// created with matching names/schemas (checkpoint stores rows, not schema).
/// The payload is checksummed; corruption is IoError, never partial state.
Status LoadCheckpoint(Catalog* catalog, const std::string& path,
                      storage::Env* env = storage::Env::Posix());

/// Full recovery: load checkpoint (if `checkpoint_path` non-empty and the
/// file exists) then replay the WAL, applying only records of batches whose
/// commit record landed intact. Damaged or uncommitted tails are measured,
/// reported, and (by default) truncated away. Restores the snapshot manager.
Status Recover(Catalog* catalog, const RecoverOptions& opts,
               RecoveryReport* report = nullptr);

/// Legacy wrapper over the POSIX backend with tail truncation.
Status Recover(Catalog* catalog, const std::string& checkpoint_path,
               const std::string& wal_path);

}  // namespace shareddb

#endif  // SHAREDDB_STORAGE_WAL_H_
