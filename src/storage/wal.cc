#include "storage/wal.h"

#include <cstring>
#include <set>
#include <utility>

#include "common/crc32c.h"

namespace shareddb {

namespace {

// --- primitive (de)serialization, little-endian host assumed -----------------

void PutU8(std::string* s, uint8_t v) {
  s->push_back(static_cast<char>(v));
}
void PutU32(std::string* s, uint32_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* s, uint64_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(std::string* s, int64_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* s, double v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Bounds-checked forward reader over a byte buffer.
struct Cursor {
  const char* p;
  size_t n;
  size_t pos = 0;

  bool Get(void* out, size_t k) {
    if (pos + k > n) return false;
    std::memcpy(out, p + pos, k);
    pos += k;
    return true;
  }
  bool GetU8(uint8_t* v) { return Get(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return Get(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return Get(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return Get(v, sizeof(*v)); }
  bool GetF64(double* v) { return Get(v, sizeof(*v)); }
};

void PutValue(std::string* s, const Value& v) {
  PutU8(s, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutI64(s, v.AsInt());
      break;
    case ValueType::kDouble:
      PutF64(s, v.AsDouble());
      break;
    case ValueType::kString: {
      const std::string& str = v.AsString();
      PutU32(s, static_cast<uint32_t>(str.size()));
      s->append(str);
      break;
    }
  }
}

bool GetValue(Cursor* c, Value* out) {
  uint8_t tag;
  if (!c->GetU8(&tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt: {
      int64_t i;
      if (!c->GetI64(&i)) return false;
      *out = Value::Int(i);
      return true;
    }
    case ValueType::kDouble: {
      double d;
      if (!c->GetF64(&d)) return false;
      *out = Value::Double(d);
      return true;
    }
    case ValueType::kString: {
      uint32_t len;
      if (!c->GetU32(&len)) return false;
      if (c->pos + len > c->n) return false;
      std::string s(c->p + c->pos, len);
      c->pos += len;
      *out = Value::Str(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

void PutTuple(std::string* s, const Tuple& t) {
  PutU32(s, static_cast<uint32_t>(t.size()));
  for (const Value& v : t) PutValue(s, v);
}

bool GetTuple(Cursor* c, Tuple* t) {
  uint32_t n;
  if (!c->GetU32(&n)) return false;
  std::vector<Value> cells;
  cells.reserve(n < 4096 ? n : 4096);  // n is untrusted until its cells decode
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!GetValue(c, &v)) return false;
    cells.push_back(std::move(v));
  }
  *t = Tuple(std::move(cells));
  return true;
}

constexpr uint32_t kWalMagic = 0x53444257;   // "SDBW"
constexpr uint32_t kCkptMagic = 0x53444243;  // "SDBC"
constexpr uint32_t kWalFormatVersion = 2;
constexpr uint32_t kCkptFormatVersion = 2;
constexpr size_t kHeaderBytes = 8;  // magic + format version
constexpr size_t kFrameBytes = 8;   // len + crc

std::string EncodeHeader() {
  std::string h;
  PutU32(&h, kWalMagic);
  PutU32(&h, kWalFormatVersion);
  return h;
}

// record := len:u32 crc:u32 payload[len], crc over len_le_bytes || payload.
void EncodeRecord(const WalRecord& rec, std::string* out) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(rec.op));
  PutU32(&payload, rec.table_id);
  PutU64(&payload, rec.version);
  PutU64(&payload, rec.row);
  if (rec.op == WalOp::kInsert || rec.op == WalOp::kUpdate) {
    PutTuple(&payload, rec.tuple);
  }
  std::string len_bytes;
  PutU32(&len_bytes, static_cast<uint32_t>(payload.size()));
  const uint32_t crc = Crc32cExtend(
      Crc32c(len_bytes.data(), len_bytes.size()), payload.data(),
      payload.size());
  out->append(len_bytes);
  PutU32(out, crc);
  out->append(payload);
}

bool DecodePayload(const char* data, size_t n, WalRecord* rec) {
  Cursor c{data, n};
  uint8_t op;
  if (!c.GetU8(&op) || op < 1 || op > 4) return false;
  rec->op = static_cast<WalOp>(op);
  if (!c.GetU32(&rec->table_id) || !c.GetU64(&rec->version) ||
      !c.GetU64(&rec->row)) {
    return false;
  }
  if (rec->op == WalOp::kInsert || rec->op == WalOp::kUpdate) {
    if (!GetTuple(&c, &rec->tuple)) return false;
  }
  return c.pos == n;  // trailing garbage inside a framed record is corruption
}

}  // namespace

Wal::Wal(std::string path, storage::Env* env)
    : path_(std::move(path)), env_(env) {}

// Destructor cannot surface errors; Checkpoint/Close report them in-band.
Wal::~Wal() { (void)Close(); }

Status Wal::Open(bool truncate) {
  // Reopening: an error closing the previous stream does not affect the
  // fresh file; recovery re-scans it anyway.
  (void)Close();
  MutexLock lock(&mu_);
  Status s = env_->NewAppendableFile(path_, truncate, &file_);
  if (!s.ok()) return s;
  pending_.clear();
  records_written_.store(0, std::memory_order_relaxed);
  const uint64_t existing = file_->Size();
  if (existing == 0) {
    pending_ = EncodeHeader();
    bytes_logged_.store(kHeaderBytes, std::memory_order_relaxed);
    return Status::OK();
  }
  // Appending to an existing log: the header must be intact. Recovery
  // truncates damaged tails but never repairs a damaged header.
  if (existing < kHeaderBytes) {
    file_ = nullptr;
    return Status::IoError("torn WAL header in " + path_ + "; recover first");
  }
  std::string data;
  s = env_->ReadFileToString(path_, &data);
  if (!s.ok()) {
    file_ = nullptr;
    return s;
  }
  uint32_t magic, version;
  std::memcpy(&magic, data.data(), 4);
  std::memcpy(&version, data.data() + 4, 4);
  if (magic != kWalMagic || version != kWalFormatVersion) {
    file_ = nullptr;
    return Status::IoError("bad WAL magic in " + path_);
  }
  bytes_logged_.store(existing, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Close() {
  MutexLock lock(&mu_);
  if (file_ == nullptr) return Status::OK();
  Status s = Status::OK();
  if (!pending_.empty()) {
    s = file_->Append(pending_.data(), pending_.size());
    pending_.clear();
  }
  if (s.ok()) s = file_->Flush();
  if (s.ok()) s = file_->Sync();  // close must not silently lose acked batches
  const Status close_s = file_->Close();
  file_ = nullptr;
  return s.ok() ? close_s : s;
}

void Wal::AppendRecord(const WalRecord& rec) {
  MutexLock lock(&mu_);
  SDB_CHECK(file_ != nullptr);
  const size_t before = pending_.size();
  EncodeRecord(rec, &pending_);
  bytes_logged_.fetch_add(pending_.size() - before, std::memory_order_relaxed);
  records_written_.fetch_add(1, std::memory_order_relaxed);
}

void Wal::LogInsert(uint32_t table_id, Version v, RowId row, const Tuple& t) {
  AppendRecord(WalRecord{WalOp::kInsert, table_id, v, row, t});
}

void Wal::LogUpdate(uint32_t table_id, Version v, RowId old_row, const Tuple& t) {
  AppendRecord(WalRecord{WalOp::kUpdate, table_id, v, old_row, t});
}

void Wal::LogDelete(uint32_t table_id, Version v, RowId row) {
  AppendRecord(WalRecord{WalOp::kDelete, table_id, v, row, {}});
}

void Wal::LogCommit(Version v) {
  AppendRecord(WalRecord{WalOp::kCommit, 0, v, 0, {}});
}

Status Wal::Flush() {
  MutexLock lock(&mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (!pending_.empty()) {
    // One Append per batch; on failure the file may hold a torn prefix of
    // it — exactly what recovery is built to chop off. The buffer is
    // dropped either way: retrying would duplicate the landed prefix.
    const Status s = file_->Append(pending_.data(), pending_.size());
    pending_.clear();
    if (!s.ok()) return s;
  }
  return file_->Flush();
}

Status Wal::Sync() {
  const Status s = Flush();
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  return file_->Sync();
}

Status Wal::Scan(const std::string& path, storage::Env* env,
                 const ScanCallback& cb, ScanStats* stats) {
  ScanStats local;
  if (stats == nullptr) stats = &local;
  *stats = ScanStats{};
  std::string data;
  Status s = env->ReadFileToString(path, &data);
  if (!s.ok()) return s;
  if (data.size() < kHeaderBytes) {
    // Crash before the header landed: an empty log, not an error.
    stats->stop_reason = "torn-header";
    return Status::OK();
  }
  uint32_t magic, version;
  std::memcpy(&magic, data.data(), 4);
  std::memcpy(&version, data.data() + 4, 4);
  if (magic != kWalMagic || version != kWalFormatVersion) {
    return Status::IoError("bad WAL magic in " + path);
  }
  size_t pos = kHeaderBytes;
  stats->valid_bytes = pos;
  stats->committed_prefix_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameBytes) {
      stats->stop_reason = "torn-record";
      return Status::OK();
    }
    uint32_t len, crc;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (len > data.size() - pos - kFrameBytes) {
      // Claimed payload runs past EOF: torn write (or a corrupt length
      // word, indistinguishable — and equally unreadable).
      stats->stop_reason = "torn-record";
      return Status::OK();
    }
    const uint32_t actual = Crc32cExtend(Crc32c(data.data() + pos, 4),
                                         data.data() + pos + kFrameBytes, len);
    if (actual != crc) {
      stats->stop_reason = "bad-crc";
      return Status::OK();
    }
    WalRecord rec;
    if (!DecodePayload(data.data() + pos + kFrameBytes, len, &rec)) {
      stats->stop_reason = "decode-error";
      return Status::OK();
    }
    pos += kFrameBytes + len;
    ++stats->records;
    stats->valid_bytes = pos;
    if (rec.op == WalOp::kCommit) {
      ++stats->commits;
      stats->committed_prefix_bytes = pos;
    }
    if (cb) cb(rec, pos);
  }
  stats->stop_reason = "eof";
  return Status::OK();
}

Status Wal::Replay(const std::string& path,
                   const std::function<void(const WalRecord&)>& cb) {
  return Scan(path, storage::Env::Posix(),
              [&cb](const WalRecord& rec, uint64_t) { cb(rec); }, nullptr);
}

Status WriteCheckpoint(const Catalog& catalog, const std::string& path,
                       storage::Env* env) {
  std::string payload;
  PutU64(&payload, catalog.snapshots().ReadSnapshot());
  PutU32(&payload, static_cast<uint32_t>(catalog.NumTables()));
  for (size_t ti = 0; ti < catalog.NumTables(); ++ti) {
    const Table* t = catalog.TableById(ti);
    const std::string& name = t->name();
    PutU32(&payload, static_cast<uint32_t>(name.size()));
    payload.append(name);
    const std::vector<Row> rows = t->DumpRows();
    PutU64(&payload, rows.size());
    for (const Row& r : rows) {
      PutU64(&payload, r.begin);
      PutU64(&payload, r.end);
      PutTuple(&payload, r.data);
    }
  }
  std::string blob;
  PutU32(&blob, kCkptMagic);
  PutU32(&blob, kCkptFormatVersion);
  PutU32(&blob, Crc32c(payload.data(), payload.size()));
  blob.append(payload);

  // tmp → fsync → rename: a crash at any point leaves either the old
  // checkpoint or the new one, never a half-written file under `path`.
  const std::string tmp = path + ".tmp";
  std::unique_ptr<storage::File> f;
  Status s = env->NewAppendableFile(tmp, /*truncate=*/true, &f);
  if (!s.ok()) return s;
  s = f->Append(blob.data(), blob.size());
  if (s.ok()) s = f->Flush();
  if (s.ok()) s = f->Sync();
  const Status close_s = f->Close();
  if (s.ok()) s = close_s;
  if (!s.ok()) return s;
  return env->RenameFile(tmp, path);
}

Status LoadCheckpoint(Catalog* catalog, const std::string& path,
                      storage::Env* env) {
  std::string data;
  Status s = env->ReadFileToString(path, &data);
  if (!s.ok()) return s;
  Cursor c{data.data(), data.size()};
  uint32_t magic, version, crc;
  if (!c.GetU32(&magic) || magic != kCkptMagic) {
    return Status::IoError("bad checkpoint magic");
  }
  if (!c.GetU32(&version) || version != kCkptFormatVersion) {
    return Status::IoError("bad checkpoint format version");
  }
  if (!c.GetU32(&crc)) return Status::IoError("truncated checkpoint header");
  const char* payload = data.data() + c.pos;
  const size_t payload_len = data.size() - c.pos;
  if (Crc32c(payload, payload_len) != crc) {
    return Status::IoError("checkpoint checksum mismatch");
  }
  uint64_t last_committed;
  uint32_t num_tables;
  if (!c.GetU64(&last_committed) || !c.GetU32(&num_tables)) {
    return Status::IoError("truncated checkpoint header");
  }
  for (uint32_t ti = 0; ti < num_tables; ++ti) {
    uint32_t name_len;
    if (!c.GetU32(&name_len) || c.pos + name_len > c.n) {
      return Status::IoError("truncated checkpoint");
    }
    std::string name(data.data() + c.pos, name_len);
    c.pos += name_len;
    Table* table = catalog->GetTable(name);
    if (table == nullptr) {
      return Status::NotFound("checkpointed table missing from catalog: " + name);
    }
    uint64_t row_count;
    if (!c.GetU64(&row_count)) return Status::IoError("truncated checkpoint");
    for (uint64_t i = 0; i < row_count; ++i) {
      Row r;
      if (!c.GetU64(&r.begin) || !c.GetU64(&r.end) || !GetTuple(&c, &r.data)) {
        return Status::IoError("truncated checkpoint row");
      }
      table->RecoverAppendRow(std::move(r));
    }
  }
  catalog->snapshots().Reset(last_committed);
  return Status::OK();
}

Status Recover(Catalog* catalog, const RecoverOptions& opts,
               RecoveryReport* report) {
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport{};
  if (!opts.checkpoint_path.empty()) {
    const Status s = LoadCheckpoint(catalog, opts.checkpoint_path, opts.env);
    if (s.ok()) {
      report->checkpoint_loaded = true;
    } else if (s.code() != StatusCode::kNotFound) {
      return s;
    }
  }
  std::vector<std::pair<WalRecord, uint64_t>> records;
  Wal::ScanStats stats;
  Status s = Wal::Scan(
      opts.wal_path, opts.env,
      [&records](const WalRecord& rec, uint64_t end) {
        records.emplace_back(rec, end);
      },
      &stats);
  if (s.code() == StatusCode::kNotFound) {
    // Missing WAL is fine when a checkpoint (or nothing) restored the state.
    report->stop_reason = "no-wal";
    report->max_committed = catalog->snapshots().ReadSnapshot();
    return Status::OK();
  }
  if (!s.ok()) return s;
  report->stop_reason = stats.stop_reason;

  // Only the committed prefix replays: records past the last intact commit
  // belong to a batch that never sealed — and a restarted engine reuses
  // those version numbers, so replaying them later would alias new batches.
  const uint64_t committed_prefix = stats.committed_prefix_bytes;
  std::set<Version> committed;
  for (const auto& [rec, end] : records) {
    if (end <= committed_prefix && rec.op == WalOp::kCommit) {
      committed.insert(rec.version);
    }
  }
  const Version base = catalog->snapshots().ReadSnapshot();
  Version max_committed = base;
  for (const auto& [rec, end] : records) {
    if (end > committed_prefix) break;
    if (rec.op == WalOp::kCommit) {
      if (rec.version > max_committed) max_committed = rec.version;
      if (rec.version > base) ++report->batches_committed;
      continue;
    }
    if (rec.version <= base) continue;  // already in the checkpoint
    if (committed.find(rec.version) == committed.end()) continue;  // never sealed
    Table* table = catalog->TableById(rec.table_id);
    switch (rec.op) {
      case WalOp::kInsert:
        table->RecoverAppendRow(Row{rec.tuple, rec.version, kVersionMax});
        break;
      case WalOp::kUpdate:
        table->RecoverCloseRow(rec.row, rec.version);
        table->RecoverAppendRow(Row{rec.tuple, rec.version, kVersionMax});
        break;
      case WalOp::kDelete:
        table->RecoverCloseRow(rec.row, rec.version);
        break;
      case WalOp::kCommit:
        break;
    }
    ++report->records_replayed;
  }
  catalog->snapshots().Reset(max_committed);
  report->max_committed = max_committed;

  const uint64_t file_size = opts.env->FileSize(opts.wal_path);
  if (file_size > committed_prefix) {
    report->bytes_discarded = file_size - committed_prefix;
    if (opts.truncate_tail) {
      s = opts.env->TruncateFile(opts.wal_path, committed_prefix);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status Recover(Catalog* catalog, const std::string& checkpoint_path,
               const std::string& wal_path) {
  RecoverOptions opts;
  opts.checkpoint_path = checkpoint_path;
  opts.wal_path = wal_path;
  return Recover(catalog, opts, nullptr);
}

}  // namespace shareddb
