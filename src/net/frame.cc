#include "net/frame.h"

#include "common/crc32c.h"
#include "common/wire.h"

namespace shareddb {
namespace net {

namespace {

/// Self-delimiting row: count:u16 + values. The per-row count (not the
/// schema's) is what lets ROWS continuations decode standalone and lets the
/// decoder reject a row whose embedded count disagrees with the bytes.
void PutRow(std::string* out, const Tuple& row) {
  wire::PutU16(out, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) wire::PutValue(out, v);
}

bool ReadRow(wire::Reader* r, Tuple* row) {
  uint16_t n;
  if (!r->ReadU16(&n)) return false;
  std::vector<Value> cells(n);
  for (Value& v : cells) {
    if (!r->ReadValue(&v)) return false;
  }
  *row = Tuple(std::move(cells));
  return true;
}

void PutSchema(std::string* out, const Schema& schema) {
  wire::PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    wire::PutString(out, c.name);
    wire::PutU8(out, static_cast<uint8_t>(c.type));
  }
}

bool ReadSchema(wire::Reader* r, SchemaPtr* schema) {
  uint32_t n;
  if (!r->ReadU32(&n)) return false;
  // A hostile column count must not drive a huge reserve: each column costs
  // at least 5 bytes on the wire, so bound by the bytes actually present.
  if (static_cast<size_t>(n) * 5 > r->remaining()) return false;
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    uint8_t type;
    if (!r->ReadString(&c.name) || !r->ReadU8(&type)) return false;
    if (type > static_cast<uint8_t>(ValueType::kString)) return false;
    c.type = static_cast<ValueType>(type);
    cols.push_back(std::move(c));
  }
  *schema = Schema::Make(std::move(cols));
  return true;
}

/// Rough upper bound of one row's wire size (cut point for frame splitting).
size_t RowWireBytes(const Tuple& row) {
  size_t n = 2;  // count:u16
  for (const Value& v : row) {
    n += 1;  // tag
    if (v.type() == ValueType::kString) {
      n += 4 + v.AsString().size();
    } else if (v.type() != ValueType::kNull) {
      n += 8;
    }
  }
  return n;
}

}  // namespace

std::string SealFrame(FrameType type, uint64_t request_id,
                      const std::string& body) {
  std::string payload;
  payload.reserve(9 + body.size());
  wire::PutU8(&payload, static_cast<uint8_t>(type));
  wire::PutU64(&payload, request_id);
  payload.append(body);

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  const uint32_t crc =
      Crc32cExtend(Crc32c(frame.data(), 4), payload.data(), payload.size());
  wire::PutU32(&frame, crc);
  frame.append(payload);
  return frame;
}

DecodeStatus DecodeFrame(std::string_view buf, size_t max_payload,
                         Frame* out, size_t* consumed) {
  if (buf.size() < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  wire::Reader header(buf.data(), kFrameHeaderBytes);
  uint32_t len, crc;
  header.ReadU32(&len);
  header.ReadU32(&crc);
  // Reject hostile lengths before buffering anything: the payload cap also
  // implicitly bounds the read buffer a peer can make us hold.
  if (len > max_payload + 9) return DecodeStatus::kOversized;
  if (buf.size() < kFrameHeaderBytes + len) return DecodeStatus::kNeedMore;
  const uint32_t actual = Crc32cExtend(Crc32c(buf.data(), 4),
                                       buf.data() + kFrameHeaderBytes, len);
  if (actual != crc) return DecodeStatus::kBadCrc;
  wire::Reader r(buf.data() + kFrameHeaderBytes, len);
  uint8_t type;
  if (!r.ReadU8(&type) || !r.ReadU64(&out->request_id)) {
    return DecodeStatus::kBadPayload;
  }
  out->type = static_cast<FrameType>(type);
  out->body.assign(buf.data() + kFrameHeaderBytes + 9, len - 9);
  *consumed = kFrameHeaderBytes + len;
  return DecodeStatus::kFrame;
}

// --- typed bodies ------------------------------------------------------------

std::string EncodeHello(const HelloMsg& m) {
  std::string b;
  wire::PutU32(&b, m.version);
  wire::PutString(&b, m.client_name);
  return b;
}

bool DecodeHello(const std::string& body, HelloMsg* m) {
  wire::Reader r(body);
  return r.ReadU32(&m->version) && r.ReadString(&m->client_name) && r.empty();
}

std::string EncodePong(const PongMsg& m) {
  std::string b;
  wire::PutU32(&b, m.version);
  wire::PutString(&b, m.banner);
  wire::PutU64(&b, m.max_payload);
  return b;
}

bool DecodePong(const std::string& body, PongMsg* m) {
  wire::Reader r(body);
  return r.ReadU32(&m->version) && r.ReadString(&m->banner) &&
         r.ReadU64(&m->max_payload) && r.empty();
}

std::string EncodePrepare(const PrepareMsg& m) {
  std::string b;
  wire::PutString(&b, m.name);
  return b;
}

bool DecodePrepare(const std::string& body, PrepareMsg* m) {
  wire::Reader r(body);
  return r.ReadString(&m->name) && r.empty();
}

std::string EncodeExecute(const ExecuteMsg& m) {
  std::string b;
  wire::PutU8(&b, m.by_name ? 1 : 0);
  wire::PutU32(&b, m.statement_id);
  wire::PutString(&b, m.name);
  wire::PutU32(&b, m.deadline_ms);
  wire::PutU32(&b, static_cast<uint32_t>(m.params.size()));
  for (const Value& v : m.params) wire::PutValue(&b, v);
  return b;
}

bool DecodeExecute(const std::string& body, ExecuteMsg* m) {
  wire::Reader r(body);
  uint8_t by_name;
  uint32_t nparams;
  if (!r.ReadU8(&by_name) || !r.ReadU32(&m->statement_id) ||
      !r.ReadString(&m->name) || !r.ReadU32(&m->deadline_ms) ||
      !r.ReadU32(&nparams)) {
    return false;
  }
  m->by_name = by_name != 0;
  // Each param costs >= 1 byte; a hostile count cannot force a big reserve.
  if (nparams > r.remaining()) return false;
  m->params.clear();
  m->params.reserve(nparams);
  for (uint32_t i = 0; i < nparams; ++i) {
    Value v;
    if (!r.ReadValue(&v)) return false;
    m->params.push_back(std::move(v));
  }
  return r.empty();
}

std::string EncodeFetch(const FetchMsg& m) {
  std::string b;
  wire::PutU64(&b, m.handle);
  wire::PutU8(&b, m.wait ? 1 : 0);
  return b;
}

bool DecodeFetch(const std::string& body, FetchMsg* m) {
  wire::Reader r(body);
  uint8_t wait;
  if (!r.ReadU64(&m->handle) || !r.ReadU8(&wait) || !r.empty()) return false;
  m->wait = wait != 0;
  return true;
}

std::string EncodeCancel(const CancelMsg& m) {
  std::string b;
  wire::PutU64(&b, m.handle);
  wire::PutU8(&b, m.discard ? 1 : 0);
  return b;
}

bool DecodeCancel(const std::string& body, CancelMsg* m) {
  wire::Reader r(body);
  uint8_t discard;
  if (!r.ReadU64(&m->handle) || !r.ReadU8(&discard) || !r.empty()) return false;
  m->discard = discard != 0;
  return true;
}

std::string EncodeError(const ErrorMsg& m) {
  std::string b;
  wire::PutU8(&b, static_cast<uint8_t>(m.code));
  wire::PutString(&b, m.message);
  return b;
}

bool DecodeError(const std::string& body, ErrorMsg* m) {
  wire::Reader r(body);
  uint8_t code;
  if (!r.ReadU8(&code) || !r.ReadString(&m->message) || !r.empty()) {
    return false;
  }
  // Unknown future codes fold to kInternal instead of tearing the decode.
  m->code = code <= static_cast<uint8_t>(StatusCode::kUnavailable)
                ? static_cast<StatusCode>(code)
                : StatusCode::kInternal;
  return true;
}

ErrorMsg ErrorFromStatus(const Status& s) {
  ErrorMsg m;
  m.code = s.code();
  m.message = s.message();
  return m;
}

Status StatusFromError(const ErrorMsg& m) {
  return Status(m.code, m.message);
}

void EncodeResultFrames(uint64_t request_id, const ResultSet& rs, bool ready,
                        uint64_t handle, size_t max_payload,
                        std::vector<std::string>* frames) {
  if (!rs.status.ok()) {
    frames->push_back(SealFrame(FrameType::kError, request_id,
                                EncodeError(ErrorFromStatus(rs.status))));
    return;
  }
  // Per-frame byte budget for the variable part. The margin absorbs the
  // type/request-id prefix and the RESULT/ROWS fixed fields, so every frame
  // sealed under `budget` decodes under `max_payload` on the peer.
  const size_t margin = max_payload / 2 < 2048 ? max_payload / 2 : 2048;
  const size_t budget = max_payload - margin;
  const uint64_t total = ready ? rs.rows.size() : 0;

  // The cap is a hard wire bound, not advisory: a row (or schema) too wide
  // for any frame is unrepresentable, and sealing it anyway would hand the
  // peer an undecodable kOversized frame that kills the connection. Answer
  // with a typed ERROR instead so the client sees a status, not damage.
  bool representable = true;
  for (uint64_t i = 0; i < total && representable; ++i) {
    representable = RowWireBytes(rs.rows[i]) < budget;
  }
  std::string head;
  if (representable) {
    wire::PutU8(&head, ready ? 1 : 0);
    wire::PutU64(&head, handle);
    wire::PutU64(&head, rs.update_count);
    wire::PutDouble(&head, rs.queue_ms);
    wire::PutDouble(&head, rs.exec_ms);
    wire::PutU64(&head, rs.batches_waited);
    wire::PutU64(&head, rs.admission_spills);
    wire::PutU64(&head, rs.shared_work_saved);
    const bool has_schema = ready && rs.schema != nullptr;
    wire::PutU8(&head, has_schema ? 1 : 0);
    if (has_schema) PutSchema(&head, *rs.schema);
    wire::PutU64(&head, total);
    representable = head.size() < budget;
  }
  if (!representable) {
    ErrorMsg e;
    e.code = StatusCode::kResourceExhausted;
    e.message = "result row or schema exceeds the frame payload cap";
    frames->push_back(SealFrame(FrameType::kError, request_id,
                                EncodeError(e)));
    return;
  }

  // Pack rows into the head frame, then ROWS continuations, cutting BEFORE
  // the row that would push the payload past the budget (the head may ship
  // zero rows when the schema leaves no room). Every row was pre-checked to
  // fit an empty continuation, so the loops always make progress.
  size_t i = 0;
  std::string chunk;    // rows of the current frame
  uint32_t in_chunk = 0;
  while (i < total &&
         head.size() + chunk.size() + RowWireBytes(rs.rows[i]) < budget) {
    PutRow(&chunk, rs.rows[i]);
    ++in_chunk;
    ++i;
  }
  wire::PutU32(&head, in_chunk);
  head.append(chunk);
  frames->push_back(SealFrame(FrameType::kResult, request_id, head));

  uint32_t seq = 0;
  while (i < total) {
    chunk.clear();
    in_chunk = 0;
    while (i < total && chunk.size() + RowWireBytes(rs.rows[i]) < budget) {
      PutRow(&chunk, rs.rows[i]);
      ++in_chunk;
      ++i;
    }
    std::string b;
    wire::PutU32(&b, ++seq);
    wire::PutU8(&b, i >= total ? 1 : 0);
    wire::PutU32(&b, in_chunk);
    b.append(chunk);
    frames->push_back(SealFrame(FrameType::kRows, request_id, b));
  }
}

bool DecodeResultHead(const std::string& body, ResultHead* head,
                      std::vector<Tuple>* rows) {
  wire::Reader r(body);
  uint8_t ready, has_schema;
  if (!r.ReadU8(&ready) || !r.ReadU64(&head->handle) ||
      !r.ReadU64(&head->update_count) || !r.ReadDouble(&head->queue_ms) ||
      !r.ReadDouble(&head->exec_ms) || !r.ReadU64(&head->batches_waited) ||
      !r.ReadU64(&head->admission_spills) ||
      !r.ReadU64(&head->shared_work_saved) || !r.ReadU8(&has_schema)) {
    return false;
  }
  head->ready = ready != 0;
  head->schema = nullptr;
  if (has_schema != 0 && !ReadSchema(&r, &head->schema)) return false;
  uint32_t in_frame;
  if (!r.ReadU64(&head->total_rows) || !r.ReadU32(&in_frame)) return false;
  if (in_frame > head->total_rows) return false;
  rows->clear();
  for (uint32_t i = 0; i < in_frame; ++i) {
    Tuple row;
    if (!ReadRow(&r, &row)) return false;
    rows->push_back(std::move(row));
  }
  return r.empty();
}

bool DecodeRows(const std::string& body, RowsMsg* m) {
  wire::Reader r(body);
  uint8_t done;
  uint32_t n;
  if (!r.ReadU32(&m->seq) || !r.ReadU8(&done) || !r.ReadU32(&n)) return false;
  m->done = done != 0;
  m->rows.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Tuple row;
    if (!ReadRow(&r, &row)) return false;
    m->rows.push_back(std::move(row));
  }
  return r.empty();
}

}  // namespace net
}  // namespace shareddb
