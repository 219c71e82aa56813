// Binary wire protocol: length-prefixed, CRC-framed messages between
// net::Client and net::Server.
//
// Framing reuses the WAL v2 record idiom (wal.h), little-endian:
//
//   frame   := len:u32 crc:u32 payload[len]
//              where crc = CRC32C(len_le_bytes || payload)
//   payload := type:u8 request_id:u64 body
//
// The CRC covers the length word, so a bit-flipped or torn length cannot
// send the reader off the rails: any framing damage surfaces as a checksum
// mismatch (typed ERROR, then close) instead of a wild allocation or an
// out-of-sync stream. A length above the negotiated cap is rejected BEFORE
// buffering the payload — a hostile 4 GiB length costs the server 8 bytes.
//
// Request frames:   HELLO PREPARE EXECUTE EXECUTE_ASYNC FETCH CANCEL GOODBYE
// Response frames:  RESULT ROWS ERROR PONG
//
// Every non-OK engine status travels as an ERROR frame carrying the
// StatusCode ordinal + message, so PR 7's admission taxonomy
// (kResourceExhausted / kDeadlineExceeded / kUnavailable / kAborted)
// reaches network clients unchanged. Large result sets split into one
// RESULT head frame plus ROWS continuation frames, each under the payload
// cap; rows are self-delimiting (per-row value count) so continuations
// decode without the schema.

#ifndef SHAREDDB_NET_FRAME_H_
#define SHAREDDB_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"
#include "core/query.h"

namespace shareddb {
namespace net {

/// Protocol version exchanged in HELLO/PONG. Bump on incompatible change.
constexpr uint32_t kProtocolVersion = 1;

/// Frame header: len:u32 + crc:u32.
constexpr size_t kFrameHeaderBytes = 8;

/// Default payload cap (per frame, excluding the 8-byte header).
constexpr size_t kDefaultMaxPayload = 4u << 20;  // 4 MiB

enum class FrameType : uint8_t {
  // Requests.
  kHello = 1,
  kPrepare = 2,
  kExecute = 3,
  kExecuteAsync = 4,
  kFetch = 5,
  kCancel = 6,
  kGoodbye = 7,
  // Responses (high bit set).
  kResult = 0x81,
  kRows = 0x82,
  kError = 0x83,
  kPong = 0x84,
};

/// One decoded frame: type + request id + raw body bytes.
struct Frame {
  FrameType type = FrameType::kHello;
  uint64_t request_id = 0;
  std::string body;
};

/// Wraps `body` into a wire-ready frame (header + type + request_id + body).
std::string SealFrame(FrameType type, uint64_t request_id,
                      const std::string& body);

/// Incremental decode outcome over a byte buffer.
enum class DecodeStatus {
  kNeedMore,   // buffer holds only part of the next frame
  kFrame,      // one frame decoded; *consumed bytes eaten
  kBadCrc,     // framing damage: checksum mismatch (close the connection)
  kOversized,  // length exceeds the cap (close the connection)
  kBadPayload, // CRC ok but type/request_id missing (close the connection)
};

/// Tries to decode one frame from the front of `buf`. On kFrame, `*out` is
/// filled and `*consumed` is the byte count to drop from the buffer (or to
/// advance past, for a caller that walks a buffer by offset). On kOversized
/// the hostile length is NOT buffered — callers reject after the 8 header
/// bytes.
DecodeStatus DecodeFrame(std::string_view buf, size_t max_payload,
                         Frame* out, size_t* consumed);

// --- typed message bodies ----------------------------------------------------

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string client_name;
};
std::string EncodeHello(const HelloMsg& m);
bool DecodeHello(const std::string& body, HelloMsg* m);

struct PongMsg {
  uint32_t version = kProtocolVersion;
  std::string banner;
  uint64_t max_payload = kDefaultMaxPayload;
};
std::string EncodePong(const PongMsg& m);
bool DecodePong(const std::string& body, PongMsg* m);

struct PrepareMsg {
  std::string name;
};
std::string EncodePrepare(const PrepareMsg& m);
bool DecodePrepare(const std::string& body, PrepareMsg* m);

/// EXECUTE / EXECUTE_ASYNC share one body: statement by id (prepared) or by
/// name, parameter values, and a relative engine-side deadline (0 = none).
struct ExecuteMsg {
  bool by_name = true;
  uint32_t statement_id = 0;
  std::string name;
  uint32_t deadline_ms = 0;
  std::vector<Value> params;
};
std::string EncodeExecute(const ExecuteMsg& m);
bool DecodeExecute(const std::string& body, ExecuteMsg* m);

struct FetchMsg {
  uint64_t handle = 0;
  bool wait = true;  // false = poll: a pending handle answers ready=0
};
std::string EncodeFetch(const FetchMsg& m);
bool DecodeFetch(const std::string& body, FetchMsg* m);

struct CancelMsg {
  uint64_t handle = 0;
  /// true = the client will never FETCH this handle: the server may free
  /// the entry as soon as the (cancelled) terminal result lands. Used by
  /// the client library when an unconsumed async call is abandoned.
  bool discard = false;
};
std::string EncodeCancel(const CancelMsg& m);
bool DecodeCancel(const std::string& body, CancelMsg* m);

/// ERROR carries a StatusCode ordinal + message. Used both for non-OK
/// statement results (request_id = the request's) and protocol-level
/// failures (request_id = 0 when the offending frame could not be parsed).
struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};
std::string EncodeError(const ErrorMsg& m);
bool DecodeError(const std::string& body, ErrorMsg* m);
/// Status -> ErrorMsg (callers guarantee !status.ok()).
ErrorMsg ErrorFromStatus(const Status& s);
Status StatusFromError(const ErrorMsg& m);

/// RESULT head: handshake metadata of one completed (or acknowledged)
/// statement. `ready == false` acknowledges an EXECUTE_ASYNC (handle set)
/// or answers a poll FETCH whose handle is still pending; `ready == true`
/// carries the OK result (non-OK results travel as ERROR frames instead).
struct ResultHead {
  bool ready = true;
  uint64_t handle = 0;
  uint64_t update_count = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  uint64_t batches_waited = 0;
  uint64_t admission_spills = 0;
  uint64_t shared_work_saved = 0;  // batch-level Γ sharing win (rows)
  SchemaPtr schema;        // null when the statement returns no rows
  uint64_t total_rows = 0; // rows across this frame + ROWS continuations
};

/// ROWS continuation: a self-delimiting slice of the result's rows.
struct RowsMsg {
  uint32_t seq = 0;  // 1-based continuation index
  bool done = false; // last slice
  std::vector<Tuple> rows;
};
bool DecodeRows(const std::string& body, RowsMsg* m);

/// Encodes an OK ResultSet (or an async ack when !ready) into one RESULT
/// frame plus as many ROWS continuations as the payload cap requires.
/// Non-OK ResultSets encode as a single ERROR frame, as does a result whose
/// row (or schema) is too wide to fit any frame under `max_payload`
/// (kResourceExhausted) — a frame the peer would reject as oversized is
/// never emitted. Appends wire-ready frames to `*frames`.
void EncodeResultFrames(uint64_t request_id, const ResultSet& rs, bool ready,
                        uint64_t handle, size_t max_payload,
                        std::vector<std::string>* frames);

/// Decodes a RESULT body into head metadata + the rows embedded in this
/// frame (continuations follow as ROWS frames when
/// head->total_rows > rows->size()).
bool DecodeResultHead(const std::string& body, ResultHead* head,
                      std::vector<Tuple>* rows);

}  // namespace net
}  // namespace shareddb

#endif  // SHAREDDB_NET_FRAME_H_
