// Logic shared by the two processes of the wall-clock TPC-W benchmark
// (perfbench_server, perfbench_loadgen) and unit-tested by logic_test.cc:
// workload definitions, percentile math that counts failures as misses,
// wire-time subtraction, per-operator work aggregation, reassembly of
// pipelined replies, and a small JSON writer for the result records.
//
// Nothing here depends on src/sim.

#ifndef SHAREDDB_PERFBENCH_BENCH_LOGIC_H_
#define SHAREDDB_PERFBENCH_BENCH_LOGIC_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "core/work_stats.h"
#include "net/frame.h"
#include "tpcw/params.h"

namespace shareddb {
namespace perfbench {

// --- workloads ---------------------------------------------------------------

enum class Workload { kBrowsing, kOrdering, kPointLookup };

/// Parses "browsing" / "ordering" / "point_lookup".
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// The one database every workload uses: 10,000 items, 100 EBs' worth of
/// customers (28,800) and orders (25,920).
tpcw::TpcwScale BenchScale();

/// Closed-loop clients: EBs for the TPC-W mixes, outstanding calls for
/// point_lookup.
int ClientSlots(Workload w);

/// Seed of the database population, derived from the run's seed.
uint64_t DatabaseSeed(uint64_t seed);
/// Seed of client slot `slot`'s input stream.
uint64_t SlotSeed(uint64_t seed, int slot);

// --- latency samples -----------------------------------------------------------

/// Latency samples of one kind. A failed or refused call is recorded as
/// +infinity, so it misses every latency limit: it sorts past every
/// success and percentiles that land on it read +infinity. Samples are
/// kept as float (7 significant digits) to halve the memory of long runs.
class LatencySamples {
 public:
  void Add(double ms) { samples_.push_back(static_cast<float>(ms)); }
  void AddFailure();
  void Append(const LatencySamples& other);

  size_t count() const { return samples_.size(); }
  size_t failures() const;

  /// Nearest-rank percentile, p in (0, 1]: the smallest sample with at
  /// least p * count() samples at or below it. 0 when empty.
  double Percentile(double p) const;
  /// Mean of the finite samples (0 when there are none).
  double FiniteMean() const;

 private:
  // Sorted lazily by Percentile().
  mutable std::vector<float> samples_;
  mutable bool sorted_ = false;
};

/// Wire time of one statement: client-observed latency minus the engine's
/// own share as the RESULT head reports it (queue_ms + exec_ms). What is
/// left is Γ routing, future fulfilment, the reaper, encode, socket and
/// decode on both sides.
double WireMs(double client_ms, const net::ResultHead& head);

// --- per-operator work ---------------------------------------------------------

/// BatchReport::node_stats summed over batches, by SharedOp::kind_name().
struct OpWork {
  std::map<std::string, uint64_t> work_by_kind;  // WorkStats::Total() per kind
  WorkStats counters;                            // all nodes, all batches
  uint64_t statements = 0;                       // admitted statements

  /// Adds one batch: `node_kinds[i]` is node i's kind name and
  /// `node_stats[i]` its work (a shorter stats vector covers a prefix).
  void AddBatch(const std::vector<std::string>& node_kinds,
                const std::vector<WorkStats>& node_stats, size_t admitted);
};

/// The 11 WorkStats counters as (name, value) pairs, in declaration order.
std::vector<std::pair<std::string, uint64_t>> CounterFields(const WorkStats& w);

// --- pipelined reply reassembly --------------------------------------------------

/// One complete server reply: a RESULT head plus all of its ROWS
/// continuations, an ERROR, or a PONG.
struct Reply {
  uint64_t request_id = 0;
  net::FrameType type = net::FrameType::kResult;
  Status status;           // OK unless type == kError
  net::ResultHead head;    // RESULT only
  std::vector<Tuple> rows; // RESULT only: head + continuation rows
  std::string body;        // PONG only: the raw body
};

/// Decodes the byte stream of one connection on which many requests are in
/// flight at once. Replies complete in whatever order the server finished
/// them; a RESULT whose rows continue in ROWS frames stays partial until
/// its last continuation arrives, even with other requests' frames in
/// between. Every frame goes through the public net/frame.h codec.
class ReplyAssembler {
 public:
  explicit ReplyAssembler(size_t max_payload = net::kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends `n` bytes and decodes every complete frame in the buffer;
  /// finished replies are appended to `*out`. Returns false on any framing
  /// or body decoding failure (the connection is then unusable; error()
  /// says why).
  bool Feed(const char* data, size_t n, std::vector<Reply>* out);

  /// When on, time spent inside codec calls accumulates in decode_ns().
  void set_timing(bool on) { timing_ = on; }
  uint64_t decode_ns() const { return decode_ns_; }

  size_t partial_replies() const { return partial_.size(); }
  size_t buffered_bytes() const { return buf_.size(); }
  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why);
  bool DecodeOne(const net::Frame& f, std::vector<Reply>* out);

  const size_t max_payload_;
  std::string buf_;
  std::string frame_;  // scratch: one frame's bytes
  std::unordered_map<uint64_t, Reply> partial_;
  bool timing_ = false;
  uint64_t decode_ns_ = 0;
  std::string error_;
};

// --- JSON output -------------------------------------------------------------------

/// Minimal JSON object writer for the one-line records the processes print.
/// Doubles are written with 17 significant digits (non-finite as null).
class JsonWriter {
 public:
  JsonWriter& Begin(const char* key = nullptr);  // opens an object
  JsonWriter& End();
  JsonWriter& Field(const char* key, double v);
  JsonWriter& Field(const char* key, uint64_t v);
  JsonWriter& Field(const char* key, int64_t v);
  JsonWriter& Field(const char* key, int v) {
    return Field(key, static_cast<int64_t>(v));
  }
  JsonWriter& Field(const char* key, bool v);
  JsonWriter& Field(const char* key, const std::string& v);
  JsonWriter& Field(const char* key, const char* v) {
    return Field(key, std::string(v));
  }
  /// Writes `json`, already serialized, as the value of `key`.
  JsonWriter& Raw(const char* key, const std::string& json);
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key);
  std::string out_;
  std::vector<bool> first_;  // per open object: no field written yet
};

/// Quotes and escapes `s` as a JSON string.
std::string JsonQuote(const std::string& s);

/// `v` as a JSON array of numbers (for JsonWriter::Raw).
std::string JsonArray(const std::vector<double>& v);

}  // namespace perfbench
}  // namespace shareddb

#endif  // SHAREDDB_PERFBENCH_BENCH_LOGIC_H_
