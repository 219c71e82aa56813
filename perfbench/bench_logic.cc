#include "bench_logic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace shareddb {
namespace perfbench {

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "browsing") {
    *out = Workload::kBrowsing;
  } else if (name == "ordering") {
    *out = Workload::kOrdering;
  } else if (name == "point_lookup") {
    *out = Workload::kPointLookup;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kBrowsing:
      return "browsing";
    case Workload::kOrdering:
      return "ordering";
    case Workload::kPointLookup:
      return "point_lookup";
  }
  return "?";
}

tpcw::TpcwScale BenchScale() {
  tpcw::TpcwScale s;
  s.num_items = 10000;
  s.num_ebs = 100;
  return s;
}

int ClientSlots(Workload w) {
  // 512, not 256: at 256 the front door flips between a saturated mode and
  // a mode where every thread waits on a handoff (README.md, "Why 512").
  return w == Workload::kPointLookup ? 512 : 128;
}

uint64_t DatabaseSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL + 1; }

uint64_t SlotSeed(uint64_t seed, int slot) {
  return (seed + 1) * 1000003ULL + static_cast<uint64_t>(slot);
}

// --- LatencySamples ------------------------------------------------------------

void LatencySamples::AddFailure() {
  samples_.push_back(std::numeric_limits<float>::infinity());
}

void LatencySamples::Append(const LatencySamples& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

size_t LatencySamples::failures() const {
  return static_cast<size_t>(
      std::count_if(samples_.begin(), samples_.end(),
                    [](float v) { return std::isinf(v); }));
}

double LatencySamples::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(samples_.size());
  // Nearest rank: ceil(p * n), clamped to [1, n]. The small slack keeps
  // p * n that is an integer in exact arithmetic from rounding up.
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::max<size_t>(1, std::min(rank, samples_.size()));
  return samples_[rank - 1];
}

double LatencySamples::FiniteMean() const {
  double sum = 0;
  size_t n = 0;
  for (float v : samples_) {
    if (std::isinf(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double WireMs(double client_ms, const net::ResultHead& head) {
  return client_ms - (head.queue_ms + head.exec_ms);
}

// --- OpWork ----------------------------------------------------------------------

void OpWork::AddBatch(const std::vector<std::string>& node_kinds,
                      const std::vector<WorkStats>& node_stats,
                      size_t admitted) {
  const size_t n = std::min(node_kinds.size(), node_stats.size());
  for (size_t i = 0; i < n; ++i) {
    work_by_kind[node_kinds[i]] += node_stats[i].Total();
    counters.Add(node_stats[i]);
  }
  statements += admitted;
}

std::vector<std::pair<std::string, uint64_t>> CounterFields(const WorkStats& w) {
  return {{"tuples_in", w.tuples_in},
          {"tuples_out", w.tuples_out},
          {"rows_scanned", w.rows_scanned},
          {"hash_builds", w.hash_builds},
          {"hash_probes", w.hash_probes},
          {"comparisons", w.comparisons},
          {"index_lookups", w.index_lookups},
          {"predicate_evals", w.predicate_evals},
          {"agg_updates", w.agg_updates},
          {"updates_applied", w.updates_applied},
          {"qid_elems", w.qid_elems}};
}

// --- ReplyAssembler --------------------------------------------------------------

bool ReplyAssembler::Fail(const std::string& why) {
  if (error_.empty()) error_ = why;
  return false;
}

bool ReplyAssembler::Feed(const char* data, size_t n,
                          std::vector<Reply>* out) {
  if (!error_.empty()) return false;
  buf_.append(data, n);
  // Frames are cut out one at a time and the buffer is compacted once per
  // call, so a burst of many small pipelined replies costs linear time.
  size_t off = 0;
  while (buf_.size() - off >= net::kFrameHeaderBytes) {
    const auto* p = reinterpret_cast<const unsigned char*>(buf_.data() + off);
    const uint32_t len = static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24;  // len:u32 LE
    if (len > max_payload_) return Fail("oversized frame from server");
    const size_t total = net::kFrameHeaderBytes + len;
    if (buf_.size() - off < total) break;
    frame_.assign(buf_, off, total);
    net::Frame f;
    size_t consumed = 0;
    const auto t0 = timing_ ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point();
    const net::DecodeStatus ds =
        net::DecodeFrame(frame_, max_payload_, &f, &consumed);
    if (timing_) {
      decode_ns_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (ds != net::DecodeStatus::kFrame || consumed != total) {
      return Fail("damaged frame from server");
    }
    off += total;
    if (!DecodeOne(f, out)) return false;
  }
  buf_.erase(0, off);
  return true;
}

bool ReplyAssembler::DecodeOne(const net::Frame& f, std::vector<Reply>* out) {
  const auto t0 = timing_ ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point();
  bool ok = true;
  switch (f.type) {
    case net::FrameType::kResult: {
      if (partial_.count(f.request_id) != 0) {
        ok = Fail("second RESULT for a request still receiving rows");
        break;
      }
      Reply r;
      r.request_id = f.request_id;
      r.type = f.type;
      if (!net::DecodeResultHead(f.body, &r.head, &r.rows)) {
        ok = Fail("undecodable RESULT frame");
        break;
      }
      if (r.rows.size() > r.head.total_rows) {
        ok = Fail("RESULT frame carries more rows than its head announces");
      } else if (r.rows.size() < r.head.total_rows) {
        partial_.emplace(f.request_id, std::move(r));
      } else {
        out->push_back(std::move(r));
      }
      break;
    }
    case net::FrameType::kRows: {
      auto it = partial_.find(f.request_id);
      if (it == partial_.end()) {
        ok = Fail("ROWS continuation for no pending RESULT");
        break;
      }
      net::RowsMsg m;
      if (!net::DecodeRows(f.body, &m)) {
        ok = Fail("undecodable ROWS frame");
        break;
      }
      Reply& r = it->second;
      for (Tuple& row : m.rows) r.rows.push_back(std::move(row));
      if (r.rows.size() > r.head.total_rows) {
        ok = Fail("ROWS continuations overrun the announced row count");
      } else if (r.rows.size() == r.head.total_rows) {
        out->push_back(std::move(r));
        partial_.erase(it);
      } else if (m.done) {
        ok = Fail("row stream ended short of the announced row count");
      }
      break;
    }
    case net::FrameType::kError: {
      net::ErrorMsg e;
      if (!net::DecodeError(f.body, &e)) {
        ok = Fail("undecodable ERROR frame");
        break;
      }
      Reply r;
      r.request_id = f.request_id;
      r.type = f.type;
      r.status = net::StatusFromError(e);
      if (r.status.ok()) r.status = Status::Internal("ERROR frame with OK code");
      out->push_back(std::move(r));
      break;
    }
    case net::FrameType::kPong: {
      Reply r;
      r.request_id = f.request_id;
      r.type = f.type;
      r.body = f.body;
      out->push_back(std::move(r));
      break;
    }
    default:
      ok = Fail("unexpected frame type from server");
      break;
  }
  if (timing_) {
    decode_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  return ok;
}

// --- JSON ---------------------------------------------------------------------------

std::string JsonQuote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        q += "\\\"";
        break;
      case '\\':
        q += "\\\\";
        break;
      case '\n':
        q += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          q += esc;
        } else {
          q += c;
        }
    }
  }
  q += '"';
  return q;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char num[32];
    std::snprintf(num, sizeof(num), "%.17g", v[i]);
    if (i > 0) out += ',';
    out += num;
  }
  return out + "]";
}

void JsonWriter::Key(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (key != nullptr) {
    out_ += JsonQuote(key);
    out_ += ':';
  }
}

JsonWriter& JsonWriter::Begin(const char* key) {
  Key(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::End() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, double v) {
  Key(key);
  if (std::isfinite(v)) {
    char num[32];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out_ += num;
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, uint64_t v) {
  Key(key);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, int64_t v) {
  Key(key);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, bool v) {
  Key(key);
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const char* key, const std::string& json) {
  Key(key);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Field(const char* key, const std::string& v) {
  Key(key);
  out_ += JsonQuote(v);
  return *this;
}

}  // namespace perfbench
}  // namespace shareddb
