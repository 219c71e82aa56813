// perfbench_loadgen: the load generator of the wall-clock TPC-W benchmark.
//
// One thread drives every closed-loop client slot (an emulated browser for
// the TPC-W mixes, one outstanding call for point_lookup) with zero think
// time. It multiplexes the slots over at most nproc loopback connections
// and pipelines EXECUTE frames on each, built with the public net/frame.h
// codec: PREPARE once per connection, then EXECUTE by statement id.
// net::Client allows one outstanding request per connection, so it cannot
// do this. Each slot runs its interaction's statements strictly in order;
// inputs come from tpcw::SampleInteraction / tpcw::BuildInteraction seeded
// from --seed.
//
// Timeline: warm-up, then the measurement windows back to back, then a
// drain that waits for every outstanding reply. At each window boundary
// the process prints {"event":"begin","traced":0|1} or {"event":"end"} on
// stdout (the caller relays them to the server), and at the end one
// {"result":{...}} line. Traced windows time the codec calls and keep
// client spans (interaction -> statement -> api.queue / core.exec), which
// are written to --trace-out as Chrome trace events.
//
//   perfbench_loadgen --workload=W --seed=N --port=P --connections=C
//       --warmup-s=S --window-s=S --windows=0,1,1,0 --next-order=N
//       --next-order-line=N --next-cart=N --next-customer=N
//       [--trace-out=FILE] [--cpus=0]

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_logic.h"
#include "tpcw/interactions.h"
#include "tpcw/schema.h"
#include "tpcw/statements.h"

using namespace shareddb;
using namespace shareddb::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMaxStatementSpans = 50000;
constexpr double kDrainTimeoutS = 30.0;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Options {
  Workload workload = Workload::kBrowsing;
  uint64_t seed = 1;
  uint16_t port = 0;
  int connections = 1;
  double warmup_s = 1.0;
  double window_s = 10.0;
  std::vector<bool> windows{false};  // traced flag per window
  int64_t next_order = 0;
  int64_t next_order_line = 0;
  int64_t next_cart = 0;
  int64_t next_customer = 0;
  std::string trace_out;
  std::vector<int> cpus;
};

/// Results of one window, or of every window with one traced flag merged.
struct Agg {
  /// Adds window `w`; its latency samples only when `with_samples`.
  void Merge(const Agg& w, bool with_samples);

  int windows = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t interactions_ok = 0;
  uint64_t interactions_failed = 0;
  uint64_t stmts_ok = 0;
  uint64_t stmts_failed = 0;
  LatencySamples interaction_ms;  // failures as +inf
  LatencySamples stmt_ms;         // failures as +inf
  LatencySamples wire_ms;         // OK statements
  LatencySamples queue_ms;        // OK statements
  uint64_t batches_waited_sum = 0;
  uint64_t encode_ns = 0;
  uint64_t decode_ns = 0;
  std::string first_failure;
};

void Agg::Merge(const Agg& w, bool with_samples) {
  windows += w.windows;
  wall_s += w.wall_s;
  cpu_s += w.cpu_s;
  interactions_ok += w.interactions_ok;
  interactions_failed += w.interactions_failed;
  stmts_ok += w.stmts_ok;
  stmts_failed += w.stmts_failed;
  if (with_samples) {
    interaction_ms.Append(w.interaction_ms);
    stmt_ms.Append(w.stmt_ms);
    wire_ms.Append(w.wire_ms);
    queue_ms.Append(w.queue_ms);
  }
  batches_waited_sum += w.batches_waited_sum;
  encode_ns += w.encode_ns;
  decode_ns += w.decode_ns;
  if (first_failure.empty()) first_failure = w.first_failure;
}

struct Conn {
  int fd = -1;
  std::string wbuf;
  size_t woff = 0;
  bool want_out = false;  // EPOLLOUT armed
  ReplyAssembler rx;
  std::unordered_map<std::string, uint32_t> stmt_ids;
};

struct Slot {
  int conn = 0;
  Rng rng;
  tpcw::EbState eb;
  tpcw::WebInteraction wi = tpcw::WebInteraction::kHome;
  std::vector<tpcw::StatementCall> calls;
  size_t next = 0;
  bool wi_failed = false;
  uint64_t trace_id = 0;
  int64_t expect_id = -1;  // point_lookup: the item id asked for
  Clock::time_point wi_start;
  Clock::time_point stmt_start;
};

struct StmtSpan {
  uint64_t trace_id = 0;
  int slot = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  bool ok = false;
};

struct InteractionSpan {
  uint64_t trace_id = 0;
  int slot = 0;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  bool ok = false;
};

std::vector<int> ParseIntList(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    const long long n = std::atoll(val.c_str());
    if (key == "--workload") {
      if (!ParseWorkload(val, &o->workload)) return false;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--port") {
      o->port = static_cast<uint16_t>(n);
    } else if (key == "--connections") {
      o->connections = static_cast<int>(n);
    } else if (key == "--warmup-s") {
      o->warmup_s = std::atof(val.c_str());
    } else if (key == "--window-s") {
      o->window_s = std::atof(val.c_str());
    } else if (key == "--windows") {
      o->windows.clear();
      for (int f : ParseIntList(val)) o->windows.push_back(f != 0);
    } else if (key == "--next-order") {
      o->next_order = n;
    } else if (key == "--next-order-line") {
      o->next_order_line = n;
    } else if (key == "--next-cart") {
      o->next_cart = n;
    } else if (key == "--next-customer") {
      o->next_customer = n;
    } else if (key == "--trace-out") {
      o->trace_out = val;
    } else if (key == "--cpus") {
      o->cpus = ParseIntList(val);
    } else {
      std::fprintf(stderr, "perfbench_loadgen: unknown argument %s\n",
                   a.c_str());
      return false;
    }
  }
  return o->port != 0 && o->connections >= 1 && !o->windows.empty() &&
         o->window_s > 0;
}

void Emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

bool SendAllBlocking(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocks until `want` replies have arrived on a (still blocking) socket.
bool ReadRepliesBlocking(Conn* c, size_t want, std::vector<Reply>* out) {
  char buf[65536];
  while (out->size() < want) {
    const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (!c->rx.Feed(buf, static_cast<size_t>(n), out)) return false;
  }
  return true;
}

/// Connects, says HELLO, and PREPAREs every statement (pipelined).
bool OpenConnection(uint16_t port, const std::vector<std::string>& names,
                    uint64_t* next_rid, Conn* c, std::string* err) {
  c->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c->fd < 0) {
    *err = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *err = std::string("connect failed: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  (void)setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  net::HelloMsg hello;
  hello.client_name = "perfbench_loadgen";
  std::vector<Reply> replies;
  if (!SendAllBlocking(c->fd, net::SealFrame(net::FrameType::kHello,
                                             (*next_rid)++,
                                             net::EncodeHello(hello))) ||
      !ReadRepliesBlocking(c, 1, &replies)) {
    *err = "handshake failed";
    return false;
  }
  net::PongMsg pong;
  if (replies[0].type != net::FrameType::kPong ||
      !net::DecodePong(replies[0].body, &pong) ||
      pong.version != net::kProtocolVersion) {
    *err = "handshake: expected a PONG of this protocol version";
    return false;
  }

  std::unordered_map<uint64_t, std::string> rid_to_name;
  std::string batch;
  for (const std::string& name : names) {
    net::PrepareMsg m;
    m.name = name;
    const uint64_t rid = (*next_rid)++;
    rid_to_name[rid] = name;
    batch += net::SealFrame(net::FrameType::kPrepare, rid, net::EncodePrepare(m));
  }
  replies.clear();
  if (!SendAllBlocking(c->fd, batch) ||
      !ReadRepliesBlocking(c, names.size(), &replies)) {
    *err = "PREPARE exchange failed";
    return false;
  }
  for (const Reply& r : replies) {
    if (r.type != net::FrameType::kResult || !r.status.ok()) {
      *err = "PREPARE refused: " + r.status.ToString();
      return false;
    }
    c->stmt_ids[rid_to_name[r.request_id]] =
        static_cast<uint32_t>(r.head.handle);
  }
  if (fcntl(c->fd, F_SETFL, fcntl(c->fd, F_GETFL) | O_NONBLOCK) != 0) {
    *err = "cannot make the socket nonblocking";
    return false;
  }
  return true;
}

/// Writes `a` as an object; percentiles only when it kept its samples.
void WriteAgg(const char* key, const Agg& a, JsonWriter* w) {
  w->Begin(key);
  w->Field("windows", a.windows);
  w->Field("wall_s", a.wall_s);
  w->Field("cpu_s", a.cpu_s);
  w->Field("interactions_ok", a.interactions_ok);
  w->Field("interactions_failed", a.interactions_failed);
  w->Field("stmts_ok", a.stmts_ok);
  w->Field("stmts_failed", a.stmts_failed);
  if (a.interaction_ms.count() > 0) {
    w->Field("interaction_samples",
             static_cast<uint64_t>(a.interaction_ms.count()));
    w->Field("interaction_p50_ms", a.interaction_ms.Percentile(0.50));
    w->Field("interaction_p95_ms", a.interaction_ms.Percentile(0.95));
    w->Field("interaction_p99_ms", a.interaction_ms.Percentile(0.99));
  }
  if (a.stmt_ms.count() > 0) {
    w->Field("stmt_samples", static_cast<uint64_t>(a.stmt_ms.count()));
    w->Field("stmt_p50_ms", a.stmt_ms.Percentile(0.50));
    w->Field("stmt_p99_ms", a.stmt_ms.Percentile(0.99));
    w->Field("wire_p50_ms", a.wire_ms.Percentile(0.50));
    w->Field("wire_p99_ms", a.wire_ms.Percentile(0.99));
    w->Field("queue_p50_ms", a.queue_ms.Percentile(0.50));
    w->Field("queue_p99_ms", a.queue_ms.Percentile(0.99));
  }
  w->Field("batches_waited_mean",
           a.stmts_ok == 0 ? 0.0
                           : static_cast<double>(a.batches_waited_sum) /
                                 static_cast<double>(a.stmts_ok));
  w->Field("encode_ns", a.encode_ns);
  w->Field("decode_ns", a.decode_ns);
  w->Field("first_failure", a.first_failure);
  w->End();
}

/// The generator: slots, connections and the event loop.
class LoadGen {
 public:
  explicit LoadGen(const Options& o) : o_(o) {
    ids_.next_order.store(o.next_order);
    ids_.next_order_line.store(o.next_order_line);
    ids_.next_cart.store(o.next_cart);
    ids_.next_customer.store(o.next_customer);
  }
  ~LoadGen() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    if (epfd_ >= 0) close(epfd_);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Setup(std::string* err);
  /// Runs warm-up, windows and drain. False on a transport or decode error.
  bool Run(std::string* err);
  void WriteResult(bool ok, const std::string& err);
  bool WriteSpans(const std::string& path) const;

 private:
  enum class Phase { kWarmup, kWindow, kDrain };

  void StartInteraction(int s, Clock::time_point now);
  void Issue(int s, Clock::time_point now);
  void OnReply(Reply& r, Clock::time_point now);
  void FinishInteraction(int s, Clock::time_point now);
  void BeginWindow(Clock::time_point now);
  void EndWindow(Clock::time_point now);
  bool ReadConn(int ci, std::string* err);
  bool FlushConn(int ci, std::string* err);
  Agg* current() { return phase_ == Phase::kWindow ? cur_agg_ : nullptr; }
  bool traced() const { return phase_ == Phase::kWindow && cur_traced_; }

  const Options& o_;
  const tpcw::TpcwScale scale_ = BenchScale();
  tpcw::IdAllocator ids_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Slot> slots_;
  std::unordered_map<uint64_t, int> inflight_;  // request id -> slot
  uint64_t next_rid_ = 1;
  uint64_t next_trace_id_ = 1;

  Phase phase_ = Phase::kWarmup;
  size_t window_index_ = 0;
  bool cur_traced_ = false;
  Agg* cur_agg_ = nullptr;   // &window_ during a window
  Agg window_;                     // the open window
  std::vector<Agg> closed_windows_;  // in order, interaction samples only
  // Windows merged by flag. Only traced windows keep their samples: the
  // per-layer percentiles come from them, and untraced runs stay small.
  Agg untraced_;
  Agg traced_;
  Clock::time_point window_start_;
  double window_cpu_start_ = 0;
  uint64_t window_decode_start_ = 0;

  uint64_t check_failures_ = 0;
  std::string first_check_failure_;
  bool drained_ = false;

  std::vector<StmtSpan> stmt_spans_;
  std::vector<InteractionSpan> wi_spans_;
};

bool LoadGen::Setup(std::string* err) {
  std::vector<std::string> names;
  if (o_.workload == Workload::kPointLookup) {
    names.push_back("item_by_id");
  } else {
    Catalog catalog;
    tpcw::CreateTpcwTables(&catalog);
    for (const tpcw::TpcwStatementDef& d : tpcw::BuildTpcwStatements(catalog)) {
      names.push_back(d.name);
    }
  }
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    *err = "epoll_create1 failed";
    return false;
  }
  conns_.resize(static_cast<size_t>(o_.connections));
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!OpenConnection(o_.port, names, &next_rid_, &conns_[i], err)) {
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, conns_[i].fd, &ev) != 0) {
      *err = "epoll_ctl failed";
      return false;
    }
  }
  const int n = ClientSlots(o_.workload);
  slots_.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    Slot& sl = slots_[static_cast<size_t>(s)];
    sl.conn = s % o_.connections;
    sl.rng = Rng(SlotSeed(o_.seed, s));
    sl.eb.customer_id = sl.rng.Uniform(0, scale_.NumCustomers() - 1);
  }
  return true;
}

void LoadGen::StartInteraction(int s, Clock::time_point now) {
  Slot& sl = slots_[static_cast<size_t>(s)];
  sl.calls.clear();
  if (o_.workload == Workload::kPointLookup) {
    sl.expect_id = sl.rng.Uniform(0, scale_.num_items - 1);
    sl.calls.push_back({"item_by_id", {Value::Int(sl.expect_id)}});
  } else {
    const tpcw::Mix mix = o_.workload == Workload::kBrowsing
                              ? tpcw::Mix::kBrowsing
                              : tpcw::Mix::kOrdering;
    while (sl.calls.empty()) {
      sl.wi = tpcw::SampleInteraction(mix, &sl.rng);
      sl.calls = tpcw::BuildInteraction(sl.wi, scale_, &sl.eb, &ids_, &sl.rng);
    }
  }
  sl.next = 0;
  sl.wi_failed = false;
  sl.trace_id = next_trace_id_++;
  sl.wi_start = now;
  Issue(s, now);
}

void LoadGen::Issue(int s, Clock::time_point now) {
  Slot& sl = slots_[static_cast<size_t>(s)];
  Conn& c = conns_[static_cast<size_t>(sl.conn)];
  tpcw::StatementCall& call = sl.calls[sl.next];
  net::ExecuteMsg m;
  m.by_name = false;
  m.statement_id = c.stmt_ids.at(call.statement);
  m.params = std::move(call.params);
  const uint64_t rid = next_rid_++;
  if (traced()) {
    const Clock::time_point t0 = Clock::now();
    c.wbuf += net::SealFrame(net::FrameType::kExecute, rid,
                             net::EncodeExecute(m));
    cur_agg_->encode_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  } else {
    c.wbuf += net::SealFrame(net::FrameType::kExecute, rid,
                             net::EncodeExecute(m));
  }
  inflight_.emplace(rid, s);
  sl.stmt_start = now;
}

void LoadGen::OnReply(Reply& r, Clock::time_point now) {
  const auto it = inflight_.find(r.request_id);
  if (it == inflight_.end()) {
    ++check_failures_;
    if (first_check_failure_.empty()) {
      first_check_failure_ = "reply to a request that is not outstanding";
    }
    return;
  }
  const int s = it->second;
  inflight_.erase(it);
  Slot& sl = slots_[static_cast<size_t>(s)];
  const double lat_ms = Ms(now - sl.stmt_start);
  const bool ok = r.type == net::FrameType::kResult && r.status.ok();

  if (ok) {
    // Output checks: every row matches the schema's width; a point lookup
    // returns exactly the row it asked for.
    const size_t width = r.head.schema != nullptr ? r.head.schema->num_columns() : 0;
    bool good = true;
    for (const Tuple& row : r.rows) good = good && row.size() == width;
    if (o_.workload == Workload::kPointLookup) {
      const int col = r.head.schema != nullptr ? r.head.schema->FindColumn("i_id")
                                               : -1;
      good = good && col >= 0 && r.rows.size() == 1 &&
             r.rows[0][static_cast<size_t>(col)].type() == ValueType::kInt &&
             r.rows[0][static_cast<size_t>(col)].AsInt() == sl.expect_id;
    }
    if (!good) {
      ++check_failures_;
      if (first_check_failure_.empty()) {
        first_check_failure_ = "unexpected result for " +
                               sl.calls[sl.next].statement;
      }
    }
  } else {
    sl.wi_failed = true;
  }

  if (Agg* a = current()) {
    if (ok) {
      ++a->stmts_ok;
      a->stmt_ms.Add(lat_ms);
      a->wire_ms.Add(WireMs(lat_ms, r.head));
      a->queue_ms.Add(r.head.queue_ms);
      a->batches_waited_sum += r.head.batches_waited;
    } else {
      ++a->stmts_failed;
      a->stmt_ms.AddFailure();
      if (a->first_failure.empty()) a->first_failure = r.status.ToString();
    }
    if (traced() && stmt_spans_.size() < kMaxStatementSpans) {
      StmtSpan sp;
      sp.trace_id = sl.trace_id;
      sp.slot = s;
      sp.name = sl.calls[sl.next].statement;
      sp.start_us = Us(sl.stmt_start);
      sp.end_us = Us(now);
      sp.queue_ms = ok ? r.head.queue_ms : 0;
      sp.exec_ms = ok ? r.head.exec_ms : 0;
      sp.ok = ok;
      stmt_spans_.push_back(sp);
    }
  }

  ++sl.next;
  if (sl.wi_failed || sl.next == sl.calls.size()) {
    FinishInteraction(s, now);
    if (phase_ != Phase::kDrain) StartInteraction(s, now);
  } else if (phase_ != Phase::kDrain) {
    Issue(s, now);
  }
}

void LoadGen::FinishInteraction(int s, Clock::time_point now) {
  Slot& sl = slots_[static_cast<size_t>(s)];
  Agg* a = current();
  if (a == nullptr) return;
  if (sl.wi_failed) {
    ++a->interactions_failed;
    a->interaction_ms.AddFailure();
  } else {
    ++a->interactions_ok;
    a->interaction_ms.Add(Ms(now - sl.wi_start));
  }
  if (traced() && stmt_spans_.size() < kMaxStatementSpans) {
    InteractionSpan sp;
    sp.trace_id = sl.trace_id;
    sp.slot = s;
    sp.name = o_.workload == Workload::kPointLookup
                  ? "PointLookup"
                  : tpcw::InteractionName(sl.wi);
    sp.start_us = Us(sl.wi_start);
    sp.end_us = Us(now);
    sp.ok = !sl.wi_failed;
    wi_spans_.push_back(sp);
  }
}

void LoadGen::BeginWindow(Clock::time_point now) {
  cur_traced_ = o_.windows[window_index_];
  window_ = Agg();
  cur_agg_ = &window_;
  phase_ = Phase::kWindow;
  window_start_ = now;
  window_cpu_start_ = ThreadCpuSeconds();
  window_decode_start_ = 0;
  for (Conn& c : conns_) {
    c.rx.set_timing(cur_traced_);
    window_decode_start_ += c.rx.decode_ns();
  }
  Emit(std::string("{\"event\":\"begin\",\"traced\":") +
       (cur_traced_ ? "1" : "0") + "}");
}

void LoadGen::EndWindow(Clock::time_point now) {
  Agg& a = window_;
  a.windows = 1;
  a.wall_s = std::chrono::duration<double>(now - window_start_).count();
  a.cpu_s = ThreadCpuSeconds() - window_cpu_start_;
  uint64_t decode = 0;
  for (Conn& c : conns_) {
    decode += c.rx.decode_ns();
    c.rx.set_timing(false);
  }
  a.decode_ns = decode - window_decode_start_;
  Emit("{\"event\":\"end\"}");
  (cur_traced_ ? traced_ : untraced_).Merge(a, /*with_samples=*/cur_traced_);
  // The window keeps only its interaction latencies, for the per-window
  // percentiles computed after the run (sorting here would stall the loop
  // inside the next window).
  a.stmt_ms = LatencySamples();
  a.wire_ms = LatencySamples();
  a.queue_ms = LatencySamples();
  closed_windows_.push_back(std::move(a));
  cur_agg_ = nullptr;
}

bool LoadGen::ReadConn(int ci, std::string* err) {
  static char buf[1 << 18];
  Conn& c = conns_[static_cast<size_t>(ci)];
  std::vector<Reply> replies;
  for (;;) {
    const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const Clock::time_point now = Clock::now();
      replies.clear();
      if (!c.rx.Feed(buf, static_cast<size_t>(n), &replies)) {
        *err = "decode error: " + c.rx.error();
        return false;
      }
      for (Reply& r : replies) OnReply(r, now);
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    *err = n == 0 ? "server closed a connection" : "recv failed";
    return false;
  }
}

bool LoadGen::FlushConn(int ci, std::string* err) {
  Conn& c = conns_[static_cast<size_t>(ci)];
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = send(c.fd, c.wbuf.data() + c.woff,
                           c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n > 0) {
      c.woff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    *err = "send failed";
    return false;
  }
  const bool pending = c.woff < c.wbuf.size();
  if (!pending) {
    c.wbuf.clear();
    c.woff = 0;
  }
  if (pending != c.want_out) {
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<uint64_t>(ci);
    if (epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev) != 0) {
      *err = "epoll_ctl failed";
      return false;
    }
    c.want_out = pending;
  }
  return true;
}

bool LoadGen::Run(std::string* err) {
  Clock::time_point now = Clock::now();
  Clock::time_point phase_end =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(o_.warmup_s));
  for (size_t s = 0; s < slots_.size(); ++s) {
    StartInteraction(static_cast<int>(s), now);
  }
  epoll_event events[64];
  for (;;) {
    for (size_t ci = 0; ci < conns_.size(); ++ci) {
      if (!FlushConn(static_cast<int>(ci), err)) return false;
    }
    now = Clock::now();
    while (phase_ != Phase::kDrain && now >= phase_end) {
      if (phase_ == Phase::kWindow) {
        EndWindow(now);
        ++window_index_;
      }
      if (window_index_ < o_.windows.size()) {
        BeginWindow(now);
        phase_end = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(o_.window_s));
      } else {
        phase_ = Phase::kDrain;
        phase_end = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kDrainTimeoutS));
      }
    }
    if (phase_ == Phase::kDrain) {
      if (inflight_.empty()) {
        drained_ = true;
        return true;
      }
      if (now >= phase_end) {
        *err = "timed out draining outstanding calls";
        return false;
      }
    }
    const double left_ms = Ms(phase_end - now);
    const int timeout = static_cast<int>(std::min(10.0, std::max(0.0, left_ms)) + 1);
    const int n = epoll_wait(epfd_, events, 64, timeout);
    if (n < 0 && errno != EINTR) {
      *err = "epoll_wait failed";
      return false;
    }
    for (int i = 0; i < n; ++i) {
      const int ci = static_cast<int>(events[i].data.u64);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
          !ReadConn(ci, err)) {
        return false;
      }
    }
  }
}

void LoadGen::WriteResult(bool ok, const std::string& err) {
  bool spans_written = false;
  if (!o_.trace_out.empty() && traced_.windows > 0) {
    spans_written = WriteSpans(o_.trace_out);
  }
  // Courtesy GOODBYE; closing the socket is the real teardown.
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      (void)SendAllBlocking(c.fd, net::SealFrame(net::FrameType::kGoodbye,
                                                 next_rid_++, ""));
    }
  }
  JsonWriter w;
  w.Begin().Begin("result");
  w.Field("ok", ok);
  w.Field("error", err);
  w.Field("connections", static_cast<int>(conns_.size()));
  w.Field("threads", 1);
  w.Field("slots", static_cast<int>(slots_.size()));
  w.Field("drained", drained_);
  w.Field("outstanding_at_end", static_cast<uint64_t>(inflight_.size()));
  w.Field("check_failures", check_failures_);
  w.Field("first_check_failure", first_check_failure_);
  w.Field("spans_written", spans_written);
  if (untraced_.windows > 0) WriteAgg("untraced", untraced_, &w);
  if (traced_.windows > 0) WriteAgg("traced", traced_, &w);
  std::string windows;
  for (size_t i = 0; i < closed_windows_.size(); ++i) {
    JsonWriter ww;
    WriteAgg(nullptr, closed_windows_[i], &ww);
    if (i > 0) windows += ',';
    windows += ww.str();
  }
  w.Raw("windows", "[" + windows + "]");
  w.End().End();
  Emit(w.str());
}

bool LoadGen::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // pid 1 = client, tid = slot + 1. The statement's api.queue and core.exec
  // children come from the RESULT head; one clock cannot split the wire
  // remainder into request and response legs, so it is placed half before
  // and half after them. The remainder is the statement span's net self time.
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  const auto emit = [&](const char* name, int slot, double ts, double dur,
                        uint64_t trace_id, bool ok) {
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"trace_id\":%llu,\"ok\":%s}}\n",
                 first ? "" : ",", JsonQuote(name).c_str(), slot + 1, ts,
                 dur < 0 ? 0.0 : dur, static_cast<unsigned long long>(trace_id),
                 ok ? "true" : "false");
    first = false;
  };
  for (const InteractionSpan& sp : wi_spans_) {
    emit((std::string("interaction:") + sp.name).c_str(), sp.slot, sp.start_us,
         sp.end_us - sp.start_us, sp.trace_id, sp.ok);
  }
  for (const StmtSpan& sp : stmt_spans_) {
    const double dur = sp.end_us - sp.start_us;
    emit((std::string("stmt:") + sp.name).c_str(), sp.slot, sp.start_us, dur,
         sp.trace_id, sp.ok);
    const double engine_us = (sp.queue_ms + sp.exec_ms) * 1000.0;
    const double lead = std::max(0.0, (dur - engine_us) / 2);
    emit("api.queue", sp.slot, sp.start_us + lead, sp.queue_ms * 1000.0,
         sp.trace_id, sp.ok);
    emit("core.exec", sp.slot, sp.start_us + lead + sp.queue_ms * 1000.0,
         sp.exec_ms * 1000.0, sp.trace_id, sp.ok);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr, "perfbench_loadgen: bad arguments\n");
    return 2;
  }
  // Generator guard: one thread, and never more connections than cores.
  const int nproc = AllowedCpus();
  if (o.connections > nproc) {
    std::fprintf(stderr,
                 "perfbench_loadgen: refusing %d connections on %d cpus\n",
                 o.connections, nproc);
    return 2;
  }
  if (!o.cpus.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : o.cpus) CPU_SET(c, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::fprintf(stderr, "perfbench_loadgen: cannot pin to the given cpus\n");
      return 2;
    }
  }
  LoadGen gen(o);
  std::string err;
  bool ok = gen.Setup(&err);
  if (ok) ok = gen.Run(&err);
  gen.WriteResult(ok, err);
  return ok ? 0 : 1;
}
