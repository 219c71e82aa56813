// Network front door tests: frame codec properties, TCP end-to-end
// equivalence against the in-process Session path (with real batch
// sharing), admission/deadline/shutdown status fidelity over the wire,
// PR 7's accounting identity measured through TCP clients, slow-reader
// overflow, and a seeded garbage-stream fuzz against a live listener.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "core/plan_builder.h"
#include "net/client.h"
#include "net/server.h"
#include "testing_util.h"

namespace shareddb {
namespace {

class NetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    users_ = catalog_.CreateTable(
        "users", Schema::Make({{"user_id", ValueType::kInt},
                               {"country", ValueType::kInt},
                               {"account", ValueType::kInt}}));
    for (int i = 0; i < 40; ++i) {
      users_->Insert({Value::Int(i), Value::Int(i % 4), Value::Int(i * 10)}, 1);
    }
    catalog_.snapshots().Reset(1);
  }

  std::unique_ptr<GlobalPlan> BuildPlan() {
    GlobalPlanBuilder b(&catalog_);
    const SchemaPtr us = users_->schema();
    b.AddQuery("user_by_id",
               logical::Scan("users", Expr::Eq(Expr::Column(*us, "user_id"),
                                               Expr::Param(0))));
    b.AddQuery("by_country",
               logical::Scan("users", Expr::Eq(Expr::Column(*us, "country"),
                                               Expr::Param(0))));
    b.AddUpdate("credit", "users",
                {{"account", Expr::Add(Expr::Column(2), Expr::Param(1))}},
                Expr::Eq(Expr::Column(0), Expr::Param(0)));
    return b.Build();
  }

  Catalog catalog_;
  Table* users_;
};

// --- frame codec -------------------------------------------------------------

TEST(NetFrame, SealDecodeRoundtrip) {
  const std::string frame =
      net::SealFrame(net::FrameType::kPrepare, 42,
                     net::EncodePrepare({"user_by_id"}));
  net::Frame out;
  size_t consumed = 0;
  ASSERT_EQ(net::DecodeFrame(frame, net::kDefaultMaxPayload, &out, &consumed),
            net::DecodeStatus::kFrame);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, net::FrameType::kPrepare);
  EXPECT_EQ(out.request_id, 42u);
  net::PrepareMsg m;
  ASSERT_TRUE(net::DecodePrepare(out.body, &m));
  EXPECT_EQ(m.name, "user_by_id");
}

TEST(NetFrame, EveryBitFlipIsDetected) {
  std::string frame = net::SealFrame(net::FrameType::kExecute, 7,
                                     net::EncodeExecute({true, 0, "q", 0,
                                                         {Value::Int(3)}}));
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    std::string damaged = frame;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
    net::Frame out;
    size_t consumed = 0;
    const net::DecodeStatus ds =
        net::DecodeFrame(damaged, net::kDefaultMaxPayload, &out, &consumed);
    // A flipped length may claim a longer frame (kNeedMore) or an absurd
    // one (kOversized); any fully-present frame must fail the CRC.
    EXPECT_NE(ds, net::DecodeStatus::kFrame) << "flip at byte " << byte;
  }
}

TEST(NetFrame, HostileLengthRejectedWithoutBuffering) {
  std::string buf;
  buf.append("\xff\xff\xff\xff", 4);  // len = 4 GiB
  buf.append("\0\0\0\0", 4);
  net::Frame out;
  size_t consumed = 0;
  EXPECT_EQ(net::DecodeFrame(buf, net::kDefaultMaxPayload, &out, &consumed),
            net::DecodeStatus::kOversized);
}

TEST(NetFrame, TruncatedFrameNeedsMore) {
  const std::string frame = net::SealFrame(net::FrameType::kGoodbye, 1, "");
  for (size_t n = 0; n < frame.size(); ++n) {
    net::Frame out;
    size_t consumed = 0;
    EXPECT_EQ(net::DecodeFrame(frame.substr(0, n), net::kDefaultMaxPayload,
                               &out, &consumed),
              net::DecodeStatus::kNeedMore);
  }
}

TEST(NetFrame, ResultSplitsIntoRowsContinuations) {
  ResultSet rs;
  rs.schema = Schema::Make({{"v", ValueType::kString}});
  for (int i = 0; i < 300; ++i) {
    rs.rows.push_back({Value::Str(std::string(100, 'a' + (i % 26)))});
  }
  std::vector<std::string> frames;
  // Tiny cap forces continuation frames.
  net::EncodeResultFrames(5, rs, /*ready=*/true, 0, /*max_payload=*/8192,
                          &frames);
  ASSERT_GT(frames.size(), 1u);

  // Reassemble exactly as the client does.
  net::Frame head_frame;
  size_t consumed = 0;
  ASSERT_EQ(net::DecodeFrame(frames[0], net::kDefaultMaxPayload, &head_frame,
                             &consumed),
            net::DecodeStatus::kFrame);
  net::ResultHead head;
  std::vector<Tuple> rows;
  ASSERT_TRUE(net::DecodeResultHead(head_frame.body, &head, &rows));
  EXPECT_EQ(head.total_rows, rs.rows.size());
  for (size_t i = 1; i < frames.size(); ++i) {
    net::Frame f;
    ASSERT_EQ(net::DecodeFrame(frames[i], net::kDefaultMaxPayload, &f,
                               &consumed),
              net::DecodeStatus::kFrame);
    ASSERT_EQ(f.type, net::FrameType::kRows);
    net::RowsMsg m;
    ASSERT_TRUE(net::DecodeRows(f.body, &m));
    EXPECT_EQ(m.done, i + 1 == frames.size());
    for (Tuple& r : m.rows) rows.push_back(std::move(r));
  }
  EXPECT_EQ(Canonical(rows), Canonical(rs.rows));
}

TEST(NetFrame, WideRowsNeverSealOversizedFrames) {
  // Multi-KB rows landing near the budget boundary must be deferred to the
  // next frame, never packed past the cap: a peer answers an oversized
  // frame by closing the connection, so one wide result would break an
  // otherwise healthy client.
  constexpr size_t kCap = 8192;
  ResultSet rs;
  rs.schema = Schema::Make({{"v", ValueType::kString}});
  for (int i = 0; i < 40; ++i) {
    rs.rows.push_back({Value::Str(std::string(3000 + i * 17, 'x'))});
  }
  std::vector<std::string> frames;
  net::EncodeResultFrames(9, rs, /*ready=*/true, 0, kCap, &frames);
  ASSERT_GT(frames.size(), 1u);
  std::vector<Tuple> rows;
  for (size_t i = 0; i < frames.size(); ++i) {
    net::Frame f;
    size_t consumed = 0;
    // Decode under the SAME cap the encoder was given: every sealed frame
    // must fit it.
    ASSERT_EQ(net::DecodeFrame(frames[i], kCap, &f, &consumed),
              net::DecodeStatus::kFrame)
        << "frame " << i << " exceeds the cap it was encoded under";
    if (i == 0) {
      ASSERT_EQ(f.type, net::FrameType::kResult);
      net::ResultHead head;
      ASSERT_TRUE(net::DecodeResultHead(f.body, &head, &rows));
      EXPECT_EQ(head.total_rows, rs.rows.size());
    } else {
      ASSERT_EQ(f.type, net::FrameType::kRows);
      net::RowsMsg m;
      ASSERT_TRUE(net::DecodeRows(f.body, &m));
      for (Tuple& r : m.rows) rows.push_back(std::move(r));
    }
  }
  EXPECT_EQ(Canonical(rows), Canonical(rs.rows));
}

TEST(NetFrame, RowWiderThanCapBecomesTypedError) {
  // A row that cannot fit ANY frame is unrepresentable on the wire; the
  // encoder must answer with a typed ERROR, not an undecodable frame.
  ResultSet rs;
  rs.schema = Schema::Make({{"v", ValueType::kString}});
  rs.rows.push_back({Value::Str(std::string(20000, 'x'))});
  std::vector<std::string> frames;
  net::EncodeResultFrames(3, rs, /*ready=*/true, 0, /*max_payload=*/8192,
                          &frames);
  ASSERT_EQ(frames.size(), 1u);
  net::Frame f;
  size_t consumed = 0;
  ASSERT_EQ(net::DecodeFrame(frames[0], 8192, &f, &consumed),
            net::DecodeStatus::kFrame);
  ASSERT_EQ(f.type, net::FrameType::kError);
  EXPECT_EQ(f.request_id, 3u);
  net::ErrorMsg e;
  ASSERT_TRUE(net::DecodeError(f.body, &e));
  EXPECT_EQ(e.code, StatusCode::kResourceExhausted);
}

// --- end-to-end over TCP -----------------------------------------------------

TEST_F(NetFixture, HandshakePrepareExecute) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());
  EXPECT_FALSE(client.server_banner().empty());

  net::PreparedStatement stmt;
  ASSERT_TRUE(client.Prepare("user_by_id", &stmt).ok());
  EXPECT_TRUE(stmt.valid());
  EXPECT_EQ(stmt.num_params(), 1u);

  const ResultSet over_wire = client.Execute(stmt, {Value::Int(7)});
  ASSERT_TRUE(over_wire.status.ok()) << over_wire.status.ToString();
  EXPECT_GE(over_wire.batches_waited, 1u);

  auto session = server.OpenSession();
  const ResultSet in_process = session->Execute("user_by_id", {Value::Int(7)});
  ExpectResultsEqual(over_wire, in_process, "user_by_id over TCP");

  // Unknown names surface the same NotFound as the in-process path.
  const ResultSet missing = client.Execute("no_such_statement", {});
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);

  net::PreparedStatement bad;
  EXPECT_EQ(client.Prepare("no_such_statement", &bad).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(bad.valid());

  client.Close();
  net_server.Shutdown();
}

TEST_F(NetFixture, UpdatesApplyThroughTheWire) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());
  const ResultSet up =
      client.Execute("credit", {Value::Int(3), Value::Int(500)});
  ASSERT_TRUE(up.status.ok()) << up.status.ToString();
  EXPECT_EQ(up.update_count, 1u);

  const ResultSet after = client.Execute("user_by_id", {Value::Int(3)});
  ASSERT_TRUE(after.status.ok());
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][2].AsInt(), 3 * 10 + 500);
  net_server.Shutdown();
}

// The tentpole acceptance: >= 8 concurrent TCP connections, each getting
// results identical to the in-process Session path, while the api server's
// occupancy proves the connections actually SHARED batches.
TEST_F(NetFixture, EightConnectionsShareBatchesWithIdenticalResults) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.min_batch_window = std::chrono::microseconds(1500);
  api::Server server(&engine, sopts);
  net::NetServerOptions nopts;
  nopts.num_workers = 3;
  net::Server net_server(&server, nopts);
  ASSERT_TRUE(net_server.Start().ok());

  // In-process oracle rows for the two read templates, per parameter.
  std::vector<ResultSet> expect_by_id(8), expect_by_country(4);
  {
    auto session = server.OpenSession();
    for (int i = 0; i < 8; ++i) {
      expect_by_id[i] = session->Execute("user_by_id", {Value::Int(i)});
      ASSERT_TRUE(expect_by_id[i].status.ok());
    }
    for (int i = 0; i < 4; ++i) {
      expect_by_country[i] = session->Execute("by_country", {Value::Int(i)});
      ASSERT_TRUE(expect_by_country[i].status.ok());
    }
  }

  constexpr int kClients = 8;
  constexpr int kCallsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client.Connect("127.0.0.1", net_server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      net::PreparedStatement by_id;
      if (!client.Prepare("user_by_id", &by_id).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        const bool prepared = (i % 2) == 0;
        const int arg = (c + i) % (prepared ? 8 : 4);
        const ResultSet rs =
            prepared ? client.Execute(by_id, {Value::Int(arg)})
                     : client.Execute("by_country", {Value::Int(arg)});
        const ResultSet& want =
            prepared ? expect_by_id[arg] : expect_by_country[arg];
        if (!rs.status.ok() || Canonical(rs) != Canonical(want) ||
            rs.batches_waited < 1 ||
            rs.admission_spills != rs.batches_waited - 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  server.Pause();  // quiesce so stats include the last heartbeat
  const api::Server::Stats stats = server.stats();
  EXPECT_GT(stats.MeanBatchOccupancy(), 1.0)
      << "TCP clients never shared a batch";
  const net::NetServerStats ns = net_server.stats();
  EXPECT_GE(ns.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(ns.protocol_errors, 0u);
  server.Resume();
  net_server.Shutdown();
}

// --- async over the wire -----------------------------------------------------

TEST_F(NetFixture, AsyncFetchCancelAndDeadline) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());

  // Plain async: ack + FETCH(wait) returns the committed result.
  net::AsyncCall a = client.ExecuteAsync("user_by_id", {Value::Int(4)});
  ASSERT_TRUE(a.valid());
  const ResultSet ra = a.Get();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_EQ(ra.rows.size(), 1u);

  // WaitFor caches the result; Get() afterwards costs no extra round trip.
  net::AsyncCall b = client.ExecuteAsync("by_country", {Value::Int(2)});
  ASSERT_TRUE(b.WaitFor(std::chrono::milliseconds(2000)));
  const ResultSet rb = b.Get();
  EXPECT_TRUE(rb.status.ok());
  EXPECT_EQ(rb.rows.size(), 10u);

  // GetWithDeadline with a generous budget returns the real result.
  net::AsyncCall c = client.ExecuteAsync("user_by_id", {Value::Int(5)});
  const ResultSet rc = c.GetWithDeadline(std::chrono::steady_clock::now() +
                                         std::chrono::seconds(2));
  EXPECT_TRUE(rc.status.ok()) << rc.status.ToString();

  // Cancel on a paused driver: the drain carries Aborted, same as
  // api::AsyncResult.
  server.Pause();
  net::AsyncCall d = client.ExecuteAsync("user_by_id", {Value::Int(6)});
  d.Cancel();
  server.Resume();
  const ResultSet rd = d.Get();
  EXPECT_EQ(rd.status.code(), StatusCode::kAborted) << rd.status.ToString();

  // An abandoned handle is cancelled + freed server-side by the destructor.
  { net::AsyncCall e = client.ExecuteAsync("user_by_id", {Value::Int(1)}); }
  // FETCH after abandon must answer NotFound, not a stuck entry.
  net::AsyncCall f = client.ExecuteAsync("user_by_id", {Value::Int(2)});
  const ResultSet rf = f.Get();
  EXPECT_TRUE(rf.status.ok());

  net_server.Shutdown();
}

// --- admission statuses over the wire ----------------------------------------

// A full admission queue must produce kResourceExhausted ERROR frames
// synchronously: the driver is PAUSED here, so the rejections prove the
// inline (no-sink, no-heartbeat) response path.
TEST_F(NetFixture, FullQueueRejectsSynchronously) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.max_queue_depth = 2;
  sopts.start_paused = true;
  api::Server server(&engine, sopts);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());

  // Fill the queue with async calls (acked immediately, results pending).
  net::AsyncCall a = client.ExecuteAsync("user_by_id", {Value::Int(1)});
  net::AsyncCall b = client.ExecuteAsync("user_by_id", {Value::Int(2)});
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  // Driver paused + queue full: the rejection can only be synchronous.
  const auto t0 = std::chrono::steady_clock::now();
  const ResultSet rejected = client.Execute("user_by_id", {Value::Int(3)});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted)
      << rejected.status.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));

  server.Resume();
  EXPECT_TRUE(a.Get().status.ok());
  EXPECT_TRUE(b.Get().status.ok());
  net_server.Shutdown();
}

TEST_F(NetFixture, DeadlineShedsAsDeadlineExceeded) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.start_paused = true;  // the call must wait past its deadline
  api::Server server(&engine, sopts);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());
  net::CallOptions opts;
  opts.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  net::AsyncCall a =
      client.ExecuteAsync("user_by_id", {Value::Int(1)}, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.Resume();  // formation sheds the expired call
  const ResultSet rs = a.Get();
  EXPECT_EQ(rs.status.code(), StatusCode::kDeadlineExceeded)
      << rs.status.ToString();
  net_server.Shutdown();
}

// api::Server::Shutdown() with live TCP connections: every in-flight call
// drains as a kUnavailable ERROR frame; no client hangs.
TEST_F(NetFixture, ShutdownDrainsInflightAsUnavailable) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.start_paused = true;  // hold calls in flight deterministically
  api::Server server(&engine, sopts);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  constexpr int kClients = 4;
  std::atomic<int> unavailable{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      net::Client client;
      if (!client.Connect("127.0.0.1", net_server.port()).ok()) return;
      // One blocking call (its sink is owed by the engine) and one async
      // handle.
      net::AsyncCall a = client.ExecuteAsync("user_by_id", {Value::Int(1)});
      started.fetch_add(1);
      const ResultSet blocking =
          client.Execute("by_country", {Value::Int(1)});
      const ResultSet async_rs = a.Get();
      if (blocking.status.code() == StatusCode::kUnavailable &&
          async_rs.status.code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1);
      }
    });
  }
  while (started.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give the blocking Executes time to reach the server's queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();  // drains every queued call with kUnavailable
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unavailable.load(), kClients);

  // New submissions after shutdown are refused inline with kUnavailable.
  net::Client late;
  ASSERT_TRUE(late.Connect("127.0.0.1", net_server.port()).ok());
  EXPECT_EQ(late.Execute("user_by_id", {Value::Int(1)}).status.code(),
            StatusCode::kUnavailable);
  net_server.Shutdown();
}

// PR 7's accounting identity must balance when every client sits on the far
// side of a socket: submitted == admitted+rejected+shed+cancelled+unavailable.
TEST_F(NetFixture, AccountingIdentityBalancesOverTcp) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.max_queue_depth = 6;
  sopts.min_batch_window = std::chrono::microseconds(300);
  api::Server server(&engine, sopts);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client.Connect("127.0.0.1", net_server.port()).ok()) return;
      Rng rng(0xACC0 + static_cast<uint64_t>(c));
      for (int i = 0; i < 30; ++i) {
        const int mode = static_cast<int>(rng.Uniform(0, 3));
        net::CallOptions opts;
        if (mode == 1) {
          // Tight engine-side deadline: some calls shed.
          opts.deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(
                              rng.Uniform(50, 400));
        }
        if (mode == 3) {
          net::AsyncCall a = client.ExecuteAsync(
              "user_by_id", {Value::Int(rng.Uniform(0, 39))}, opts);
          a.Cancel();  // race cancellation against batch formation
          (void)a.Get();
          continue;
        }
        (void)client.Execute("by_country", {Value::Int(rng.Uniform(0, 3))},
                             opts);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  server.Pause();  // quiesce: drain the queue into the counters
  const api::Server::Stats s = server.stats();
  EXPECT_EQ(s.statements_submitted,
            s.statements_admitted + s.statements_rejected +
                s.statements_shed + s.statements_cancelled +
                s.statements_unavailable)
      << "submitted=" << s.statements_submitted
      << " admitted=" << s.statements_admitted
      << " rejected=" << s.statements_rejected
      << " shed=" << s.statements_shed
      << " cancelled=" << s.statements_cancelled
      << " unavailable=" << s.statements_unavailable;
  server.Resume();
  net_server.Shutdown();
}

// --- hostile input -----------------------------------------------------------

/// Raw-socket helper for the protocol-abuse tests.
class RawConn {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF BEFORE connect (window negotiation
  /// happens at SYN time; setting it later has no effect on the peer).
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    timeval tv{2, 0};  // bounded reads: a stalled server fails the test
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (rcvbuf > 0) {
      (void)setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }
  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  /// Reads until EOF, error, or timeout; returns the bytes. saw_eof()
  /// then tells an orderly close from a reset or a timeout.
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        saw_eof_ = n == 0;
        break;
      }
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }
  bool saw_eof() const { return saw_eof_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  bool saw_eof_ = false;
};

/// Splits a byte stream into whole frames; stops at the first byte run that
/// is not one (a trailing partial or damaged frame).
std::vector<net::Frame> SplitFrames(std::string bytes) {
  std::vector<net::Frame> frames;
  for (;;) {
    net::Frame f;
    size_t consumed = 0;
    if (net::DecodeFrame(bytes, net::kDefaultMaxPayload, &f, &consumed) !=
        net::DecodeStatus::kFrame) {
      break;
    }
    bytes.erase(0, consumed);
    frames.push_back(std::move(f));
  }
  return frames;
}

// Seeded garbage-stream fuzz: random bytes, bit-flipped and truncated valid
// frames, and pathological length prefixes against a live listener. The
// server must answer a typed ERROR or close the connection — never crash,
// never stall — and must still serve a well-formed client afterwards.
TEST_F(NetFixture, GarbageStreamsNeverWedgeTheServer) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  const uint64_t seed = 0xF022ED;  // log + rerun with this seed to repro
  Rng rng(seed);
  const std::string hello = net::SealFrame(
      net::FrameType::kHello, 1, net::EncodeHello({net::kProtocolVersion,
                                                   "fuzz"}));
  for (int iter = 0; iter < 120; ++iter) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(net_server.port())) << "iteration " << iter;
    const int kind = static_cast<int>(rng.Uniform(0, 4));
    std::string payload;
    switch (kind) {
      case 0: {  // pure random bytes
        const size_t n = static_cast<size_t>(rng.Uniform(1, 600));
        for (size_t i = 0; i < n; ++i) {
          payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
        }
        break;
      }
      case 1: {  // valid frame with one flipped bit
        payload = net::SealFrame(
            net::FrameType::kExecute, 9,
            net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(1)}}));
        const size_t byte =
            static_cast<size_t>(rng.Uniform(0, payload.size() - 1));
        payload[byte] ^= static_cast<char>(1 << rng.Uniform(0, 7));
        break;
      }
      case 2: {  // truncated valid frame, then EOF
        std::string full = hello;
        payload = full.substr(
            0, static_cast<size_t>(rng.Uniform(1, full.size() - 1)));
        break;
      }
      case 3: {  // pathological length prefix
        const uint32_t len =
            rng.Bernoulli(0.5) ? 0xffffffffu
                               : static_cast<uint32_t>(
                                     rng.Uniform(64 << 20, 1 << 30));
        payload.append(reinterpret_cast<const char*>(&len), 4);
        for (int i = 0; i < 12; ++i) {
          payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
        }
        break;
      }
      case 4: {  // valid HELLO, then garbage mid-stream
        payload = hello;
        const size_t n = static_cast<size_t>(rng.Uniform(1, 200));
        for (size_t i = 0; i < n; ++i) {
          payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
        }
        break;
      }
    }
    (void)conn.Send(payload);  // peer may close first: either is fine
    if (rng.Bernoulli(0.5)) {
      // Half the time, wait for the server's verdict (typed ERROR frame or
      // clean close); the other half, slam the connection shut mid-stream.
      // SHUT_WR first: the server sees EOF on streams it was (correctly)
      // still waiting on, so the verdict arrives promptly.
      (void)shutdown(conn.fd(), SHUT_WR);
      (void)conn.ReadAll();
    }
  }

  // The listener survived: a well-formed session still works end to end.
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_server.port()).ok());
  const ResultSet rs = client.Execute("user_by_id", {Value::Int(3)});
  EXPECT_TRUE(rs.status.ok()) << rs.status.ToString();
  const net::NetServerStats ns = net_server.stats();
  EXPECT_GT(ns.protocol_errors, 0u);
  net_server.Shutdown();
}

// Frames that arrive before the peer's EOF are decoded and answered, however
// the data and the FIN are split across the server's reads. Each stream is
// written in one send and half-closed at once, so the data and the FIN often
// land in one drain: a server that closed on EOF before decoding would
// answer those streams with a bare close.
TEST_F(NetFixture, HalfCloseAfterDamagedFrameStillGetsTypedError) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  const std::string hello = net::SealFrame(
      net::FrameType::kHello, 1,
      net::EncodeHello({net::kProtocolVersion, "half-close"}));
  std::string damaged = net::SealFrame(
      net::FrameType::kExecute, 2,
      net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(1)}}));
  // Past the 8-byte header: the length stays intact, so the frame is whole
  // and fails only its checksum (kBadCrc).
  damaged[net::kFrameHeaderBytes + 3] ^= 0x04;

  constexpr int kConns = 50;
  std::vector<RawConn> conns(kConns);
  for (RawConn& conn : conns) {
    ASSERT_TRUE(conn.Connect(net_server.port()));
    ASSERT_TRUE(conn.Send(hello + damaged));
    ASSERT_EQ(shutdown(conn.fd(), SHUT_WR), 0);
  }
  for (int i = 0; i < kConns; ++i) {
    const std::vector<net::Frame> frames = SplitFrames(conns[i].ReadAll());
    EXPECT_TRUE(conns[i].saw_eof()) << "connection " << i;
    ASSERT_EQ(frames.size(), 2u) << "connection " << i;
    EXPECT_EQ(frames[0].type, net::FrameType::kPong);
    EXPECT_EQ(frames[0].request_id, 1u);
    ASSERT_EQ(frames[1].type, net::FrameType::kError);
    EXPECT_EQ(frames[1].request_id, 0u);
    net::ErrorMsg e;
    ASSERT_TRUE(net::DecodeError(frames[1].body, &e));
    EXPECT_EQ(e.code, StatusCode::kInvalidArgument) << e.message;
  }
  EXPECT_EQ(net_server.stats().protocol_errors,
            static_cast<uint64_t>(kConns));
  net_server.Shutdown();
}

// A peer that resets its connection right after a damaged frame cannot get
// the ERROR, but the frame was received, so protocol_errors counts it —
// also when the bytes and the reset reach the server in one event.
TEST_F(NetFixture, ResetAfterDamagedFrameIsStillCounted) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  std::string damaged = net::SealFrame(
      net::FrameType::kExecute, 2,
      net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(1)}}));
  damaged[net::kFrameHeaderBytes + 3] ^= 0x04;
  const std::string stream =
      net::SealFrame(net::FrameType::kHello, 1,
                     net::EncodeHello({net::kProtocolVersion, "reset"})) +
      damaged;

  constexpr uint64_t kConns = 20;
  for (uint64_t i = 0; i < kConns; ++i) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(net_server.port()));
    ASSERT_TRUE(conn.Send(stream));
    linger lg{1, 0};  // close() sends RST instead of FIN
    ASSERT_EQ(setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)),
              0);
  }
  // The closes are asynchronous to the server: wait for it to see them all.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (net_server.stats().connections_closed < kConns &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const net::NetServerStats ns = net_server.stats();
  EXPECT_EQ(ns.connections_closed, kConns);
  EXPECT_EQ(ns.protocol_errors, kConns);
  net_server.Shutdown();
}

// A clean request followed by a half-close is answered before the close:
// the EOF acts as GOODBYE, it does not discard what came before it.
TEST_F(NetFixture, HalfCloseAfterPrepareStillGetsResult) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(net_server.port()));
  ASSERT_TRUE(conn.Send(
      net::SealFrame(net::FrameType::kHello, 1,
                     net::EncodeHello({net::kProtocolVersion, "half-close"})) +
      net::SealFrame(net::FrameType::kPrepare, 2,
                     net::EncodePrepare({"user_by_id"}))));
  ASSERT_EQ(shutdown(conn.fd(), SHUT_WR), 0);
  const std::vector<net::Frame> frames = SplitFrames(conn.ReadAll());
  EXPECT_TRUE(conn.saw_eof());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, net::FrameType::kPong);
  ASSERT_EQ(frames[1].type, net::FrameType::kResult);
  EXPECT_EQ(frames[1].request_id, 2u);
  net::ResultHead head;
  std::vector<Tuple> rows;
  ASSERT_TRUE(net::DecodeResultHead(frames[1].body, &head, &rows));
  EXPECT_EQ(head.update_count, 1u);  // user_by_id takes one parameter
  EXPECT_EQ(net_server.stats().protocol_errors, 0u);
  net_server.Shutdown();
}

// A reader that stops consuming while requesting work gets one grace
// kResourceExhausted ERROR and a close — bounded memory, no torn frames.
TEST_F(NetFixture, SlowReaderOverflowsToTypedErrorAndClose) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::NetServerOptions nopts;
  nopts.max_write_buffer = 4096;  // tiny cap so the test converges fast
  net::Server net_server(&server, nopts);
  ASSERT_TRUE(net_server.Start().ok());

  // Tiny receive window (set pre-connect) so the server's sends back up;
  // the kernel still autotunes the server's SEND buffer into the megabytes,
  // so the pump below must outrun that too.
  RawConn conn;
  ASSERT_TRUE(conn.Connect(net_server.port(), /*rcvbuf=*/2048));
  const std::string hello = net::SealFrame(
      net::FrameType::kHello, 1,
      net::EncodeHello({net::kProtocolVersion, "slow"}));
  ASSERT_TRUE(conn.Send(hello));
  // Pump queries without ever reading a response. Each by_country result is
  // ~350 bytes; 40k responses ≈ 14 MB — far past any kernel buffering, so
  // the server's own write buffer must hit its 4 KiB cap.
  const std::string exec = net::SealFrame(
      net::FrameType::kExecute, 2,
      net::EncodeExecute({true, 0, "by_country", 0, {Value::Int(1)}}));
  bool send_failed = false;
  for (int i = 0; i < 40000 && !send_failed; ++i) {
    send_failed = !conn.Send(exec);
    if ((i & 0xff) == 0 && net_server.stats().overflow_closes > 0) break;
  }
  // Overflow close: within bounded time the server must have cut us off.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (net_server.stats().overflow_closes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(net_server.stats().overflow_closes, 1u);

  // The stream we did get is intact frame-by-frame (nothing torn), and a
  // fresh client is unaffected.
  const std::string got = conn.ReadAll();
  size_t off = 0;
  while (off < got.size()) {
    net::Frame f;
    size_t consumed = 0;
    const net::DecodeStatus ds = net::DecodeFrame(
        got.substr(off), net::kDefaultMaxPayload, &f, &consumed);
    if (ds != net::DecodeStatus::kFrame) break;  // trailing partial is fine
    off += consumed;
  }
  net::Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", net_server.port()).ok());
  EXPECT_TRUE(fresh.Execute("user_by_id", {Value::Int(1)}).status.ok());
  net_server.Shutdown();
}

// Protocol-level misuse gets typed answers, not hangups mid-parse: HELLO
// must come first, version mismatches are kUnimplemented, unknown frame
// types are kUnimplemented on a surviving connection.
TEST_F(NetFixture, ProtocolErrorsAreTyped) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  {  // EXECUTE before HELLO -> FailedPrecondition, then close
    RawConn conn;
    ASSERT_TRUE(conn.Connect(net_server.port()));
    ASSERT_TRUE(conn.Send(net::SealFrame(
        net::FrameType::kExecute, 1,
        net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(1)}}))));
    const std::string got = conn.ReadAll();
    net::Frame f;
    size_t consumed = 0;
    ASSERT_EQ(net::DecodeFrame(got, net::kDefaultMaxPayload, &f, &consumed),
              net::DecodeStatus::kFrame);
    ASSERT_EQ(f.type, net::FrameType::kError);
    net::ErrorMsg e;
    ASSERT_TRUE(net::DecodeError(f.body, &e));
    EXPECT_EQ(e.code, StatusCode::kFailedPrecondition);
  }
  {  // future protocol version -> kUnimplemented
    RawConn conn;
    ASSERT_TRUE(conn.Connect(net_server.port()));
    ASSERT_TRUE(conn.Send(net::SealFrame(
        net::FrameType::kHello, 1,
        net::EncodeHello({net::kProtocolVersion + 7, "time traveler"}))));
    const std::string got = conn.ReadAll();
    net::Frame f;
    size_t consumed = 0;
    ASSERT_EQ(net::DecodeFrame(got, net::kDefaultMaxPayload, &f, &consumed),
              net::DecodeStatus::kFrame);
    ASSERT_EQ(f.type, net::FrameType::kError);
    net::ErrorMsg e;
    ASSERT_TRUE(net::DecodeError(f.body, &e));
    EXPECT_EQ(e.code, StatusCode::kUnimplemented);
  }
  {  // unknown frame type after a valid HELLO -> typed error, conn survives
    RawConn conn;
    ASSERT_TRUE(conn.Connect(net_server.port()));
    ASSERT_TRUE(conn.Send(net::SealFrame(
        net::FrameType::kHello, 1,
        net::EncodeHello({net::kProtocolVersion, "ok"}))));
    ASSERT_TRUE(conn.Send(
        net::SealFrame(static_cast<net::FrameType>(0x55), 2, "mystery")));
    ASSERT_TRUE(conn.Send(net::SealFrame(
        net::FrameType::kExecute, 3,
        net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(1)}}))));
    // Expect PONG, ERROR(kUnimplemented), then a real RESULT.
    std::string got;
    char buf[4096];
    int frames_seen = 0;
    net::FrameType types[3] = {};
    while (frames_seen < 3) {
      const ssize_t n = recv(conn.fd(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
      for (;;) {
        net::Frame f;
        size_t consumed = 0;
        if (net::DecodeFrame(got, net::kDefaultMaxPayload, &f, &consumed) !=
            net::DecodeStatus::kFrame) {
          break;
        }
        got.erase(0, consumed);
        if (frames_seen < 3) types[frames_seen] = f.type;
        ++frames_seen;
      }
    }
    ASSERT_EQ(frames_seen, 3);
    EXPECT_EQ(types[0], net::FrameType::kPong);
    EXPECT_EQ(types[1], net::FrameType::kError);
    EXPECT_EQ(types[2], net::FrameType::kResult);
  }
  net_server.Shutdown();
}


// --- completion push path ----------------------------------------------------

/// Holds every non-empty batch before execution until opened, so calls stay
/// in flight on a running driver deterministically.
class BatchGate : public ChaosHook {
 public:
  void OnBeforeExecute(uint64_t, size_t) override {
    MutexLock lock(&mu_);
    ++held_;
    cv_.NotifyAll();
    while (closed_) cv_.Wait(&mu_);
  }
  void WaitHeld() {
    MutexLock lock(&mu_);
    while (held_ == 0) cv_.Wait(&mu_);
  }
  void Open() {
    {
      MutexLock lock(&mu_);
      closed_ = false;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_{"test.gate"};
  CondVar cv_;
  bool closed_ SDB_GUARDED_BY(mu_) = true;
  int held_ SDB_GUARDED_BY(mu_) = 0;
};

std::string HelloFrame() {
  return net::SealFrame(net::FrameType::kHello, 1,
                        net::EncodeHello({net::kProtocolVersion, "push"}));
}

std::string ExecuteFrame(net::FrameType type, uint64_t request_id, int user) {
  return net::SealFrame(
      type, request_id,
      net::EncodeExecute({true, 0, "user_by_id", 0, {Value::Int(user)}}));
}

/// Polls `done` every millisecond for up to 10 s; true once it holds.
template <typename Pred>
bool Eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Shutdown() with blocking and async calls in flight on a RUNNING driver:
// one batch is held mid-execution, more calls are queued behind it.
// Shutdown must not return while the held batch still owes its sinks, must
// return once it completes, and must leave nothing queued — so no sink can
// run after it (the workers are freed right after; ASan/TSan would flag a
// late one).
TEST_F(NetFixture, ShutdownWaitsForInflightSinksOnRunningDriver) {
  BatchGate gate;
  EngineOptions eo;
  eo.chaos = &gate;
  Engine engine(BuildPlan(), eo);
  api::Server server(&engine);
  auto net_server = std::make_unique<net::Server>(&server);
  ASSERT_TRUE(net_server->Start().ok());

  constexpr int kConns = 4;
  constexpr int kCalls = 8;  // alternating EXECUTE / EXECUTE_ASYNC
  std::vector<RawConn> conns(kConns);
  for (int c = 0; c < kConns; ++c) {
    ASSERT_TRUE(conns[c].Connect(net_server->port()));
    std::string bytes = HelloFrame();
    for (int i = 0; i < kCalls; ++i) {
      bytes += ExecuteFrame(i % 2 == 0 ? net::FrameType::kExecute
                                       : net::FrameType::kExecuteAsync,
                            static_cast<uint64_t>(2 + i), i);
    }
    ASSERT_TRUE(conns[c].Send(bytes));
    // The first connection's calls start the held batch; the others queue
    // behind it.
    if (c == 0) gate.WaitHeld();
  }
  ASSERT_TRUE(Eventually([&] {
    return engine.admission_totals().submitted ==
           static_cast<uint64_t>(kConns * kCalls);
  }));

  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    net_server->Shutdown();
    returned.store(true);
  });
  // The loops cancel each connection's calls before closing it.
  ASSERT_TRUE(Eventually([&] {
    return net_server->stats().connections_closed ==
           static_cast<uint64_t>(kConns);
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "Shutdown returned while sinks were owed";
  gate.Open();
  stopper.join();
  EXPECT_EQ(engine.PendingCount(), 0u);
  const Engine::AdmissionTotals t = engine.admission_totals();
  EXPECT_EQ(t.submitted,
            t.admitted + t.rejected + t.shed + t.cancelled + t.unavailable);
  EXPECT_GT(t.admitted, 0u);
  EXPECT_GT(t.cancelled, 0u);  // the queued calls were cancelled, not run

  net_server.reset();
  // The driver keeps beating after the front door is gone.
  auto session = server.OpenSession();
  EXPECT_TRUE(session->Execute("user_by_id", {Value::Int(3)}).status.ok());
}

// A client that half-closes with EXECUTEs still queued gets them cancelled,
// not answered: its stream ends after the PONG.
TEST_F(NetFixture, ClientCloseCancelsPendingExecutes) {
  Engine engine(BuildPlan());
  api::ServerOptions sopts;
  sopts.start_paused = true;  // keep the calls queued until the close
  api::Server server(&engine, sopts);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  constexpr uint64_t kCalls = 6;
  RawConn conn;
  ASSERT_TRUE(conn.Connect(net_server.port()));
  std::string bytes = HelloFrame();
  for (uint64_t i = 0; i < kCalls; ++i) {
    bytes += ExecuteFrame(i % 2 == 0 ? net::FrameType::kExecute
                                     : net::FrameType::kExecuteAsync,
                          2 + i, static_cast<int>(i));
  }
  ASSERT_TRUE(conn.Send(bytes));
  ASSERT_TRUE(Eventually([&] { return engine.PendingCount() == kCalls; }));
  ASSERT_EQ(shutdown(conn.fd(), SHUT_WR), 0);

  const std::vector<net::Frame> frames = SplitFrames(conn.ReadAll());
  EXPECT_TRUE(conn.saw_eof());
  // PONG, then one async ack per EXECUTE_ASYNC; no RESULT, no ERROR.
  ASSERT_EQ(frames.size(), 1 + kCalls / 2);
  EXPECT_EQ(frames[0].type, net::FrameType::kPong);
  for (size_t i = 1; i < frames.size(); ++i) {
    net::ResultHead head;
    std::vector<Tuple> rows;
    ASSERT_EQ(frames[i].type, net::FrameType::kResult);
    ASSERT_TRUE(net::DecodeResultHead(frames[i].body, &head, &rows));
    EXPECT_FALSE(head.ready) << "request " << frames[i].request_id;
  }

  server.Resume();
  ASSERT_TRUE(Eventually(
      [&] { return engine.admission_totals().cancelled == kCalls; }));
  EXPECT_EQ(engine.admission_totals().admitted, 0u);
  net_server.Shutdown();
}

// One connection pipelines 256 EXECUTEs in a single write: every one is
// answered once, under its own request id, with its own row.
TEST_F(NetFixture, PipelinedExecutesAllAnsweredByRequestId) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  constexpr int kCalls = 256;
  constexpr uint64_t kFirstId = 1000;
  RawConn conn;
  ASSERT_TRUE(conn.Connect(net_server.port()));
  std::string bytes = HelloFrame();
  for (int i = 0; i < kCalls; ++i) {
    bytes += ExecuteFrame(net::FrameType::kExecute,
                          kFirstId + static_cast<uint64_t>(i), i % 40);
  }
  ASSERT_TRUE(conn.Send(bytes));

  std::vector<int> answered(kCalls, 0);
  std::string got;
  char buf[4096];
  int results = 0;
  while (results < kCalls) {
    const ssize_t n = recv(conn.fd(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "stream ended after " << results << " results";
    got.append(buf, static_cast<size_t>(n));
    for (;;) {
      net::Frame f;
      size_t consumed = 0;
      if (net::DecodeFrame(got, net::kDefaultMaxPayload, &f, &consumed) !=
          net::DecodeStatus::kFrame) {
        break;
      }
      got.erase(0, consumed);
      if (f.type == net::FrameType::kPong) continue;
      ASSERT_EQ(f.type, net::FrameType::kResult);
      ASSERT_GE(f.request_id, kFirstId);
      ASSERT_LT(f.request_id, kFirstId + kCalls);
      const size_t i = static_cast<size_t>(f.request_id - kFirstId);
      net::ResultHead head;
      std::vector<Tuple> rows;
      ASSERT_TRUE(net::DecodeResultHead(f.body, &head, &rows));
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0][0].AsInt(), static_cast<int64_t>(i % 40));
      ++answered[i];
      ++results;
    }
  }
  EXPECT_EQ(answered, std::vector<int>(kCalls, 1));
  EXPECT_EQ(net_server.stats().frames_in, static_cast<uint64_t>(kCalls + 1));
  net_server.Shutdown();
}

// A connection that is closing reads no further: a client that says GOODBYE
// and keeps pipelining megabytes costs the server at most one read chunk
// (plus one partial frame) beyond what it decoded.
TEST_F(NetFixture, ClosingConnectionStopsReading) {
  Engine engine(BuildPlan());
  api::Server server(&engine);
  net::Server net_server(&server);
  ASSERT_TRUE(net_server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(net_server.port()));
  timeval tv{2, 0};  // a server that stops reading must not hang the test
  ASSERT_EQ(setsockopt(conn.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)),
            0);
  const std::string hello = HelloFrame();
  const std::string goodbye = net::SealFrame(net::FrameType::kGoodbye, 2, "");
  const std::string exec = ExecuteFrame(net::FrameType::kExecute, 3, 1);
  std::string flood;
  while (flood.size() < (4u << 20)) flood += exec;
  // The server may close (and reset) while the flood is in flight.
  (void)conn.Send(hello + goodbye + flood);

  ASSERT_TRUE(
      Eventually([&] { return net_server.stats().connections_closed == 1; }));
  const net::NetServerStats ns = net_server.stats();
  EXPECT_EQ(ns.frames_in, 2u);
  EXPECT_LE(ns.bytes_in,
            hello.size() + goodbye.size() + net::kReadChunkBytes + exec.size());
  net_server.Shutdown();
}

}  // namespace
}  // namespace shareddb
