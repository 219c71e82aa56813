// net::Server: SharedDB's TCP front door — the first process boundary.
//
// One acceptor thread plus N worker event loops serve the binary frame
// protocol (frame.h) over edge-triggered nonblocking sockets. Each accepted
// connection is pinned to one worker and owns an api::Session, so the PR 7
// admission discipline travels to the wire unchanged: a full admission
// queue answers kResourceExhausted ERROR frames synchronously, engine-side
// deadlines shed as kDeadlineExceeded, and api::Server::Shutdown() drains
// every in-flight call as a kUnavailable ERROR frame before the sockets
// close — no network client ever hangs on a dead server.
//
// Threading model (all sync primitives annotated, lint-enforced):
//   * acceptor     — blocking epoll on the listen fd; hands fds to workers
//     round-robin through a guarded handoff queue + eventfd wake.
//   * worker[i]    — owns its connections EXCLUSIVELY (single-threaded
//     connection state, no per-connection locks): reads frames, dispatches
//     through the connection's Session, writes responses. Synchronous
//     rejections (admission caps, shutdown refusals, invalid statements)
//     are answered inline; every other EXECUTE carries a completion sink
//     that the engine runs at fulfilment (on the heartbeat thread). It
//     queues the result for worker i and writes its eventfd only when the
//     queue was empty; the loop applies the whole queue, then flushes each
//     touched connection once: one wakeup and one send() per connection
//     per batch, not per statement.
//
// Backpressure is bounded end to end: the read buffer holds at most one
// partial frame plus one read chunk (frames are decoded after every chunk,
// a hostile length is rejected after 8 bytes, and nothing is read once a
// connection is closing), the write buffer has a hard cap — a slow reader
// that lets max_write_buffer bytes pile up gets one final kResourceExhausted
// ERROR frame and the socket closes; nothing queues without bound. Oversized
// or checksum-damaged frames get a typed ERROR then close.
//
// Half-close: every complete frame that arrives before the peer's EOF is
// decoded and answered, however the bytes and the FIN split across reads
// (a damaged one still gets its typed ERROR and counts in
// protocol_errors). The EOF then acts as GOODBYE: the connection closes
// once its buffered replies are written, and engine calls still in flight
// at that close are cancelled, not answered. This is a chosen behaviour —
// neither the paper nor the protocol settles whether such calls should be
// answered first. A reset peer (EPOLLERR/EPOLLHUP, or a hard read error)
// also has its received bytes decoded and counted, but the replies are
// dropped: nobody is left to read them.
//
// Lifecycle: construct over a RUNNING api::Server, Start(), Shutdown()
// (idempotent; also run by the destructor) BEFORE the api::Server is
// destroyed, and never while the api driver is paused with calls in flight:
// Shutdown() waits until the engine has run the sink of every call the
// workers submitted, so the driver must be able to drain them.

#ifndef SHAREDDB_NET_SERVER_H_
#define SHAREDDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/server.h"
#include "common/sync.h"
#include "net/frame.h"

namespace shareddb {
namespace net {

/// Bytes per socket read(); frames are decoded after each chunk.
constexpr size_t kReadChunkBytes = 64u << 10;

struct NetServerOptions {
  /// Bind address. Tests and loopback benches use the default.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back with port()).
  uint16_t port = 0;
  /// Worker event loops (each with its own epoll set + completion queue).
  int num_workers = 2;
  /// Per-frame payload cap; with kReadChunkBytes it bounds the
  /// per-connection read buffer.
  size_t max_frame_bytes = kDefaultMaxPayload;
  /// Slow-reader cap: buffered-but-unsent response bytes above this mark
  /// the connection overflowed — one final ERROR frame, then close.
  size_t max_write_buffer = 4u << 20;
  /// Outstanding EXECUTE_ASYNC handles per connection (pending or
  /// completed-but-unfetched); the next one is rejected kResourceExhausted.
  size_t max_async_per_conn = 64;
  int listen_backlog = 128;
};

/// Aggregate front-door telemetry (atomic counters; torn reads across
/// fields are acceptable for monitoring).
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;   // bad CRC / oversized / unparseable frames
  uint64_t errors_sent = 0;       // ERROR frames written (any cause)
  uint64_t overflow_closes = 0;   // slow-reader write-buffer overflows
};

class Server {
 public:
  /// Non-owning: `api` must outlive this server. Call Shutdown() (or let
  /// the destructor) before destroying `api`.
  explicit Server(api::Server* api, NetServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor + workers. Idempotent until
  /// Shutdown; IoError on bind/listen failure.
  Status Start();

  /// Stops accepting, cancels in-flight calls (best effort), flushes what
  /// the sockets will take without blocking, closes every connection, joins
  /// all threads and waits for the engine to complete every call the
  /// workers submitted. Idempotent.
  void Shutdown();

  /// The bound port (valid after Start(); ephemeral requests resolve here).
  uint16_t port() const { return port_; }

  NetServerStats stats() const;

  api::Server* api_server() const { return api_; }
  const NetServerOptions& options() const { return options_; }

 private:
  struct Worker;
  friend struct Worker;

  void AcceptorLoop();

  api::Server* const api_;
  const NetServerOptions options_;

  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;  // eventfd: breaks the acceptor out of epoll

  Mutex mu_{"net.server"};
  bool started_ SDB_GUARDED_BY(mu_) = false;
  bool shutdown_ SDB_GUARDED_BY(mu_) = false;

  // Atomic counters (see NetServerStats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> errors_sent_{0};
  std::atomic<uint64_t> overflow_closes_{0};

  std::atomic<bool> acceptor_stop_{false};
  // unguarded: filled in Start() before threads exist, cleared after joins.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  // unguarded: acceptor-thread-only round-robin cursor.
  size_t next_worker_ = 0;
};

}  // namespace net
}  // namespace shareddb

#endif  // SHAREDDB_NET_SERVER_H_
