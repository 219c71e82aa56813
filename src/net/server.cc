#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace shareddb {
namespace net {

namespace {

/// epoll user-data of a worker's wake eventfd (connection ids start at 1).
constexpr uint64_t kWakeTag = 0;

void WriteEventfd(int fd) {
  uint64_t one = 1;
  ssize_t n;
  // EAGAIN means the counter is saturated — a wakeup is already pending.
  do {
    n = write(fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

void DrainEventfd(int fd) {
  uint64_t v;
  ssize_t n;
  do {
    n = read(fd, &v, sizeof(v));
  } while (n < 0 && errno == EINTR);
}

ResultSet OkAck() {
  ResultSet rs;
  return rs;
}

}  // namespace

/// One event-loop thread. Connection state (the `conns` map and everything
/// inside a Conn) is owned EXCLUSIVELY by the loop thread; the only
/// cross-thread traffic is one guarded mailbox (incoming fds from the
/// acceptor, completions pushed by the engine's sinks) plus eventfd wakeups.
struct Server::Worker {
  /// A fulfilled call on its way back to the loop thread.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    bool is_async = false;  // true: fulfills an async handle, not a request
    uint64_t handle = 0;
    ResultSet rs;
  };

  /// Server-side state of one EXECUTE_ASYNC handle.
  struct AsyncEntry {
    api::CallCanceller canceller;
    bool done = false;
    bool discard = false;        // abandoned by the client: free on landing
    bool fetch_waiting = false;  // a FETCH(wait=1) response is deferred
    uint64_t fetch_request_id = 0;
    ResultSet result;
  };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    bool got_hello = false;
    bool close_after_flush = false;
    bool overflowed = false;
    bool flush_queued = false;  // listed in the loop's `touched`
    std::string rbuf;
    std::string wbuf;   // woff = sent prefix; frames are appended whole
    size_t woff = 0;
    std::unique_ptr<api::Session> session;
    /// Prepared-statement handles are per-connection, like every wire
    /// protocol: EXECUTE by id only resolves ids PREPAREd on this conn.
    std::unordered_map<uint32_t, api::PreparedStatement> stmts;
    uint64_t next_handle = 1;
    std::unordered_map<uint64_t, AsyncEntry> asyncs;
    /// Blocking EXECUTEs the engine still owes, by request id (for cancel
    /// on close and erase on delivery).
    std::unordered_map<uint64_t, api::CallCanceller> execs;
  };

  Server* srv = nullptr;
  int epfd = -1;
  int wake_fd = -1;

  // unguarded: loop-thread-only (connections are pinned to one worker).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  // unguarded: loop-thread-only; connections with replies to flush once
  // this round's completions are applied.
  std::vector<uint64_t> touched;

  Mutex mu{"net.worker"};
  std::vector<int> incoming SDB_GUARDED_BY(mu);
  std::vector<Completion> completions SDB_GUARDED_BY(mu);
  bool stop SDB_GUARDED_BY(mu) = false;
  /// Calls this loop submitted whose sink has not run yet: each such sink
  /// still points at this Worker. Raised by the loop thread, lowered under
  /// `mu` by the sinks; Shutdown waits on `owed_cv` for 0.
  std::atomic<int64_t> owed{0};
  CondVar owed_cv;

  std::thread loop_thread;

  void Wake() { WriteEventfd(wake_fd); }

  // --- loop-thread-only connection plumbing ----------------------------------

  Conn* Find(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  void AddConn(int fd, uint64_t id) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = id;
    c->session = srv->api_->OpenSession();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = id;
    if (epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      srv->connections_closed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    conns.emplace(id, std::move(c));
  }

  /// Cancels everything the engine still owes this connection and marks
  /// async entries discarded so their completions get dropped.
  void CancelConnCalls(Conn* c) {
    for (auto& [rid, canceller] : c->execs) canceller.Cancel();
    c->execs.clear();
    for (auto& [h, e] : c->asyncs) {
      if (!e.done) e.canceller.Cancel();
      e.discard = true;
    }
  }

  void CloseConn(Conn* c) {
    CancelConnCalls(c);
    const uint64_t id = c->id;
    (void)epoll_ctl(epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    conns.erase(id);  // invalidates c
    srv->connections_closed_.fetch_add(1, std::memory_order_relaxed);
  }

  void AppendFrame(Conn* c, const std::string& frame) {
    if (c->overflowed) return;  // already emitted the grace ERROR
    const size_t cap = srv->options_.max_write_buffer + kFrameHeaderBytes;
    if (c->wbuf.size() - c->woff + frame.size() > cap) {
      // A round's replies are buffered before its flush: let the socket
      // take what it can before calling the reader slow. A hard error is
      // left for that flush to find.
      (void)SendBuffered(c);
    }
    if (c->wbuf.size() - c->woff + frame.size() > cap) {
      // Slow reader: one grace ERROR so the peer learns WHY, then close.
      // Frames already buffered stay intact — nothing is ever torn.
      c->overflowed = true;
      c->close_after_flush = true;
      srv->overflow_closes_.fetch_add(1, std::memory_order_relaxed);
      srv->errors_sent_.fetch_add(1, std::memory_order_relaxed);
      srv->frames_out_.fetch_add(1, std::memory_order_relaxed);
      ErrorMsg e;
      e.code = StatusCode::kResourceExhausted;
      e.message = "slow reader: write buffer overflow";
      c->wbuf += SealFrame(FrameType::kError, 0, EncodeError(e));
      CancelConnCalls(c);
      return;
    }
    c->wbuf += frame;
    srv->frames_out_.fetch_add(1, std::memory_order_relaxed);
  }

  void SendError(Conn* c, uint64_t request_id, const Status& s) {
    srv->errors_sent_.fetch_add(1, std::memory_order_relaxed);
    AppendFrame(c, SealFrame(FrameType::kError, request_id,
                             EncodeError(ErrorFromStatus(s))));
  }

  void SendResultSet(Conn* c, uint64_t request_id, const ResultSet& rs,
                     bool ready, uint64_t handle) {
    if (!rs.status.ok()) {
      srv->errors_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<std::string> frames;
    EncodeResultFrames(request_id, rs, ready, handle,
                       srv->options_.max_frame_bytes, &frames);
    for (const std::string& f : frames) AppendFrame(c, f);
  }

  /// Sends buffered bytes until drained or EAGAIN; false on a hard error.
  bool SendBuffered(Conn* c) {
    while (c->woff < c->wbuf.size()) {
      const ssize_t n = send(c->fd, c->wbuf.data() + c->woff,
                             c->wbuf.size() - c->woff, MSG_NOSIGNAL);
      if (n > 0) {
        c->woff += static_cast<size_t>(n);
        srv->bytes_out_.fetch_add(static_cast<uint64_t>(n),
                                  std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    c->wbuf.clear();
    c->woff = 0;
    return true;
  }

  /// Writes until drained or EAGAIN. Returns false when the connection was
  /// closed (write error, or close_after_flush and the buffer drained).
  bool FlushWrites(Conn* c) {
    if (SendBuffered(c) && (!c->wbuf.empty() || !c->close_after_flush)) {
      return true;
    }
    CloseConn(c);
    return false;
  }

  void MarkProtocolError(Conn* c, uint64_t request_id, const char* what) {
    srv->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(c, request_id, Status::InvalidArgument(what));
    c->close_after_flush = true;
    CancelConnCalls(c);
  }

  void HandleExecute(Conn* c, const Frame& f, bool is_async) {
    ExecuteMsg m;
    if (!DecodeExecute(f.body, &m)) {
      MarkProtocolError(c, f.request_id, "malformed EXECUTE body");
      return;
    }
    if (is_async && srv->options_.max_async_per_conn > 0 &&
        c->asyncs.size() >= srv->options_.max_async_per_conn) {
      SendError(c, f.request_id,
                Status::ResourceExhausted(
                    "too many outstanding async calls on this connection"));
      return;
    }
    api::CallOptions opts;
    if (m.deadline_ms > 0) {
      opts.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(m.deadline_ms);
    }
    const api::PreparedStatement* ps = nullptr;
    if (!m.by_name) {
      auto it = c->stmts.find(m.statement_id);
      if (it == c->stmts.end()) {
        SendError(c, f.request_id,
                  Status::NotFound("statement id not prepared on this "
                                   "connection"));
        return;
      }
      ps = &it->second;
    }
    const uint64_t handle = is_async ? c->next_handle++ : 0;
    Engine::CompletionSink sink = [this, conn_id = c->id, rid = f.request_id,
                                   is_async, handle](ResultSet rs) {
      Post(Completion{conn_id, rid, is_async, handle, std::move(rs)});
    };
    api::CallCanceller canceller;
    owed.fetch_add(1);
    const Status s =
        ps != nullptr ? c->session->Submit(*ps, std::move(m.params), opts,
                                           std::move(sink), &canceller)
                      : c->session->Submit(m.name, std::move(m.params), opts,
                                           std::move(sink), &canceller);
    // Synchronous rejections never reach the sink: they are answered
    // INLINE, so a flooded or draining server responds at once.
    if (!s.ok()) owed.fetch_sub(1);
    if (!is_async) {
      if (!s.ok()) {
        SendError(c, f.request_id, s);
      } else {
        c->execs.emplace(f.request_id, std::move(canceller));
      }
      return;
    }
    AsyncEntry& entry = c->asyncs[handle];
    entry.canceller = std::move(canceller);
    // Ack first so the client always owns the handle before its result.
    SendResultSet(c, f.request_id, OkAck(), /*ready=*/false, handle);
    if (!s.ok()) {
      entry.done = true;
      entry.result.status = s;
    }
  }

  void HandleFetch(Conn* c, const Frame& f) {
    FetchMsg m;
    if (!DecodeFetch(f.body, &m)) {
      MarkProtocolError(c, f.request_id, "malformed FETCH body");
      return;
    }
    auto it = c->asyncs.find(m.handle);
    if (it == c->asyncs.end()) {
      SendError(c, f.request_id, Status::NotFound("unknown async handle"));
      return;
    }
    AsyncEntry& e = it->second;
    if (e.done) {
      SendResultSet(c, f.request_id, e.result, /*ready=*/true, m.handle);
      c->asyncs.erase(it);
      return;
    }
    if (!m.wait) {
      SendResultSet(c, f.request_id, OkAck(), /*ready=*/false, m.handle);
      return;
    }
    if (e.fetch_waiting) {
      SendError(c, f.request_id,
                Status::FailedPrecondition("a FETCH is already waiting on "
                                           "this handle"));
      return;
    }
    e.fetch_waiting = true;
    e.fetch_request_id = f.request_id;
  }

  void HandleCancel(Conn* c, const Frame& f) {
    CancelMsg m;
    if (!DecodeCancel(f.body, &m)) {
      MarkProtocolError(c, f.request_id, "malformed CANCEL body");
      return;
    }
    auto it = c->asyncs.find(m.handle);
    if (it != c->asyncs.end()) {
      AsyncEntry& e = it->second;
      if (!e.done) e.canceller.Cancel();
      if (m.discard) {
        if (e.done) {
          c->asyncs.erase(it);
        } else {
          e.discard = true;
        }
      }
    }
    // Idempotent ack (an abandoned handle may already be consumed).
    SendResultSet(c, f.request_id, OkAck(), /*ready=*/false, m.handle);
  }

  void HandleFrame(Conn* c, const Frame& f) {
    if (!c->got_hello && f.type != FrameType::kHello) {
      srv->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(c, f.request_id,
                Status::FailedPrecondition("expected HELLO first"));
      c->close_after_flush = true;
      return;
    }
    switch (f.type) {
      case FrameType::kHello: {
        HelloMsg m;
        if (!DecodeHello(f.body, &m)) {
          MarkProtocolError(c, f.request_id, "malformed HELLO body");
          return;
        }
        if (m.version != kProtocolVersion) {
          SendError(c, f.request_id,
                    Status::Unimplemented("unsupported protocol version"));
          c->close_after_flush = true;
          return;
        }
        c->got_hello = true;
        PongMsg pong;
        pong.banner = "shareddb";
        pong.max_payload = srv->options_.max_frame_bytes;
        AppendFrame(c, SealFrame(FrameType::kPong, f.request_id,
                                 EncodePong(pong)));
        return;
      }
      case FrameType::kPrepare: {
        PrepareMsg m;
        if (!DecodePrepare(f.body, &m)) {
          MarkProtocolError(c, f.request_id, "malformed PREPARE body");
          return;
        }
        api::PreparedStatement ps;
        Status s = c->session->Prepare(m.name, &ps);
        if (!s.ok()) {
          SendError(c, f.request_id, s);
          return;
        }
        c->stmts[ps.id()] = ps;
        // PREPARE replies with a row-less RESULT: handle = statement id,
        // update_count = the statement's parameter count.
        ResultSet rs;
        rs.update_count = ps.num_params();
        SendResultSet(c, f.request_id, rs, /*ready=*/true, ps.id());
        return;
      }
      case FrameType::kExecute:
        HandleExecute(c, f, /*is_async=*/false);
        return;
      case FrameType::kExecuteAsync:
        HandleExecute(c, f, /*is_async=*/true);
        return;
      case FrameType::kFetch:
        HandleFetch(c, f);
        return;
      case FrameType::kCancel:
        HandleCancel(c, f);
        return;
      case FrameType::kGoodbye:
        c->close_after_flush = true;
        return;
      default:
        // Valid CRC, unknown type: answer and keep the connection — an
        // honest newer client should learn, not get hung up on.
        SendError(c, f.request_id,
                  Status::Unimplemented("unknown frame type"));
        return;
    }
  }

  /// Edge-triggered read: reads chunks up to EAGAIN or EOF, decoding after
  /// each one, then flushes responses; stops reading once the connection is
  /// closing (nothing after that would be decoded). Frames that arrived
  /// before the peer's EOF are answered; the EOF then acts as GOODBYE. A
  /// hard read error or a hang-up (`hangup`: EPOLLERR/EPOLLHUP) still
  /// decodes what was read, so damaged frames are counted, but closes
  /// without flushing: the peer cannot receive the replies. Returns false
  /// when the connection was closed (`c` is then dangling).
  bool ReadConn(Conn* c, bool hangup) {
    char buf[kReadChunkBytes];
    bool eof = false;
    while (!c->close_after_flush) {
      const ssize_t n = read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->rbuf.append(buf, static_cast<size_t>(n));
        srv->bytes_in_.fetch_add(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
        DecodeFrames(c);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0) hangup = true;  // hard error (reset): nobody to answer
      eof = true;
      break;
    }
    if (hangup) {
      CloseConn(c);  // pendings are cancelled
      return false;
    }
    if (eof) c->close_after_flush = true;
    return FlushWrites(c);
  }

  /// Dispatches every complete frame in `rbuf` until a partial one or a
  /// close. Walks by offset and erases the decoded prefix once: erasing
  /// frame by frame is quadratic in the bytes one chunk can hold.
  void DecodeFrames(Conn* c) {
    size_t off = 0;
    while (!c->close_after_flush) {
      Frame f;
      size_t consumed = 0;
      const DecodeStatus ds =
          DecodeFrame(std::string_view(c->rbuf).substr(off),
                      srv->options_.max_frame_bytes, &f, &consumed);
      if (ds == DecodeStatus::kNeedMore) break;
      if (ds == DecodeStatus::kFrame) {
        srv->frames_in_.fetch_add(1, std::memory_order_relaxed);
        off += consumed;
        HandleFrame(c, f);
        continue;
      }
      const char* what = ds == DecodeStatus::kBadCrc
                             ? "frame checksum mismatch"
                             : ds == DecodeStatus::kOversized
                                   ? "frame exceeds the payload cap"
                                   : "malformed frame payload";
      MarkProtocolError(c, 0, what);
      break;
    }
    c->rbuf.erase(0, off);
  }

  // --- completions ------------------------------------------------------------

  /// Engine sink, on the fulfilling thread: queues one completion and wakes
  /// the loop only when the queue goes from empty to non-empty, so a whole
  /// batch costs the loop one wakeup. The eventfd write and the `owed`
  /// decrement happen under `mu`, so once Shutdown sees owed == 0 no sink
  /// touches this Worker again.
  void Post(Completion comp) {
    MutexLock lock(&mu);
    if (completions.empty()) Wake();
    completions.push_back(std::move(comp));
    if (owed.fetch_sub(1) == 1) owed_cv.NotifyAll();
  }

  /// Queues `c` for the once-per-round flush of applied completions.
  void Touch(Conn* c) {
    if (c->flush_queued) return;
    c->flush_queued = true;
    touched.push_back(c->id);
  }

  /// Loop thread: applies one completion to its connection; the reply is
  /// flushed with the rest of the round's (see Touch).
  void ApplyCompletion(Completion comp) {
    Conn* c = Find(comp.conn_id);
    if (c == nullptr) return;  // connection died first; result dropped
    if (!comp.is_async) {
      c->execs.erase(comp.request_id);
      SendResultSet(c, comp.request_id, comp.rs, /*ready=*/true, 0);
      Touch(c);
      return;
    }
    auto it = c->asyncs.find(comp.handle);
    if (it == c->asyncs.end()) return;
    AsyncEntry& e = it->second;
    e.done = true;
    e.result = std::move(comp.rs);
    if (e.discard) {
      // A pipelining client can park a FETCH(wait) and then CANCEL(discard)
      // the same handle; the parked request id must still get an answer or
      // that client hangs forever.
      if (e.fetch_waiting) {
        SendError(c, e.fetch_request_id,
                  Status::Aborted("async handle was cancelled and discarded"));
        Touch(c);
      }
      c->asyncs.erase(it);
      return;
    }
    if (e.fetch_waiting) {
      SendResultSet(c, e.fetch_request_id, e.result, /*ready=*/true,
                    comp.handle);
      c->asyncs.erase(it);
      Touch(c);
    }
  }

  // --- event loop ------------------------------------------------------------

  void Loop() {
    epoll_event evs[64];
    uint64_t next_conn_id = 1;
    for (;;) {
      const int n = epoll_wait(epfd, evs, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = evs[i].data.u64;
        if (tag == kWakeTag) {
          DrainEventfd(wake_fd);
          continue;
        }
        Conn* c = Find(tag);
        if (c == nullptr) continue;  // closed earlier in this batch
        const bool hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        if ((evs[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          // Also on a hang-up: decode the bytes the socket still holds.
          if (!ReadConn(c, hangup)) continue;
        } else if (hangup) {
          CloseConn(c);
          continue;
        }
        if ((evs[i].events & EPOLLOUT) != 0) {
          if ((c = Find(tag)) != nullptr) (void)FlushWrites(c);
        }
      }
      std::vector<int> newfds;
      std::vector<Completion> comps;
      bool stop_now;
      {
        MutexLock lock(&mu);
        newfds.swap(incoming);
        comps.swap(completions);
        stop_now = stop;
      }
      for (int fd : newfds) AddConn(fd, next_conn_id++);
      for (Completion& comp : comps) ApplyCompletion(std::move(comp));
      for (uint64_t id : touched) {
        Conn* c = Find(id);
        if (c == nullptr) continue;
        c->flush_queued = false;
        (void)FlushWrites(c);
      }
      touched.clear();
      if (stop_now) break;
    }
    // Teardown: cancel what the engine owes, push out what the sockets
    // will take without blocking, close everything.
    for (auto& [id, c] : conns) {
      CancelConnCalls(c.get());
      (void)SendBuffered(c.get());
      close(c->fd);
      srv->connections_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    conns.clear();
  }
};

// --- Server ------------------------------------------------------------------

Server::Server(api::Server* api, NetServerOptions options)
    : api_(api), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  MutexLock lock(&mu_);
  if (started_ || shutdown_) {
    return started_ && !shutdown_
               ? Status::OK()
               : Status::FailedPrecondition("net server already shut down");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, options_.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind/listen on " + options_.host + " failed: " +
                           err);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  accept_wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  // Create and validate every fd BEFORE starting any thread: a worker loop
  // on a broken epfd would be silently dead, and a missing wake eventfd
  // would leave Shutdown() hanging in join() with no way to interrupt the
  // blocked epoll_wait. No threads run yet, so unwinding is just close().
  const int nworkers = options_.num_workers > 0 ? options_.num_workers : 1;
  bool fds_ok = accept_wake_fd_ >= 0;
  for (int i = 0; fds_ok && i < nworkers; ++i) {
    auto w = std::make_unique<Worker>();
    w->srv = this;
    w->epfd = epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    fds_ok = w->epfd >= 0 && w->wake_fd >= 0 &&
             epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->wake_fd, &ev) == 0;
    workers_.push_back(std::move(w));
  }
  if (!fds_ok) {
    for (auto& w : workers_) {
      if (w->epfd >= 0) close(w->epfd);
      if (w->wake_fd >= 0) close(w->wake_fd);
    }
    workers_.clear();
    if (accept_wake_fd_ >= 0) close(accept_wake_fd_);
    accept_wake_fd_ = -1;
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("epoll_create1/eventfd setup failed");
  }
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->loop_thread = std::thread([wp] { wp->Loop(); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::AcceptorLoop() {
  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) return;  // cannot poll: no accepts, but Shutdown still joins
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);
  ev.data.u64 = 1;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  epoll_event evs[8];
  for (;;) {
    const int n = epoll_wait(epfd, evs, 8, -1);
    if (n < 0 && errno != EINTR) break;
    if (acceptor_stop_.load(std::memory_order_acquire)) break;
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
        // Persistent failure (EMFILE/ENFILE/ENOBUFS/...): the listen fd is
        // registered level-triggered and stays readable, so re-polling
        // immediately would spin this thread at 100% CPU until fds free
        // up. Back off briefly, then let epoll re-announce the backlog.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        break;
      }
      int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      Worker* w = workers_[next_worker_++ % workers_.size()].get();
      {
        MutexLock lock(&w->mu);
        w->incoming.push_back(fd);
      }
      w->Wake();
    }
  }
  close(epfd);
}

void Server::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (!started_ || shutdown_) {
      shutdown_ = true;
      return;
    }
    shutdown_ = true;
  }
  // Order matters: stop taking connections, then the event loops (which
  // cancel + close their connections), then wait until the engine owes each
  // loop nothing: every outstanding sink points at its Worker, so nothing is
  // freed before the last one has run (this needs a running or shut-down
  // api driver to drain the cancelled calls). fds close only after that so
  // late sinks can still write their wakeups.
  acceptor_stop_.store(true, std::memory_order_release);
  WriteEventfd(accept_wake_fd_);
  acceptor_.join();
  for (auto& w : workers_) {
    {
      MutexLock lock(&w->mu);
      w->stop = true;
    }
    w->Wake();
  }
  for (auto& w : workers_) w->loop_thread.join();
  for (auto& w : workers_) {
    MutexLock lock(&w->mu);
    while (w->owed.load() > 0) {
      w->owed_cv.Wait(&w->mu);
    }
  }
  for (auto& w : workers_) {
    close(w->epfd);
    close(w->wake_fd);
  }
  workers_.clear();
  close(listen_fd_);
  close(accept_wake_fd_);
  listen_fd_ = -1;
  accept_wake_fd_ = -1;
}

NetServerStats Server::stats() const {
  NetServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  s.overflow_closes = overflow_closes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace shareddb
