#include "rpc/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "rpc/messages.h"
#include "util/logging.h"

namespace sgla {
namespace rpc {
namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kEventFdId = 1;

Status Errno(const std::string& what) {
  return Internal(what + ": " + std::string(strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Server::Server(serve::Engine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      quota_(options.tenant_max_inflight),
      control_queue_(1) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  SGLA_CHECK(!started_) << "Server::Start called twice";

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgument("bad host '" + options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("bind " + options_.host + ":" +
                                std::to_string(options_.port));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    const Status status = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const Status status = Errno("epoll_create1/eventfd");
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (event_fd_ >= 0) close(event_fd_);
    close(listen_fd_);
    listen_fd_ = epoll_fd_ = event_fd_ = -1;
    return status;
  }
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventFdId;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  started_ = true;
  loop_ = std::thread([this] { Loop(); });
  return OkStatus();
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!started_) return;
  draining_.store(true, std::memory_order_release);
  const uint64_t wake = 1;
  // Wake the loop even if it is idle in epoll_wait.
  [[maybe_unused]] ssize_t n = write(event_fd_, &wake, sizeof(wake));
  loop_.join();
  close(epoll_fd_);
  close(event_fd_);
  epoll_fd_ = event_fd_ = -1;
  started_ = false;
}

void Server::Loop() {
  bool listener_open = true;
  bool drain_deadline_armed = false;
  std::chrono::steady_clock::time_point drain_deadline;
  epoll_event events[64];
  for (;;) {
    // The timeout bounds the drain-condition re-check (a completion can be
    // posted a hair before its inflight decrement; see DrainComplete).
    const int n = epoll_wait(epoll_fd_, events, 64, 50);
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kEventFdId) {
        uint64_t drained;
        while (read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // completions are delivered once per iteration below
      }
      if (id == kListenerId) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleRead(conn);
      // Re-check: HandleRead may have closed + erased the connection.
      it = connections_.find(id);
      if (it == connections_.end()) continue;
      conn = it->second.get();
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT)) TryFlush(conn);
    }
    DeliverCompletions();
    if (draining_.load(std::memory_order_acquire)) {
      if (listener_open) {
        // Stop accepting the moment drain starts; existing connections keep
        // being served until their accepted requests are answered.
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
        listener_open = false;
        if (options_.drain_timeout_ms > 0) {
          drain_deadline =
              std::chrono::steady_clock::now() +
              std::chrono::milliseconds(options_.drain_timeout_ms);
          drain_deadline_armed = true;
        }
      }
      if (drain_deadline_armed &&
          std::chrono::steady_clock::now() >= drain_deadline) {
        // The deadline only abandons peers that will not take their bytes;
        // engine work already in flight is still awaited below (it is
        // bounded by solve time, unlike a reader that never reads).
        std::vector<uint64_t> stalled;
        for (const auto& [id, conn] : connections_) {
          if (conn->fd >= 0 && !conn->out.empty()) stalled.push_back(id);
        }
        for (uint64_t id : stalled) {
          auto it = connections_.find(id);
          if (it != connections_.end()) CloseConnection(it->second.get());
        }
      }
      if (DrainComplete()) break;
    }
  }
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  connections_.clear();
  // epoll_fd_/event_fd_ are closed by Shutdown() after the join:
  // Shutdown's own wake-up write may race this thread's exit, and a write
  // to a recycled fd must be impossible, not merely unlikely.
}

bool Server::DrainComplete() {
  if (inflight_total_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (conn->inflight > 0) return false;
    if (conn->fd >= 0 && !conn->out.empty()) return false;
  }
  return true;
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms us
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                 sizeof(options_.send_buffer_bytes));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    connections_.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleRead(Connection* conn) {
  uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->in.insert(conn->in.end(), buffer, buffer + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = orderly peer close; < 0 = hard error. Either way the connection
    // is done reading; pending completions are accounted then dropped.
    CloseConnection(conn);
    return;
  }
  ParseFrames(conn);
}

void Server::ParseFrames(Connection* conn) {
  const uint64_t id = conn->id;
  size_t offset = 0;
  while (conn != nullptr && conn->fd >= 0 &&
         conn->in.size() - offset >= kFrameHeaderBytes) {
    FrameHeader header;
    if (!DecodeFrameHeader(conn->in.data() + offset, &header)) {
      // Unknown type or oversized payload: framing is lost — drop the
      // connection rather than guessing a resync point.
      CloseConnection(conn);
      return;
    }
    if (conn->in.size() - offset - kFrameHeaderBytes < header.payload_length) {
      break;  // incomplete frame; wait for more bytes
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    DispatchFrame(conn, header, conn->in.data() + offset + kFrameHeaderBytes,
                  header.payload_length);
    offset += kFrameHeaderBytes + header.payload_length;
    // Dispatching can close — and, when no completions are owed, destroy —
    // the connection through a failed reply write (SendNow -> TryFlush ->
    // CloseConnection). Re-resolve by id before touching it again.
    auto it = connections_.find(id);
    conn = it == connections_.end() ? nullptr : it->second.get();
  }
  if (conn != nullptr && conn->fd >= 0 && offset > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(offset));
  }
}

void Server::DispatchFrame(Connection* conn, const FrameHeader& header,
                           const uint8_t* payload, size_t payload_size) {
  switch (header.type) {
    case FrameType::kHello: {
      WireReader r(payload, payload_size);
      HelloRequest hello;
      if (!DecodeHelloRequest(&r, &hello)) {
        SendNow(conn, BuildErrorFrame(header.request_id,
                                      InvalidArgument("malformed Hello")));
        return;
      }
      conn->tenant = hello.tenant;
      SendNow(conn,
              BuildFrame(FrameType::kHelloOk, header.request_id, {}));
      return;
    }
    case FrameType::kPing:
      SendNow(conn, BuildFrame(FrameType::kPong, header.request_id, {}));
      return;
    case FrameType::kSolve:
      DispatchSolve(conn, header.request_id, payload, payload_size);
      return;
    case FrameType::kRegister:
    case FrameType::kUpdate:
    case FrameType::kEvict:
    case FrameType::kCheckpoint:
      DispatchControl(conn, header, payload, payload_size);
      return;
    default:
      // A response type on the request path: protocol violation, but the
      // framing is intact — answer and keep the connection.
      SendNow(conn, BuildErrorFrame(
                        header.request_id,
                        InvalidArgument("unexpected frame type on request")));
      return;
  }
}

void Server::DispatchSolve(Connection* conn, uint64_t request_id,
                           const uint8_t* payload, size_t payload_size) {
  WireReader r(payload, payload_size);
  SolveWireRequest wire;
  if (!DecodeSolveRequest(&r, &wire)) {
    SendNow(conn, BuildErrorFrame(request_id,
                                  InvalidArgument("malformed Solve")));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    SendNow(conn, BuildErrorFrame(request_id,
                                  FailedPrecondition("server is draining")));
    return;
  }
  const std::string tenant = conn->tenant;
  if (!quota_.TryAcquire(tenant)) {
    rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    SendNow(conn,
            BuildErrorFrame(request_id,
                            ResourceExhausted("tenant '" + tenant +
                                              "' is at its in-flight quota")));
    return;
  }

  serve::SolveRequest request;
  request.graph_id = wire.graph_id;
  request.mode = wire.mode;
  request.algorithm = wire.algorithm;
  request.k = wire.k;
  request.quality = wire.quality;
  request.robust = wire.robust;

  serve::SubmitOptions submit;
  submit.coalesce = wire.coalesce;

  // Account BEFORE TrySubmit: the completion callback can run (and post)
  // before TrySubmit even returns.
  const uint64_t connection_id = conn->id;
  const uint8_t mode = static_cast<uint8_t>(wire.mode);
  ++conn->inflight;
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  const Status admitted = engine_->TrySubmit(
      std::move(request),
      [this, connection_id, request_id, tenant,
       mode](const Result<serve::SolveResponse>& result) {
        std::vector<uint8_t> frame;
        if (result.ok()) {
          SolveReply reply;
          reply.mode = mode;
          reply.weights = result->integration.weights;
          reply.graph_epoch = result->stats.graph_epoch;
          reply.warm_started = result->stats.warm_started;
          reply.lanczos_iterations = result->stats.lanczos_iterations;
          reply.tier_served = static_cast<uint8_t>(result->stats.tier_served);
          reply.active_views = result->stats.active_views;
          reply.total_views = result->stats.total_views;
          reply.labels = result->labels;
          reply.embedding = result->embedding;
          WireWriter w;
          EncodeSolveReply(reply, &w);
          frame = BuildFrame(FrameType::kSolveOk, request_id, std::move(w));
        } else {
          frame = BuildErrorFrame(request_id, result.status());
        }
        quota_.Release(tenant);
        PostCompletion(connection_id, std::move(frame));
      },
      submit);
  if (!admitted.ok()) {
    // Rejected synchronously (unknown graph / engine saturated): the
    // callback will never fire — undo the accounting and answer now.
    --conn->inflight;
    inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
    quota_.Release(tenant);
    if (admitted.code() == StatusCode::kResourceExhausted) {
      rejected_engine_.fetch_add(1, std::memory_order_relaxed);
    }
    SendNow(conn, BuildErrorFrame(request_id, admitted));
    return;
  }
  solves_dispatched_.fetch_add(1, std::memory_order_relaxed);
}

void Server::DispatchControl(Connection* conn, const FrameHeader& header,
                             const uint8_t* payload, size_t payload_size) {
  if (draining_.load(std::memory_order_acquire)) {
    SendNow(conn, BuildErrorFrame(header.request_id,
                                  FailedPrecondition("server is draining")));
    return;
  }
  const std::string tenant = conn->tenant;
  if (!quota_.TryAcquire(tenant)) {
    rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    SendNow(conn,
            BuildErrorFrame(header.request_id,
                            ResourceExhausted("tenant '" + tenant +
                                              "' is at its in-flight quota")));
    return;
  }

  // Decode on the event loop (cheap relative to the op), run the engine call
  // on the control queue (registration runs KNN — far too slow for the
  // loop). The payload must be copied out of the connection's read buffer:
  // the buffer is compacted as soon as we return.
  const FrameType type = header.type;
  const uint64_t request_id = header.request_id;
  const uint64_t connection_id = conn->id;
  auto body = std::make_shared<std::vector<uint8_t>>(payload,
                                                     payload + payload_size);
  ++conn->inflight;
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
  control_queue_.Submit([this, type, request_id, connection_id, tenant,
                         body](int) {
    std::vector<uint8_t> frame;
    // An escaping exception (e.g. bad_alloc while materializing a huge
    // registration) would leak the quota slot and the inflight count — and
    // a leaked inflight count hangs Shutdown() forever. Catch everything
    // and answer with a typed error instead.
    try {
      WireReader r(body->data(), body->size());
      switch (type) {
      case FrameType::kRegister: {
        RegisterRequest request;
        if (!DecodeRegisterRequest(&r, &request)) {
          frame = BuildErrorFrame(request_id,
                                  InvalidArgument("malformed Register"));
          break;
        }
        serve::RegisterOptions options;
        if (request.knn_k > 0) options.knn.k = request.knn_k;
        options.robust_views = request.robust_views;
        auto entry = engine_->RegisterGraph(request.id, request.mvag, options);
        if (!entry.ok()) {
          frame = BuildErrorFrame(request_id, entry.status());
          break;
        }
        RegisterReply reply;
        reply.num_nodes = (*entry)->num_nodes;
        reply.epoch = (*entry)->epoch;
        reply.num_views = static_cast<int32_t>((*entry)->views.size());
        WireWriter w;
        EncodeRegisterReply(reply, &w);
        frame = BuildFrame(FrameType::kRegisterOk, request_id, std::move(w));
        break;
      }
      case FrameType::kUpdate: {
        UpdateRequest request;
        if (!DecodeUpdateRequest(&r, &request)) {
          frame = BuildErrorFrame(request_id,
                                  InvalidArgument("malformed Update"));
          break;
        }
        auto entry = engine_->UpdateGraph(request.id, request.delta);
        if (!entry.ok()) {
          frame = BuildErrorFrame(request_id, entry.status());
          break;
        }
        UpdateReply reply;
        reply.epoch = (*entry)->epoch;
        WireWriter w;
        EncodeUpdateReply(reply, &w);
        frame = BuildFrame(FrameType::kUpdateOk, request_id, std::move(w));
        break;
      }
      case FrameType::kEvict: {
        EvictRequest request;
        if (!DecodeEvictRequest(&r, &request)) {
          frame = BuildErrorFrame(request_id,
                                  InvalidArgument("malformed Evict"));
          break;
        }
        EvictReply reply;
        reply.existed = engine_->EvictGraph(request.id);
        WireWriter w;
        EncodeEvictReply(reply, &w);
        frame = BuildFrame(FrameType::kEvictOk, request_id, std::move(w));
        break;
      }
      case FrameType::kCheckpoint: {
        // Admin op: the checkpoint write (a consistent snapshot + fsync)
        // belongs on the control queue with the other slow mutations.
        CheckpointRequest request;
        if (!DecodeCheckpointRequest(&r, &request)) {
          frame = BuildErrorFrame(request_id,
                                  InvalidArgument("malformed Checkpoint"));
          break;
        }
        auto epoch = engine_->Checkpoint(request.id);
        if (!epoch.ok()) {
          frame = BuildErrorFrame(request_id, epoch.status());
          break;
        }
        CheckpointReply reply;
        reply.epoch = *epoch;
        WireWriter w;
        EncodeCheckpointReply(reply, &w);
        frame = BuildFrame(FrameType::kCheckpointOk, request_id, std::move(w));
        break;
      }
      default:
        frame = BuildErrorFrame(request_id, Internal("bad control dispatch"));
        break;
      }
    } catch (const std::exception& e) {
      frame = BuildErrorFrame(
          request_id, Internal(std::string("control op failed: ") + e.what()));
    } catch (...) {
      frame = BuildErrorFrame(request_id, Internal("control op failed"));
    }
    quota_.Release(tenant);
    PostCompletion(connection_id, std::move(frame));
  });
}

void Server::PostCompletion(uint64_t connection_id,
                            std::vector<uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back({connection_id, std::move(frame)});
  }
  // Wake BEFORE decrementing: the loop cannot exit (and the fds cannot be
  // closed) until inflight_total_ hits zero, so ordering the write first
  // guarantees it never races a closed — or recycled — event fd. A missed
  // wake is impossible either way (the loop polls on a short timeout).
  const uint64_t wake = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &wake, sizeof(wake));
  // Decrement only after the completion is visible: the drain condition
  // checks inflight first, completions second, so the reply can never fall
  // through the gap.
  inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::DeliverCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.connection_id);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    --conn->inflight;
    if (conn->fd < 0) {
      // The peer hung up before its reply: account it, drop the bytes, and
      // reap the zombie entry once the last owed completion lands.
      if (conn->inflight == 0) connections_.erase(it);
      continue;
    }
    SendNow(conn, std::move(completion.frame));
  }
}

void Server::SendNow(Connection* conn, std::vector<uint8_t> frame) {
  conn->out_bytes += frame.size();
  conn->out.push_back(std::move(frame));
  const uint64_t id = conn->id;
  TryFlush(conn);
  // TryFlush may have closed (and, with no completions owed, destroyed) the
  // connection on a write error — re-resolve before the backlog check.
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  conn = it->second.get();
  if (options_.max_connection_backlog_bytes > 0 && conn->fd >= 0 &&
      static_cast<int64_t>(conn->out_bytes) >
          options_.max_connection_backlog_bytes) {
    // The peer is not draining its replies; queued bytes per connection are
    // bounded, so cut it loose rather than grow server memory on its behalf.
    CloseConnection(conn);
  }
}

void Server::TryFlush(Connection* conn) {
  while (!conn->out.empty()) {
    const std::vector<uint8_t>& front = conn->out.front();
    // MSG_NOSIGNAL: a peer that resets mid-reply must surface as EPIPE, not
    // a process-killing SIGPIPE.
    const ssize_t n = send(conn->fd, front.data() + conn->out_offset,
                           front.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        SetWantWrite(conn, true);
        return;
      }
      CloseConnection(conn);
      return;
    }
    conn->out_offset += static_cast<size_t>(n);
    conn->out_bytes -= static_cast<size_t>(n);
    if (conn->out_offset == front.size()) {
      conn->out.pop_front();
      conn->out_offset = 0;
    }
  }
  SetWantWrite(conn, false);
}

void Server::SetWantWrite(Connection* conn, bool want) {
  if (conn->want_write == want || conn->fd < 0) return;
  conn->want_write = want;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(Connection* conn) {
  if (conn->fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    conn->fd = -1;
  }
  conn->out.clear();
  conn->out_offset = 0;
  conn->out_bytes = 0;
  conn->in.clear();
  if (conn->inflight == 0) connections_.erase(conn->id);
  // else: zombie until DeliverCompletions reaps it.
}

}  // namespace rpc
}  // namespace sgla
