#ifndef SGLA_RPC_SERVER_H_
#define SGLA_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpc/admission.h"
#include "rpc/wire.h"
#include "serve/engine.h"
#include "util/status.h"
#include "util/task_queue.h"

namespace sgla {
namespace rpc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via port() after Start().
  int port = 0;
  /// Per-tenant in-flight request quota (solves + control ops); <= 0
  /// disables per-tenant admission. The engine's EngineOptions::max_pending
  /// is the global backstop underneath this.
  int64_t tenant_max_inflight = 64;
  /// Drain deadline for Shutdown(): once it elapses, connections whose
  /// peers will not take their remaining reply bytes are force-closed so
  /// Shutdown() cannot block forever on a stalled reader. In-flight engine
  /// work is always awaited (it is bounded by solve time); only the socket
  /// drain is subject to the deadline. <= 0 waits indefinitely.
  int drain_timeout_ms = 5000;
  /// Per-connection cap on reply bytes queued in userspace because the peer
  /// is not reading. A connection exceeding it is closed — a client that
  /// fires solves and never drains replies must not grow server memory
  /// without bound. Must comfortably exceed the largest reply frame
  /// (payloads are capped at 256 MiB). <= 0 disables the cap.
  int64_t max_connection_backlog_bytes = int64_t{512} << 20;
  /// SO_SNDBUF for accepted sockets; 0 = OS default. Small values make the
  /// kernel buffer fill quickly so backlog/drain behavior is observable —
  /// used by tests; production keeps the default.
  int send_buffer_bytes = 0;
};

/// Epoll-based binary-framed RPC front-end over a serve::Engine: one event-
/// loop thread owns every socket, solves are dispatched through the engine's
/// bounded, coalescing TrySubmit (completions come back via an eventfd), and
/// Register/Update/Evict run on a small control TaskQueue. Admission is
/// layered: per-tenant quotas here, the engine's global max_pending bound
/// underneath — both reject with a typed RESOURCE_EXHAUSTED frame instead of
/// queueing unboundedly.
///
/// Shutdown() drains gracefully: the listener closes immediately, frames
/// already received keep being processed to completion, frames arriving
/// during the drain get a typed FAILED_PRECONDITION reply, and the loop
/// exits only after every accepted request's reply has been handed to the
/// socket layer — an accepted request is never silently dropped. The one
/// exception is a peer that stops reading its replies: after
/// ServerOptions::drain_timeout_ms its connection is force-closed so a
/// stalled reader cannot pin Shutdown() forever.
class Server {
 public:
  /// `engine` must outlive the server. The engine's own options decide
  /// session parallelism and the global admission bound.
  explicit Server(serve::Engine* engine, const ServerOptions& options = {});
  ~Server();  ///< Shutdown() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop. Fails (without a thread) on
  /// socket errors — e.g. the port is taken.
  Status Start();

  /// The actually-bound port (after Start(); useful with options.port = 0).
  int port() const { return port_; }

  /// Graceful drain; blocks until every accepted request was answered and
  /// the loop exited. Idempotent and called by the destructor.
  void Shutdown();

  // Observability counters (tests and the load generator read these).
  int64_t frames_received() const { return frames_received_.load(); }
  int64_t solves_dispatched() const { return solves_dispatched_.load(); }
  int64_t rejected_quota() const { return rejected_quota_.load(); }
  int64_t rejected_engine() const { return rejected_engine_.load(); }

 private:
  /// Per-connection state; owned by the event loop thread exclusively.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string tenant;  ///< set by kHello; empty = default tenant
    std::vector<uint8_t> in;                ///< unparsed inbound bytes
    std::deque<std::vector<uint8_t>> out;   ///< frames awaiting write
    size_t out_offset = 0;                  ///< into out.front()
    size_t out_bytes = 0;  ///< total bytes across out (backlog accounting)
    int64_t inflight = 0;  ///< async requests awaiting their completion
    bool want_write = false;                ///< EPOLLOUT registered
  };

  struct Completion {
    uint64_t connection_id = 0;
    std::vector<uint8_t> frame;
  };

  void Loop();
  void AcceptNew();
  void HandleRead(Connection* conn);
  void ParseFrames(Connection* conn);
  void DispatchFrame(Connection* conn, const FrameHeader& header,
                     const uint8_t* payload, size_t payload_size);
  void DispatchSolve(Connection* conn, uint64_t request_id,
                     const uint8_t* payload, size_t payload_size);
  void DispatchControl(Connection* conn, const FrameHeader& header,
                       const uint8_t* payload, size_t payload_size);
  /// Appends a frame to the connection's write queue and flushes what the
  /// socket will take.
  void SendNow(Connection* conn, std::vector<uint8_t> frame);
  void TryFlush(Connection* conn);
  void SetWantWrite(Connection* conn, bool want);
  /// Closes the socket; the map entry lingers (fd = -1) while completions
  /// are still owed so they can be accounted and dropped.
  void CloseConnection(Connection* conn);
  void DeliverCompletions();
  /// Worker-side: queues a reply frame for the loop to deliver and wakes it.
  void PostCompletion(uint64_t connection_id, std::vector<uint8_t> frame);
  bool DrainComplete();

  serve::Engine* engine_;
  ServerOptions options_;
  TenantQuota quota_;
  /// One worker runs Register/Update/Evict in arrival order: they can be
  /// expensive (registration runs KNN) and must not stall the event loop or
  /// occupy solve sessions.
  util::TaskQueue control_queue_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int port_ = 0;
  std::thread loop_;
  bool started_ = false;
  std::mutex lifecycle_mutex_;  ///< serializes Start/Shutdown

  std::atomic<bool> draining_{false};
  /// Requests dispatched asynchronously whose completion has not been
  /// posted yet; the drain condition needs it to hit zero.
  std::atomic<int64_t> inflight_total_{0};
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  uint64_t next_connection_id_ = 2;  ///< 0 = listener, 1 = eventfd
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> solves_dispatched_{0};
  std::atomic<int64_t> rejected_quota_{0};
  std::atomic<int64_t> rejected_engine_{0};
};

}  // namespace rpc
}  // namespace sgla

#endif  // SGLA_RPC_SERVER_H_
