#ifndef SGLA_RPC_MESSAGES_H_
#define SGLA_RPC_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mvag.h"
#include "la/dense.h"
#include "rpc/wire.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "util/status.h"

namespace sgla {
namespace rpc {

/// Typed payloads of the RPC protocol (see wire.h for the frame envelope).
/// Every message has an Encode (struct -> WireWriter) and a Decode
/// (WireReader -> struct). Decode returns false on malformed/truncated
/// payloads (including trailing garbage) and may leave the output partially
/// written — callers reply kError INVALID_ARGUMENT and drop the partial
/// struct.
///
/// Deliberate scope: the Solve payload carries the request-key fields
/// (graph_id, mode, algorithm, k, quality, robust), the coalesce flag and
/// the ignored warm_start byte, and no solver tuning — server-side options
/// stay at their defaults, which is what makes key-based request coalescing
/// exact (two solves with the same key are semantically identical).

struct HelloRequest {
  std::string tenant;  ///< empty = the default tenant
};

struct RegisterRequest {
  std::string id;
  core::MultiViewGraph mvag;  ///< ground-truth labels do not travel
  /// Retired row-shard count: still on the wire, accepted and ignored.
  /// (The retired `updatable` byte after it is written as 1 and ignored.)
  int32_t shards = 1;
  /// KNN neighbor count for attribute views; 0 = server default.
  int32_t knn_k = 0;
  /// Registration-time robust default: every solve on this graph runs the
  /// robust objective (serve::RegisterOptions::robust_views).
  bool robust_views = false;
};

struct RegisterReply {
  int64_t num_nodes = 0;
  int64_t epoch = 0;
  int32_t num_views = 0;
};

struct UpdateRequest {
  std::string id;
  serve::GraphDelta delta;
};

struct UpdateReply {
  int64_t epoch = 0;
};

struct SolveWireRequest {
  std::string graph_id;
  serve::SolveMode mode = serve::SolveMode::kCluster;
  serve::Algorithm algorithm = serve::Algorithm::kSgla;
  int32_t k = 0;  ///< 0 = the graph's registered default
  /// Still on the wire, accepted and ignored (every solve runs cold).
  bool warm_start = false;
  /// Ask the server to coalesce with identical in-flight solves (default on:
  /// wire-identical requests are semantically identical; see above). The
  /// coalescing key includes `quality`, so a fast solve in flight never
  /// answers an exact request.
  bool coalesce = true;
  /// Serving tier (see serve::Quality). Graphs without a coarse companion
  /// quietly serve exact; the reply's tier_served says what actually ran.
  serve::Quality quality = serve::Quality::kExact;
  /// Run the robust objective (serve::SolveRequest::robust; ORed with the
  /// graph's registration default). Part of the coalescing key server-side.
  bool robust = false;
};

struct SolveReply {
  uint8_t mode = 0;  ///< serve::SolveMode of the payload
  la::Vector weights;
  int64_t graph_epoch = 0;
  bool warm_started = false;  ///< always false (serve::SolveStats)
  int64_t lanczos_iterations = 0;
  /// serve::Quality that actually served the solve (kExact on fallback).
  uint8_t tier_served = 0;
  /// View-lifecycle visibility: views the solve served over / resident
  /// total (serve::SolveStats::active_views / total_views).
  int32_t active_views = 0;
  int32_t total_views = 0;
  std::vector<int32_t> labels;  ///< kCluster
  la::DenseMatrix embedding;    ///< kEmbed
};

struct EvictRequest {
  std::string id;
};

struct EvictReply {
  bool existed = false;
};

/// Admin: force a durable checkpoint of one graph now (see
/// serve::Engine::Checkpoint). Engines without EngineOptions::data_dir
/// answer kError FAILED_PRECONDITION.
struct CheckpointRequest {
  std::string id;
};

struct CheckpointReply {
  int64_t epoch = 0;  ///< the epoch the written checkpoint captured
};

struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

void EncodeHelloRequest(const HelloRequest& msg, WireWriter* w);
bool DecodeHelloRequest(WireReader* r, HelloRequest* msg);

void EncodeRegisterRequest(const RegisterRequest& msg, WireWriter* w);
bool DecodeRegisterRequest(WireReader* r, RegisterRequest* msg);

void EncodeRegisterReply(const RegisterReply& msg, WireWriter* w);
bool DecodeRegisterReply(WireReader* r, RegisterReply* msg);

void EncodeUpdateRequest(const UpdateRequest& msg, WireWriter* w);
bool DecodeUpdateRequest(WireReader* r, UpdateRequest* msg);

void EncodeUpdateReply(const UpdateReply& msg, WireWriter* w);
bool DecodeUpdateReply(WireReader* r, UpdateReply* msg);

void EncodeSolveRequest(const SolveWireRequest& msg, WireWriter* w);
bool DecodeSolveRequest(WireReader* r, SolveWireRequest* msg);

/// Built from the engine's response; the double payloads (weights,
/// embedding) travel as raw bits, so the client reassembles exactly what
/// the engine computed.
void EncodeSolveReply(const SolveReply& msg, WireWriter* w);
bool DecodeSolveReply(WireReader* r, SolveReply* msg);

void EncodeEvictRequest(const EvictRequest& msg, WireWriter* w);
bool DecodeEvictRequest(WireReader* r, EvictRequest* msg);

void EncodeEvictReply(const EvictReply& msg, WireWriter* w);
bool DecodeEvictReply(WireReader* r, EvictReply* msg);

void EncodeCheckpointRequest(const CheckpointRequest& msg, WireWriter* w);
bool DecodeCheckpointRequest(WireReader* r, CheckpointRequest* msg);

void EncodeCheckpointReply(const CheckpointReply& msg, WireWriter* w);
bool DecodeCheckpointReply(WireReader* r, CheckpointReply* msg);

/// The GraphDelta sub-codec, shared verbatim by the Update payload and the
/// persist layer's WAL records (src/persist/wal.h): one serialization of a
/// delta, validated once. DecodeGraphDelta bounds-checks every count before
/// allocating (hostile counts cannot drive a resize) but, unlike the message
/// decoders, does NOT call Finish() — it is a section, not a whole payload.
void EncodeGraphDelta(const serve::GraphDelta& delta, WireWriter* w);
bool DecodeGraphDelta(WireReader* r, serve::GraphDelta* delta);

void EncodeErrorReply(const ErrorReply& msg, WireWriter* w);
bool DecodeErrorReply(WireReader* r, ErrorReply* msg);

/// A complete frame (header + payload) ready to write to a socket.
std::vector<uint8_t> BuildFrame(FrameType type, uint64_t request_id,
                                WireWriter payload);

/// The kError frame for a Status.
std::vector<uint8_t> BuildErrorFrame(uint64_t request_id,
                                     const Status& status);

}  // namespace rpc
}  // namespace sgla

#endif  // SGLA_RPC_MESSAGES_H_
