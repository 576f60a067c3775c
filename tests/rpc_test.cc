// RPC front-end tests: wire/message round-trips (including the raw-bits
// double guarantee and hostile-input rejection), a loopback end-to-end
// exercise asserting responses are bit-identical to direct Engine solves,
// provable request coalescing (physical solve count < request count),
// typed RESOURCE_EXHAUSTED rejections from both admission layers (tenant
// quota and engine max_pending), the error/exception serving path (a failed
// or throwing solve produces a typed reply and the worker survives),
// malformed payloads and graphs (a typed reply, not a dead server), the
// retired `shards` field (accepted and ignored), and graceful drain (every
// accepted request is answered across Shutdown).
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "rpc/client.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/rng.h"

namespace sgla {
namespace rpc {
namespace {

core::MultiViewGraph MakeMvag(int64_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.10, 0.01, &rng));
  mvag.AddAttributeView(
      data::GaussianAttributes(labels, k, 8, 3.0, 0.9, &rng));
  return mvag;
}

/// A gate the solve hook blocks on, so tests can hold a physical solve open
/// while they observe queueing/coalescing, then release it.
class SolveGate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// --- wire layer -------------------------------------------------------------

TEST(WireTest, FrameHeaderRoundTrip) {
  FrameHeader header;
  header.payload_length = 12345;
  header.type = FrameType::kSolve;
  header.request_id = 0xdeadbeefcafef00dULL;
  uint8_t bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);

  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(bytes, &decoded));
  EXPECT_EQ(decoded.payload_length, header.payload_length);
  EXPECT_EQ(decoded.type, header.type);
  EXPECT_EQ(decoded.request_id, header.request_id);
}

TEST(WireTest, FrameHeaderRejectsUnknownTypeAndOversizedPayload) {
  FrameHeader header;
  header.type = FrameType::kPing;
  uint8_t bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);

  FrameHeader decoded;
  bytes[4] = 99;  // not a FrameType
  EXPECT_FALSE(DecodeFrameHeader(bytes, &decoded));

  header.payload_length = kMaxPayloadBytes + 1;
  EncodeFrameHeader(header, bytes);
  EXPECT_FALSE(DecodeFrameHeader(bytes, &decoded));
}

TEST(WireTest, ReaderRejectsTruncationAndTrailingBytes) {
  WireWriter w;
  w.U32(7);
  w.Str("hello");
  std::vector<uint8_t> buffer = w.TakeBuffer();

  {  // truncated: poisoned reader stays poisoned
    WireReader r(buffer.data(), buffer.size() - 2);
    uint32_t u;
    std::string s;
    EXPECT_TRUE(r.U32(&u));
    EXPECT_FALSE(r.Str(&s));
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.U32(&u));
  }
  {  // trailing garbage: Finish catches it
    WireReader r(buffer.data(), buffer.size());
    uint32_t u;
    EXPECT_TRUE(r.U32(&u));
    EXPECT_FALSE(r.Finish());
  }
}

TEST(WireTest, DoublesTravelAsRawBits) {
  // Denormal, negative zero, and a NaN with a nonstandard payload: exact
  // bit patterns must survive the round trip (== on doubles cannot check
  // the NaN, so compare the bits).
  std::vector<double> values = {5e-324, -0.0, 1.0 / 3.0};
  uint64_t nan_bits = 0x7ff80000deadbeefULL;
  double nan;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  values.push_back(nan);

  WireWriter w;
  w.F64Vec(values);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  WireReader r(buffer.data(), buffer.size());
  std::vector<double> decoded;
  ASSERT_TRUE(r.F64Vec(&decoded));
  ASSERT_TRUE(r.Finish());
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t want, got;
    std::memcpy(&want, &values[i], sizeof(want));
    std::memcpy(&got, &decoded[i], sizeof(got));
    EXPECT_EQ(got, want) << "index " << i;
  }
}

TEST(WireTest, HostileCountsAreRejectedNotAllocated) {
  // A count prefix claiming 2^60 elements in a 12-byte payload must fail
  // the bounds check instead of driving a giant resize.
  WireWriter w;
  w.U64(1ULL << 60);
  w.U32(0);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  WireReader r(buffer.data(), buffer.size());
  std::vector<double> v;
  EXPECT_FALSE(r.F64Vec(&v));
}

// --- message round-trips ----------------------------------------------------

TEST(MessagesTest, RegisterRequestRoundTrip) {
  RegisterRequest msg;
  msg.id = "graph-a";
  msg.mvag = MakeMvag(60, 3, 11);
  msg.shards = 4;
  msg.knn_k = 7;

  WireWriter w;
  EncodeRegisterRequest(msg, &w);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  WireReader r(buffer.data(), buffer.size());
  RegisterRequest decoded;
  ASSERT_TRUE(DecodeRegisterRequest(&r, &decoded));
  EXPECT_EQ(decoded.id, msg.id);
  EXPECT_EQ(decoded.shards, msg.shards);
  EXPECT_EQ(decoded.knn_k, msg.knn_k);
  EXPECT_EQ(decoded.mvag.num_nodes(), msg.mvag.num_nodes());
  EXPECT_EQ(decoded.mvag.num_clusters(), msg.mvag.num_clusters());
  ASSERT_EQ(decoded.mvag.graph_views().size(), msg.mvag.graph_views().size());
  EXPECT_EQ(decoded.mvag.graph_views()[0].num_edges(),
            msg.mvag.graph_views()[0].num_edges());
  ASSERT_EQ(decoded.mvag.attribute_views().size(),
            msg.mvag.attribute_views().size());
  EXPECT_EQ(decoded.mvag.attribute_views()[0].data(),
            msg.mvag.attribute_views()[0].data());
}

TEST(MessagesTest, UpdateRequestRoundTrip) {
  UpdateRequest msg;
  msg.id = "graph-a";
  serve::GraphViewDelta g;
  g.view = 0;
  g.upserts.push_back({1, 2, 0.5});
  g.removals.push_back({3, 4});
  msg.delta.graph_views.push_back(g);
  serve::AttributeRowUpdate row;
  row.view = 1;
  row.row = 9;
  row.values = {1.0, 2.0, 3.0};
  msg.delta.attribute_rows.push_back(row);
  // View-lifecycle ops: one graph addition, one attribute addition, plus
  // removal/mask/unmask index lists.
  serve::ViewAddition add_graph;
  add_graph.graph = graph::Graph::FromEdges(10, {{0, 1, 2.0}, {2, 3, 1.0}});
  msg.delta.add_views.push_back(add_graph);
  serve::ViewAddition add_attr;
  add_attr.attribute = true;
  add_attr.attributes = la::DenseMatrix(10, 2);
  add_attr.attributes.data()[3] = 7.5;
  msg.delta.add_views.push_back(add_attr);
  msg.delta.remove_views = {2};
  msg.delta.mask_views = {0, 1};
  msg.delta.unmask_views = {3};

  WireWriter w;
  EncodeUpdateRequest(msg, &w);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  WireReader r(buffer.data(), buffer.size());
  UpdateRequest decoded;
  ASSERT_TRUE(DecodeUpdateRequest(&r, &decoded));
  EXPECT_EQ(decoded.id, msg.id);
  ASSERT_EQ(decoded.delta.graph_views.size(), 1u);
  EXPECT_EQ(decoded.delta.graph_views[0].upserts[0].weight, 0.5);
  EXPECT_EQ(decoded.delta.graph_views[0].removals[0].v, 4);
  ASSERT_EQ(decoded.delta.attribute_rows.size(), 1u);
  EXPECT_EQ(decoded.delta.attribute_rows[0].values, row.values);
  ASSERT_EQ(decoded.delta.add_views.size(), 2u);
  EXPECT_FALSE(decoded.delta.add_views[0].attribute);
  EXPECT_EQ(decoded.delta.add_views[0].graph.num_nodes(), 10);
  ASSERT_EQ(decoded.delta.add_views[0].graph.num_edges(), 2);
  EXPECT_EQ(decoded.delta.add_views[0].graph.edges()[0].weight, 2.0);
  EXPECT_TRUE(decoded.delta.add_views[1].attribute);
  EXPECT_EQ(decoded.delta.add_views[1].attributes.rows(), 10);
  EXPECT_EQ(decoded.delta.add_views[1].attributes.data()[3], 7.5);
  EXPECT_EQ(decoded.delta.remove_views, msg.delta.remove_views);
  EXPECT_EQ(decoded.delta.mask_views, msg.delta.mask_views);
  EXPECT_EQ(decoded.delta.unmask_views, msg.delta.unmask_views);
}

TEST(MessagesTest, HostileLifecycleCountsAndKindsAreRejected) {
  // A well-formed empty-delta update, then corruptions of the lifecycle
  // section: an addition count the payload cannot hold, and an unknown
  // addition kind byte.
  UpdateRequest msg;
  msg.id = "g";
  msg.delta.mask_views = {0};
  WireWriter w;
  EncodeUpdateRequest(msg, &w);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  {  // hostile add_views count (patch the u32 right after the two empty
     // edit sections: 4-byte id length + 1 id byte + 4 + 4)
    std::vector<uint8_t> corrupt = buffer;
    const size_t additions_at = 4 + 1 + 4 + 4;
    corrupt[additions_at] = 0xff;
    corrupt[additions_at + 1] = 0xff;
    corrupt[additions_at + 2] = 0xff;
    WireReader r(corrupt.data(), corrupt.size());
    UpdateRequest decoded;
    EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
  }
  {  // unknown addition kind byte
    UpdateRequest add;
    add.id = "g";
    serve::ViewAddition a;
    a.graph = graph::Graph::FromEdges(4, {{0, 1, 1.0}});
    add.delta.add_views.push_back(a);
    WireWriter aw;
    EncodeUpdateRequest(add, &aw);
    std::vector<uint8_t> corrupt = aw.TakeBuffer();
    const size_t kind_at = 4 + 1 + 4 + 4 + 4;  // id + edits + add count
    ASSERT_EQ(corrupt[kind_at], 0u);
    corrupt[kind_at] = 9;
    WireReader r(corrupt.data(), corrupt.size());
    UpdateRequest decoded;
    EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
  }
}

TEST(MessagesTest, SolveMessagesRoundTripAndValidateEnums) {
  SolveWireRequest msg;
  msg.graph_id = "g";
  msg.mode = serve::SolveMode::kEmbed;
  msg.algorithm = serve::Algorithm::kSglaPlus;
  msg.k = 5;
  msg.warm_start = true;
  msg.coalesce = false;
  msg.quality = serve::Quality::kFast;
  msg.robust = true;

  WireWriter w;
  EncodeSolveRequest(msg, &w);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  {
    WireReader r(buffer.data(), buffer.size());
    SolveWireRequest decoded;
    ASSERT_TRUE(DecodeSolveRequest(&r, &decoded));
    EXPECT_EQ(decoded.graph_id, msg.graph_id);
    EXPECT_EQ(decoded.mode, msg.mode);
    EXPECT_EQ(decoded.algorithm, msg.algorithm);
    EXPECT_EQ(decoded.k, msg.k);
    EXPECT_EQ(decoded.warm_start, msg.warm_start);
    EXPECT_EQ(decoded.coalesce, msg.coalesce);
    EXPECT_EQ(decoded.quality, msg.quality);
    EXPECT_EQ(decoded.robust, msg.robust);
  }
  {  // out-of-range mode byte is rejected, not cast
    std::vector<uint8_t> corrupt = buffer;
    corrupt[4 + 1] = 200;  // mode byte follows the u32 length + "g"
    WireReader r(corrupt.data(), corrupt.size());
    SolveWireRequest decoded;
    EXPECT_FALSE(DecodeSolveRequest(&r, &decoded));
  }
  {  // out-of-range quality byte (before the trailing robust flag) too
    std::vector<uint8_t> corrupt = buffer;
    corrupt[corrupt.size() - 2] = 200;
    WireReader r(corrupt.data(), corrupt.size());
    SolveWireRequest decoded;
    EXPECT_FALSE(DecodeSolveRequest(&r, &decoded));
  }

  SolveReply reply;
  reply.mode = static_cast<uint8_t>(serve::SolveMode::kCluster);
  reply.weights = {0.25, 0.75};
  reply.graph_epoch = 3;
  reply.warm_started = true;
  reply.lanczos_iterations = 42;
  reply.tier_served = static_cast<uint8_t>(serve::Quality::kRefined);
  reply.labels = {0, 1, 1, 0};
  WireWriter wr;
  EncodeSolveReply(reply, &wr);
  std::vector<uint8_t> reply_buffer = wr.TakeBuffer();
  WireReader rr(reply_buffer.data(), reply_buffer.size());
  SolveReply decoded;
  ASSERT_TRUE(DecodeSolveReply(&rr, &decoded));
  EXPECT_EQ(decoded.weights, reply.weights);
  EXPECT_EQ(decoded.graph_epoch, reply.graph_epoch);
  EXPECT_EQ(decoded.warm_started, reply.warm_started);
  EXPECT_EQ(decoded.lanczos_iterations, reply.lanczos_iterations);
  EXPECT_EQ(decoded.tier_served, reply.tier_served);
  EXPECT_EQ(decoded.labels, reply.labels);

  {  // an out-of-range tier_served byte from a hostile server is rejected
    SolveReply hostile = reply;
    hostile.tier_served = 200;
    WireWriter hw;
    EncodeSolveReply(hostile, &hw);
    std::vector<uint8_t> hostile_buffer = hw.TakeBuffer();
    WireReader hr(hostile_buffer.data(), hostile_buffer.size());
    SolveReply rejected;
    EXPECT_FALSE(DecodeSolveReply(&hr, &rejected));
  }
}

TEST(MessagesTest, HostileCountsInRegisterAndUpdateAreRejectedNotAllocated) {
  // Counts chosen below every legacy 2^31 sanity cap but far beyond what the
  // payload holds: the decoders must bound them against the remaining bytes
  // BEFORE any reserve/resize, or a single crafted frame drives a ~48 GiB
  // allocation on the control worker.
  constexpr uint64_t kHostile = (1ULL << 31) - 1;
  {  // Register: hostile edge count
    WireWriter w;
    w.Str("g");
    w.I32(1);  // shards
    w.U8(1);   // updatable
    w.I32(0);  // knn_k
    w.I64(100);  // num_nodes
    w.I32(3);    // num_clusters
    w.U32(1);    // one graph view
    w.U64(kHostile);
    std::vector<uint8_t> buffer = w.TakeBuffer();
    WireReader r(buffer.data(), buffer.size());
    RegisterRequest decoded;
    EXPECT_FALSE(DecodeRegisterRequest(&r, &decoded));
  }
  {  // Update: hostile outer view-delta count sizes a resize directly
    WireWriter w;
    w.Str("g");
    w.U32(0xffffffffu);
    std::vector<uint8_t> buffer = w.TakeBuffer();
    WireReader r(buffer.data(), buffer.size());
    UpdateRequest decoded;
    EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
  }
  {  // Update: hostile upsert count inside one view delta
    WireWriter w;
    w.Str("g");
    w.U32(1);  // one view delta
    w.I32(0);  // view
    w.U64(kHostile);
    std::vector<uint8_t> buffer = w.TakeBuffer();
    WireReader r(buffer.data(), buffer.size());
    UpdateRequest decoded;
    EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
  }
  {  // Update: hostile removal count
    WireWriter w;
    w.Str("g");
    w.U32(1);  // one view delta
    w.I32(0);  // view
    w.U64(0);  // no upserts
    w.U64(kHostile);
    std::vector<uint8_t> buffer = w.TakeBuffer();
    WireReader r(buffer.data(), buffer.size());
    UpdateRequest decoded;
    EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
  }
}

/// A dense block whose shape claims more entries than it carries: rows *
/// cols wraps in 64-bit arithmetic to exactly `doubles`.
struct ShapeLie {
  int64_t rows;
  int64_t cols;
  size_t doubles;
};
const ShapeLie kShapeLies[] = {
    {512, int64_t{1} << 55, 0},              // 2^64 wraps to 0
    {3, int64_t{0x5555555555555556}, 2},     // 2^64 + 2 wraps to 2
};

void WriteShapeLie(const ShapeLie& lie, WireWriter* w) {
  w->I64(lie.rows);
  w->I64(lie.cols);
  w->F64Vec(std::vector<double>(lie.doubles, 1.0));
}

/// A Register payload whose only view is an attribute block with a lying
/// shape; `num_nodes` matches its row count, so the view passes every
/// per-view check that reads rows alone.
void WriteShapeLieRegister(const ShapeLie& lie, WireWriter* w) {
  w->Str("lie");
  w->I32(1);  // shards
  w->U8(1);   // updatable
  w->I32(0);  // knn_k
  w->U8(0);   // robust_views
  w->I64(lie.rows);  // num_nodes
  w->I32(3);         // num_clusters
  w->U32(0);         // no graph views
  w->U32(1);         // one attribute view
  WriteShapeLie(lie, w);
}

/// The fields of an embed-mode SolveOk payload before its embedding block.
void WriteEmbedReplyHead(WireWriter* w) {
  w->U8(static_cast<uint8_t>(serve::SolveMode::kEmbed));
  w->F64Vec({0.5, 0.5});  // weights
  w->I64(0);              // graph_epoch
  w->U8(0);               // warm_started
  w->I64(0);              // lanczos_iterations
  w->U8(0);               // tier_served
  w->I32(2);              // active_views
  w->I32(2);              // total_views
}

TEST(MessagesTest, ShapeLiesInDenseBlocksAreRejected) {
  for (const ShapeLie& lie : kShapeLies) {
    SCOPED_TRACE(lie.cols);
    {  // Register: attribute view
      WireWriter w;
      WriteShapeLieRegister(lie, &w);
      const std::vector<uint8_t> buffer = w.TakeBuffer();
      WireReader r(buffer.data(), buffer.size());
      RegisterRequest decoded;
      EXPECT_FALSE(DecodeRegisterRequest(&r, &decoded));
    }
    {  // Update: AddView of an attribute block
      WireWriter w;
      w.Str("g");
      w.U32(0);  // no graph-view edits
      w.U32(0);  // no attribute rows
      w.U32(1);  // one addition
      w.U8(1);   // kind: attribute
      WriteShapeLie(lie, &w);
      w.U32(0);  // remove_views
      w.U32(0);  // mask_views
      w.U32(0);  // unmask_views
      const std::vector<uint8_t> buffer = w.TakeBuffer();
      WireReader r(buffer.data(), buffer.size());
      UpdateRequest decoded;
      EXPECT_FALSE(DecodeUpdateRequest(&r, &decoded));
    }
    {  // Solve reply: embedding
      WireWriter w;
      WriteEmbedReplyHead(&w);
      WriteShapeLie(lie, &w);
      const std::vector<uint8_t> buffer = w.TakeBuffer();
      WireReader r(buffer.data(), buffer.size());
      SolveReply decoded;
      EXPECT_FALSE(DecodeSolveReply(&r, &decoded));
    }
  }
  {  // an honest shape next to them still decodes
    WireWriter w;
    WriteEmbedReplyHead(&w);
    WriteShapeLie({2, 3, 6}, &w);
    const std::vector<uint8_t> buffer = w.TakeBuffer();
    WireReader r(buffer.data(), buffer.size());
    SolveReply decoded;
    ASSERT_TRUE(DecodeSolveReply(&r, &decoded));
    EXPECT_EQ(decoded.embedding.rows(), 2);
    EXPECT_EQ(decoded.embedding.cols(), 3);
  }
}

TEST(MessagesTest, ErrorReplyCarriesTypedStatus) {
  std::vector<uint8_t> frame =
      BuildErrorFrame(17, ResourceExhausted("quota"));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header));
  EXPECT_EQ(header.type, FrameType::kError);
  EXPECT_EQ(header.request_id, 17u);
  WireReader r(frame.data() + kFrameHeaderBytes, header.payload_length);
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(&r, &error));
  EXPECT_EQ(error.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(error.message, "quota");
}

TEST(MessagesTest, CheckpointMessagesRoundTrip) {
  CheckpointRequest request;
  request.id = "graph-a";
  WireWriter w;
  EncodeCheckpointRequest(request, &w);
  std::vector<uint8_t> buffer = w.TakeBuffer();
  WireReader r(buffer.data(), buffer.size());
  CheckpointRequest decoded_request;
  ASSERT_TRUE(DecodeCheckpointRequest(&r, &decoded_request));
  EXPECT_EQ(decoded_request.id, request.id);
  for (size_t len = 0; len < buffer.size(); ++len) {
    WireReader truncated(buffer.data(), len);
    CheckpointRequest scratch;
    EXPECT_FALSE(DecodeCheckpointRequest(&truncated, &scratch));
  }

  CheckpointReply reply;
  reply.epoch = 41;
  WireWriter w2;
  EncodeCheckpointReply(reply, &w2);
  buffer = w2.TakeBuffer();
  WireReader r2(buffer.data(), buffer.size());
  CheckpointReply decoded_reply;
  ASSERT_TRUE(DecodeCheckpointReply(&r2, &decoded_reply));
  EXPECT_EQ(decoded_reply.epoch, reply.epoch);
}

// --- loopback serving -------------------------------------------------------

/// Engine + server + registered fixture graph, shared by the e2e tests.
class RpcServingTest : public ::testing::Test {
 protected:
  void StartServing(const serve::EngineOptions& engine_options,
                    ServerOptions server_options = {}) {
    registry_ = std::make_unique<serve::GraphRegistry>();
    engine_ =
        std::make_unique<serve::Engine>(registry_.get(), engine_options);
    server_ = std::make_unique<Server>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Status RegisterFixture(const std::string& id, int64_t n = 60, int k = 3) {
    Client client;
    Status status = client.Connect("127.0.0.1", server_->port());
    if (!status.ok()) return status;
    RegisterRequest request;
    request.id = id;
    request.mvag = MakeMvag(n, k, 11);
    auto reply = client.Register(request);
    return reply.ok() ? OkStatus() : reply.status();
  }

  std::unique_ptr<serve::GraphRegistry> registry_;
  std::unique_ptr<serve::Engine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(RpcServingTest, LoopbackSolvesAreBitIdenticalToDirectEngine) {
  StartServing({});
  // Big enough for NetMF's default embedding dim.
  ASSERT_TRUE(RegisterFixture("g", 200).ok());

  // Direct-engine references, one per mode.
  serve::SolveRequest direct;
  direct.graph_id = "g";
  auto cluster_ref = engine_->Solve(direct);
  ASSERT_TRUE(cluster_ref.ok()) << cluster_ref.status().ToString();
  direct.mode = serve::SolveMode::kEmbed;
  auto embed_ref = engine_->Solve(direct);
  ASSERT_TRUE(embed_ref.ok()) << embed_ref.status().ToString();

  constexpr int kClients = 4;
  constexpr int kSolvesEach = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++mismatches;
        return;
      }
      for (int s = 0; s < kSolvesEach; ++s) {
        SolveWireRequest request;
        request.graph_id = "g";
        // Odd clients ask for embeddings, even for labels; coalescing off
        // so every request is a physical solve — the strongest version of
        // the bit-identity claim.
        request.mode = (c % 2 == 1) ? serve::SolveMode::kEmbed
                                    : serve::SolveMode::kCluster;
        request.coalesce = false;
        auto reply = client.Solve(request);
        if (!reply.ok()) {
          ++mismatches;
          return;
        }
        const auto& ref = (c % 2 == 1) ? *embed_ref : *cluster_ref;
        // Exact equality on purpose: doubles travel as raw bits, so the
        // client must reassemble exactly what the engine computed.
        if (reply->weights != ref.integration.weights ||
            reply->labels != ref.labels ||
            reply->embedding.data() != ref.embedding.data()) {
          ++mismatches;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server_->solves_dispatched(), kClients * kSolvesEach);
}

TEST_F(RpcServingTest, UpdateAndEvictWorkOverTheWire) {
  StartServing({});
  ASSERT_TRUE(RegisterFixture("g").ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  UpdateRequest update;
  update.id = "g";
  serve::GraphViewDelta g;
  g.view = 0;
  g.upserts.push_back({0, 1, 0.9});
  update.delta.graph_views.push_back(g);
  auto updated = client.Update(update);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->epoch, 1);

  EvictRequest evict;
  evict.id = "g";
  auto evicted = client.Evict(evict);
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted->existed);

  SolveWireRequest solve;
  solve.graph_id = "g";
  auto reply = client.Solve(solve);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Ping().ok());  // connection survived the typed error
}

TEST_F(RpcServingTest, CheckpointWithoutDataDirIsTypedFailedPrecondition) {
  StartServing({});
  ASSERT_TRUE(RegisterFixture("g").ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  CheckpointRequest request;
  request.id = "g";
  auto reply = client.Checkpoint(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.Ping().ok());  // connection survived the typed error
}

TEST_F(RpcServingTest, CheckpointOverTheWireCompactsAPersistentEngine) {
  std::string dir = ::testing::TempDir() + "sgla_rpc_persist_XXXXXX";
  ASSERT_NE(mkdtemp(&dir[0]), nullptr);
  serve::EngineOptions engine_options;
  engine_options.data_dir = dir;
  engine_options.persist_fsync = false;
  engine_options.checkpoint_interval = 0;
  StartServing(engine_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  UpdateRequest update;
  update.id = "g";
  serve::GraphViewDelta g;
  g.view = 0;
  g.upserts.push_back({0, 1, 0.9});
  update.delta.graph_views.push_back(g);
  ASSERT_TRUE(client.Update(update).ok());

  CheckpointRequest request;
  request.id = "g";
  auto reply = client.Checkpoint(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch, 1);

  request.id = "missing";
  auto missing = client.Checkpoint(request);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcServingTest, FastTierSolvesOverTheWireEchoTierServed) {
  StartServing({});
  // n=200 clears the registry's coarse-companion floor; the tiny default
  // fixture (n=60) below it serves as the fallback case.
  ASSERT_TRUE(RegisterFixture("g", 200).ok());
  ASSERT_TRUE(RegisterFixture("tiny").ok());

  // Direct-engine fast reference: the wire must reassemble it exactly.
  serve::SolveRequest direct;
  direct.graph_id = "g";
  direct.quality = serve::Quality::kFast;
  auto reference = engine_->Solve(direct);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->stats.tier_served, serve::Quality::kFast);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  SolveWireRequest request;
  request.graph_id = "g";
  request.quality = serve::Quality::kFast;
  auto reply = client.Solve(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tier_served,
            static_cast<uint8_t>(serve::Quality::kFast));
  EXPECT_EQ(reply->weights, reference->integration.weights);
  EXPECT_EQ(reply->labels, reference->labels);
  EXPECT_EQ(reply->labels.size(), 200u);

  // No companion -> the reply says what actually ran: exact.
  request.graph_id = "tiny";
  auto fallback = client.Solve(request);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->tier_served,
            static_cast<uint8_t>(serve::Quality::kExact));
}

TEST_F(RpcServingTest, RetiredShardsFieldIsAcceptedAndIgnored) {
  StartServing({});
  // Spans three 512-row chunks, so shards=4 would have split the rows when
  // the field still meant something.
  const core::MultiViewGraph mvag = MakeMvag(1100, 3, 11);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int32_t shards : {1, 4}) {
    RegisterRequest request;
    request.id = "g" + std::to_string(shards);
    request.mvag = mvag;
    request.shards = shards;
    auto registered = client.Register(request);
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  }

  for (serve::Quality quality : {serve::Quality::kExact, serve::Quality::kFast}) {
    SolveWireRequest request;
    request.quality = quality;
    request.coalesce = false;
    request.graph_id = "g1";
    auto one = client.Solve(request);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    request.graph_id = "g4";
    auto four = client.Solve(request);
    ASSERT_TRUE(four.ok()) << four.status().ToString();
    EXPECT_EQ(one->tier_served, static_cast<uint8_t>(quality));
    EXPECT_EQ(four->tier_served, one->tier_served);
    EXPECT_EQ(four->weights, one->weights);
    EXPECT_EQ(four->labels, one->labels);
    EXPECT_EQ(four->lanczos_iterations, one->lanczos_iterations);
  }
}

TEST_F(RpcServingTest, IdenticalInflightSolvesCoalesceIntoOnePhysicalSolve) {
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  StartServing(engine_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  auto gate = std::make_shared<SolveGate>();
  engine_->SetSolveHookForTest(
      [gate](const serve::SolveRequest&) { gate->Block(); });

  constexpr int kRequests = 6;
  std::vector<std::vector<int32_t>> labels(kRequests);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      SolveWireRequest request;
      request.graph_id = "g";  // identical key => coalescable
      auto reply = client.Solve(request);
      if (reply.ok()) {
        labels[i] = reply->labels;
      } else {
        ++failures;
      }
    });
  }
  // All but the leader join its flight; the leader itself is parked in the
  // gate, so once coalesced() hits kRequests - 1 everyone is accounted for.
  while (engine_->coalesced() < kRequests - 1) {
    std::this_thread::yield();
  }
  gate->Open();
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine_->completed(), 1);  // one physical solve served all six
  EXPECT_EQ(engine_->coalesced(), kRequests - 1);
  for (int i = 1; i < kRequests; ++i) EXPECT_EQ(labels[i], labels[0]);
  EXPECT_FALSE(labels[0].empty());
}

TEST_F(RpcServingTest, EngineSaturationRejectsWithTypedResourceExhausted) {
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  engine_options.max_pending = 1;
  StartServing(engine_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  auto gate = std::make_shared<SolveGate>();
  engine_->SetSolveHookForTest(
      [gate](const serve::SolveRequest&) { gate->Block(); });

  std::thread holder([&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    SolveWireRequest request;
    request.graph_id = "g";
    EXPECT_TRUE(client.Solve(request).ok());
  });
  while (engine_->pending() < 1) std::this_thread::yield();

  // A different key (k differs) cannot coalesce, and the engine is full.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  SolveWireRequest request;
  request.graph_id = "g";
  request.k = 2;
  auto rejected = client.Solve(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->rejected_engine(), 1);

  gate->Open();
  holder.join();
}

TEST_F(RpcServingTest, TenantQuotaRejectsOnlyTheHotTenant) {
  ServerOptions server_options;
  server_options.tenant_max_inflight = 1;
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  StartServing(engine_options, server_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  auto gate = std::make_shared<SolveGate>();
  engine_->SetSolveHookForTest(
      [gate](const serve::SolveRequest&) { gate->Block(); });

  std::thread alice_first([&] {
    Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), "alice").ok());
    SolveWireRequest request;
    request.graph_id = "g";
    EXPECT_TRUE(client.Solve(request).ok());
  });
  while (engine_->pending() < 1) std::this_thread::yield();

  // Second request from the same tenant: rejected at the quota before the
  // engine ever sees it.
  Client alice_second;
  ASSERT_TRUE(
      alice_second.Connect("127.0.0.1", server_->port(), "alice").ok());
  SolveWireRequest request;
  request.graph_id = "g";
  auto rejected = alice_second.Solve(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->rejected_quota(), 1);

  // A different tenant is still served (it coalesces onto alice's flight).
  std::thread bob([&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "bob").ok());
    SolveWireRequest req;
    req.graph_id = "g";
    EXPECT_TRUE(client.Solve(req).ok());
  });
  while (engine_->coalesced() < 1) std::this_thread::yield();

  gate->Open();
  alice_first.join();
  bob.join();
  EXPECT_EQ(server_->rejected_quota(), 1);
}

TEST_F(RpcServingTest, FailedSolveStatusTravelsTyped) {
  StartServing({});
  ASSERT_TRUE(RegisterFixture("g").ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  SolveWireRequest request;
  request.graph_id = "g";
  request.k = 1;  // the solver requires k >= 2
  auto reply = client.Solve(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);

  request.k = 0;  // the worker survived: the next solve succeeds
  EXPECT_TRUE(client.Solve(request).ok());
}

TEST_F(RpcServingTest, ThrowingSolveYieldsInternalAndWorkerSurvives) {
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  StartServing(engine_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  auto explode_once = std::make_shared<std::atomic<bool>>(true);
  engine_->SetSolveHookForTest([explode_once](const serve::SolveRequest&) {
    if (explode_once->exchange(false)) {
      throw std::runtime_error("injected solve fault");
    }
  });

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  SolveWireRequest request;
  request.graph_id = "g";
  request.coalesce = false;
  auto reply = client.Solve(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);

  // Same connection, same (sole) session worker: it must still be alive.
  auto retry = client.Solve(request);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->labels.empty());
}

TEST_F(RpcServingTest, ShutdownDrainsAcceptedRequestsBeforeExiting) {
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  StartServing(engine_options);
  ASSERT_TRUE(RegisterFixture("g").ok());

  auto gate = std::make_shared<SolveGate>();
  engine_->SetSolveHookForTest(
      [gate](const serve::SolveRequest&) { gate->Block(); });

  std::atomic<bool> got_reply{false};
  std::thread in_flight([&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    SolveWireRequest request;
    request.graph_id = "g";
    auto reply = client.Solve(request);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    got_reply = reply.ok();
  });
  while (engine_->pending() < 1) std::this_thread::yield();

  std::thread shutdown([&] { server_->Shutdown(); });
  // Drain must wait for the parked solve; give it a moment to prove it
  // doesn't exit (or drop the request) early.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(got_reply.load());
  gate->Open();
  shutdown.join();
  in_flight.join();
  EXPECT_TRUE(got_reply.load());

  // The listener is gone: new connections are refused.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()).ok());
}

// --- hostile bytes on a raw socket ------------------------------------------

int RawConnect(int port, int rcvbuf = 0) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (rcvbuf > 0) {
    // Must be set before connect so the advertised window stays small.
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Raw-fd write loop for tests; MSG_NOSIGNAL so a server-side hangup surfaces
/// as a failed send instead of killing the test process.
bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::vector<uint8_t> PingBurst(int count) {
  std::vector<uint8_t> burst;
  for (int i = 0; i < count; ++i) {
    std::vector<uint8_t> frame =
        BuildFrame(FrameType::kPing, static_cast<uint64_t>(i), WireWriter());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  return burst;
}

bool ReadExactly(int fd, uint8_t* out, size_t size) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = read(fd, out + got, size - got);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

TEST_F(RpcServingTest, MalformedPayloadGetsTypedErrorMalformedHeaderCloses) {
  StartServing({});
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // Reads one reply frame; expects a typed INVALID_ARGUMENT error for it.
  const auto expect_invalid_argument = [fd](uint64_t request_id) {
    uint8_t reply_header_bytes[kFrameHeaderBytes];
    ASSERT_TRUE(ReadExactly(fd, reply_header_bytes, kFrameHeaderBytes));
    FrameHeader reply_header;
    ASSERT_TRUE(DecodeFrameHeader(reply_header_bytes, &reply_header));
    EXPECT_EQ(reply_header.type, FrameType::kError);
    EXPECT_EQ(reply_header.request_id, request_id);
    std::vector<uint8_t> payload(reply_header.payload_length);
    ASSERT_TRUE(ReadExactly(fd, payload.data(), payload.size()));
    WireReader r(payload.data(), payload.size());
    ErrorReply error;
    ASSERT_TRUE(DecodeErrorReply(&r, &error));
    EXPECT_EQ(error.code, StatusCode::kInvalidArgument) << error.message;
  };

  {  // valid header, garbage Solve payload -> typed INVALID_ARGUMENT reply
    FrameHeader header;
    header.type = FrameType::kSolve;
    header.payload_length = 3;
    header.request_id = 7;
    uint8_t frame[kFrameHeaderBytes + 3] = {};
    EncodeFrameHeader(header, frame);
    ASSERT_EQ(write(fd, frame, sizeof(frame)),
              static_cast<ssize_t>(sizeof(frame)));
    expect_invalid_argument(7);
  }
  {  // decodable Register whose graph names node 600 of 600 -> typed
     // INVALID_ARGUMENT, no registration, and the server keeps serving
    RegisterRequest request;
    request.id = "bad";
    request.mvag = core::MultiViewGraph(600, 3);
    graph::Graph g0(600);
    g0.AddEdge(0, 1);
    g0.AddEdge(0, 600);
    request.mvag.AddGraphView(std::move(g0));
    graph::Graph g1(600);
    g1.AddEdge(1, 2);
    request.mvag.AddGraphView(std::move(g1));
    WireWriter w;
    EncodeRegisterRequest(request, &w);
    const std::vector<uint8_t> frame =
        BuildFrame(FrameType::kRegister, 5, std::move(w));
    ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()));
    expect_invalid_argument(5);
    EXPECT_EQ(registry_->Find("bad"), nullptr);

    const std::vector<uint8_t> ping = PingBurst(1);
    ASSERT_TRUE(SendAll(fd, ping.data(), ping.size()));
    uint8_t pong_bytes[kFrameHeaderBytes];
    ASSERT_TRUE(ReadExactly(fd, pong_bytes, kFrameHeaderBytes));
    FrameHeader pong;
    ASSERT_TRUE(DecodeFrameHeader(pong_bytes, &pong));
    EXPECT_EQ(pong.type, FrameType::kPong);
  }
  {  // unknown frame type: framing is lost, the server hangs up
    uint8_t garbage[kFrameHeaderBytes] = {};
    garbage[4] = 99;  // type byte
    ASSERT_EQ(write(fd, garbage, sizeof(garbage)),
              static_cast<ssize_t>(sizeof(garbage)));
    uint8_t byte;
    EXPECT_FALSE(ReadExactly(fd, &byte, 1));  // EOF
  }
  close(fd);
}

TEST_F(RpcServingTest, ShapeLieRegisterGetsTypedErrorAndServerLives) {
  StartServing({});
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // 512 rows x 2^55 columns carried by zero doubles: the server must answer
  // INVALID_ARGUMENT instead of building a KNN graph over the lie.
  WireWriter w;
  WriteShapeLieRegister(kShapeLies[0], &w);
  const std::vector<uint8_t> frame =
      BuildFrame(FrameType::kRegister, 9, std::move(w));
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()));

  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(ReadExactly(fd, header_bytes, kFrameHeaderBytes));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, &header));
  EXPECT_EQ(header.type, FrameType::kError);
  EXPECT_EQ(header.request_id, 9u);
  std::vector<uint8_t> reply(header.payload_length);
  ASSERT_TRUE(ReadExactly(fd, reply.data(), reply.size()));
  WireReader r(reply.data(), reply.size());
  ErrorReply error;
  ASSERT_TRUE(DecodeErrorReply(&r, &error));
  EXPECT_EQ(error.code, StatusCode::kInvalidArgument) << error.message;
  EXPECT_EQ(registry_->Find("lie"), nullptr);

  const std::vector<uint8_t> ping = PingBurst(1);
  ASSERT_TRUE(SendAll(fd, ping.data(), ping.size()));
  uint8_t pong_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(ReadExactly(fd, pong_bytes, kFrameHeaderBytes));
  FrameHeader pong;
  ASSERT_TRUE(DecodeFrameHeader(pong_bytes, &pong));
  EXPECT_EQ(pong.type, FrameType::kPong);
  close(fd);
}

TEST_F(RpcServingTest, ClientWriteAfterServerGoneYieldsStatusNotSigpipe) {
  StartServing({});
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  server_->Shutdown();
  // The first post-shutdown send lands on a FIN'd socket (and draws an RST);
  // the ones after that write into a reset socket — without MSG_NOSIGNAL the
  // SIGPIPE would kill this whole process instead of returning a Status.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(client.Ping().ok());
  }
}

TEST_F(RpcServingTest, PeerResetMidReplyStormIsSurvived) {
  // A tiny server-side send buffer keeps reply writes happening throughout
  // the dispatch loop, so a peer reset lands mid-ParseFrames: the failed
  // send must close (and possibly destroy) the connection without the
  // parse loop touching it again, and without raising SIGPIPE.
  ServerOptions server_options;
  server_options.send_buffer_bytes = 4096;
  StartServing({}, server_options);

  const std::vector<uint8_t> burst = PingBurst(2000);
  for (int round = 0; round < 30; ++round) {
    int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    SendAll(fd, burst.data(), burst.size());
    // Vary how far the server gets into the burst before the reset hits.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 10)));
    struct linger hard_reset;
    hard_reset.l_onoff = 1;
    hard_reset.l_linger = 0;
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof(hard_reset));
    close(fd);  // RST, not FIN
  }
  // The server survived every reset and its connection table is intact.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RpcServingTest, BacklogCapClosesPeerThatNeverReadsReplies) {
  // Small kernel buffers on both sides so replies back up into conn->out
  // quickly; the cap must then close the connection instead of letting a
  // never-reading client grow server memory without bound.
  ServerOptions server_options;
  server_options.send_buffer_bytes = 4096;
  server_options.max_connection_backlog_bytes = 64 * 1024;
  StartServing({}, server_options);

  int fd = RawConnect(server_->port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> chunk = PingBurst(200);
  bool closed_on_us = false;
  // Pace the sends so the single event-loop thread gets turns to dispatch
  // replies (on slow sanitizer runs an unpaced sender can stuff megabytes
  // into conn->in before the first reply is even queued). Replies then back
  // up into conn->out and the cap has to cut us off well within the budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!closed_on_us && std::chrono::steady_clock::now() < deadline) {
    closed_on_us = !SendAll(fd, chunk.data(), chunk.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(closed_on_us);
  close(fd);

  // Other connections are unaffected.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RpcServingTest, ShutdownDeadlineAbandonsPeerThatNeverDrains) {
  // A peer that keeps its connection open but never reads its replies must
  // not pin Shutdown() forever: after drain_timeout_ms its connection is
  // force-closed and the drain completes.
  ServerOptions server_options;
  server_options.send_buffer_bytes = 4096;
  server_options.drain_timeout_ms = 300;
  StartServing({}, server_options);

  constexpr int kPings = 8000;
  int fd = RawConnect(server_->port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> burst = PingBurst(kPings);
  ASSERT_TRUE(SendAll(fd, burst.data(), burst.size()));
  // Once every ping was dispatched, its replies are queued; the kernel
  // buffers hold ~16 KiB of the ~128 KiB, so conn->out cannot drain.
  while (server_->frames_received() < kPings) std::this_thread::yield();

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();  // hangs forever without the drain deadline
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000);
  close(fd);
}

}  // namespace
}  // namespace rpc
}  // namespace sgla
