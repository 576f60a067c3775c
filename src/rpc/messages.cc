#include "rpc/messages.h"

#include <algorithm>
#include <utility>

#include "graph/graph.h"

namespace sgla {
namespace rpc {
namespace {

// --- shared sub-encoders ----------------------------------------------------

void EncodeMvag(const core::MultiViewGraph& mvag, WireWriter* w) {
  w->I64(mvag.num_nodes());
  w->I32(mvag.num_clusters());
  w->U32(static_cast<uint32_t>(mvag.graph_views().size()));
  for (const graph::Graph& g : mvag.graph_views()) {
    w->U64(static_cast<uint64_t>(g.num_edges()));
    for (const graph::Edge& e : g.edges()) {
      w->I64(e.u);
      w->I64(e.v);
      w->F64(e.weight);
    }
  }
  w->U32(static_cast<uint32_t>(mvag.attribute_views().size()));
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    w->I64(x.rows());
    w->I64(x.cols());
    w->F64Vec(x.data());
  }
}

bool DecodeMvag(WireReader* r, core::MultiViewGraph* mvag) {
  int64_t num_nodes;
  int32_t num_clusters;
  uint32_t num_graph_views;
  if (!r->I64(&num_nodes) || !r->I32(&num_clusters) ||
      !r->U32(&num_graph_views)) {
    return false;
  }
  if (num_nodes < 0) return false;
  *mvag = core::MultiViewGraph(num_nodes, num_clusters);
  for (uint32_t v = 0; v < num_graph_views; ++v) {
    uint64_t num_edges;
    // 24 wire bytes per edge: a count the remaining payload cannot hold is
    // provably hostile/truncated — reject it before reserve() can allocate.
    if (!r->U64(&num_edges) || !r->CheckCount(num_edges, 24)) return false;
    std::vector<graph::Edge> edges;
    edges.reserve(num_edges);
    for (uint64_t e = 0; e < num_edges; ++e) {
      graph::Edge edge;
      if (!r->I64(&edge.u) || !r->I64(&edge.v) || !r->F64(&edge.weight)) {
        return false;
      }
      edges.push_back(edge);
    }
    mvag->AddGraphView(graph::Graph::FromEdges(num_nodes, std::move(edges)));
  }
  uint32_t num_attribute_views;
  if (!r->U32(&num_attribute_views)) return false;
  for (uint32_t v = 0; v < num_attribute_views; ++v) {
    int64_t rows, cols;
    std::vector<double> data;
    if (!r->I64(&rows) || !r->I64(&cols) || !r->F64Vec(&data)) return false;
    if (!la::ShapeHolds(rows, cols, data.size())) return false;
    la::DenseMatrix x(rows, cols);
    x.data() = std::move(data);
    mvag->AddAttributeView(std::move(x));
  }
  return true;
}

bool DecodeViewIndexList(WireReader* r, std::vector<int>* list) {
  uint32_t count;
  if (!r->U32(&count) || !r->CheckCount(count, 4)) return false;
  list->resize(count);
  for (int& v : *list) {
    int32_t index;
    if (!r->I32(&index)) return false;
    v = index;
  }
  return true;
}

}  // namespace

// The delta sub-codec is public: the persist layer's WAL records carry the
// exact same bytes as an Update payload's delta section (messages.h).
void EncodeGraphDelta(const serve::GraphDelta& delta, WireWriter* w) {
  w->U32(static_cast<uint32_t>(delta.graph_views.size()));
  for (const serve::GraphViewDelta& g : delta.graph_views) {
    w->I32(g.view);
    w->U64(g.upserts.size());
    for (const serve::EdgeUpsert& u : g.upserts) {
      w->I64(u.u);
      w->I64(u.v);
      w->F64(u.weight);
    }
    w->U64(g.removals.size());
    for (const serve::EdgeRemoval& rm : g.removals) {
      w->I64(rm.u);
      w->I64(rm.v);
    }
  }
  w->U32(static_cast<uint32_t>(delta.attribute_rows.size()));
  for (const serve::AttributeRowUpdate& a : delta.attribute_rows) {
    w->I32(a.view);
    w->I64(a.row);
    w->F64Vec(a.values);
  }
  // View-lifecycle ops. Additions are kind-tagged (0 = graph view with its
  // node count + edge triples, 1 = attribute view as a dense block); the
  // index lists are pre-delta global view indices.
  w->U32(static_cast<uint32_t>(delta.add_views.size()));
  for (const serve::ViewAddition& a : delta.add_views) {
    w->U8(a.attribute ? 1 : 0);
    if (a.attribute) {
      w->I64(a.attributes.rows());
      w->I64(a.attributes.cols());
      w->F64Vec(a.attributes.data());
    } else {
      w->I64(a.graph.num_nodes());
      w->U64(static_cast<uint64_t>(a.graph.num_edges()));
      for (const graph::Edge& e : a.graph.edges()) {
        w->I64(e.u);
        w->I64(e.v);
        w->F64(e.weight);
      }
    }
  }
  w->U32(static_cast<uint32_t>(delta.remove_views.size()));
  for (int v : delta.remove_views) w->I32(v);
  w->U32(static_cast<uint32_t>(delta.mask_views.size()));
  for (int v : delta.mask_views) w->I32(v);
  w->U32(static_cast<uint32_t>(delta.unmask_views.size()));
  for (int v : delta.unmask_views) w->I32(v);
}

bool DecodeGraphDelta(WireReader* r, serve::GraphDelta* delta) {
  // Every count below sizes a resize(), so each is bounds-checked against
  // the bytes its elements minimally occupy on the wire (view deltas: i32
  // view + two u64 counts = 20; upserts: 24; removals: 16; attribute rows:
  // i32 view + i64 row + u64 count = 20) before any allocation happens.
  uint32_t num_graph_views;
  if (!r->U32(&num_graph_views) || !r->CheckCount(num_graph_views, 20)) {
    return false;
  }
  delta->graph_views.resize(num_graph_views);
  for (serve::GraphViewDelta& g : delta->graph_views) {
    uint64_t count;
    if (!r->I32(&g.view) || !r->U64(&count) || !r->CheckCount(count, 24)) {
      return false;
    }
    g.upserts.resize(count);
    for (serve::EdgeUpsert& u : g.upserts) {
      if (!r->I64(&u.u) || !r->I64(&u.v) || !r->F64(&u.weight)) return false;
    }
    if (!r->U64(&count) || !r->CheckCount(count, 16)) return false;
    g.removals.resize(count);
    for (serve::EdgeRemoval& rm : g.removals) {
      if (!r->I64(&rm.u) || !r->I64(&rm.v)) return false;
    }
  }
  uint32_t num_attribute_rows;
  if (!r->U32(&num_attribute_rows) ||
      !r->CheckCount(num_attribute_rows, 20)) {
    return false;
  }
  delta->attribute_rows.resize(num_attribute_rows);
  for (serve::AttributeRowUpdate& a : delta->attribute_rows) {
    if (!r->I32(&a.view) || !r->I64(&a.row) || !r->F64Vec(&a.values)) {
      return false;
    }
  }
  // Lifecycle ops (additions: 1-byte kind + at least an 8-byte count/row
  // field = 9 wire bytes minimum each; index lists: 4 bytes per entry).
  uint32_t num_additions;
  if (!r->U32(&num_additions) || !r->CheckCount(num_additions, 9)) {
    return false;
  }
  delta->add_views.resize(num_additions);
  for (serve::ViewAddition& a : delta->add_views) {
    uint8_t kind;
    if (!r->U8(&kind)) return false;
    if (kind > 1) return false;
    a.attribute = kind == 1;
    if (a.attribute) {
      int64_t rows, cols;
      std::vector<double> data;
      if (!r->I64(&rows) || !r->I64(&cols) || !r->F64Vec(&data)) return false;
      if (!la::ShapeHolds(rows, cols, data.size())) return false;
      a.attributes = la::DenseMatrix(rows, cols);
      a.attributes.data() = std::move(data);
    } else {
      int64_t num_nodes;
      uint64_t num_edges;
      if (!r->I64(&num_nodes) || num_nodes < 0 || !r->U64(&num_edges) ||
          !r->CheckCount(num_edges, 24)) {
        return false;
      }
      std::vector<graph::Edge> edges;
      edges.reserve(num_edges);
      for (uint64_t e = 0; e < num_edges; ++e) {
        graph::Edge edge;
        if (!r->I64(&edge.u) || !r->I64(&edge.v) || !r->F64(&edge.weight)) {
          return false;
        }
        edges.push_back(edge);
      }
      a.graph = graph::Graph::FromEdges(num_nodes, std::move(edges));
    }
  }
  return DecodeViewIndexList(r, &delta->remove_views) &&
         DecodeViewIndexList(r, &delta->mask_views) &&
         DecodeViewIndexList(r, &delta->unmask_views);
}

// --- messages ---------------------------------------------------------------

void EncodeHelloRequest(const HelloRequest& msg, WireWriter* w) {
  w->Str(msg.tenant);
}

bool DecodeHelloRequest(WireReader* r, HelloRequest* msg) {
  return r->Str(&msg->tenant) && r->Finish();
}

void EncodeRegisterRequest(const RegisterRequest& msg, WireWriter* w) {
  w->Str(msg.id);
  w->I32(msg.shards);
  w->U8(1);  // retired `updatable`: every graph accepts updates
  w->I32(msg.knn_k);
  w->U8(msg.robust_views ? 1 : 0);
  EncodeMvag(msg.mvag, w);
}

bool DecodeRegisterRequest(WireReader* r, RegisterRequest* msg) {
  uint8_t retired_updatable, robust_views;
  if (!r->Str(&msg->id) || !r->I32(&msg->shards) ||
      !r->U8(&retired_updatable) || !r->I32(&msg->knn_k) ||
      !r->U8(&robust_views) || !DecodeMvag(r, &msg->mvag)) {
    return false;
  }
  msg->robust_views = robust_views != 0;
  return r->Finish();
}

void EncodeRegisterReply(const RegisterReply& msg, WireWriter* w) {
  w->I64(msg.num_nodes);
  w->I64(msg.epoch);
  w->I32(msg.num_views);
}

bool DecodeRegisterReply(WireReader* r, RegisterReply* msg) {
  return r->I64(&msg->num_nodes) && r->I64(&msg->epoch) &&
         r->I32(&msg->num_views) && r->Finish();
}

void EncodeUpdateRequest(const UpdateRequest& msg, WireWriter* w) {
  w->Str(msg.id);
  EncodeGraphDelta(msg.delta, w);
}

bool DecodeUpdateRequest(WireReader* r, UpdateRequest* msg) {
  return r->Str(&msg->id) && DecodeGraphDelta(r, &msg->delta) && r->Finish();
}

void EncodeUpdateReply(const UpdateReply& msg, WireWriter* w) {
  w->I64(msg.epoch);
}

bool DecodeUpdateReply(WireReader* r, UpdateReply* msg) {
  return r->I64(&msg->epoch) && r->Finish();
}

void EncodeSolveRequest(const SolveWireRequest& msg, WireWriter* w) {
  w->Str(msg.graph_id);
  w->U8(static_cast<uint8_t>(msg.mode));
  w->U8(static_cast<uint8_t>(msg.algorithm));
  w->I32(msg.k);
  w->U8(msg.warm_start ? 1 : 0);
  w->U8(msg.coalesce ? 1 : 0);
  w->U8(static_cast<uint8_t>(msg.quality));
  w->U8(msg.robust ? 1 : 0);
}

bool DecodeSolveRequest(WireReader* r, SolveWireRequest* msg) {
  uint8_t mode, algorithm, warm_start, coalesce, quality, robust;
  if (!r->Str(&msg->graph_id) || !r->U8(&mode) || !r->U8(&algorithm) ||
      !r->I32(&msg->k) || !r->U8(&warm_start) || !r->U8(&coalesce) ||
      !r->U8(&quality) || !r->U8(&robust) || !r->Finish()) {
    return false;
  }
  msg->robust = robust != 0;
  if (mode > static_cast<uint8_t>(serve::SolveMode::kEmbed)) return false;
  if (algorithm > static_cast<uint8_t>(serve::Algorithm::kSglaPlus)) {
    return false;
  }
  if (quality > static_cast<uint8_t>(serve::Quality::kRefined)) return false;
  msg->mode = static_cast<serve::SolveMode>(mode);
  msg->algorithm = static_cast<serve::Algorithm>(algorithm);
  msg->warm_start = warm_start != 0;
  msg->coalesce = coalesce != 0;
  msg->quality = static_cast<serve::Quality>(quality);
  return true;
}

void EncodeSolveReply(const SolveReply& msg, WireWriter* w) {
  w->U8(msg.mode);
  w->F64Vec(msg.weights);
  w->I64(msg.graph_epoch);
  w->U8(msg.warm_started ? 1 : 0);
  w->I64(msg.lanczos_iterations);
  w->U8(msg.tier_served);
  w->I32(msg.active_views);
  w->I32(msg.total_views);
  if (msg.mode == static_cast<uint8_t>(serve::SolveMode::kCluster)) {
    w->I32Vec(msg.labels);
  } else {
    w->I64(msg.embedding.rows());
    w->I64(msg.embedding.cols());
    w->F64Vec(msg.embedding.data());
  }
}

bool DecodeSolveReply(WireReader* r, SolveReply* msg) {
  uint8_t warm_started;
  if (!r->U8(&msg->mode) || !r->F64Vec(&msg->weights) ||
      !r->I64(&msg->graph_epoch) || !r->U8(&warm_started) ||
      !r->I64(&msg->lanczos_iterations) || !r->U8(&msg->tier_served)) {
    return false;
  }
  if (msg->tier_served > static_cast<uint8_t>(serve::Quality::kRefined)) {
    return false;
  }
  if (!r->I32(&msg->active_views) || !r->I32(&msg->total_views)) return false;
  msg->warm_started = warm_started != 0;
  if (msg->mode == static_cast<uint8_t>(serve::SolveMode::kCluster)) {
    if (!r->I32Vec(&msg->labels)) return false;
  } else if (msg->mode == static_cast<uint8_t>(serve::SolveMode::kEmbed)) {
    int64_t rows, cols;
    std::vector<double> data;
    if (!r->I64(&rows) || !r->I64(&cols) || !r->F64Vec(&data)) return false;
    if (!la::ShapeHolds(rows, cols, data.size())) return false;
    msg->embedding = la::DenseMatrix(rows, cols);
    msg->embedding.data() = std::move(data);
  } else {
    return false;
  }
  return r->Finish();
}

void EncodeEvictRequest(const EvictRequest& msg, WireWriter* w) {
  w->Str(msg.id);
}

bool DecodeEvictRequest(WireReader* r, EvictRequest* msg) {
  return r->Str(&msg->id) && r->Finish();
}

void EncodeEvictReply(const EvictReply& msg, WireWriter* w) {
  w->U8(msg.existed ? 1 : 0);
}

bool DecodeEvictReply(WireReader* r, EvictReply* msg) {
  uint8_t existed;
  if (!r->U8(&existed) || !r->Finish()) return false;
  msg->existed = existed != 0;
  return true;
}

void EncodeCheckpointRequest(const CheckpointRequest& msg, WireWriter* w) {
  w->Str(msg.id);
}

bool DecodeCheckpointRequest(WireReader* r, CheckpointRequest* msg) {
  return r->Str(&msg->id) && r->Finish();
}

void EncodeCheckpointReply(const CheckpointReply& msg, WireWriter* w) {
  w->I64(msg.epoch);
}

bool DecodeCheckpointReply(WireReader* r, CheckpointReply* msg) {
  return r->I64(&msg->epoch) && r->Finish();
}

void EncodeErrorReply(const ErrorReply& msg, WireWriter* w) {
  w->U8(static_cast<uint8_t>(msg.code));
  w->Str(msg.message);
}

bool DecodeErrorReply(WireReader* r, ErrorReply* msg) {
  uint8_t code;
  if (!r->U8(&code) || !r->Str(&msg->message) || !r->Finish()) return false;
  if (code > static_cast<uint8_t>(StatusCode::kUnimplemented)) return false;
  msg->code = static_cast<StatusCode>(code);
  return true;
}

std::vector<uint8_t> BuildFrame(FrameType type, uint64_t request_id,
                                WireWriter payload) {
  std::vector<uint8_t> body = payload.TakeBuffer();
  FrameHeader header;
  header.payload_length = static_cast<uint32_t>(body.size());
  header.type = type;
  header.request_id = request_id;
  std::vector<uint8_t> frame(kFrameHeaderBytes + body.size());
  EncodeFrameHeader(header, frame.data());
  std::copy(body.begin(), body.end(), frame.begin() + kFrameHeaderBytes);
  return frame;
}

std::vector<uint8_t> BuildErrorFrame(uint64_t request_id,
                                     const Status& status) {
  ErrorReply error;
  error.code = status.code();
  error.message = status.message();
  WireWriter w;
  EncodeErrorReply(error, &w);
  return BuildFrame(FrameType::kError, request_id, std::move(w));
}

}  // namespace rpc
}  // namespace sgla
