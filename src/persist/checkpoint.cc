#include "persist/checkpoint.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <utility>

#include "graph/graph.h"
#include "la/dense.h"
#include "persist/wal.h"
#include "rpc/wire.h"
#include "util/fnv1a.h"

namespace sgla {
namespace persist {
namespace {

using rpc::GetU32;
using rpc::GetU64;
using rpc::PutU32;
using rpc::PutU64;

constexpr uint64_t kCheckpointMagic = 0x53474c41636b7031ull;  // "SGLAckp1"
constexpr uint32_t kCheckpointVersion = 1;
// [u64 magic][u32 version][u32 payload length][u32 payload crc]
constexpr size_t kFileHeaderBytes = 20;
constexpr uint32_t kMaxCheckpointBytes = 1u << 30;
constexpr uint64_t kGraphMagic = 0x53474c416d7667ull;  // "SGLAmvg"
/// More views than this in one graph block is corruption, not data.
constexpr uint64_t kMaxViewsPerKind = 64;

/// The graph block that closes every checkpoint payload: magic, i64 nodes,
/// i64 clusters, I32Vec labels; a u64 graph-view count, then per view i64
/// nodes, a u64 count of i64 endpoints (u, v per edge) and F64Vec weights;
/// a u64 attribute-view count, then per view i64 rows, i64 cols and F64Vec
/// values. The vectors are written element by element so no edge list is
/// copied.
void EncodeGraph(const core::MultiViewGraph& mvag, rpc::WireWriter* w) {
  w->U64(kGraphMagic);
  w->I64(mvag.num_nodes());
  w->I64(mvag.num_clusters());
  w->I32Vec(mvag.labels());
  w->U64(mvag.graph_views().size());
  for (const graph::Graph& g : mvag.graph_views()) {
    w->I64(g.num_nodes());
    w->U64(2 * g.edges().size());
    for (const graph::Edge& e : g.edges()) {
      w->I64(e.u);
      w->I64(e.v);
    }
    w->U64(g.edges().size());
    for (const graph::Edge& e : g.edges()) w->F64(e.weight);
  }
  w->U64(mvag.attribute_views().size());
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    w->I64(x.rows());
    w->I64(x.cols());
    w->F64Vec(x.data());
  }
}

/// Inverse of EncodeGraph; false on truncation, a bad magic, more than
/// kMaxViewsPerKind views of a kind, or a shape lie. Every count is checked
/// against the bytes left before it sizes anything, so a forged count
/// rejects without allocating.
bool DecodeGraph(rpc::WireReader* r, core::MultiViewGraph* mvag) {
  uint64_t magic = 0, count = 0;
  int64_t nodes = 0, clusters = 0;
  std::vector<int32_t> labels;
  if (!r->U64(&magic) || magic != kGraphMagic || !r->I64(&nodes) ||
      !r->I64(&clusters) || !r->I32Vec(&labels) || nodes < 0) {
    return false;
  }
  *mvag = core::MultiViewGraph(nodes, static_cast<int>(clusters));
  mvag->set_labels(std::move(labels));

  if (!r->U64(&count) || count > kMaxViewsPerKind) return false;
  for (uint64_t v = 0; v < count; ++v) {
    int64_t view_nodes = 0;
    uint64_t endpoints = 0, weights = 0;
    if (!r->I64(&view_nodes) || !r->U64(&endpoints) ||
        !r->CheckCount(endpoints, 8) || endpoints % 2 != 0) {
      return false;
    }
    std::vector<graph::Edge> edges(endpoints / 2);
    for (graph::Edge& e : edges) {
      if (!r->I64(&e.u) || !r->I64(&e.v)) return false;
    }
    if (!r->U64(&weights) || weights != edges.size()) return false;
    for (graph::Edge& e : edges) {
      if (!r->F64(&e.weight)) return false;
    }
    mvag->AddGraphView(graph::Graph::FromEdges(view_nodes, std::move(edges)));
  }

  if (!r->U64(&count) || count > kMaxViewsPerKind) return false;
  for (uint64_t v = 0; v < count; ++v) {
    int64_t rows = 0, cols = 0;
    std::vector<double> values;
    if (!r->I64(&rows) || !r->I64(&cols) || !r->F64Vec(&values) ||
        !la::ShapeHolds(rows, cols, values.size())) {
      return false;
    }
    la::DenseMatrix x(rows, cols);
    x.data() = std::move(values);
    mvag->AddAttributeView(std::move(x));
  }
  return true;
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Internal("cannot open directory '" + dir + "': " +
                    ::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Internal("directory fsync failed for '" + dir + "': " +
                    ::strerror(errno));
  }
  return OkStatus();
}

}  // namespace

std::string CheckpointFileName(const std::string& id, uint64_t reg_uid) {
  static const char* kHex = "0123456789abcdef";
  const uint64_t hash = util::Fnv1a(id.data(), id.size());
  std::string name = "ck-";
  for (int i = 15; i >= 0; --i) {
    name += kHex[(hash >> (4 * i)) & 0xFu];
  }
  name += '-';
  name += std::to_string(reg_uid);
  name += ".sgck";
  return name;
}

void EncodeCheckpoint(const CheckpointData& data, std::vector<uint8_t>* out) {
  rpc::WireWriter w;
  w.Str(data.id);
  w.U64(data.reg_uid);
  w.I64(data.epoch);
  w.I32(data.options.shards);  // retired: kept in the layout, ignored
  w.U8(1);  // retired `updatable`: kept in the layout, ignored on read
  w.U8(data.options.robust_views ? 1 : 0);
  w.F64(data.options.coarsen_ratio);
  w.I32(data.options.knn.k);
  w.I64(data.options.knn.exact_threshold);
  w.I32(data.options.knn.trees);
  w.I32(data.options.knn.leaf_size);
  w.U64(data.options.knn.seed);
  w.U64(data.next_view_uid);
  w.U64(data.view_uids.size());
  for (uint64_t uid : data.view_uids) w.U64(uid);
  w.U64(data.active.size());
  for (size_t v = 0; v < data.active.size(); ++v) {
    w.U8(data.active[v] ? 1 : 0);
  }
  w.U64(data.views_signature);
  EncodeGraph(data.mvag, &w);
  *out = w.TakeBuffer();
}

Result<CheckpointData> DecodeCheckpoint(const uint8_t* data, size_t size) {
  rpc::WireReader r(data, size);
  CheckpointData ck;
  uint8_t retired_updatable = 0, robust = 0;
  uint64_t uid_count = 0, active_count = 0;
  bool ok = r.Str(&ck.id) && r.U64(&ck.reg_uid) && r.I64(&ck.epoch) &&
            r.I32(&ck.options.shards) && r.U8(&retired_updatable) &&
            r.U8(&robust) && r.F64(&ck.options.coarsen_ratio) &&
            r.I32(&ck.options.knn.k) &&
            r.I64(&ck.options.knn.exact_threshold) &&
            r.I32(&ck.options.knn.trees) && r.I32(&ck.options.knn.leaf_size) &&
            r.U64(&ck.options.knn.seed) && r.U64(&ck.next_view_uid) &&
            r.U64(&uid_count) && r.CheckCount(uid_count, 8);
  if (!ok) return InvalidArgument("corrupt checkpoint header");
  ck.options.robust_views = robust != 0;
  ck.view_uids.resize(uid_count);
  for (uint64_t& uid : ck.view_uids) {
    if (!r.U64(&uid)) return InvalidArgument("corrupt checkpoint view uids");
  }
  if (!r.U64(&active_count) || !r.CheckCount(active_count, 1) ||
      active_count != uid_count) {
    return InvalidArgument("corrupt checkpoint activity mask");
  }
  ck.active.resize(active_count);
  for (size_t v = 0; v < active_count; ++v) {
    uint8_t flag = 0;
    if (!r.U8(&flag)) return InvalidArgument("corrupt checkpoint activity mask");
    ck.active[v] = flag != 0;
  }
  if (!r.U64(&ck.views_signature)) {
    return InvalidArgument("corrupt checkpoint signature");
  }
  if (!DecodeGraph(&r, &ck.mvag)) {
    return InvalidArgument("corrupt checkpoint graph block");
  }
  if (!r.Finish()) {
    return InvalidArgument("trailing bytes after checkpoint graph block");
  }
  if (ck.view_uids.size() !=
      ck.mvag.graph_views().size() + ck.mvag.attribute_views().size()) {
    return InvalidArgument("checkpoint view uids do not match its graph");
  }
  return ck;
}

Status SaveCheckpoint(const CheckpointData& data, const std::string& path) {
  std::vector<uint8_t> payload;
  EncodeCheckpoint(data, &payload);
  if (payload.size() > kMaxCheckpointBytes) {
    return InvalidArgument("checkpoint for '" + data.id +
                           "' exceeds the size cap");
  }
  std::vector<uint8_t> file(kFileHeaderBytes);
  PutU64(kCheckpointMagic, file.data());
  PutU32(kCheckpointVersion, file.data() + 8);
  PutU32(static_cast<uint32_t>(payload.size()), file.data() + 12);
  PutU32(Crc32(payload.data(), payload.size()), file.data() + 16);
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Internal("cannot open '" + tmp + "': " + ::strerror(errno));
  }
  size_t done = 0;
  while (done < file.size()) {
    const ssize_t n = ::write(fd, file.data() + done, file.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string error = ::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Internal("checkpoint write failed: " + error);
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string error = ::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Internal("checkpoint fsync failed: " + error);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string error = ::strerror(errno);
    ::unlink(tmp.c_str());
    return Internal("checkpoint rename failed: " + error);
  }
  // The rename is durable only once the directory entry is: without this a
  // crash could resurrect the previous checkpoint.
  return FsyncParentDir(path);
}

Result<CheckpointData> LoadCheckpoint(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFound("cannot open checkpoint '" + path + "': " +
                    ::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string error = ::strerror(errno);
      ::close(fd);
      return Internal("checkpoint read failed: " + error);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fd);

  if (bytes.size() < kFileHeaderBytes) {
    return InvalidArgument("checkpoint '" + path + "' is truncated");
  }
  if (GetU64(bytes.data()) != kCheckpointMagic) {
    return InvalidArgument("checkpoint '" + path + "' has a bad magic");
  }
  if (GetU32(bytes.data() + 8) != kCheckpointVersion) {
    return InvalidArgument("checkpoint '" + path +
                           "' has unsupported version " +
                           std::to_string(GetU32(bytes.data() + 8)));
  }
  const uint32_t length = GetU32(bytes.data() + 12);
  // A hostile length cannot drive a read past the buffer: the payload must
  // be exactly what the file holds after the header.
  if (length > kMaxCheckpointBytes ||
      bytes.size() - kFileHeaderBytes != length) {
    return InvalidArgument("checkpoint '" + path +
                           "' payload length does not match the file");
  }
  const uint8_t* payload = bytes.data() + kFileHeaderBytes;
  if (Crc32(payload, length) != GetU32(bytes.data() + 16)) {
    return InvalidArgument("checkpoint '" + path + "' failed its CRC check");
  }
  auto decoded = DecodeCheckpoint(payload, length);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + " (" + path + ")");
  }
  return decoded;
}

}  // namespace persist
}  // namespace sgla
