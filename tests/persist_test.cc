// Durability tests: WAL framing (round-trip, torn tail, bit-flipped CRC,
// group commit, the read-only scan against what Open keeps), checkpoint
// encode/decode under hostile bytes (every single-byte corruption,
// truncation and forged count must reject with a typed error, never crash)
// and its pinned encoding, Store recovery semantics (duplicate / gap /
// foreign-registration records), engine-level recovery bit-identity across
// close + reopen including lifecycle deltas, the recovery-failure gate
// (mutations refuse on an unreadable directory), checkpoint compaction,
// updates racing registration and evict + re-register (every acknowledged
// update must recover), and a TSAN hammer racing WAL appends against
// Solve/Update/Evict/Checkpoint.
#include <dirent.h>
#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/graph.h"
#include "persist/checkpoint.h"
#include "persist/store.h"
#include "persist/wal.h"
#include "rpc/wire.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace sgla {
namespace {

using util::Fnv1a;
using util::HashCsr;
using util::HashVector;

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "sgla_persist_XXXXXX";
  EXPECT_NE(mkdtemp(&path[0]), nullptr);
  return path;
}

std::vector<uint8_t> ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteWhole(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (d == nullptr) return names;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  return names;
}

std::string FindCheckpointFile(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".sgck") == 0) {
      return dir + "/" + name;
    }
  }
  return "";
}

/// Appends one correctly-framed record to a closed WAL file, bypassing the
/// Wal class — how the recovery tests plant duplicate / gap / foreign
/// records that a healthy writer would never produce.
void AppendWalFrame(const std::string& path,
                    const std::vector<uint8_t>& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  uint8_t frame[8];
  rpc::PutU32(static_cast<uint32_t>(payload.size()), frame);
  rpc::PutU32(persist::Crc32(payload.data(), payload.size()), frame + 4);
  out.write(reinterpret_cast<const char*>(frame), sizeof(frame));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  ASSERT_TRUE(out.good());
}

/// Small two-SBM-view + one-attribute-view fixture; deterministic.
core::MultiViewGraph TestFixture(int64_t n = 260) {
  const int k = 3;
  Rng rng(715);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.12, 0.02, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.06, 0.03, &rng));
  la::DenseMatrix attributes(n, 3);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      attributes(i, j) = rng.Gaussian() + 2.0 * labels[i];
    }
  }
  mvag.AddAttributeView(std::move(attributes));
  mvag.set_labels(std::move(labels));
  return mvag;
}

/// Deterministic delta sequence covering every record shape: edge upserts,
/// an attribute row rewrite, mask/unmask, AddView, and an edge removal.
serve::GraphDelta TestDelta(int64_t e, int64_t n = 260) {
  Rng rng(900 + static_cast<uint64_t>(e));
  serve::GraphDelta delta;
  switch (e) {
    case 3:
      delta.mask_views = {1};
      return delta;
    case 4: {
      graph::Graph extra(n);
      for (int64_t m = 0; m < 2 * n; ++m) {
        const int64_t u = rng.UniformInt(0, n - 1);
        const int64_t v = rng.UniformInt(0, n - 1);
        if (u != v) extra.AddEdge(u, v, 1.0);
      }
      serve::ViewAddition addition;
      addition.graph = std::move(extra);
      delta.add_views.push_back(std::move(addition));
      return delta;
    }
    case 5:
      delta.unmask_views = {1};
      return delta;
    case 6: {
      serve::GraphViewDelta edits;
      edits.view = 0;
      edits.removals.push_back({1, 2});  // inserted by the e=1 delta below
      delta.graph_views.push_back(std::move(edits));
      return delta;
    }
    default:
      break;
  }
  if (e % 2 == 0) {
    serve::AttributeRowUpdate row;
    row.view = 0;
    row.row = (e * 37) % n;
    row.values.assign(3, 0.0);
    for (double& value : row.values) value = rng.Gaussian();
    delta.attribute_rows.push_back(std::move(row));
    return delta;
  }
  serve::GraphViewDelta edits;
  edits.view = 0;
  if (e == 1) edits.upserts.push_back({1, 2, 1.5});
  for (int i = 0; i < 2; ++i) {
    const int64_t u = rng.UniformInt(0, n - 1);
    int64_t v = rng.UniformInt(0, n - 1);
    if (u == v) v = (v + 1) % n;
    edits.upserts.push_back({u, v, 0.5 + rng.Uniform()});
  }
  delta.graph_views.push_back(std::move(edits));
  return delta;
}

uint64_t EntryHash(const serve::GraphEntry& entry) {
  uint64_t hash = Fnv1a(&entry.epoch, sizeof(entry.epoch));
  hash = Fnv1a(&entry.views_signature, sizeof(entry.views_signature), hash);
  hash = Fnv1a(entry.view_uids.data(),
               entry.view_uids.size() * sizeof(uint64_t), hash);
  for (size_t v = 0; v < entry.views.size(); ++v) {
    const uint64_t view_hash = HashCsr(entry.views[v]);
    hash = Fnv1a(&view_hash, sizeof(view_hash), hash);
    const uint8_t active = entry.active[v] ? 1 : 0;
    hash = Fnv1a(&active, sizeof(active), hash);
  }
  return hash;
}

uint64_t SolveHash(serve::Engine* engine, const std::string& id) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.options.base.max_evaluations = 8;
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return 0;
  uint64_t hash = HashVector(response->integration.weights);
  hash = Fnv1a(&hash, sizeof(hash),
               HashVector(response->integration.objective_history));
  const uint64_t laplacian = HashCsr(response->integration.laplacian);
  hash = Fnv1a(&laplacian, sizeof(laplacian), hash);
  const uint64_t labels = HashVector(response->labels);
  return Fnv1a(&labels, sizeof(labels), hash);
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(WalTest, Crc32MatchesKnownVector) {
  // The IEEE CRC32 check value: crc32("123456789") == 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(persist::Crc32(reinterpret_cast<const uint8_t*>(data), 9),
            0xCBF43926u);
}

TEST(WalTest, AppendThenReplayRoundTrips) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<uint8_t>> records = {
      {1, 2, 3}, {}, std::vector<uint8_t>(1000, 0xab)};
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(stats.records, 0u);
    for (const auto& record : records) {
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
    EXPECT_EQ((*wal)->records_appended(), records.size());
  }
  persist::WalOpenStats stats;
  std::vector<std::vector<uint8_t>> replayed;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t* payload, size_t size) {
        replayed.emplace_back(payload, payload + size);
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(stats.records, records.size());
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(replayed, records);
}

TEST(WalTest, TornTailIsTruncatedOnOpen) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1, 2, 3}).ok());
    ASSERT_TRUE((*wal)->Append({4, 5}).ok());
  }
  // A torn append: a frame header promising more bytes than follow.
  std::vector<uint8_t> bytes = ReadWhole(path);
  const size_t intact = bytes.size();
  bytes.push_back(200);  // len=200, but nothing behind it
  bytes.resize(bytes.size() + 7, 0);
  bytes.push_back(0xee);
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  size_t replayed = 0;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t*, size_t) {
        ++replayed;
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(replayed, 2u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_GT(stats.truncated_bytes, 0u);
  wal->reset();
  EXPECT_EQ(ReadWhole(path).size(), intact);  // tail physically cut
}

TEST(WalTest, BitFlippedCrcEndsTheValidPrefix) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1, 2, 3}).ok());
    ASSERT_TRUE((*wal)->Append({4, 5, 6}).ok());
  }
  std::vector<uint8_t> bytes = ReadWhole(path);
  bytes.back() ^= 0x01;  // corrupt the last record's payload
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  size_t replayed = 0;
  auto wal = persist::Wal::Open(
      path, {},
      [&](const uint8_t*, size_t) {
        ++replayed;
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(replayed, 1u);  // only the record before the corruption
  EXPECT_TRUE(stats.tail_truncated);
}

// ScanWal is the read-only half of Wal::Open (sgla_walcat prints through
// it): on a torn tail and on a bit-flipped record, its valid prefix must be
// byte for byte what Open keeps, and its records exactly what Open replays.
TEST(WalTest, ScanFindsExactlyThePrefixOpenKeeps) {
  for (const bool torn : {true, false}) {
    SCOPED_TRACE(torn ? "torn tail" : "bit-flipped second record");
    const std::string path = MakeTempDir() + "/wal.log";
    {
      auto wal = persist::Wal::Open(
          path, {}, [](const uint8_t*, size_t) { return OkStatus(); },
          nullptr);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE((*wal)->Append({1, 2, 3}).ok());
      ASSERT_TRUE((*wal)->Append({4, 5}).ok());
      ASSERT_TRUE((*wal)->Append({6, 7, 8, 9}).ok());
    }
    std::vector<uint8_t> image = ReadWhole(path);
    if (torn) {
      // A frame header promising 200 payload bytes, with one behind it.
      image.push_back(200);
      image.resize(image.size() + 7, 0);
      image.push_back(0xee);
    } else {
      image[16 + 8 + 3 + 8] ^= 0x01;  // first payload byte of record two
    }
    WriteWhole(path, image);

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    auto scan = persist::ScanWal(fd, path);
    ::close(fd);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_TRUE(scan->has_header);
    EXPECT_EQ(scan->bytes, image);
    EXPECT_EQ(ReadWhole(path), image);  // the scan changed nothing
    ASSERT_LT(scan->valid_bytes, image.size());
    EXPECT_EQ(scan->records.size(), torn ? 3u : 1u);
    std::vector<std::vector<uint8_t>> scanned;
    for (const auto& record : scan->records) {
      const uint8_t* payload = scan->bytes.data() + record.first;
      scanned.emplace_back(payload, payload + record.second);
    }

    std::vector<std::vector<uint8_t>> replayed;
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {},
        [&](const uint8_t* payload, size_t size) {
          replayed.emplace_back(payload, payload + size);
          return OkStatus();
        },
        &stats);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    wal->reset();
    EXPECT_EQ(replayed, scanned);
    EXPECT_EQ(stats.truncated_bytes, image.size() - scan->valid_bytes);
    EXPECT_EQ(ReadWhole(path),
              std::vector<uint8_t>(image.begin(),
                                   image.begin() + scan->valid_bytes));
  }
}

TEST(WalTest, CorruptHeaderIsATypedErrorNotATruncation) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1}).ok());
  }
  std::vector<uint8_t> bytes = ReadWhole(path);
  bytes[0] ^= 0xff;  // break the magic
  WriteWhole(path, bytes);

  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ReplayFailureAbortsTheOpen) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  {
    persist::WalOpenStats stats;
    auto wal = persist::Wal::Open(
        path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({1}).ok());
  }
  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {},
      [](const uint8_t*, size_t) { return Internal("replay says no"); },
      &stats);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInternal);
}

TEST(WalTest, GroupCommitBatchesConcurrentAppends) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/wal.log";
  persist::WalOpenStats stats;
  auto wal = persist::Wal::Open(
      path, {}, [](const uint8_t*, size_t) { return OkStatus(); }, &stats);
  ASSERT_TRUE(wal.ok());
  // Enqueue a burst before waiting on any of it: the committer drains
  // whatever accumulated while the previous fsync was in flight, so the
  // burst lands in far fewer commit batches than records.
  const size_t kRecords = 400;
  uint64_t last_ticket = 0;
  for (size_t i = 0; i < kRecords; ++i) {
    auto ticket = (*wal)->Enqueue({static_cast<uint8_t>(i)});
    ASSERT_TRUE(ticket.ok());
    last_ticket = *ticket;
  }
  ASSERT_TRUE((*wal)->Wait(last_ticket).ok());
  EXPECT_EQ((*wal)->records_appended(), kRecords);
  EXPECT_GE((*wal)->commits(), 1u);
  EXPECT_LT((*wal)->commits(), kRecords);
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

persist::CheckpointData MakeCheckpointData() {
  persist::CheckpointData data;
  data.id = "ck";
  data.reg_uid = 7;
  data.epoch = 12;
  data.options.shards = 4;
  data.options.coarsen_ratio = 0.0;
  data.options.robust_views = true;
  data.options.knn.k = 6;
  data.options.knn.seed = 42;
  data.next_view_uid = 9;
  data.view_uids = {1, 2, 5};
  data.active = {true, false, true};
  data.views_signature = 0xdeadbeefcafef00dull;
  data.mvag = TestFixture(40);
  return data;
}

TEST(CheckpointTest, SaveLoadRoundTrips) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + persist::CheckpointFileName("ck", 7);
  const persist::CheckpointData data = MakeCheckpointData();
  ASSERT_TRUE(persist::SaveCheckpoint(data, path).ok());
  auto loaded = persist::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->id, data.id);
  EXPECT_EQ(loaded->reg_uid, data.reg_uid);
  EXPECT_EQ(loaded->epoch, data.epoch);
  EXPECT_EQ(loaded->options.shards, data.options.shards);
  EXPECT_EQ(loaded->options.robust_views, data.options.robust_views);
  EXPECT_EQ(loaded->options.knn.k, data.options.knn.k);
  EXPECT_EQ(loaded->options.knn.seed, data.options.knn.seed);
  EXPECT_EQ(loaded->next_view_uid, data.next_view_uid);
  EXPECT_EQ(loaded->view_uids, data.view_uids);
  EXPECT_EQ(loaded->active, data.active);
  EXPECT_EQ(loaded->views_signature, data.views_signature);
  EXPECT_EQ(loaded->mvag.num_nodes(), data.mvag.num_nodes());
  EXPECT_EQ(loaded->mvag.num_clusters(), data.mvag.num_clusters());
  EXPECT_EQ(loaded->mvag.labels(), data.mvag.labels());
  ASSERT_EQ(loaded->mvag.graph_views().size(), data.mvag.graph_views().size());
  for (size_t v = 0; v < data.mvag.graph_views().size(); ++v) {
    const graph::Graph& want = data.mvag.graph_views()[v];
    const graph::Graph& got = loaded->mvag.graph_views()[v];
    EXPECT_EQ(got.num_nodes(), want.num_nodes());
    ASSERT_EQ(got.num_edges(), want.num_edges());
    for (size_t e = 0; e < want.edges().size(); ++e) {
      EXPECT_EQ(got.edges()[e].u, want.edges()[e].u);
      EXPECT_EQ(got.edges()[e].v, want.edges()[e].v);
      EXPECT_EQ(got.edges()[e].weight, want.edges()[e].weight);
    }
  }
  ASSERT_EQ(loaded->mvag.attribute_views().size(),
            data.mvag.attribute_views().size());
  for (size_t v = 0; v < data.mvag.attribute_views().size(); ++v) {
    EXPECT_EQ(loaded->mvag.attribute_views()[v].rows(),
              data.mvag.attribute_views()[v].rows());
    EXPECT_EQ(loaded->mvag.attribute_views()[v].data(),
              data.mvag.attribute_views()[v].data());
  }
}

TEST(CheckpointTest, EncodingIsByteStable) {
  // Size and CRC of this payload as checkpoint version 1 has always encoded
  // it. If they move, data directories written earlier stop recovering:
  // bump kCheckpointVersion instead.
  std::vector<uint8_t> payload;
  persist::EncodeCheckpoint(MakeCheckpointData(), &payload);
  EXPECT_EQ(payload.size(), 3283u);
  EXPECT_EQ(persist::Crc32(payload.data(), payload.size()), 0x7405cab2u);
}

TEST(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + persist::CheckpointFileName("ck", 7);
  ASSERT_TRUE(persist::SaveCheckpoint(MakeCheckpointData(), path).ok());
  const std::vector<uint8_t> good = ReadWhole(path);
  ASSERT_FALSE(good.empty());
  // Flip one byte at a time (striding to keep the test fast): the header
  // checks or the payload CRC must catch every one of them — a checkpoint
  // either loads exactly as written or rejects with a typed error.
  for (size_t i = 0; i < good.size(); i += 7) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x40;
    WriteWhole(path, bad);
    auto loaded = persist::LoadCheckpoint(path);
    EXPECT_FALSE(loaded.ok()) << "corruption at byte " << i << " undetected";
  }
}

/// The opening fields of a checkpoint graph block, encoded as the
/// checkpoint encodes them: magic, 2 nodes, 3 clusters, then `words` as
/// u64s (counts and sizes; i64 fields share the encoding).
rpc::WireWriter GraphBlock(std::initializer_list<uint64_t> words) {
  rpc::WireWriter w;
  w.U64(0x53474c416d7667ull);  // "SGLAmvg"
  w.I64(2);
  w.I64(3);
  for (uint64_t word : words) w.U64(word);
  return w;
}

/// MakeCheckpointData()'s payload with its graph block replaced by
/// `block`. The header lists one view uid, so an honest block holding one
/// view decodes.
std::vector<uint8_t> PayloadWithGraphBlock(const rpc::WireWriter& block) {
  persist::CheckpointData data = MakeCheckpointData();
  data.view_uids = {1};
  data.active = {true};
  data.mvag = core::MultiViewGraph();
  std::vector<uint8_t> payload;
  persist::EncodeCheckpoint(data, &payload);
  // An empty graph's block is six 8-byte fields: magic, nodes, clusters,
  // and the label, graph-view and attribute-view counts.
  payload.resize(payload.size() - 6 * 8);
  payload.insert(payload.end(), block.buffer().begin(), block.buffer().end());
  return payload;
}

void ExpectInvalidArgument(const std::vector<uint8_t>& payload) {
  auto decoded = persist::DecodeCheckpoint(payload.data(), payload.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().ToString();
}

TEST(CheckpointTest, HostileCountsAndTruncationsNeverCrashDecode) {
  std::vector<uint8_t> payload;
  persist::EncodeCheckpoint(MakeCheckpointData(), &payload);
  ASSERT_TRUE(persist::DecodeCheckpoint(payload.data(), payload.size()).ok());
  // Every proper prefix must reject with a typed error, never crash. A
  // prefix only cuts honest fields short; the forged counts below promise
  // more bytes than the payload holds.
  for (size_t len = 0; len < payload.size();
       len += (len < 64 ? 1 : 13)) {
    auto decoded = persist::DecodeCheckpoint(payload.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
  // The payload opens with the id's u32 length; promising 4 GiB of id must
  // reject instead of sizing a string by it.
  std::vector<uint8_t> huge = payload;
  huge[0] = huge[1] = huge[2] = huge[3] = 0xff;
  ExpectInvalidArgument(huge);

  // One forged count of the graph block each, with no bytes behind it. A
  // count is checked against the bytes left before it sizes a vector: 2^28
  // labels alone would be 1 GiB. View counts above 64 are corruption.
  constexpr uint64_t kForged = uint64_t{1} << 28;
  const struct {
    const char* what;
    rpc::WireWriter block;
  } forgeries[] = {
      {"labels", GraphBlock({kForged})},
      {"graph view count", GraphBlock({0, 65})},
      {"endpoints", GraphBlock({0, 1, 2, kForged})},
      {"weights", GraphBlock({0, 1, 2, 2, 0, 1, kForged})},
      {"attribute view count", GraphBlock({0, 0, 65})},
      {"attribute values", GraphBlock({0, 0, 1, 2, kForged / 2, kForged})},
  };
  for (const auto& forgery : forgeries) {
    SCOPED_TRACE(forgery.what);
    ExpectInvalidArgument(PayloadWithGraphBlock(forgery.block));
  }

  // Attribute shapes that lie about their value count: the first two
  // products wrap to the count in 64 bits; the third is a negative shape
  // whose product is positive.
  const struct {
    int64_t rows;
    int64_t cols;
    size_t doubles;
  } lies[] = {{512, int64_t{1} << 55, 0},
              {3, int64_t{0x5555555555555556}, 2},
              {-2, -1, 2}};
  for (const auto& lie : lies) {
    SCOPED_TRACE(lie.cols);
    rpc::WireWriter block = GraphBlock({0, 0, 1});
    block.I64(lie.rows);
    block.I64(lie.cols);
    block.F64Vec(std::vector<double>(lie.doubles, 1.0));
    ExpectInvalidArgument(PayloadWithGraphBlock(block));
  }
  rpc::WireWriter honest = GraphBlock({0, 0, 1});
  honest.I64(2);
  honest.I64(3);
  honest.F64Vec(std::vector<double>(6, 1.0));
  const std::vector<uint8_t> bytes = PayloadWithGraphBlock(honest);
  auto decoded = persist::DecodeCheckpoint(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->mvag.attribute_views().size(), 1u);
  EXPECT_EQ(decoded->mvag.attribute_views()[0].rows(), 2);
  EXPECT_EQ(decoded->mvag.attribute_views()[0].cols(), 3);
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

TEST(WalRecordTest, DeltaRecordRoundTripsIncludingLifecycleOps) {
  persist::WalRecord record;
  record.kind = persist::WalRecord::Kind::kDelta;
  record.reg_uid = 11;
  record.id = "graph-a";
  record.epoch = 42;
  record.delta = TestDelta(4);  // AddView
  record.delta.mask_views = {0};
  std::vector<uint8_t> bytes;
  persist::EncodeWalRecord(record, &bytes);
  auto decoded = persist::DecodeWalRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->reg_uid, record.reg_uid);
  EXPECT_EQ(decoded->id, record.id);
  EXPECT_EQ(decoded->epoch, record.epoch);
  EXPECT_EQ(decoded->delta.add_views.size(), 1u);
  EXPECT_EQ(decoded->delta.mask_views, record.delta.mask_views);
  EXPECT_EQ(decoded->delta.add_views[0].graph.num_edges(),
            record.delta.add_views[0].graph.num_edges());
  // Truncations reject, never crash.
  for (size_t len = 0; len < bytes.size(); len += (len < 32 ? 1 : 17)) {
    EXPECT_FALSE(persist::DecodeWalRecord(bytes.data(), len).ok());
  }
}

// ---------------------------------------------------------------------------
// Store recovery
// ---------------------------------------------------------------------------

TEST(StoreTest, RecoversAcrossReopenBitIdentically) {
  const std::string dir = MakeTempDir();
  uint64_t entry_hash = 0;
  uint64_t solve_hash = 0;
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;  // format coverage, not disk stalls
    options.checkpoint_interval = 0;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok())
        << engine.recovery_status().ToString();
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
    for (int64_t e = 1; e <= 7; ++e) {
      auto updated = engine.UpdateGraph("g", TestDelta(e));
      ASSERT_TRUE(updated.ok()) << "delta " << e << ": "
                                << updated.status().ToString();
      ASSERT_EQ((*updated)->epoch, e);
    }
    entry_hash = EntryHash(*registry.Find("g"));
    solve_hash = SolveHash(&engine, "g");
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  EXPECT_EQ(engine.recovery_stats().graphs_recovered, 1u);
  EXPECT_EQ(engine.recovery_stats().deltas_replayed, 7u);
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 7);
  // Recovery rebuilds exactly the pre-crash serving state: same views, same
  // uids/activity/signature, and a bit-identical solve.
  EXPECT_EQ(EntryHash(*entry), entry_hash);
  EXPECT_EQ(SolveHash(&engine, "g"), solve_hash);
  // Recovered graphs keep accepting deltas where the log left off.
  auto updated = engine.UpdateGraph("g", TestDelta(8));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ((*updated)->epoch, 8);
}

TEST(StoreTest, CheckpointWithRetiredShardsRecoversBitIdentically) {
  // Spans three 512-row chunks, so shards = 4 would have split the rows when
  // the option still meant something; it now rides along in the checkpoint
  // and is ignored.
  const core::MultiViewGraph mvag = TestFixture(1100);
  serve::RegisterOptions register_options;
  register_options.shards = 4;
  register_options.coarsen_ratio = 0.0;

  uint64_t reference = 0;
  {
    serve::GraphRegistry registry;
    serve::Engine engine(&registry);
    ASSERT_TRUE(engine.RegisterGraph("g", mvag, register_options).ok());
    reference = SolveHash(&engine, "g");
  }

  const std::string dir = MakeTempDir();
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  {
    serve::GraphRegistry registry;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok())
        << engine.recovery_status().ToString();
    ASSERT_TRUE(engine.RegisterGraph("g", mvag, register_options).ok());
  }
  auto checkpoint = persist::LoadCheckpoint(FindCheckpointFile(dir));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->options.shards, 4);

  serve::GraphRegistry registry;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  EXPECT_EQ(engine.recovery_stats().graphs_recovered, 1u);
  EXPECT_EQ(SolveHash(&engine, "g"), reference);
}

TEST(StoreTest, DuplicateGapAndForeignRecords) {
  const std::string dir = MakeTempDir();
  persist::WalRecord record;
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    options.checkpoint_interval = 0;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(2)).ok());
  }
  auto checkpoint = persist::LoadCheckpoint(FindCheckpointFile(dir));
  ASSERT_TRUE(checkpoint.ok());
  record.kind = persist::WalRecord::Kind::kDelta;
  record.reg_uid = checkpoint->reg_uid;
  record.id = "g";
  record.delta = TestDelta(1);

  const std::string wal_path = dir + "/wal.log";
  // Duplicate (epoch already applied) and foreign (unknown registration)
  // records are tolerated and counted; recovery still lands on epoch 2.
  {
    record.epoch = 1;
    std::vector<uint8_t> payload;
    persist::EncodeWalRecord(record, &payload);
    AppendWalFrame(wal_path, payload);
    persist::WalRecord foreign = record;
    foreign.reg_uid = 9999;
    foreign.epoch = 3;
    payload.clear();
    persist::EncodeWalRecord(foreign, &payload);
    AppendWalFrame(wal_path, payload);

    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->recovery().duplicates_skipped, 1u);
    EXPECT_EQ((*store)->recovery().records_ignored, 1u);
    ASSERT_NE(registry.Find("g"), nullptr);
    EXPECT_EQ(registry.Find("g")->epoch, 2);
  }
  // An epoch gap means acknowledged records are missing: recovery must
  // reject the directory with a typed error, never serve a hole.
  {
    record.epoch = 9;
    std::vector<uint8_t> payload;
    persist::EncodeWalRecord(record, &payload);
    AppendWalFrame(wal_path, payload);

    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInternal);
  }
}

TEST(StoreTest, EvictUnlinksDurably) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    EXPECT_TRUE((*store)->Evict("g"));
    EXPECT_EQ(FindCheckpointFile(dir), "");  // checkpoint unlinked
  }
  serve::GraphRegistry registry;
  persist::StoreOptions options;
  options.dir = dir;
  options.fsync = false;
  auto store = persist::Store::Open(options, &registry);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().graphs_recovered, 0u);
  EXPECT_EQ(registry.Find("g"), nullptr);
  // The id is re-registrable, with a fresh registration identity.
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  ASSERT_TRUE((*store)->Register("g", TestFixture(), register_options).ok());
}

// A Checkpoint racing an Evict can rename its file after the evict's unlink,
// leaving a stale checkpoint of a dead registration beside the live one.
// Recovery must restore the newest registration (highest reg_uid) and remove
// the stale file — regardless of which the directory scan meets first.
TEST(StoreTest, StaleCheckpointFromADeadRegistrationLosesToNewest) {
  const std::string dir = MakeTempDir();
  std::string stale_path;
  std::vector<uint8_t> stale_bytes;
  {
    serve::GraphRegistry registry;
    persist::StoreOptions options;
    options.dir = dir;
    options.fsync = false;
    options.checkpoint_interval = 0;
    auto store = persist::Store::Open(options, &registry);
    ASSERT_TRUE(store.ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(2)).ok());
    auto compacted = (*store)->Checkpoint("g");
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(*compacted, 2);
    // Save the reg_uid-1 file, then evict + re-register + one delta.
    stale_path = FindCheckpointFile(dir);
    ASSERT_NE(stale_path, "");
    stale_bytes = ReadWhole(stale_path);
    EXPECT_TRUE((*store)->Evict("g"));
    ASSERT_TRUE(
        (*store)->Register("g", TestFixture(), register_options).ok());
    ASSERT_TRUE((*store)->Update("g", TestDelta(1)).ok());
  }
  // Simulate the lost race: the dead registration's checkpoint reappears.
  WriteWhole(stale_path, stale_bytes);
  serve::GraphRegistry registry;
  persist::StoreOptions options;
  options.dir = dir;
  options.fsync = false;
  auto store = persist::Store::Open(options, &registry);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().graphs_recovered, 1u);
  EXPECT_EQ((*store)->recovery().deltas_replayed, 1u);
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 1);  // the live registration, not the stale one
  struct stat st;
  EXPECT_NE(::stat(stale_path.c_str(), &st), 0);  // stale file removed
}

TEST(StoreTest, CheckpointCompactsTheWal) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    options.checkpoint_interval = 3;  // auto-checkpoint every 3 records
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
    for (int64_t e = 1; e <= 7; ++e) {
      ASSERT_TRUE(engine.UpdateGraph("g", TestDelta(e)).ok());
    }
    // Explicit checkpoint: covers the remaining suffix and truncates.
    auto epoch = engine.Checkpoint("g");
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, 7);
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  // Everything is in the checkpoint; the WAL suffix replays nothing.
  EXPECT_EQ(engine.recovery_stats().deltas_replayed, 0u);
  ASSERT_NE(registry.Find("g"), nullptr);
  EXPECT_EQ(registry.Find("g")->epoch, 7);
}

TEST(StoreTest, CorruptCheckpointFailsRecoveryAndGatesMutations) {
  const std::string dir = MakeTempDir();
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    serve::RegisterOptions register_options;
    register_options.coarsen_ratio = 0.0;
    ASSERT_TRUE(
        engine.RegisterGraph("g", TestFixture(), register_options).ok());
  }
  const std::string checkpoint_path = FindCheckpointFile(dir);
  ASSERT_NE(checkpoint_path, "");
  std::vector<uint8_t> bytes = ReadWhole(checkpoint_path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteWhole(checkpoint_path, bytes);

  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  serve::Engine engine(&registry, options);
  // Recovery failed; the engine must refuse every mutation with the typed
  // recovery error instead of building divergent state on the directory.
  ASSERT_FALSE(engine.recovery_status().ok());
  EXPECT_EQ(registry.Find("g"), nullptr);
  auto registered = engine.RegisterGraph("g", TestFixture(40), {});
  EXPECT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), engine.recovery_status().code());
  EXPECT_FALSE(engine.UpdateGraph("g", TestDelta(1, 40)).ok());
  EXPECT_FALSE(engine.Checkpoint("g").ok());
}

TEST(StoreTest, CheckpointWithoutDataDirIsFailedPrecondition) {
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  auto epoch = engine.Checkpoint("g");
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(epoch.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Updates racing registration and evict + re-register. An update the Store
// acknowledges must be in the log: after a clean close and reopen, recovery
// succeeds and lands on the last acknowledged epoch.
// ---------------------------------------------------------------------------

serve::EngineOptions DurableOptions(const std::string& dir) {
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = true;
  options.checkpoint_interval = 0;
  return options;
}

// Reopens `dir` and returns the recovered epoch of "g" (-1 if absent).
int64_t RecoveredEpoch(const std::string& dir) {
  serve::GraphRegistry registry;
  serve::Engine engine(&registry, DurableOptions(dir));
  EXPECT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  auto entry = registry.Find("g");
  return entry == nullptr ? -1 : entry->epoch;
}

TEST(StoreTest, UpdateRacingItsRegistrationIsDurable) {
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  const core::MultiViewGraph fixture = TestFixture();
  for (int trial = 0; trial < 3; ++trial) {
    // 0: close right after the race; 1: one more update first, whose
    // record must not leave an epoch gap behind the raced one.
    for (const int more_updates : {0, 1}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                   std::to_string(more_updates) + " more update(s)");
      const std::string dir = MakeTempDir();
      int64_t acknowledged = -1;
      {
        serve::GraphRegistry registry;
        serve::Engine engine(&registry, DurableOptions(dir));
        ASSERT_TRUE(engine.recovery_status().ok());
        // The updater spins until an update is acknowledged, with one last
        // try after the registration returned.
        std::atomic<bool> registered{false};
        std::thread updater([&] {
          for (;;) {
            const bool last_try = registered.load();
            auto updated = engine.UpdateGraph("g", TestDelta(1));
            if (updated.ok()) {
              acknowledged = (*updated)->epoch;
              return;
            }
            if (last_try) return;
          }
        });
        const bool ok =
            engine.RegisterGraph("g", fixture, register_options).ok();
        registered.store(true);
        updater.join();
        ASSERT_TRUE(ok);
        ASSERT_EQ(acknowledged, 1);
        for (int u = 0; u < more_updates; ++u) {
          auto updated = engine.UpdateGraph("g", TestDelta(7));
          ASSERT_TRUE(updated.ok()) << updated.status().ToString();
          acknowledged = (*updated)->epoch;
        }
      }
      EXPECT_EQ(RecoveredEpoch(dir), acknowledged);
    }
  }
}

TEST(StoreTest, UpdatesRacingEvictAndReregisterStayRecoverable) {
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  const core::MultiViewGraph fixture = TestFixture(120);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = MakeTempDir();
    int64_t acknowledged = -1;
    {
      serve::GraphRegistry registry;
      serve::Engine engine(&registry, DurableOptions(dir));
      ASSERT_TRUE(engine.recovery_status().ok());
      ASSERT_TRUE(engine.RegisterGraph("g", fixture, register_options).ok());
      std::atomic<bool> stop{false};
      std::thread updater([&] {
        while (!stop.load()) {
          engine.UpdateGraph("g", TestDelta(1, 120));  // NotFound is fine
        }
      });
      int registered = 0;
      for (int cycle = 0; cycle < 20; ++cycle) {
        engine.EvictGraph("g");
        registered +=
            engine.RegisterGraph("g", fixture, register_options).ok() ? 1 : 0;
      }
      stop.store(true);
      updater.join();
      ASSERT_EQ(registered, 20);
      auto updated = engine.UpdateGraph("g", TestDelta(7, 120));
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      acknowledged = (*updated)->epoch;
    }
    EXPECT_EQ(RecoveredEpoch(dir), acknowledged);
  }
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSAN leg's main persist workout): WAL appends race
// Solve / UpdateGraph / Evict+re-register / Checkpoint on one graph id.
// Operations may fail (NotFound while evicted, FailedPrecondition in a
// re-register window) but must never crash, deadlock, or race; afterwards
// the directory must still recover cleanly.
// ---------------------------------------------------------------------------

TEST(StoreTest, ConcurrentUpdateSolveEvictCheckpointHammer) {
  const std::string dir = MakeTempDir();
  const core::MultiViewGraph fixture = TestFixture(120);
  serve::RegisterOptions register_options;
  register_options.coarsen_ratio = 0.0;
  {
    serve::GraphRegistry registry;
    serve::EngineOptions options;
    options.data_dir = dir;
    options.persist_fsync = false;
    options.checkpoint_interval = 4;
    serve::Engine engine(&registry, options);
    ASSERT_TRUE(engine.recovery_status().ok());
    ASSERT_TRUE(engine.RegisterGraph("g", fixture, register_options).ok());

    std::vector<std::thread> threads;
    for (int worker = 0; worker < 2; ++worker) {
      threads.emplace_back([&engine, worker] {
        Rng rng(4000 + worker);
        for (int i = 0; i < 25; ++i) {
          serve::GraphDelta delta;
          serve::GraphViewDelta edits;
          edits.view = static_cast<int>(rng.UniformInt(0, 1));
          const int64_t u = rng.UniformInt(0, 119);
          edits.upserts.push_back({u, (u + 1) % 120, 0.5 + rng.Uniform()});
          delta.graph_views.push_back(std::move(edits));
          engine.UpdateGraph("g", delta);  // NotFound while evicted is fine
        }
      });
    }
    threads.emplace_back([&engine] {
      for (int i = 0; i < 6; ++i) {
        serve::SolveRequest request;
        request.graph_id = "g";
        request.options.base.max_evaluations = 4;
        engine.Solve(request);  // NotFound while evicted is fine
      }
    });
    threads.emplace_back([&engine] {
      for (int i = 0; i < 10; ++i) {
        engine.Checkpoint("g");  // NotFound while evicted is fine
      }
    });
    threads.emplace_back([&engine, &fixture, &register_options] {
      for (int i = 0; i < 4; ++i) {
        engine.EvictGraph("g");
        engine.RegisterGraph("g", fixture, register_options);
      }
    });
    for (std::thread& thread : threads) thread.join();
    // End in a known state for the recovery check below.
    engine.EvictGraph("g");
    ASSERT_TRUE(engine.RegisterGraph("g", fixture, register_options).ok());
    ASSERT_TRUE(engine.UpdateGraph("g", TestDelta(1, 120)).ok());
  }
  serve::GraphRegistry registry;
  serve::EngineOptions options;
  options.data_dir = dir;
  options.persist_fsync = false;
  serve::Engine engine(&registry, options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  auto entry = registry.Find("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 1);
}

}  // namespace
}  // namespace sgla
