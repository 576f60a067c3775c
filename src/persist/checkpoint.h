#ifndef SGLA_PERSIST_CHECKPOINT_H_
#define SGLA_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mvag.h"
#include "serve/graph_registry.h"
#include "util/status.h"

namespace sgla {
namespace persist {

/// Everything a per-graph checkpoint captures: the source graph, the
/// registration options a recovered Restore() must repeat verbatim (KNN
/// options, coarsen ratio — a recovered solve is bit-identical only if the
/// serving state is rebuilt with the same knobs; the retired shard count
/// and `updatable` byte keep their slots and are ignored), and the
/// mutable state the epochs accumulated (epoch counter, view uids, activity
/// mask, uid allocator).
struct CheckpointData {
  std::string id;
  /// Persistent registration identity, assigned by the Store: monotonic
  /// across the directory's lifetime, so WAL records written before an
  /// evict + re-register can never replay into the replacement.
  uint64_t reg_uid = 0;
  int64_t epoch = 0;
  serve::RegisterOptions options;
  uint64_t next_view_uid = 0;
  std::vector<uint64_t> view_uids;
  std::vector<bool> active;
  /// Active-set signature at `epoch`; Restore cross-checks it against the
  /// rebuilt entry, so a checkpoint that decodes but contradicts its own
  /// graph is rejected instead of served.
  uint64_t views_signature = 0;
  core::MultiViewGraph mvag;
};

/// File name of the checkpoint for (id, reg_uid):
/// "ck-<fnv64(id) as hex16>-<reg_uid>.sgck". The id hash is for humans
/// scanning the directory; uniqueness comes from reg_uid alone.
std::string CheckpointFileName(const std::string& id, uint64_t reg_uid);

/// Serializes `data` as one checkpoint payload (no file header/CRC).
void EncodeCheckpoint(const CheckpointData& data, std::vector<uint8_t>* out);

/// Parses a payload. Every count, the embedded graph block's included, is
/// checked against the bytes left before it sizes an allocation — hostile
/// bytes reject with a typed error, never crash or overallocate.
Result<CheckpointData> DecodeCheckpoint(const uint8_t* data, size_t size);

/// Atomic durable write: payload + CRC32 to `path + ".tmp"`, fsync, rename
/// over `path`, fsync the directory. A crash leaves either the old file or
/// the new one, never a torn mix.
Status SaveCheckpoint(const CheckpointData& data, const std::string& path);

/// Reads and validates one checkpoint file (magic, version, length, CRC,
/// then DecodeCheckpoint).
Result<CheckpointData> LoadCheckpoint(const std::string& path);

}  // namespace persist
}  // namespace sgla

#endif  // SGLA_PERSIST_CHECKPOINT_H_
