#ifndef SGLA_PERSIST_STORE_H_
#define SGLA_PERSIST_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mvag.h"
#include "persist/wal.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/status.h"

namespace sgla {
namespace persist {

/// One WAL record: a delta applied to (or an evict of) a specific durable
/// registration. `reg_uid` is the Store's persistent registration identity
/// (see CheckpointData::reg_uid) — replay matches records to recovered
/// checkpoints by it, so records from before an evict + re-register can
/// never replay into the replacement.
struct WalRecord {
  enum class Kind : uint8_t { kDelta = 1, kEvict = 2 };
  Kind kind = Kind::kDelta;
  uint64_t reg_uid = 0;
  std::string id;
  /// kDelta: the epoch this delta produced. Replay applies a record iff it
  /// is exactly current epoch + 1 — earlier is a duplicate the checkpoint
  /// already covers, later is a gap and recovery rejects the log.
  int64_t epoch = 0;
  serve::GraphDelta delta;  ///< kDelta only (the shared RPC delta codec)
};

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);
Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size);

struct StoreOptions {
  std::string dir;  ///< checkpoint files + wal.log live here
  bool fsync = true;
  /// Auto-checkpoint a graph once this many WAL records accumulated for it
  /// since its last checkpoint; 0 disables (explicit Checkpoint only).
  int64_t checkpoint_interval = 64;
};

/// What recovery found and did.
struct RecoveryStats {
  size_t graphs_recovered = 0;   ///< checkpoints restored into the registry
  size_t deltas_replayed = 0;    ///< WAL deltas re-applied through UpdateGraph
  size_t duplicates_skipped = 0; ///< records at/below their checkpoint epoch
  size_t records_ignored = 0;    ///< records of evicted/replaced registrations
  bool wal_tail_truncated = false;
};

/// Durable front of a GraphRegistry: every mutation goes through here and is
/// on stable storage before the call returns. Register writes the epoch-0
/// checkpoint; Update appends a group-committed WAL record; Evict appends an
/// evict record and unlinks the checkpoint (the record covers a crash
/// between the two); Checkpoint compacts a graph's WAL suffix into a fresh
/// checkpoint and truncates the log once every graph is covered. Each
/// registration has one lock under which its registry state and its log
/// move together, so no call acknowledges a change the log does not hold.
/// The Store acts only on graphs it tracks (registered through it or
/// recovered by it): Update on a graph registered straight on the registry
/// is FailedPrecondition, and Evict and Checkpoint leave such a graph alone.
///
/// Open() recovers: the newest valid checkpoint per graph restores through
/// GraphRegistry::Restore, then the WAL suffix replays through the ordinary
/// UpdateGraph path — so a recovered engine's solves are bit-identical to
/// the pre-crash process (same rebuild code, same inputs, same order). Any
/// corrupt checkpoint or impossible record sequence is a typed error that
/// fails the open; only the torn WAL tail (bytes whose append never
/// returned) is silently dropped.
class Store {
 public:
  static Result<std::unique_ptr<Store>> Open(const StoreOptions& options,
                                             serve::GraphRegistry* registry);

  Result<std::shared_ptr<const serve::GraphEntry>> Register(
      const std::string& id, const core::MultiViewGraph& mvag,
      const serve::RegisterOptions& options);

  Result<std::shared_ptr<const serve::GraphEntry>> Update(
      const std::string& id, const serve::GraphDelta& delta);

  /// False when the Store does not track `id` (unknown, or registered
  /// straight on the registry, which this leaves alone).
  bool Evict(const std::string& id);

  /// Snapshots the graph consistently (under its update lock), writes the
  /// checkpoint atomically, and rotates the WAL when every tracked graph's
  /// records are covered. Returns the epoch the checkpoint captured.
  Result<int64_t> Checkpoint(const std::string& id);

  const RecoveryStats& recovery() const { return recovery_; }
  /// The live log, for tests observing group-commit batching.
  const Wal* wal() const { return wal_.get(); }

 private:
  Store(const StoreOptions& options, serve::GraphRegistry* registry)
      : options_(options), registry_(registry) {}

  std::string CheckpointPath(const std::string& id, uint64_t reg_uid) const;
  Status Replay(const uint8_t* payload, size_t size);

  /// Durable bookkeeping of one live registration.
  struct GraphMeta {
    uint64_t reg_uid = 0;
    int64_t pending = 0;  ///< WAL records since the last checkpoint
    /// The registration's lock: its registry state and its WAL move
    /// together under it. Register holds it from before the registry
    /// publish until the checkpoint is durable, Update from applying the
    /// delta to enqueueing its record (so the log's per-graph record order
    /// is the epoch order), Evict around the registry evict, the evict
    /// record and the erase, and Checkpoint from its snapshot to resetting
    /// `pending`. Shared so a waiter survives the meta being erased.
    std::shared_ptr<std::mutex> order;
  };

  /// A tracked registration whose order mutex `lock` holds; `order` is
  /// declared first so the lock is released before the mutex can go.
  struct Locked {
    std::shared_ptr<std::mutex> order;
    std::unique_lock<std::mutex> lock;
    uint64_t reg_uid = 0;
  };

  /// Takes `id`'s order lock and re-checks under it that the registration
  /// found is still the id's. NotFound when the id is unknown or was
  /// evicted while the lock was awaited; FailedPrecondition when the
  /// registry serves the id but this Store does not track it.
  Result<Locked> Lock(const std::string& id);

  const StoreOptions options_;
  serve::GraphRegistry* const registry_;
  RecoveryStats recovery_;
  std::unique_ptr<Wal> wal_;
  /// Guards graphs_ and next_reg_uid_, and every Wal::Enqueue, so a
  /// Checkpoint can decide on and run Wal::Rotate with no append in between.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, GraphMeta> graphs_;
  uint64_t next_reg_uid_ = 1;
};

}  // namespace persist
}  // namespace sgla

#endif  // SGLA_PERSIST_STORE_H_
