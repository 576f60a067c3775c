#ifndef SGLA_SERVE_GRAPH_REGISTRY_H_
#define SGLA_SERVE_GRAPH_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "coarse/coarsen.h"
#include "core/aggregator.h"
#include "core/mvag.h"
#include "core/view_laplacian.h"
#include "graph/knn.h"
#include "la/sparse.h"
#include "serve/graph_delta.h"
#include "util/status.h"

namespace sgla {
namespace serve {

/// Registration-time knobs.
struct RegisterOptions {
  graph::KnnOptions knn;  ///< attribute-view KNN construction
  /// Retired row-shard count: accepted and ignored. Kept so old callers,
  /// wire peers and checkpoints that carry it still load; every graph is
  /// served through the one unsharded path (DESIGN.md "Row sharding
  /// (removed)").
  int shards = 1;
  /// Coarse-companion reduction ratio for the tiered serving path (see
  /// DESIGN.md "Tiered serving"): registration builds a multilevel
  /// heavy-edge coarsening of the union pattern targeting ~ratio * n coarse
  /// rows, and quality=fast solves run on it. 0 disables the companion
  /// (fast requests then quietly serve exact). Tiny graphs, and
  /// graphs whose matching cannot shrink them, skip the companion too.
  double coarsen_ratio = 0.1;
  /// Serve every solve of this graph in robust mode by default (see
  /// core::ObjectiveOptions::robust and DESIGN.md "View lifecycle & robust
  /// mode"): the objective adds a cross-view agreement penalty that
  /// down-weights views whose Laplacian disagrees with the consensus
  /// spectrum. Individual requests can also opt in per solve
  /// (SolveRequest::robust); the flags OR together.
  bool robust_views = false;
};

/// Coarse serving companion of a registered graph: the prolongation plan
/// (multilevel heavy-edge matching over the union pattern), the contracted
/// per-view Laplacians on the coarse node set, and an aggregator over them.
/// Immutable and shared exactly like the entry that owns it; quality=fast
/// solves run the unmodified SGLA pipeline against `aggregator` in a
/// coarse-sized workspace and prolongate the result.
struct CoarseGraphEntry {
  coarse::CoarsePlan plan;
  std::vector<la::CsrMatrix> views;
  /// Built after `views` is in place (keeps a pointer into this struct);
  /// like GraphEntry, the companion only lives behind the entry shared_ptr
  /// and never moves.
  std::unique_ptr<core::LaplacianAggregator> aggregator;
};

/// Immutable per-graph serving state, built once at registration: the view
/// Laplacians and the aggregator holding their union sparsity pattern. Every
/// solve on the graph reads this and only this — no solve mutates it — so
/// any number of concurrent solves may share one entry.
struct GraphEntry {
  std::string id;
  /// Generation number: 0 at registration, +1 per applied UpdateGraph delta.
  /// Entries are immutable — an update publishes a *new* entry under the
  /// same id; solves that hold the old epoch's snapshot finish on it.
  int64_t epoch = 0;
  int64_t num_nodes = 0;
  int num_clusters = 0;  ///< default k for requests that don't set one
  /// EVERY current view of the graph, masked ones included (global view
  /// order: graph views first). Masked views keep their precomputed
  /// Laplacians here so UnmaskView is a cheap epoch flip, no KNN re-run.
  std::vector<la::CsrMatrix> views;
  /// Stable per-view identity, parallel to `views`: assigned at registration
  /// (and by AddView) and carried unchanged across epochs, so the active-set
  /// signature below distinguishes "view 2 was removed" from "view 2 was
  /// replaced by a different view at the same index".
  std::vector<uint64_t> view_uids;
  /// Activity mask, parallel to `views`; all-true at registration, flipped
  /// by MaskView/UnmaskView deltas.
  std::vector<bool> active;
  /// Order-sensitive FNV-1a fold of the ACTIVE view uids — the active-set
  /// epoch stamp. Checkpoints carry it so recovery can cross-check the
  /// restored active set; bitdump prints it as the active-set fingerprint.
  uint64_t views_signature = 0;
  /// Compacted active-view Laplacians, populated ONLY when some view is
  /// masked; empty otherwise (then `views` itself is the serving set, as
  /// before this field existed). Serving through a genuinely compacted
  /// vector — not zero weights over the full union — keeps the union
  /// pattern, SIMD lane layout, and therefore every solve bit-identical to
  /// registering the active subset from scratch.
  std::vector<la::CsrMatrix> active_views;
  /// Serving index -> index into `views`; parallel to serving_views().
  /// Identity (and left empty) when nothing is masked.
  std::vector<int> active_to_global;
  /// Registration default for SolveRequest::robust (RegisterOptions).
  bool robust_views = false;

  /// The views solves run on: the compacted active subset when any view is
  /// masked, otherwise all views.
  const std::vector<la::CsrMatrix>& serving_views() const {
    return active_views.empty() ? views : active_views;
  }
  int num_active_views() const {
    return static_cast<int>(active_views.empty() ? views.size()
                                                 : active_views.size());
  }

  /// Built after `views` is in place (it keeps a pointer into the entry);
  /// entries are therefore handed out only behind shared_ptr and never moved.
  /// Aggregates serving_views() — the compacted subset when masked.
  std::unique_ptr<core::LaplacianAggregator> aggregator;
  /// Present iff the graph was registered with RegisterOptions::coarsen_ratio
  /// > 0 and the matching achieved an actual reduction; fast solves read it.
  std::unique_ptr<const CoarseGraphEntry> coarse;
};

/// Mutable per-graph state a persist checkpoint must capture beyond the
/// MultiViewGraph itself: the epoch counter, the stable view identities and
/// activity mask, and the uid allocator position. The default-constructed
/// state is a fresh registration (what Register passes); a checkpointed one
/// makes a Restore()d entry indistinguishable from the pre-crash one (see
/// src/persist/).
struct RestoreState {
  int64_t epoch = 0;
  std::vector<uint64_t> view_uids;  ///< empty = registration default 1..V
  std::vector<bool> active;         ///< empty = all active
  uint64_t next_view_uid = 0;       ///< 0 = V + 1
  /// Expected active-set signature; 0 skips the check. A mismatch means the
  /// checkpoint and the rebuilt state disagree — Restore fails rather than
  /// serve a graph whose active set differs from the checkpointed one.
  uint64_t views_signature = 0;
};

/// A consistent copy of one graph's source (the graph, the options it was
/// registered with and the uid allocator) plus the entry snapshot it
/// corresponds to, taken under the per-id update lock (so no delta lands
/// between the two). What Engine::Checkpoint persists.
struct SourceSnapshot {
  core::MultiViewGraph mvag;
  RegisterOptions options;
  uint64_t next_view_uid = 0;
  std::shared_ptr<const GraphEntry> entry;
};

/// Registers/evicts MultiViewGraphs by id and hands out shared snapshots.
/// Every registered graph is one record: its published entry and its source
/// (the working copy of the graph that deltas accumulate into, the options
/// it was registered with, the view-uid allocator), so every graph accepts
/// updates and checkpoints. Eviction only unlinks the record from the map:
/// solves that already hold the entry's shared_ptr keep a fully valid graph
/// until they finish (no use-after-evict by construction), and the entry is
/// destroyed when the last holder drops it. All methods are thread-safe; the
/// expensive per-graph precomputation (KNN graphs, Laplacians, union
/// pattern) runs outside the registry lock.
class GraphRegistry {
 public:
  /// Restore() from a default RestoreState: precomputes view Laplacians
  /// (attribute views through `options.knn`) and the union pattern, then
  /// publishes the entry at epoch 0 with every view active. Fails on
  /// duplicate id, and with InvalidArgument on a malformed graph (see
  /// core::ComputeViewLaplacians) or malformed options (see Restore).
  Result<std::shared_ptr<const GraphEntry>> Register(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options = {});

  /// Applies a delta to the graph's source and publishes the next epoch
  /// behind the copy-on-write snapshot scheme: in-flight solves keep their
  /// epoch, the next Find() sees the new one. Per id, updates serialize on
  /// the source's mutex; an update that loses a race against Evict (or
  /// evict + re-register) fails with NotFound without publishing anything.
  ///
  /// Every epoch, edit or lifecycle, builds its serving state (aggregator,
  /// coarse companion) through the one builder Register and Restore use, so
  /// an updated entry serves, at every tier, exactly what a fresh
  /// registration of its active views would: answers depend on the current
  /// graph, never on the delta history. Only affected views' Laplacians are
  /// recomputed (attribute rows re-run that view's KNN); the rest carry over
  /// bitwise. An edit epoch lends the builder its predecessor: when no
  /// serving view changes sparsity, the aggregators donor-copy the previous
  /// pattern, SELL layout and scatter maps under the same pattern_id — and
  /// the companion keeps its plan and the contractions of
  /// untouched views. Any pattern change rebuilds the union pattern and
  /// re-plans the companion from scratch. Lifecycle deltas
  /// (AddView/RemoveView/MaskView/UnmaskView) build without a donor. AddView
  /// precomputes the Laplacian (and, for attribute views, the KNN graph) of
  /// just the new view; MaskView keeps the view's Laplacian so a later
  /// UnmaskView recomputes nothing. An empty delta returns the current entry
  /// without bumping the epoch.
  Result<std::shared_ptr<const GraphEntry>> UpdateGraph(
      const std::string& id, const GraphDelta& delta);

  /// Builds and publishes an entry with `state` installed: the entry comes
  /// back at `state.epoch` with the checkpointed view uids, activity mask and
  /// uid allocator (a default RestoreState is a fresh registration — this is
  /// Register's only body). The serving state (aggregator, coarse
  /// companion) is built from scratch over the active subset by the builder
  /// every UpdateGraph epoch uses, so recovered solves at every tier are
  /// bit-identical to the pre-crash process. Fails on duplicate id, on a
  /// malformed graph, or on state that contradicts the graph (uid count vs
  /// view count, empty active set, signature mismatch). Options are checked
  /// first, since recovery reads them from checkpoint bytes: knn.k,
  /// knn.trees and knn.leaf_size below 1, or a non-finite coarsen_ratio,
  /// fail with InvalidArgument before anything is built.
  Result<std::shared_ptr<const GraphEntry>> Restore(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options, const RestoreState& state);

  /// A consistent (source, entry) pair for `id`, taken under the per-id
  /// update lock so no delta can land between copying the graph and
  /// snapshotting the entry. NotFound for an unknown id.
  Result<SourceSnapshot> SnapshotSource(const std::string& id) const;

  /// Unlinks the entry; returns false if the id was not registered. The id
  /// becomes immediately re-registrable.
  bool Evict(const std::string& id);

  /// The entry for `id`, or nullptr. Holding the returned pointer keeps the
  /// graph alive across a concurrent Evict.
  std::shared_ptr<const GraphEntry> Find(const std::string& id) const;

  size_t size() const;

 private:
  /// Mutable per-id update state. `mvag` is the registry's own working copy
  /// the deltas accumulate into, `options` the registration's options every
  /// epoch rebuilds with; `mutex` serializes UpdateGraph and SnapshotSource
  /// per id (the registry map lock is never held across the expensive
  /// rebuild).
  struct GraphSource {
    core::MultiViewGraph mvag;
    RegisterOptions options;
    /// Next view uid AddView hands out (registration consumed 1..V).
    /// Mutated only under `mutex`, like `mvag`.
    uint64_t next_view_uid = 1;
    std::mutex mutex;
  };

  /// One registered graph. The source is never null, and a re-registration
  /// under the same id gets a fresh one, so comparing sources tells an
  /// update whether its graph was evicted or replaced while it waited.
  struct Record {
    std::shared_ptr<const GraphEntry> entry;
    std::shared_ptr<GraphSource> source;
  };

  /// A record whose source mutex `lock` holds. `record` is declared first so
  /// the lock is released before the record can drop the last reference to
  /// the source that owns the mutex.
  struct LockedRecord {
    Record record;
    std::unique_lock<std::mutex> lock;
  };

  /// Takes `id`'s source mutex and re-reads the record under it, so the
  /// entry is the latest epoch and no delta lands until the caller releases
  /// the lock. NotFound if the id is unknown, or was evicted or replaced
  /// while the lock was awaited.
  Result<LockedRecord> LockRecord(const std::string& id) const;

  /// UpdateGraph's publish: replaces `old` with `next` iff `old` is still
  /// the current entry for its id; NotFound otherwise.
  Result<std::shared_ptr<const GraphEntry>> SwapIn(
      const std::shared_ptr<const GraphEntry>& old,
      std::shared_ptr<GraphEntry> next);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Record> graphs_;  ///< under mutex_
};

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_GRAPH_REGISTRY_H_
