#include "serve/graph_registry.h"

#include <utility>

#include "util/fnv1a.h"

namespace sgla {
namespace serve {
namespace {

// Below this many rows registration skips the coarse companion: the exact
// solve is already cheap there.
constexpr int64_t kMinCoarsenFineRows = 64;

// Order-sensitive FNV-1a fold of the active view uids — the active-set
// epoch stamp (GraphEntry::views_signature). Masking, unmasking, adding, or
// removing a view all change it; pure edits and the epoch counter do not.
uint64_t ActiveViewsSignature(const std::vector<uint64_t>& uids,
                              const std::vector<bool>& active) {
  uint64_t hash = util::kFnv1aBasis;
  for (size_t v = 0; v < uids.size(); ++v) {
    if (!active.empty() && !active[v]) continue;
    hash = util::Fnv1aU64(uids[v], hash);
  }
  return hash;
}

// Contracts one serving view, `fine`, onto the coarse node set; `global` is
// its index among the mvag's views. Graph views contract directly (Galerkin
// similarity + re-normalize); attribute views average the fine attribute
// rows per cluster and re-run that view's KNN on the coarse attributes, so
// the coarse view reflects coarse-level neighborhoods instead of a
// contraction of fine KNN edges.
Result<la::CsrMatrix> ContractOneView(const la::CsrMatrix& fine,
                                      size_t global,
                                      const coarse::CoarsePlan& plan,
                                      const core::MultiViewGraph& mvag,
                                      const graph::KnnOptions& knn) {
  if (global < mvag.graph_views().size()) {
    return coarse::ContractView(fine, plan);
  }
  const la::DenseMatrix& attributes =
      mvag.attribute_views()[global - mvag.graph_views().size()];
  core::MultiViewGraph coarse_mvag(plan.coarse_rows, 0);
  coarse_mvag.AddAttributeView(coarse::AverageRows(attributes, plan));
  return core::ComputeViewLaplacian(coarse_mvag, 0, knn);
}

// True iff the two view sets hold the same sparsity patterns, view by view —
// the condition under which an aggregator may donor-copy its union pattern.
bool SamePatterns(const std::vector<la::CsrMatrix>& a,
                  const std::vector<la::CsrMatrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t v = 0; v < a.size(); ++v) {
    if (a[v].row_ptr != b[v].row_ptr || a[v].col_idx != b[v].col_idx) {
      return false;
    }
  }
  return true;
}

// Builds the coarse companion for `entry`, or null when coarsening is off
// (`options.coarsen_ratio` not positive), the graph is too small, or the
// matching achieved no reduction. The companion is best-effort: a view that
// fails to contract (degenerate coarse KNN) drops the companion rather than
// the registration. Contracts the
// SERVING views — with a masked entry the companion covers the active subset
// only, matching what a fresh registration of that subset would build.
//
// `donor` is the previous epoch's companion, passed only when every serving
// view kept its sparsity: the plan is a pure function of those patterns, so
// it is carried, and so is each coarse view whose fine view the delta did
// not touch (`affected`, global view order). Everything else is rebuilt.
std::unique_ptr<const CoarseGraphEntry> BuildCoarseEntry(
    const GraphEntry& entry, const core::MultiViewGraph& mvag,
    const RegisterOptions& options, const CoarseGraphEntry* donor,
    const std::vector<bool>& affected) {
  if (!(options.coarsen_ratio > 0.0) ||
      entry.num_nodes < kMinCoarsenFineRows) {
    return nullptr;
  }
  const std::vector<la::CsrMatrix>& fine = entry.serving_views();
  std::unique_ptr<CoarseGraphEntry> companion(new CoarseGraphEntry);
  if (donor != nullptr) {
    companion->plan = donor->plan;
  } else {
    coarse::CoarsenOptions coarsen;
    coarsen.ratio = options.coarsen_ratio;
    companion->plan = coarse::BuildCoarsePlan(entry.aggregator->pattern(),
                                              fine, coarsen);
    if (companion->plan.coarse_rows >= entry.num_nodes ||
        companion->plan.coarse_rows < 2) {
      return nullptr;
    }
  }
  companion->views.reserve(fine.size());
  for (size_t v = 0; v < fine.size(); ++v) {
    const size_t global =
        entry.active_to_global.empty()
            ? v
            : static_cast<size_t>(entry.active_to_global[v]);
    if (donor != nullptr && !affected[global]) {
      companion->views.push_back(donor->views[v]);
      continue;
    }
    auto view =
        ContractOneView(fine[v], global, companion->plan, mvag, options.knn);
    if (!view.ok()) return nullptr;
    companion->views.push_back(std::move(*view));
  }
  companion->aggregator.reset(
      donor != nullptr && SamePatterns(companion->views, donor->views)
          ? new core::LaplacianAggregator(&companion->views,
                                          *donor->aggregator)
          : new core::LaplacianAggregator(&companion->views));
  return std::unique_ptr<const CoarseGraphEntry>(companion.release());
}

// Builds an entry's serving state from its views, view_uids and active mask
// and the graph's source (`mvag`, `options`): first the active subset
// (views_signature, and the compacted active_views / active_to_global, left
// empty when everything is active so serving reads `views` directly), then
// the aggregator over it, then the coarse companion. Registration, recovery
// and every UpdateGraph epoch build through here, so an entry serves exactly
// what a fresh registration of its active subset would.
//
// `donor` is an edit epoch's predecessor (same view set, same active mask;
// null for registration, recovery and lifecycle epochs) and `affected` marks
// the views the edit recomputed. The donor lends only what has provably
// identical inputs: when every serving view keeps its sparsity, the union
// pattern, its SELL layout and the scatter maps are copied under the
// donor's pattern_id and the companion reuses the plan, the
// untouched coarse views and, when the coarse patterns match, the coarse
// aggregator. Any pattern change re-plans from scratch.
void BuildServingState(GraphEntry* entry, const core::MultiViewGraph& mvag,
                       const RegisterOptions& options,
                       const GraphEntry* donor,
                       const std::vector<bool>& affected) {
  entry->views_signature =
      ActiveViewsSignature(entry->view_uids, entry->active);
  entry->active_views.clear();
  entry->active_to_global.clear();
  bool all_active = true;
  for (size_t v = 0; v < entry->active.size(); ++v) {
    all_active = all_active && entry->active[v];
  }
  if (!all_active) {
    for (size_t v = 0; v < entry->views.size(); ++v) {
      if (!entry->active[v]) continue;
      entry->active_views.push_back(entry->views[v]);
      entry->active_to_global.push_back(static_cast<int>(v));
    }
  }
  const std::vector<la::CsrMatrix>& serving = entry->serving_views();
  const bool same_patterns =
      donor != nullptr && SamePatterns(serving, donor->serving_views());
  entry->aggregator.reset(
      same_patterns ? new core::LaplacianAggregator(&serving,
                                                    *donor->aggregator)
                    : new core::LaplacianAggregator(&serving));
  entry->coarse =
      BuildCoarseEntry(*entry, mvag, options,
                       same_patterns ? donor->coarse.get() : nullptr,
                       affected);
}

}  // namespace

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Register(
    const std::string& id, const core::MultiViewGraph& mvag,
    const RegisterOptions& options) {
  return Restore(id, mvag, options, RestoreState{});
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Restore(
    const std::string& id, const core::MultiViewGraph& mvag,
    const RegisterOptions& options, const RestoreState& state) {
  // The expensive part (KNN construction, Laplacians, union pattern) runs
  // before the lock, so registration never stalls concurrent Find/Evict.
  auto views = core::ComputeViewLaplacians(mvag, options.knn);
  if (!views.ok()) return views.status();
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->num_nodes = mvag.num_nodes();
  entry->num_clusters = mvag.num_clusters();
  entry->views = std::move(*views);

  // The default state is a fresh registration: epoch 0, every view active,
  // uids 1..V (AddView continues from next_view_uid). A checkpointed state
  // is validated against the rebuilt views first — contradictory state
  // rejects rather than serving a graph whose lifecycle stamps would lie.
  if (!state.view_uids.empty() &&
      state.view_uids.size() != entry->views.size()) {
    return InvalidArgument("restore state for '" + id + "' carries " +
                           std::to_string(state.view_uids.size()) +
                           " view uids for " +
                           std::to_string(entry->views.size()) + " views");
  }
  if (!state.active.empty()) {
    if (state.active.size() != entry->views.size()) {
      return InvalidArgument("restore state for '" + id +
                             "' activity mask does not match the view count");
    }
    bool any_active = false;
    for (size_t v = 0; v < state.active.size(); ++v) {
      any_active = any_active || state.active[v];
    }
    if (!any_active) {
      return InvalidArgument("restore state for '" + id +
                             "' masks every view");
    }
  }
  entry->view_uids = state.view_uids;
  if (entry->view_uids.empty()) {
    for (size_t v = 0; v < entry->views.size(); ++v) {
      entry->view_uids.push_back(static_cast<uint64_t>(v) + 1);
    }
  }
  entry->active = state.active;
  if (entry->active.empty()) entry->active.assign(entry->views.size(), true);
  if (state.views_signature != 0 &&
      state.views_signature !=
          ActiveViewsSignature(entry->view_uids, entry->active)) {
    return InvalidArgument("restore state for '" + id +
                           "' active-set signature mismatch");
  }
  entry->epoch = state.epoch;
  entry->robust_views = options.robust_views;

  // The working copy UpdateGraph deltas accumulate into. Roughly doubles
  // the registration-time graph footprint, in exchange for updates that
  // touch only what a delta changed and checkpoints that need no caller.
  auto source = std::make_shared<GraphSource>();
  source->mvag = mvag;
  source->options = options;
  source->next_view_uid = state.next_view_uid != 0
                              ? state.next_view_uid
                              : entry->views.size() + 1;
  BuildServingState(entry.get(), source->mvag, source->options,
                    /*donor=*/nullptr, {});
  std::shared_ptr<const GraphEntry> published = std::move(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!graphs_.emplace(id, Record{published, std::move(source)}).second) {
    return FailedPrecondition("graph '" + id +
                              "' is already registered (evict it first)");
  }
  return published;
}

Result<GraphRegistry::LockedRecord> GraphRegistry::LockRecord(
    const std::string& id) const {
  std::shared_ptr<GraphSource> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not registered");
    }
    source = it->second.source;
  }
  // A concurrent update may publish a newer epoch while we wait, and deltas
  // always apply on the latest; a concurrent evict (or evict + re-register,
  // which installs a fresh source) fails the caller instead of resurrecting
  // the id with stale state.
  LockedRecord locked;
  locked.lock = std::unique_lock<std::mutex>(source->mutex);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  if (it == graphs_.end() || it->second.source != source) {
    return NotFound("graph '" + id +
                    "' was evicted or replaced while waiting for its "
                    "update lock");
  }
  locked.record = it->second;
  return locked;
}

Result<SourceSnapshot> GraphRegistry::SnapshotSource(
    const std::string& id) const {
  auto locked = LockRecord(id);
  if (!locked.ok()) return locked.status();
  const GraphSource& source = *locked->record.source;
  SourceSnapshot snapshot;
  snapshot.mvag = source.mvag;
  snapshot.options = source.options;
  snapshot.next_view_uid = source.next_view_uid;
  snapshot.entry = locked->record.entry;
  return snapshot;
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::UpdateGraph(
    const std::string& id, const GraphDelta& delta) {
  // Updates serialize per id; the registry map lock is never held across
  // the delta application or the rebuild below.
  auto locked = LockRecord(id);
  if (!locked.ok()) return locked.status();
  GraphSource& source = *locked->record.source;
  const std::shared_ptr<const GraphEntry> old = locked->record.entry;
  if (delta.empty()) return old;

  // Validate-then-apply: a rejected delta leaves the source untouched. The
  // published entry's activity mask is authoritative here — we hold the
  // update lock, so no other epoch can flip it concurrently.
  DeltaEffects effects;
  Status applied = ApplyDelta(&source.mvag, delta, old->active, &effects);
  if (!applied.ok()) return applied;

  // Copy-on-write next epoch, one loop for edits and lifecycle ops alike:
  // each view is carried bitwise from its predecessor unless the delta
  // touched it — an edit recomputes that one view's Laplacian (attribute
  // rows re-run its KNN), an added view computes its first. Carried views
  // keep their uids (the active-set signature stays honest), added views
  // draw fresh ones, and masked views stay resident so UnmaskView is a flip,
  // not a KNN re-run.
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->epoch = old->epoch + 1;
  entry->num_nodes = old->num_nodes;
  entry->num_clusters = old->num_clusters;
  entry->robust_views = old->robust_views;
  entry->active = effects.active;
  const size_t post = effects.carried_from.size();
  entry->views.resize(post);
  entry->view_uids.resize(post);
  for (size_t v = 0; v < post; ++v) {
    const int from = effects.carried_from[v];
    entry->view_uids[v] = from >= 0
                              ? old->view_uids[static_cast<size_t>(from)]
                              : source.next_view_uid++;
    if (from >= 0 && !effects.affected[v]) {
      entry->views[v] = old->views[static_cast<size_t>(from)];
      continue;
    }
    auto laplacian = core::ComputeViewLaplacian(
        source.mvag, static_cast<int>(v), source.options.knn);
    // Unreachable after validation; if it ever fires the source may lead the
    // published epoch — evict and re-register to resynchronize.
    if (!laplacian.ok()) return laplacian.status();
    entry->views[v] = std::move(*laplacian);
  }
  // A lifecycle op reshapes the view set, so nothing of the previous serving
  // state lines up with the new one; an edit epoch offers its predecessor
  // as the donor (DESIGN.md "Incremental updates").
  BuildServingState(entry.get(), source.mvag, source.options,
                    effects.lifecycle ? nullptr : old.get(), effects.affected);
  return SwapIn(old, std::move(entry));
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::SwapIn(
    const std::shared_ptr<const GraphEntry>& old,
    std::shared_ptr<GraphEntry> next) {
  // Publish iff the entry the update built on is still current
  // (compare-and-swap on the snapshot): losing the race to Evict — with or
  // without a re-register — must not resurrect the graph.
  std::shared_ptr<const GraphEntry> published = std::move(next);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(old->id);
  if (it == graphs_.end() || it->second.entry != old) {
    return NotFound("graph '" + old->id +
                    "' was evicted or replaced during the update");
  }
  it->second.entry = published;
  return published;
}

bool GraphRegistry::Evict(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.erase(id) > 0;
}

std::shared_ptr<const GraphEntry> GraphRegistry::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  return it == graphs_.end() ? nullptr : it->second.entry;
}

size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace serve
}  // namespace sgla
