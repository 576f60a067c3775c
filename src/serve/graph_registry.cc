#include "serve/graph_registry.h"

#include <utility>

namespace sgla {
namespace serve {
namespace {

// Coarse-companion policy. Above this fraction of structurally-changed fine
// rows, UpdateGraph abandons localized plan repair and re-coarsens from
// scratch (a repaired plan stays valid but drifts from what a fresh matching
// would build); below the row floor, registration skips the companion — the
// exact solve is already cheap there.
constexpr double kCoarseChurnThreshold = 0.05;
constexpr int64_t kMinCoarsenFineRows = 64;

// Order-sensitive FNV-1a fold of the active view uids — the active-set
// epoch stamp (GraphEntry::views_signature). Masking, unmasking, adding, or
// removing a view all change it; pure edits and the epoch counter do not.
uint64_t ActiveViewsSignature(const std::vector<uint64_t>& uids,
                              const std::vector<bool>& active) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t v = 0; v < uids.size(); ++v) {
    if (!active.empty() && !active[v]) continue;
    uint64_t x = uids[v];
    for (int b = 0; b < 8; ++b) {
      hash ^= x & 0xffu;
      hash *= 1099511628211ull;
      x >>= 8;
    }
  }
  return hash;
}

// Contracts serving view `v` onto the coarse node set. Graph views contract
// directly (Galerkin similarity + re-normalize); attribute views average the
// fine attribute rows per cluster and re-run that view's KNN on the coarse
// attributes, so the coarse view reflects coarse-level neighborhoods instead
// of a contraction of fine KNN edges. `to_global` maps a serving index to
// the mvag's global view index (null = identity, i.e. nothing masked).
// Without a source graph (RegisterViews) every view contracts directly —
// the registry cannot tell them apart.
Result<la::CsrMatrix> ContractOneView(
    const std::vector<la::CsrMatrix>& fine_views,
    const coarse::CoarsePlan& plan, const core::MultiViewGraph* mvag,
    const graph::KnnOptions& knn, size_t v,
    const std::vector<int>* to_global) {
  const size_t global =
      to_global == nullptr || to_global->empty()
          ? v
          : static_cast<size_t>((*to_global)[v]);
  const size_t num_graph_views =
      mvag == nullptr ? fine_views.size() : mvag->graph_views().size();
  if (global < num_graph_views) {
    return coarse::ContractView(fine_views[v], plan);
  }
  const la::DenseMatrix& attributes =
      mvag->attribute_views()[global - num_graph_views];
  core::MultiViewGraph coarse_mvag(plan.coarse_rows, 0);
  coarse_mvag.AddAttributeView(coarse::AverageRows(attributes, plan));
  return core::ComputeViewLaplacian(coarse_mvag, 0, knn);
}

// Builds the coarse companion for `entry` from scratch, or null when
// coarsening is off, the graph is too small, or the matching achieved no
// reduction. The companion is best-effort: a view that fails to contract
// (degenerate coarse KNN) drops the companion rather than the registration.
// Contracts the SERVING views — with a masked entry the companion covers the
// active subset only, matching what a fresh registration of that subset
// would build.
std::unique_ptr<const CoarseGraphEntry> BuildCoarseEntry(
    const GraphEntry& entry, const core::MultiViewGraph* mvag,
    const graph::KnnOptions& knn, double ratio) {
  if (ratio <= 0.0 || entry.num_nodes < kMinCoarsenFineRows) return nullptr;
  const std::vector<la::CsrMatrix>& fine = entry.serving_views();
  coarse::CoarsenOptions options;
  options.ratio = ratio;
  std::unique_ptr<CoarseGraphEntry> companion(new CoarseGraphEntry);
  companion->plan = coarse::BuildCoarsePlan(entry.aggregator->pattern(),
                                            fine, options);
  if (companion->plan.coarse_rows >= entry.num_nodes ||
      companion->plan.coarse_rows < 2) {
    return nullptr;
  }
  companion->views.reserve(fine.size());
  for (size_t v = 0; v < fine.size(); ++v) {
    auto view = ContractOneView(fine, companion->plan, mvag, knn, v,
                                &entry.active_to_global);
    if (!view.ok()) return nullptr;
    companion->views.push_back(std::move(*view));
  }
  companion->aggregator.reset(new core::LaplacianAggregator(&companion->views));
  return std::unique_ptr<const CoarseGraphEntry>(companion.release());
}

// Builds an entry's serving state from its views, view_uids, active mask and
// coarsen_ratio: first the active subset (views_signature, and the compacted
// active_views / active_to_global, left empty when everything is active so
// serving reads `views` directly), then the aggregator over it, then the
// coarse companion. Registration, recovery and lifecycle epochs all build
// through here, so a masked view set serves exactly what a fresh
// registration of its active subset would.
void BuildServingState(GraphEntry* entry, const core::MultiViewGraph* mvag,
                       const graph::KnnOptions& knn) {
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
  entry->aggregator.reset(
      new core::LaplacianAggregator(&entry->serving_views()));
  entry->coarse = BuildCoarseEntry(*entry, mvag, knn, entry->coarsen_ratio);
}

}  // namespace

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::Publish(
    std::shared_ptr<GraphEntry> entry, const RegisterOptions& options,
    std::shared_ptr<GraphSource> source, const core::MultiViewGraph* mvag,
    const RestoreState& state) {
  // The default state is a fresh registration: epoch 0, every view active,
  // uids 1..V (an update source's AddView continues from next_view_uid). A
  // checkpointed state is validated against the rebuilt views first —
  // contradictory state rejects rather than serving a graph whose lifecycle
  // stamps would lie.
  if (!state.view_uids.empty() &&
      state.view_uids.size() != entry->views.size()) {
    return InvalidArgument("restore state for '" + entry->id + "' carries " +
                           std::to_string(state.view_uids.size()) +
                           " view uids for " +
                           std::to_string(entry->views.size()) + " views");
  }
  if (!state.active.empty()) {
    if (state.active.size() != entry->views.size()) {
      return InvalidArgument("restore state for '" + entry->id +
                             "' activity mask does not match the view count");
    }
    bool any_active = false;
    for (size_t v = 0; v < state.active.size(); ++v) {
      any_active = any_active || state.active[v];
    }
    if (!any_active) {
      return InvalidArgument("restore state for '" + entry->id +
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
    return InvalidArgument("restore state for '" + entry->id +
                           "' active-set signature mismatch");
  }
  entry->epoch = state.epoch;
  entry->robust_views = options.robust_views;
  entry->coarsen_ratio = options.coarsen_ratio > 0.0 ? options.coarsen_ratio
                                                     : 0.0;
  BuildServingState(entry.get(), mvag, options.knn);
  std::shared_ptr<const GraphEntry> published = std::move(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  auto inserted = graphs_.emplace(published->id, published);
  if (!inserted.second) {
    return FailedPrecondition("graph '" + published->id +
                              "' is already registered (evict it first)");
  }
  // The update source rides along only when registration itself succeeded
  // (and only for the MultiViewGraph overloads, which pass one).
  if (source != nullptr) sources_[published->id] = std::move(source);
  return published;
}

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
  // The working copy UpdateGraph deltas accumulate into. Roughly doubles
  // the registration-time graph footprint, in exchange for updates that
  // touch only what a delta changed; options.updatable = false declines.
  std::shared_ptr<GraphSource> source;
  if (options.updatable) {
    source = std::make_shared<GraphSource>();
    source->mvag = mvag;
    source->knn = options.knn;
    // A fresh registration consumes uids 1..V (see Publish); AddView
    // continues after them unless the checkpoint says otherwise.
    source->next_view_uid = state.next_view_uid != 0
                                ? state.next_view_uid
                                : entry->views.size() + 1;
  }
  return Publish(std::move(entry), options, std::move(source), &mvag, state);
}

Result<SourceSnapshot> GraphRegistry::SnapshotSource(
    const std::string& id) const {
  std::shared_ptr<GraphSource> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not registered");
    }
    auto sit = sources_.find(id);
    if (sit == sources_.end()) {
      return FailedPrecondition(
          "graph '" + id +
          "' carries no update source (RegisterViews entry or "
          "updatable=false); nothing to snapshot");
    }
    source = sit->second;
  }
  // The per-id update lock makes the (mvag, entry) pair consistent: no delta
  // can apply between copying the graph and re-reading the entry. The entry
  // re-fetch below mirrors UpdateGraph's evict/replace race check.
  std::lock_guard<std::mutex> update_lock(source->mutex);
  SourceSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    auto sit = sources_.find(id);
    if (it == graphs_.end() || sit == sources_.end() ||
        sit->second != source) {
      return NotFound("graph '" + id +
                      "' was evicted or replaced during the snapshot");
    }
    snapshot.entry = it->second;
  }
  snapshot.mvag = source->mvag;
  snapshot.knn = source->knn;
  snapshot.next_view_uid = source->next_view_uid;
  return snapshot;
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::RegisterViews(
    const std::string& id, std::vector<la::CsrMatrix> views,
    int num_clusters, const RegisterOptions& options) {
  if (views.empty()) {
    return InvalidArgument("RegisterViews needs at least one view");
  }
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->num_nodes = views[0].rows;
  entry->num_clusters = num_clusters;
  entry->views = std::move(views);
  return Publish(std::move(entry), options, nullptr, nullptr, RestoreState{});
}

Result<std::shared_ptr<const GraphEntry>> GraphRegistry::UpdateGraph(
    const std::string& id, const GraphDelta& delta) {
  std::shared_ptr<GraphSource> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("graph '" + id + "' is not registered");
    }
    auto sit = sources_.find(id);
    if (sit == sources_.end()) {
      return FailedPrecondition(
          "graph '" + id +
          "' carries no update source (RegisterViews entry or "
          "updatable=false); evict and re-register to change it");
    }
    source = sit->second;
  }

  // Updates serialize per id; the registry map lock is never held across
  // the delta application or the rebuild below.
  std::lock_guard<std::mutex> update_lock(source->mutex);

  // Re-fetch the entry now that we own the update lock: a concurrent update
  // may have published a newer epoch while we waited, and deltas always
  // apply on the latest. A concurrent evict (or evict + re-register, which
  // installs a fresh source) fails the update instead of resurrecting the
  // id with stale state.
  std::shared_ptr<const GraphEntry> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    auto sit = sources_.find(id);
    if (it == graphs_.end() || sit == sources_.end() ||
        sit->second != source) {
      return NotFound("graph '" + id +
                      "' was evicted or replaced during the update");
    }
    old = it->second;
  }
  if (delta.empty()) return old;

  // Validate-then-apply: a rejected delta leaves the source untouched. The
  // published entry's activity mask is authoritative here — we hold the
  // update lock, so no other epoch can flip it concurrently.
  DeltaEffects effects;
  Status applied = ApplyDelta(&source->mvag, delta, old->active, &effects);
  if (!applied.ok()) return applied;
  const std::vector<bool>& affected = effects.affected;

  bool was_masked = false;
  for (size_t v = 0; v < old->active.size(); ++v) {
    was_masked = was_masked || !old->active[v];
  }

  // Copy-on-write next epoch: unaffected views are carried over bitwise
  // (cheap copies, and the precondition for pattern reuse), affected views
  // recompute — attribute rows re-run that one view's KNN, nothing else.
  auto entry = std::make_shared<GraphEntry>();
  entry->id = id;
  entry->epoch = old->epoch + 1;
  entry->num_nodes = old->num_nodes;
  entry->num_clusters = old->num_clusters;
  entry->coarsen_ratio = old->coarsen_ratio;
  entry->robust_views = old->robust_views;

  if (effects.lifecycle || was_masked) {
    // View-lifecycle epoch (or an edit while some view is masked): the view
    // set changed shape, so the donor-copy machinery below does not apply —
    // rebuild the serving state from scratch over the active subset, which
    // is exactly what registering that subset fresh would build (the
    // bit-identity contract for masked/removed-view solves). Carried,
    // unedited views copy their Laplacians bitwise; carried uids keep the
    // active-set signature honest; masked views stay resident so UnmaskView
    // is a flip, not a KNN re-run.
    const size_t post = effects.carried_from.size();
    entry->views.resize(post);
    entry->view_uids.resize(post);
    entry->active = effects.active;
    for (size_t v = 0; v < post; ++v) {
      const int from = effects.carried_from[v];
      entry->view_uids[v] =
          from >= 0 ? old->view_uids[static_cast<size_t>(from)]
                    : source->next_view_uid++;
      if (from >= 0 && !affected[v]) {
        entry->views[v] = old->views[static_cast<size_t>(from)];
        continue;
      }
      auto laplacian = core::ComputeViewLaplacian(
          source->mvag, static_cast<int>(v), source->knn);
      if (!laplacian.ok()) return laplacian.status();
      entry->views[v] = std::move(*laplacian);
    }
    BuildServingState(entry.get(), &source->mvag, source->knn);
    return SwapIn(old, std::move(entry));
  }

  entry->views = old->views;
  entry->view_uids = old->view_uids;
  entry->active = old->active;  // all active on this path
  entry->views_signature = old->views_signature;
  bool value_only = true;
  // Fine rows whose *structural* slots changed in some view, and their count
  // (churn). The coarse plan is a pure function of structure, so these rows
  // are exactly the ones that can invalidate it.
  std::vector<bool> changed_rows;
  int64_t churn = 0;
  if (old->coarse != nullptr) {
    changed_rows.assign(static_cast<size_t>(old->num_nodes), false);
  }
  for (size_t v = 0; v < affected.size(); ++v) {
    if (!affected[v]) continue;
    auto laplacian =
        core::ComputeViewLaplacian(source->mvag, static_cast<int>(v),
                                   source->knn);
    // Unreachable after validation; if it ever fires the source may lead the
    // published epoch — evict and re-register to resynchronize.
    if (!laplacian.ok()) return laplacian.status();
    const bool same_pattern = laplacian->row_ptr == old->views[v].row_ptr &&
                              laplacian->col_idx == old->views[v].col_idx;
    value_only = value_only && same_pattern;
    if (!same_pattern && old->coarse != nullptr) {
      const la::CsrMatrix& now = *laplacian;
      const la::CsrMatrix& was = old->views[v];
      for (int64_t i = 0; i < old->num_nodes; ++i) {
        if (changed_rows[static_cast<size_t>(i)]) continue;
        const int64_t begin = now.row_ptr[static_cast<size_t>(i)];
        const int64_t count = now.row_ptr[static_cast<size_t>(i) + 1] - begin;
        const int64_t was_begin = was.row_ptr[static_cast<size_t>(i)];
        bool diff =
            count != was.row_ptr[static_cast<size_t>(i) + 1] - was_begin;
        for (int64_t p = 0; !diff && p < count; ++p) {
          diff = now.col_idx[static_cast<size_t>(begin + p)] !=
                 was.col_idx[static_cast<size_t>(was_begin + p)];
        }
        if (diff) {
          changed_rows[static_cast<size_t>(i)] = true;
          ++churn;
        }
      }
    }
    entry->views[v] = std::move(*laplacian);
  }

  // Value-only deltas donor-copy the union pattern + scatter maps under the
  // *same* pattern_id, so session workspaces bound to the previous epoch
  // re-scatter values without any rebinding. Pattern-changing deltas re-run
  // the union merge.
  entry->aggregator.reset(
      value_only ? new core::LaplacianAggregator(&entry->views,
                                                 *old->aggregator)
                 : new core::LaplacianAggregator(&entry->views));

  // Coarse companion maintenance (DESIGN.md "Tiered serving"). Value-only
  // deltas provably preserve the plan, so only the touched views re-contract
  // — and when their coarse patterns survive too, the coarse aggregator
  // donor-copies like the fine one. Localized structural churn repairs the
  // affected clusters in place; heavy churn re-coarsens from scratch (which
  // also makes update-then-solve equal re-register-then-solve above the
  // threshold).
  if (old->coarse != nullptr) {
    const double churn_limit =
        kCoarseChurnThreshold * static_cast<double>(entry->num_nodes);
    std::unique_ptr<CoarseGraphEntry> companion;
    if (static_cast<double>(churn) <= churn_limit) {
      companion.reset(new CoarseGraphEntry);
      companion->plan = old->coarse->plan;
      const bool plan_unchanged = churn == 0;
      if (!plan_unchanged) {
        coarse::RepairCoarsePlan(entry->aggregator->pattern(), entry->views,
                                 changed_rows, &companion->plan);
      }
      companion->views = old->coarse->views;
      bool coarse_value_only = plan_unchanged;
      for (size_t v = 0; v < entry->views.size(); ++v) {
        // A repaired plan changes the coarse node set, so every view must
        // re-contract; an unchanged plan re-contracts only touched views.
        if (plan_unchanged && !affected[v]) continue;
        auto view = ContractOneView(entry->views, companion->plan,
                                    &source->mvag, source->knn, v, nullptr);
        if (!view.ok()) {
          companion.reset();
          break;
        }
        coarse_value_only =
            coarse_value_only &&
            view->row_ptr == old->coarse->views[v].row_ptr &&
            view->col_idx == old->coarse->views[v].col_idx;
        companion->views[v] = std::move(*view);
      }
      if (companion != nullptr) {
        companion->aggregator.reset(
            coarse_value_only
                ? new core::LaplacianAggregator(&companion->views,
                                                *old->coarse->aggregator)
                : new core::LaplacianAggregator(&companion->views));
      }
    }
    entry->coarse =
        companion != nullptr
            ? std::unique_ptr<const CoarseGraphEntry>(companion.release())
            : BuildCoarseEntry(*entry, &source->mvag, source->knn,
                               entry->coarsen_ratio);
  }

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
  if (it == graphs_.end() || it->second != old) {
    return NotFound("graph '" + old->id +
                    "' was evicted or replaced during the update");
  }
  it->second = published;
  return published;
}

bool GraphRegistry::Evict(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  sources_.erase(id);
  return graphs_.erase(id) > 0;
}

std::shared_ptr<const GraphEntry> GraphRegistry::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  return it == graphs_.end() ? nullptr : it->second;
}

std::vector<std::string> GraphRegistry::Ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(graphs_.size());
  for (const auto& entry : graphs_) ids.push_back(entry.first);
  return ids;
}

size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace serve
}  // namespace sgla
