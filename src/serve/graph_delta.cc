#include "serve/graph_delta.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/view_laplacian.h"

namespace sgla {
namespace serve {
namespace {

/// Orientation-free edge key: (u, v) and (v, u) address the same edge.
std::pair<int64_t, int64_t> EdgeKey(int64_t u, int64_t v) {
  return u <= v ? std::make_pair(u, v) : std::make_pair(v, u);
}

}  // namespace

Status ApplyDelta(core::MultiViewGraph* mvag, const GraphDelta& delta,
                  const std::vector<bool>& active_before,
                  DeltaEffects* effects) {
  const int num_graphs = static_cast<int>(mvag->graph_views().size());
  const int num_attributes = static_cast<int>(mvag->attribute_views().size());
  const int pre_total = num_graphs + num_attributes;
  const int64_t n = mvag->num_nodes();

  // Validate everything first so a rejected delta leaves the source graph
  // untouched (UpdateGraph re-applies on retry; a half-applied delta would
  // silently skew every later epoch). Edits and lifecycle index lists all
  // address the PRE-delta view set. New content obeys the registration
  // rules (core::ValidateEdge / ValidateAttributeValues).
  for (const GraphViewDelta& d : delta.graph_views) {
    if (d.view < 0 || d.view >= num_graphs) {
      return InvalidArgument("graph-view delta: view index out of range");
    }
    for (const EdgeUpsert& e : d.upserts) {
      Status valid = core::ValidateEdge(e.u, e.v, e.weight, n);
      if (!valid.ok()) {
        return InvalidArgument("graph-view delta: " + valid.message());
      }
    }
    for (const EdgeRemoval& e : d.removals) {
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
        return InvalidArgument("graph-view delta: removal endpoint out of range");
      }
    }
  }
  for (const AttributeRowUpdate& d : delta.attribute_rows) {
    if (d.view < 0 || d.view >= num_attributes) {
      return InvalidArgument("attribute delta: view index out of range");
    }
    if (d.row < 0 || d.row >= n) {
      return InvalidArgument("attribute delta: row out of range");
    }
    const la::DenseMatrix& x =
        mvag->attribute_views()[static_cast<size_t>(d.view)];
    if (static_cast<int64_t>(d.values.size()) != x.cols()) {
      return InvalidArgument("attribute delta: row width mismatch");
    }
    Status valid = core::ValidateAttributeValues(
        d.values.data(), static_cast<int64_t>(d.values.size()));
    if (!valid.ok()) {
      return InvalidArgument("attribute delta: " + valid.message());
    }
  }
  for (int v : delta.remove_views) {
    if (v < 0 || v >= pre_total) {
      return InvalidArgument("RemoveView: view index out of range");
    }
  }
  std::vector<bool> flip_mask(static_cast<size_t>(pre_total), false);
  for (int v : delta.mask_views) {
    if (v < 0 || v >= pre_total) {
      return InvalidArgument("MaskView: view index out of range");
    }
    flip_mask[static_cast<size_t>(v)] = true;
  }
  for (int v : delta.unmask_views) {
    if (v < 0 || v >= pre_total) {
      return InvalidArgument("UnmaskView: view index out of range");
    }
    if (flip_mask[static_cast<size_t>(v)]) {
      return InvalidArgument("view is both masked and unmasked in one delta");
    }
  }
  for (const ViewAddition& a : delta.add_views) {
    if (a.attribute) {
      if (a.attributes.rows() != n) {
        return InvalidArgument("AddView: attribute row count != num_nodes");
      }
      if (a.attributes.cols() < 1) {
        return InvalidArgument("AddView: attribute view needs >= 1 column");
      }
      Status valid = core::ValidateAttributeValues(
          a.attributes.data().data(),
          static_cast<int64_t>(a.attributes.data().size()));
      if (!valid.ok()) return InvalidArgument("AddView: " + valid.message());
    } else {
      if (a.graph.num_nodes() != n) {
        return InvalidArgument("AddView: graph node count != num_nodes");
      }
      for (const graph::Edge& e : a.graph.edges()) {
        Status valid = core::ValidateEdge(e.u, e.v, e.weight, n);
        if (!valid.ok()) return InvalidArgument("AddView: " + valid.message());
      }
    }
  }
  if (!active_before.empty() &&
      static_cast<int>(active_before.size()) != pre_total) {
    return InvalidArgument("active mask size != pre-delta view count");
  }

  // Pre-delta activity with this delta's flips applied, and the removal set;
  // the post-delta view set must keep at least one view, and at least one of
  // them active (an all-masked graph has no simplex to search).
  std::vector<bool> active(static_cast<size_t>(pre_total), true);
  if (!active_before.empty()) active = active_before;
  for (int v : delta.mask_views) active[static_cast<size_t>(v)] = false;
  for (int v : delta.unmask_views) active[static_cast<size_t>(v)] = true;
  std::vector<bool> removed(static_cast<size_t>(pre_total), false);
  for (int v : delta.remove_views) removed[static_cast<size_t>(v)] = true;
  int post_total = static_cast<int>(delta.add_views.size());
  int post_active = static_cast<int>(delta.add_views.size());
  for (int v = 0; v < pre_total; ++v) {
    if (removed[static_cast<size_t>(v)]) continue;
    ++post_total;
    if (active[static_cast<size_t>(v)]) ++post_active;
  }
  if (post_total == 0) {
    return InvalidArgument("delta would remove every view");
  }
  if (post_active == 0) {
    return InvalidArgument("delta would leave no active view");
  }

  // -------------------------------------------------------------------------
  // Everything validated: apply. Edits first (pre-delta per-kind indices),
  // then removals, then additions.
  // -------------------------------------------------------------------------
  std::vector<bool> edited(static_cast<size_t>(pre_total), false);
  for (const GraphViewDelta& d : delta.graph_views) {
    if (d.upserts.empty() && d.removals.empty()) continue;
    std::vector<graph::Edge>& edges =
        *mvag->mutable_graph_view(d.view)->mutable_edges();

    // One compaction pass over the edge list, O(edits log edits + edges):
    // removals drop every parallel copy of their edge; an upsert rewrites
    // the first surviving copy in place (keeping the edge list order stable
    // for a pure weight change), drops further duplicates, and appends as a
    // new edge only if no copy survived. Removals apply before upserts, so
    // remove-then-upsert re-inserts; among upserts of one edge the last
    // weight wins.
    struct PendingUpsert {
      double weight = 0.0;  ///< last upsert of this edge wins
      bool placed = false;  ///< an edge-list slot already carries it
    };
    std::map<std::pair<int64_t, int64_t>, PendingUpsert> upserts;
    for (const EdgeUpsert& u : d.upserts) {
      upserts[EdgeKey(u.u, u.v)] = {u.weight, false};
    }
    std::set<std::pair<int64_t, int64_t>> edge_removals;
    for (const EdgeRemoval& r : d.removals) {
      edge_removals.insert(EdgeKey(r.u, r.v));
    }
    size_t w = 0;
    for (size_t i = 0; i < edges.size(); ++i) {
      const std::pair<int64_t, int64_t> key =
          EdgeKey(edges[i].u, edges[i].v);
      // Removed-then-upserted edges are re-inserted fresh (appended below),
      // matching the sequential removals-then-upserts semantics.
      if (edge_removals.count(key) != 0) continue;
      auto upsert = upserts.find(key);
      if (upsert == upserts.end()) {
        if (w != i) edges[w] = edges[i];
        ++w;
        continue;
      }
      if (upsert->second.placed) continue;  // parallel duplicate: drop
      if (w != i) edges[w] = edges[i];
      edges[w].weight = upsert->second.weight;
      upsert->second.placed = true;
      ++w;
    }
    edges.resize(w);
    // Append upserts that found no surviving copy, in first-occurrence
    // order (deterministic regardless of duplicate upserts).
    for (const EdgeUpsert& u : d.upserts) {
      auto it = upserts.find(EdgeKey(u.u, u.v));
      if (it->second.placed) continue;
      edges.push_back({u.u, u.v, it->second.weight});
      it->second.placed = true;
    }
    edited[static_cast<size_t>(d.view)] = true;
  }
  for (const AttributeRowUpdate& d : delta.attribute_rows) {
    la::DenseMatrix& x = *mvag->mutable_attribute_view(d.view);
    std::copy(d.values.begin(), d.values.end(), x.Row(d.row));
    edited[static_cast<size_t>(num_graphs + d.view)] = true;
  }

  // Removals, descending per kind so earlier indices stay valid.
  for (int v = pre_total - 1; v >= 0; --v) {
    if (!removed[static_cast<size_t>(v)]) continue;
    if (v < num_graphs) {
      mvag->RemoveGraphView(v);
    } else {
      mvag->RemoveAttributeView(v - num_graphs);
    }
  }
  // Additions, by kind: graph views land at the end of the graph block,
  // attribute views at the end of the attribute block.
  for (const ViewAddition& a : delta.add_views) {
    if (a.attribute) {
      mvag->AddAttributeView(a.attributes);
    } else {
      mvag->AddGraphView(a.graph);
    }
  }

  // Post-delta view map: surviving graph views, added graph views, surviving
  // attribute views, added attribute views — matching the mvag's new global
  // order (graph views first).
  effects->carried_from.clear();
  effects->carried_from.reserve(static_cast<size_t>(post_total));
  for (int v = 0; v < num_graphs; ++v) {
    if (!removed[static_cast<size_t>(v)]) effects->carried_from.push_back(v);
  }
  for (const ViewAddition& a : delta.add_views) {
    if (!a.attribute) effects->carried_from.push_back(-1);
  }
  for (int v = num_graphs; v < pre_total; ++v) {
    if (!removed[static_cast<size_t>(v)]) effects->carried_from.push_back(v);
  }
  for (const ViewAddition& a : delta.add_views) {
    if (a.attribute) effects->carried_from.push_back(-1);
  }
  effects->affected.assign(static_cast<size_t>(post_total), false);
  effects->active.assign(static_cast<size_t>(post_total), true);
  for (int v = 0; v < post_total; ++v) {
    const int from = effects->carried_from[static_cast<size_t>(v)];
    if (from < 0) {
      effects->affected[static_cast<size_t>(v)] = true;  // fresh Laplacian
      continue;
    }
    effects->affected[static_cast<size_t>(v)] = edited[static_cast<size_t>(from)];
    effects->active[static_cast<size_t>(v)] = active[static_cast<size_t>(from)];
  }
  effects->lifecycle = delta.has_lifecycle();
  return OkStatus();
}

Status ApplyDelta(core::MultiViewGraph* mvag, const GraphDelta& delta,
                  std::vector<bool>* affected_views) {
  DeltaEffects effects;
  Status applied = ApplyDelta(mvag, delta, {}, &effects);
  if (!applied.ok()) return applied;
  *affected_views = std::move(effects.affected);
  return OkStatus();
}

}  // namespace serve
}  // namespace sgla
