// View-lifecycle and robust-mode tests: AddView/RemoveView/MaskView/
// UnmaskView delta validation and re-indexing, the bit-identity contract
// (masked/removed/added-view solves equal registering that view subset from
// scratch, at SGLA_THREADS=1,4), edits landing on masked views,
// lifecycle ops racing Solve/UpdateGraph/Evict (TSAN-clean), and the robust
// cross-view agreement penalty.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace {

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

/// Three-view fixture (two SBM graph views + one attribute view) so every
/// lifecycle op can hit both view kinds. Global view order: [g0, g1, attr0].
struct LifecycleFixture {
  core::MultiViewGraph mvag;
  std::vector<int32_t> labels;

  static LifecycleFixture Make(int64_t n, int k, uint64_t seed) {
    LifecycleFixture f;
    Rng rng(seed);
    f.labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(f.labels, k, 0.04, 0.004, &rng));
    f.mvag.AddGraphView(data::SbmGraph(f.labels, k, 0.02, 0.008, &rng));
    f.mvag.AddAttributeView(
        data::GaussianAttributes(f.labels, k, 6, 3.0, 0.9, &rng));
    return f;
  }

  /// An extra graph view for AddView tests (fresh rng stream).
  static graph::Graph ExtraView(const std::vector<int32_t>& labels, int k,
                                uint64_t seed) {
    Rng rng(seed);
    return data::SbmGraph(labels, k, 0.03, 0.006, &rng);
  }
};

core::SglaPlusOptions FastOptions() {
  core::SglaPlusOptions options;
  options.base.max_evaluations = 16;
  return options;
}

void ExpectSameIntegration(const core::IntegrationResult& a,
                           const core::IntegrationResult& b) {
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.laplacian.row_ptr, b.laplacian.row_ptr);
  EXPECT_EQ(a.laplacian.col_idx, b.laplacian.col_idx);
  EXPECT_EQ(a.laplacian.values, b.laplacian.values);
  EXPECT_EQ(a.objective_history, b.objective_history);
}

serve::SolveResponse Solve(serve::Engine* engine, const std::string& id) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.options = FastOptions();
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

// ---------------------------------------------------------------------------
// Delta validation + re-indexing
// ---------------------------------------------------------------------------

TEST(LifecycleDeltaTest, InvalidLifecycleOpsRejectWithoutMutating) {
  LifecycleFixture f = LifecycleFixture::Make(200, 2, 11);
  const int64_t edges_before = f.mvag.graph_views()[0].num_edges();
  serve::DeltaEffects effects;

  {  // mask and unmask of one index conflict
    serve::GraphDelta delta;
    delta.mask_views = {1};
    delta.unmask_views = {1};
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  {  // out-of-range removal
    serve::GraphDelta delta;
    delta.remove_views = {3};
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  {  // removing every view
    serve::GraphDelta delta;
    delta.remove_views = {0, 1, 2};
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  {  // masking every view
    serve::GraphDelta delta;
    delta.mask_views = {0, 1, 2};
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  {  // added graph view at the wrong node count
    serve::GraphDelta delta;
    serve::ViewAddition addition;
    addition.graph = graph::Graph::FromEdges(10, {{0, 1, 1.0}});
    delta.add_views.push_back(std::move(addition));
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  {  // added attribute view with zero columns
    serve::GraphDelta delta;
    serve::ViewAddition addition;
    addition.attribute = true;
    addition.attributes = la::DenseMatrix(200, 0);
    delta.add_views.push_back(std::move(addition));
    EXPECT_FALSE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  }
  EXPECT_EQ(f.mvag.num_views(), 3);
  EXPECT_EQ(f.mvag.graph_views()[0].num_edges(), edges_before);
}

TEST(LifecycleDeltaTest, RemoveAddAndMaskReportPostDeltaEffects) {
  LifecycleFixture f = LifecycleFixture::Make(200, 2, 13);
  // Remove graph view 0, add one graph view and one attribute view, mask
  // the surviving graph view (pre-delta index 1). Post order: [g1(masked),
  // g_added, attr0, attr_added].
  serve::GraphDelta delta;
  delta.remove_views = {0};
  delta.mask_views = {1};
  serve::ViewAddition add_graph;
  add_graph.graph = LifecycleFixture::ExtraView(f.labels, 2, 99);
  delta.add_views.push_back(std::move(add_graph));
  serve::ViewAddition add_attr;
  add_attr.attribute = true;
  add_attr.attributes = la::DenseMatrix(200, 3);
  delta.add_views.push_back(std::move(add_attr));

  serve::DeltaEffects effects;
  ASSERT_TRUE(serve::ApplyDelta(&f.mvag, delta, {}, &effects).ok());
  EXPECT_TRUE(effects.lifecycle);
  ASSERT_EQ(f.mvag.graph_views().size(), 2u);
  ASSERT_EQ(f.mvag.attribute_views().size(), 2u);
  ASSERT_EQ(effects.carried_from.size(), 4u);
  EXPECT_EQ(effects.carried_from[0], 1);   // surviving graph view
  EXPECT_EQ(effects.carried_from[1], -1);  // added graph view
  EXPECT_EQ(effects.carried_from[2], 2);   // surviving attribute view
  EXPECT_EQ(effects.carried_from[3], -1);  // added attribute view
  EXPECT_EQ(effects.active,
            (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(effects.affected,
            (std::vector<bool>{false, true, false, true}));
}

// ---------------------------------------------------------------------------
// Bit-identity with fresh subset registration, across thread counts
// ---------------------------------------------------------------------------

class LifecycleSolveTest : public ::testing::TestWithParam<int> {};

TEST_P(LifecycleSolveTest, MaskedSolveMatchesFreshSubsetRegistration) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(GetParam());

  LifecycleFixture f = LifecycleFixture::Make(1800, 3, 17);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::GraphDelta mask;
  mask.mask_views = {1};
  auto masked = registry.UpdateGraph("g", mask);
  ASSERT_TRUE(masked.ok()) << masked.status().ToString();
  EXPECT_EQ((*masked)->num_active_views(), 2);
  EXPECT_EQ((*masked)->views.size(), 3u);  // masked view stays resident

  // Fresh registration of the active subset [g0, attr0].
  core::MultiViewGraph subset(f.mvag.num_nodes(), f.mvag.num_clusters());
  subset.AddGraphView(f.mvag.graph_views()[0]);
  subset.AddAttributeView(f.mvag.attribute_views()[0]);
  serve::GraphRegistry subset_registry;
  ASSERT_TRUE(subset_registry.Register("g", subset).ok());

  serve::Engine masked_engine(&registry);
  serve::Engine subset_engine(&subset_registry);
  const serve::SolveResponse a = Solve(&masked_engine, "g");
  const serve::SolveResponse b = Solve(&subset_engine, "g");
  ExpectSameIntegration(a.integration, b.integration);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stats.active_views, 2);
  EXPECT_EQ(a.stats.total_views, 3);
  EXPECT_EQ(b.stats.active_views, 2);
  EXPECT_EQ(b.stats.total_views, 2);
}

TEST_P(LifecycleSolveTest, RemovedViewSolveMatchesFreshSubsetRegistration) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(GetParam());

  LifecycleFixture f = LifecycleFixture::Make(1800, 3, 19);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::GraphDelta remove;
  remove.remove_views = {1};
  auto removed = registry.UpdateGraph("g", remove);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ((*removed)->views.size(), 2u);

  core::MultiViewGraph subset(f.mvag.num_nodes(), f.mvag.num_clusters());
  subset.AddGraphView(f.mvag.graph_views()[0]);
  subset.AddAttributeView(f.mvag.attribute_views()[0]);
  serve::GraphRegistry subset_registry;
  ASSERT_TRUE(subset_registry.Register("g", subset).ok());

  serve::Engine removed_engine(&registry);
  serve::Engine subset_engine(&subset_registry);
  const serve::SolveResponse a = Solve(&removed_engine, "g");
  const serve::SolveResponse b = Solve(&subset_engine, "g");
  ExpectSameIntegration(a.integration, b.integration);
  EXPECT_EQ(a.labels, b.labels);
}

TEST_P(LifecycleSolveTest, AddedViewSolveMatchesFreshFullRegistration) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(GetParam());

  LifecycleFixture f = LifecycleFixture::Make(1800, 3, 23);
  const graph::Graph extra = LifecycleFixture::ExtraView(f.labels, 3, 101);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::GraphDelta add;
  serve::ViewAddition addition;
  addition.graph = extra;
  add.add_views.push_back(std::move(addition));
  auto added = registry.UpdateGraph("g", add);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ((*added)->views.size(), 4u);
  EXPECT_EQ((*added)->num_active_views(), 4);

  // Fresh registration of the same four views, in the same global order
  // (graph views first: [g0, g1, extra, attr0]).
  core::MultiViewGraph full(f.mvag.num_nodes(), f.mvag.num_clusters());
  full.AddGraphView(f.mvag.graph_views()[0]);
  full.AddGraphView(f.mvag.graph_views()[1]);
  full.AddGraphView(extra);
  full.AddAttributeView(f.mvag.attribute_views()[0]);
  serve::GraphRegistry full_registry;
  ASSERT_TRUE(full_registry.Register("g", full).ok());

  serve::Engine added_engine(&registry);
  serve::Engine full_engine(&full_registry);
  const serve::SolveResponse a = Solve(&added_engine, "g");
  const serve::SolveResponse b = Solve(&full_engine, "g");
  ExpectSameIntegration(a.integration, b.integration);
  EXPECT_EQ(a.labels, b.labels);
}

INSTANTIATE_TEST_SUITE_P(Threads, LifecycleSolveTest, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Mask round-trips and edits on masked views
// ---------------------------------------------------------------------------

TEST(LifecycleTest, MaskThenUnmaskRestoresTheFullSolve) {
  LifecycleFixture f = LifecycleFixture::Make(600, 2, 29);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::Engine engine(&registry);
  const serve::SolveResponse before = Solve(&engine, "g");

  serve::GraphDelta mask;
  mask.mask_views = {0};
  ASSERT_TRUE(registry.UpdateGraph("g", mask).ok());
  serve::GraphDelta unmask;
  unmask.unmask_views = {0};
  auto restored = registry.UpdateGraph("g", unmask);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_active_views(), 3);

  const serve::SolveResponse after = Solve(&engine, "g");
  ExpectSameIntegration(before.integration, after.integration);
  EXPECT_EQ(before.labels, after.labels);
}

TEST(LifecycleTest, EditsOnAMaskedViewApplySoUnmaskServesCurrentState) {
  LifecycleFixture f = LifecycleFixture::Make(600, 2, 31);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());

  serve::GraphDelta mask;
  mask.mask_views = {0};
  ASSERT_TRUE(registry.UpdateGraph("g", mask).ok());

  // Edit the masked view: re-weight a few of its edges.
  serve::GraphDelta edit;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = f.mvag.graph_views()[0].edges();
  for (size_t i = 0; i < 8 && i < edges.size(); ++i) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, 2.5});
  }
  edit.graph_views.push_back(view_delta);
  ASSERT_TRUE(registry.UpdateGraph("g", edit).ok());

  serve::GraphDelta unmask;
  unmask.unmask_views = {0};
  ASSERT_TRUE(registry.UpdateGraph("g", unmask).ok());

  // Fresh registration of the edited graph must match: UnmaskView restored
  // the CURRENT (edited) view, not the pre-mask state.
  core::MultiViewGraph edited = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&edited, edit, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", edited).ok());

  serve::Engine engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse a = Solve(&engine, "g");
  const serve::SolveResponse b = Solve(&scratch_engine, "g");
  ExpectSameIntegration(a.integration, b.integration);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(LifecycleTest, LifecycleEpochChangesViewsSignature) {
  LifecycleFixture f = LifecycleFixture::Make(600, 2, 37);
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());

  const uint64_t signature_before = registry.Find("g")->views_signature;
  serve::GraphDelta mask;
  mask.mask_views = {1};
  ASSERT_TRUE(engine.UpdateGraph("g", mask).ok());
  EXPECT_NE(registry.Find("g")->views_signature, signature_before);

  // Unmasking restores the original active set, and with it the signature.
  serve::GraphDelta unmask;
  unmask.unmask_views = {1};
  ASSERT_TRUE(engine.UpdateGraph("g", unmask).ok());
  EXPECT_EQ(registry.Find("g")->views_signature, signature_before);
}

// ---------------------------------------------------------------------------
// Lifecycle racing Solve / UpdateGraph / Evict (run under TSAN in CI)
// ---------------------------------------------------------------------------

TEST(LifecycleHammerTest, LifecycleRacingSolveUpdateEvictIsClean) {
  LifecycleFixture f = LifecycleFixture::Make(260, 2, 41);
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());

  serve::GraphDelta edit;
  {
    serve::GraphViewDelta view_delta;
    view_delta.view = 1;
    const std::vector<graph::Edge>& edges = f.mvag.graph_views()[1].edges();
    for (size_t i = 0; i < 6 && i < edges.size(); ++i) {
      view_delta.upserts.push_back({edges[i].u, edges[i].v, 1.5});
    }
    edit.graph_views.push_back(std::move(view_delta));
  }

  constexpr int kIterations = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;

  threads.emplace_back([&] {  // lifecycle updater: mask/unmask view 1
    for (int i = 0; i < kIterations; ++i) {
      serve::GraphDelta delta;
      (i % 2 == 0 ? delta.mask_views : delta.unmask_views).push_back(1);
      auto updated = registry.UpdateGraph("g", delta);
      if (!updated.ok() &&
          updated.status().code() != StatusCode::kNotFound) {
        ++unexpected;
      }
    }
  });
  threads.emplace_back([&] {  // edit updater
    for (int i = 0; i < kIterations; ++i) {
      auto updated = registry.UpdateGraph("g", edit);
      if (!updated.ok() &&
          updated.status().code() != StatusCode::kNotFound) {
        ++unexpected;
      }
    }
  });
  threads.emplace_back([&] {  // evict + re-register under the same id
    for (int i = 0; i < kIterations / 4; ++i) {
      engine.EvictGraph("g");
      (void)engine.RegisterGraph("g", f.mvag);
    }
  });
  threads.emplace_back([&] {  // solver
    serve::SolveRequest request;
    request.graph_id = "g";
    request.options.base.max_evaluations = 4;
    while (!stop.load(std::memory_order_acquire)) {
      auto response = engine.Solve(request);
      if (!response.ok() &&
          response.status().code() != StatusCode::kNotFound) {
        ++unexpected;
        continue;
      }
      if (response.ok() &&
          (response->stats.active_views < 2 ||
           response->stats.total_views != 3)) {
        ++unexpected;  // a solve must always see 2 or 3 active of 3 views
      }
    }
  });
  threads[0].join();
  threads[1].join();
  threads[2].join();
  stop.store(true, std::memory_order_release);
  threads[3].join();
  EXPECT_EQ(unexpected.load(), 0);

  // The stack still serves after the storm.
  ASSERT_NE(registry.Find("g"), nullptr);
  const serve::SolveResponse final_solve = Solve(&engine, "g");
  EXPECT_EQ(final_solve.labels.size(), 260u);
}

// ---------------------------------------------------------------------------
// Robust objective
// ---------------------------------------------------------------------------

TEST(RobustObjectiveTest, PenaltyIsExactlyTheWeightedMedianDeviation) {
  LifecycleFixture f = LifecycleFixture::Make(400, 2, 43);
  // Append a structure-free noise view (p_in == p_out).
  Rng rng(47);
  f.mvag.AddGraphView(data::SbmGraph(f.labels, 2, 0.02, 0.02, &rng));
  auto views = core::ComputeViewLaplacians(f.mvag, graph::KnnOptions());
  ASSERT_TRUE(views.ok()) << views.status().ToString();

  const std::vector<double> weights(4, 0.25);
  core::ObjectiveOptions plain_options;
  core::SpectralObjective plain(&*views, 2, plain_options);
  auto plain_value = plain.Evaluate(weights);
  ASSERT_TRUE(plain_value.ok());
  EXPECT_EQ(plain_value->agreement, 0.0);

  core::ObjectiveOptions robust_options;
  robust_options.robust = true;
  robust_options.robust_rho = 2.0;
  core::SpectralObjective robust(&*views, 2, robust_options);
  auto robust_value = robust.Evaluate(weights);
  ASSERT_TRUE(robust_value.ok());
  EXPECT_GT(robust_value->agreement, 0.0);
  // Same eigensolve, same spectral terms: h differs by exactly the scaled
  // penalty.
  EXPECT_DOUBLE_EQ(robust_value->h,
                   plain_value->h + 2.0 * robust_value->agreement);
  EXPECT_EQ(robust_value->eigengap, plain_value->eigengap);
  EXPECT_EQ(robust_value->lambda2, plain_value->lambda2);

  // The penalty grows with the weight parked on the outlier (noise) view —
  // that is the gradient pressure that pushes the search off it.
  auto noise_heavy = robust.Evaluate({0.1, 0.1, 0.1, 0.7});
  auto noise_light = robust.Evaluate({0.3, 0.3, 0.3, 0.1});
  ASSERT_TRUE(noise_heavy.ok());
  ASSERT_TRUE(noise_light.ok());
  EXPECT_GT(noise_heavy->agreement, noise_light->agreement);
}

TEST(RobustObjectiveTest, EngineRobustFlagAndRegistrationDefaultApply) {
  LifecycleFixture f = LifecycleFixture::Make(400, 2, 53);
  Rng rng(59);
  f.mvag.AddGraphView(data::SbmGraph(f.labels, 2, 0.02, 0.02, &rng));

  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("plain", f.mvag).ok());
  serve::RegisterOptions robust_options;
  robust_options.robust_views = true;
  ASSERT_TRUE(engine.RegisterGraph("robust", f.mvag, robust_options).ok());

  const serve::SolveResponse plain = Solve(&engine, "plain");
  const serve::SolveResponse robust_default = Solve(&engine, "robust");
  // The penalty term shifts every objective evaluation on the noise-view
  // fixture, so the histories cannot coincide.
  EXPECT_NE(plain.integration.objective_history,
            robust_default.integration.objective_history);

  // Per-request flag on a plain-registered graph hits the same robust path:
  // bit-identical to the registration-default robust solve.
  serve::SolveRequest request;
  request.graph_id = "plain";
  request.robust = true;
  request.options = FastOptions();
  auto robust_requested = engine.Solve(request);
  ASSERT_TRUE(robust_requested.ok());
  ExpectSameIntegration(robust_requested->integration,
                        robust_default.integration);
}

}  // namespace
}  // namespace sgla
