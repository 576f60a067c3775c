// Incremental-update tests: GraphDelta application, copy-on-write epochs,
// value-only vs pattern-changing delta handling (pattern_id stamp reuse),
// warm-started eigensolves (strictly fewer Lanczos iterations, same
// eigenpairs within tolerance, at SGLA_THREADS=1,4), the zero-allocation
// hot path of a value-only update + warm re-solve, and UpdateGraph racing
// evict/re-register (TSAN-clean).
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregator.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "la/lanczos.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook (same scheme as engine_test.cc): operator new
// bumps a counter so tests can assert the value-only update + warm re-solve
// hot path allocates nothing.
// ---------------------------------------------------------------------------
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// GCC can't see that these replacements pair new<->malloc and delete<->free
// consistently once library code is inlined against them; the runtime
// pairing is correct by definition of global replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace sgla {
namespace {

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

/// Two-SBM-view fixture; the tests below size it to span several 512-row
/// kernel chunks with a ragged tail without dragging test time up.
struct UpdateFixture {
  core::MultiViewGraph mvag;

  static UpdateFixture Make(int64_t n, int k, uint64_t seed) {
    UpdateFixture f;
    Rng rng(seed);
    std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.04, 0.004, &rng));
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.008, &rng));
    f.mvag.set_labels(std::move(labels));
    return f;
  }
};

/// A value-only delta: re-weights `count` existing edges of graph view 0.
/// No insertion, no removal, all weights positive — every view keeps its
/// sparsity pattern.
serve::GraphDelta WeightDelta(const core::MultiViewGraph& mvag, size_t count,
                              double weight) {
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  const size_t stride = std::max<size_t>(1, edges.size() / count);
  for (size_t i = 0; i < edges.size() && view_delta.upserts.size() < count;
       i += stride) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, weight});
  }
  delta.graph_views.push_back(std::move(view_delta));
  return delta;
}

/// A pattern-changing delta: removes `count` existing edges of view 0.
serve::GraphDelta RemovalDelta(const core::MultiViewGraph& mvag,
                               size_t count) {
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  for (size_t i = 0; i < edges.size() && i < count; ++i) {
    view_delta.removals.push_back({edges[i].u, edges[i].v});
  }
  delta.graph_views.push_back(std::move(view_delta));
  return delta;
}

core::SglaPlusOptions FastOptions() {
  core::SglaPlusOptions options;
  options.base.max_evaluations = 16;  // keep full-solve tests quick
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

/// Cold-solves `id` on `engine` and returns the response.
serve::SolveResponse Solve(serve::Engine* engine, const std::string& id,
                           bool warm = false) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.warm_start = warm;
  request.options = FastOptions();
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

// ---------------------------------------------------------------------------
// Delta semantics + copy-on-write epochs
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, ValidateThenApplyLeavesGraphUntouchedOnError) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 7);
  const int64_t edges_before = f.mvag.graph_views()[0].num_edges();

  serve::GraphDelta bad;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  view_delta.upserts.push_back({0, 5, 2.0});
  view_delta.upserts.push_back({0, 99999, 1.0});  // out of range
  bad.graph_views.push_back(std::move(view_delta));

  std::vector<bool> affected;
  EXPECT_FALSE(serve::ApplyDelta(&f.mvag, bad, &affected).ok());
  EXPECT_EQ(f.mvag.graph_views()[0].num_edges(), edges_before);
}

TEST(GraphDeltaTest, UpsertReplacesInPlaceAndRemovalDropsBothOrientations) {
  core::MultiViewGraph mvag(6, 2);
  graph::Graph g(6);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 0, 2.0);  // parallel duplicate, reversed orientation
  g.AddEdge(2, 3, 1.0);
  mvag.AddGraphView(std::move(g));

  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  view_delta.upserts.push_back({1, 0, 5.0});  // replaces + coalesces (0,1)
  view_delta.upserts.push_back({4, 5, 3.0});  // inserts
  view_delta.removals.push_back({3, 2});      // removes (2,3)
  delta.graph_views.push_back(std::move(view_delta));

  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&mvag, delta, &affected).ok());
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_TRUE(affected[0]);
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0);
  EXPECT_EQ(edges[0].v, 1);
  EXPECT_EQ(edges[0].weight, 5.0);
  EXPECT_EQ(edges[1].u, 4);
  EXPECT_EQ(edges[1].v, 5);
  EXPECT_EQ(edges[1].weight, 3.0);
}

TEST(UpdateGraphTest, EmptyDeltaIsANoOp) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 11);
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", f.mvag);
  ASSERT_TRUE(registered.ok());

  auto updated = registry.UpdateGraph("g", serve::GraphDelta());
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->get(), registered->get());  // same snapshot, same epoch
  EXPECT_EQ((*updated)->epoch, 0);
}

TEST(UpdateGraphTest, UnknownIdAndViewOnlyEntriesFail) {
  UpdateFixture f = UpdateFixture::Make(240, 2, 13);
  serve::GraphRegistry registry;
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  ASSERT_TRUE(registry.RegisterViews("views-only", *views, 2).ok());

  auto missing = registry.UpdateGraph("nope", WeightDelta(f.mvag, 4, 2.0));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto sourceless =
      registry.UpdateGraph("views-only", WeightDelta(f.mvag, 4, 2.0));
  EXPECT_EQ(sourceless.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Input validation: malformed content is rejected with InvalidArgument at
// registration and in updates, and leaves the published epoch untouched.
// ---------------------------------------------------------------------------

serve::GraphDelta UpsertDelta(int64_t u, int64_t v, double weight) {
  serve::GraphDelta delta;
  serve::GraphViewDelta edits;
  edits.view = 0;
  edits.upserts.push_back({u, v, weight});
  delta.graph_views.push_back(std::move(edits));
  return delta;
}

TEST(ValidationTest, NonFiniteOrNegativeWeightsRejectedAtRegisterAndUpdate) {
  const UpdateFixture f = UpdateFixture::Make(600, 3, 43);
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE("weight=" + std::to_string(bad));
    core::MultiViewGraph poisoned = f.mvag;
    (*poisoned.mutable_graph_view(0)->mutable_edges())[0].weight = bad;
    auto registered = engine.RegisterGraph("bad", poisoned);
    ASSERT_FALSE(registered.ok());
    EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.Find("bad"), nullptr);

    auto updated = engine.UpdateGraph("g", UpsertDelta(0, 1, bad));
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.Find("g")->epoch, 0);
  }
  // Zero stays a legal weight.
  auto zero = engine.UpdateGraph("g", UpsertDelta(0, 1, 0.0));
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ((*zero)->epoch, 1);
}

TEST(ValidationTest, MalformedAttributesAndAddedViewsRejected) {
  UpdateFixture f = UpdateFixture::Make(300, 2, 47);
  Rng rng(47);
  f.mvag.AddAttributeView(
      data::GaussianAttributes(f.mvag.labels(), 2, 4, 3.0, 0.9, &rng));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);

  core::MultiViewGraph poisoned = f.mvag;
  poisoned.mutable_attribute_view(0)->data()[5] = nan;
  auto registered = engine.RegisterGraph("bad", poisoned);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);

  // An out-of-range endpoint is a typed error too, not an abort.
  poisoned = f.mvag;
  poisoned.mutable_graph_view(1)->AddEdge(0, 300);
  registered = engine.RegisterGraph("bad", poisoned);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Find("bad"), nullptr);

  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());
  std::vector<serve::GraphDelta> bad_deltas(3);
  serve::AttributeRowUpdate row;
  row.view = 0;
  row.row = 7;
  row.values = {0.0, std::numeric_limits<double>::infinity(), 0.0, 0.0};
  bad_deltas[0].attribute_rows.push_back(row);
  serve::ViewAddition attributes;
  attributes.attribute = true;
  attributes.attributes = f.mvag.attribute_views()[0];
  attributes.attributes.data()[0] = nan;
  bad_deltas[1].add_views.push_back(std::move(attributes));
  serve::ViewAddition graph_view;
  graph_view.graph = f.mvag.graph_views()[0];
  graph_view.graph.AddEdge(2, 3, -0.5);
  bad_deltas[2].add_views.push_back(std::move(graph_view));
  for (size_t d = 0; d < bad_deltas.size(); ++d) {
    SCOPED_TRACE("delta " + std::to_string(d));
    auto updated = engine.UpdateGraph("g", bad_deltas[d]);
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.Find("g")->epoch, 0);
  }
}

// ---------------------------------------------------------------------------
// Value-only vs pattern-changing deltas, at SGLA_THREADS=1,4.
// The updated entry's cold solve must be bit-identical to registering the
// post-delta graph from scratch — the copy-on-write epoch is just a faster
// way to the same state.
// ---------------------------------------------------------------------------

class UpdateSolveTest : public ::testing::TestWithParam<int> {};

TEST_P(UpdateSolveTest, ValueOnlyDeltaReusesPatternAndMatchesScratch) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(GetParam());

  UpdateFixture f = UpdateFixture::Make(1800, 3, 17);
  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t pattern_before = (*before)->aggregator->pattern_id();

  const serve::GraphDelta delta = WeightDelta(f.mvag, 12, 1.75);
  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->epoch, 1);
  EXPECT_NE(after->get(), before->get());

  // The pattern_id stamp is the value-only contract: bound workspaces must
  // not rebind, so the donor aggregator keeps the previous epoch's id.
  EXPECT_EQ((*after)->aggregator->pattern_id(), pattern_before);
  // Views: affected view re-valued on the same pattern, the other carried.
  EXPECT_EQ((*after)->views[0].col_idx, (*before)->views[0].col_idx);
  EXPECT_NE((*after)->views[0].values, (*before)->views[0].values);
  EXPECT_EQ((*after)->views[1].values, (*before)->views[1].values);

  // Bit-identity with a from-scratch registration of the mutated graph.
  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", scratch_mvag).ok());

  serve::Engine updated_engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse updated = Solve(&updated_engine, "g");
  const serve::SolveResponse scratch = Solve(&scratch_engine, "g");
  ExpectSameIntegration(updated.integration, scratch.integration);
  EXPECT_EQ(updated.labels, scratch.labels);
  EXPECT_EQ(updated.stats.graph_epoch, 1);
}

TEST_P(UpdateSolveTest, PatternChangingDeltaRebuildsAndMatchesScratch) {
  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(GetParam());

  UpdateFixture f = UpdateFixture::Make(1800, 3, 19);
  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag);
  ASSERT_TRUE(before.ok());
  const uint64_t pattern_before = (*before)->aggregator->pattern_id();

  const serve::GraphDelta delta = RemovalDelta(f.mvag, 10);
  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->epoch, 1);
  // Removals change view 0's sparsity: the union pattern is rebuilt under a
  // fresh id so every bound workspace rebinds.
  EXPECT_NE((*after)->aggregator->pattern_id(), pattern_before);

  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  ASSERT_TRUE(scratch_registry.Register("g", scratch_mvag).ok());

  serve::Engine updated_engine(&registry);
  serve::Engine scratch_engine(&scratch_registry);
  const serve::SolveResponse updated = Solve(&updated_engine, "g");
  const serve::SolveResponse scratch = Solve(&scratch_engine, "g");
  ExpectSameIntegration(updated.integration, scratch.integration);
  EXPECT_EQ(updated.labels, scratch.labels);
}

INSTANTIATE_TEST_SUITE_P(Threads, UpdateSolveTest, ::testing::Values(1, 4));

TEST(UpdateGraphTest, AttributeRowUpdateRecomputesOnlyThatView) {
  UpdateFixture f = UpdateFixture::Make(300, 2, 29);
  Rng rng(31);
  f.mvag.AddAttributeView(data::GaussianAttributes(
      data::BalancedLabels(300, 2, &rng), 2, 6, 3.0, 0.9, &rng));

  serve::GraphRegistry registry;
  auto before = registry.Register("g", f.mvag);
  ASSERT_TRUE(before.ok());

  serve::GraphDelta delta;
  serve::AttributeRowUpdate row_update;
  row_update.view = 0;
  row_update.row = 5;
  row_update.values.assign(6, 0.25);
  delta.attribute_rows.push_back(std::move(row_update));

  auto after = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // Graph views carried over bitwise; the attribute view (global index 2)
  // re-ran its KNN.
  EXPECT_EQ((*after)->views[0].values, (*before)->views[0].values);
  EXPECT_EQ((*after)->views[1].values, (*before)->views[1].values);

  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  ASSERT_TRUE(affected[2]);
  auto scratch_views = core::ComputeViewLaplacians(scratch_mvag);
  ASSERT_TRUE(scratch_views.ok());
  EXPECT_EQ((*after)->views[2].row_ptr, (*scratch_views)[2].row_ptr);
  EXPECT_EQ((*after)->views[2].col_idx, (*scratch_views)[2].col_idx);
  EXPECT_EQ((*after)->views[2].values, (*scratch_views)[2].values);
}

// ---------------------------------------------------------------------------
// Warm-started eigensolves: after a <=1% edge delta a warm solve must build
// strictly fewer Lanczos basis vectors than a cold solve on the same updated
// graph and land on the same eigenpairs within tolerance — at every thread
// count, with the warm result itself bit-identical across thread counts.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, FewerIterationsSameEigenpairsAcrossThreadCounts) {
  const int64_t n = 1800;
  const int k = 3;
  UpdateFixture f = UpdateFixture::Make(n, k, 37);
  auto views_before = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_before.ok());

  // <=1% of view 0's edges get a small weight nudge (value-only).
  const size_t count =
      static_cast<size_t>(f.mvag.graph_views()[0].num_edges() / 100);
  const serve::GraphDelta delta = WeightDelta(f.mvag, count, 1.1);
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&f.mvag, delta, &affected).ok());
  auto views_after = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_after.ok());

  const std::vector<double> weights = {0.6, 0.4};
  la::Vector warm_values_reference;
  bool have_reference = false;

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    // Pre-update solve supplies the warm seed.
    core::EvalWorkspace seed_ws;
    core::LaplacianAggregator seed_aggregator(&*views_before);
    core::SpectralObjective seed_objective(&seed_aggregator, k,
                                           core::ObjectiveOptions(), &seed_ws);
    ASSERT_TRUE(seed_objective.Evaluate(weights).ok());
    const la::DenseMatrix seed_vectors = seed_ws.eigen.vectors;

    // Post-update cold evaluation (the baseline the warm one must beat).
    core::LaplacianAggregator aggregator(&*views_after);
    core::EvalWorkspace cold_ws;
    core::SpectralObjective cold_objective(&aggregator, k,
                                           core::ObjectiveOptions(), &cold_ws);
    auto cold = cold_objective.Evaluate(weights);
    ASSERT_TRUE(cold.ok());
    ASSERT_GT(cold->lanczos_iterations, 0);
    const la::Eigenpairs& cold_eigen = cold_ws.eigen;

    // Post-update warm evaluation.
    core::EvalWorkspace warm_ws;
    core::ObjectiveOptions warm_options;
    warm_options.warm_start = &seed_vectors;
    core::SpectralObjective warm_objective(&aggregator, k, warm_options,
                                           &warm_ws);
    auto warm = warm_objective.Evaluate(weights);
    ASSERT_TRUE(warm.ok());
    const la::Eigenpairs& warm_eigen = warm_ws.eigen;

    // Strictly fewer basis vectors, same spectrum within tolerance. The
    // first k pairs (what the pipeline consumes as vectors) must agree
    // tightly in value and direction. The k+1-th pair sits at the edge of
    // the spectral bulk, where the solver by design serves a subspace-
    // size-accurate approximation instead of iterating to convergence
    // (see DESIGN.md "Eigensolver early exit"): its value only feeds the
    // eigengap denominator, so it is compared at the optimizer's epsilon
    // scale and its direction not at all.
    EXPECT_LT(warm->lanczos_iterations, cold->lanczos_iterations);
    ASSERT_EQ(warm_eigen.values.size(), cold_eigen.values.size());
    for (size_t j = 0; j < cold_eigen.values.size(); ++j) {
      const bool tail = j + 1 == cold_eigen.values.size();
      EXPECT_NEAR(warm_eigen.values[j], cold_eigen.values[j],
                  tail ? 1e-3 : 1e-6);
      if (tail) continue;
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        dot += warm_eigen.vectors(i, static_cast<int64_t>(j)) *
               cold_eigen.vectors(i, static_cast<int64_t>(j));
      }
      EXPECT_GT(std::fabs(dot), 1.0 - 1e-4)
          << "eigenvector " << j << " diverged";
    }

    // The warm result is itself deterministic: identical bits at every
    // thread count.
    if (!have_reference) {
      warm_values_reference = warm_eigen.values;
      have_reference = true;
    } else {
      EXPECT_EQ(warm_eigen.values, warm_values_reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-allocation hot path: steady-state value-only update + warm re-solve.
// The epoch swap itself builds a new entry (control path, allocates); the
// HOT path — re-scattering values through the donor pattern and the
// warm-seeded eigensolve in a bound workspace — must not touch the heap.
// ---------------------------------------------------------------------------

TEST(UpdateAllocationTest, ValueOnlyUpdateWarmResolveHotPathAllocatesNothing) {
  UpdateFixture f = UpdateFixture::Make(1200, 3, 41);
  auto views_before = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_before.ok());
  const serve::GraphDelta delta = WeightDelta(f.mvag, 10, 1.3);
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&f.mvag, delta, &affected).ok());
  auto views_after = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views_after.ok());

  core::LaplacianAggregator before_aggregator(&*views_before);
  // The value-only donor copy: same pattern, same pattern_id.
  core::LaplacianAggregator after_aggregator(&*views_after,
                                             before_aggregator);
  ASSERT_EQ(after_aggregator.pattern_id(), before_aggregator.pattern_id());

  const std::vector<double> w1 = {0.55, 0.45};
  const std::vector<double> w2 = {0.30, 0.70};
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::EvalWorkspace ws;
    core::SpectralObjective seed_objective(&before_aggregator, 3,
                                           core::ObjectiveOptions(), &ws);
    ASSERT_TRUE(seed_objective.Evaluate(w1).ok());
    ASSERT_TRUE(seed_objective.Evaluate(w2).ok());
    const la::DenseMatrix seed_vectors = ws.eigen.vectors;  // pre-update

    core::ObjectiveOptions warm_options;
    warm_options.warm_start = &seed_vectors;
    core::SpectralObjective warm_objective(&after_aggregator, 3, warm_options,
                                           &ws);
    // Warm-up: sizes the warm-seed buffer and the early-exit scratch.
    ASSERT_TRUE(warm_objective.Evaluate(w1).ok());
    ASSERT_TRUE(warm_objective.Evaluate(w2).ok());

    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      auto value = warm_objective.Evaluate(i % 2 == 0 ? w1 : w2);
      ASSERT_TRUE(value.ok());
      ASSERT_TRUE(value->lanczos_iterations > 0);
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "warm re-solve hot path allocated at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Engine-level warm solves
// ---------------------------------------------------------------------------

TEST(EngineUpdateTest, WarmSolveAfterSmallDeltaBeatsColdAndAgrees) {
  UpdateFixture f = UpdateFixture::Make(1800, 3, 43);
  const size_t count =
      static_cast<size_t>(f.mvag.graph_views()[0].num_edges() / 100);
  const serve::GraphDelta delta = WeightDelta(f.mvag, count, 1.1);

  // Engine A: solve cold (banks the seed), apply the delta, solve warm.
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());
  const serve::SolveResponse cold_before = Solve(&engine, "g");
  EXPECT_FALSE(cold_before.stats.warm_started);
  EXPECT_EQ(cold_before.stats.graph_epoch, 0);

  auto updated = engine.UpdateGraph("g", delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ((*updated)->epoch, 1);

  // Independent cold baseline on the post-delta graph (a separate engine so
  // its solve cannot touch A's warm bank).
  core::MultiViewGraph scratch_mvag = f.mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&scratch_mvag, delta, &affected).ok());
  serve::GraphRegistry scratch_registry;
  serve::Engine scratch_engine(&scratch_registry);
  ASSERT_TRUE(scratch_engine.RegisterGraph("g", scratch_mvag).ok());
  const serve::SolveResponse cold_after = Solve(&scratch_engine, "g");

  const serve::SolveResponse warm = Solve(&engine, "g", /*warm=*/true);
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_EQ(warm.stats.graph_epoch, 1);
  EXPECT_GT(warm.stats.lanczos_iterations, 0);
  EXPECT_LT(warm.stats.lanczos_iterations, cold_after.stats.lanczos_iterations)
      << "warm solve should build fewer Lanczos vectors than a cold one";

  // Warm solves trade bit-identity for speed but must land on an equivalent
  // clustering of the updated graph.
  const eval::ClusteringQuality quality =
      eval::EvaluateClustering(warm.labels, cold_after.labels);
  EXPECT_GE(quality.nmi, 0.9);
}

TEST(EngineUpdateTest, WarmRequestWithoutBankRunsCold) {
  UpdateFixture f = UpdateFixture::Make(600, 2, 47);
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());

  // First-ever solve with warm_start requested: nothing banked yet, so it
  // runs cold — and must therefore be bit-identical to an explicit cold one.
  const serve::SolveResponse warm_requested = Solve(&engine, "g", true);
  EXPECT_FALSE(warm_requested.stats.warm_started);

  serve::GraphRegistry cold_registry;
  serve::Engine cold_engine(&cold_registry);
  ASSERT_TRUE(cold_engine.RegisterGraph("g", f.mvag).ok());
  const serve::SolveResponse cold = Solve(&cold_engine, "g");
  ExpectSameIntegration(warm_requested.integration, cold.integration);
  EXPECT_EQ(warm_requested.labels, cold.labels);
}

TEST(EngineUpdateTest, EvictDropsTheWarmBank) {
  UpdateFixture f = UpdateFixture::Make(600, 2, 53);
  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());
  (void)Solve(&engine, "g");  // banks a seed

  ASSERT_TRUE(engine.EvictGraph("g"));
  ASSERT_TRUE(engine.RegisterGraph("g", f.mvag).ok());
  const serve::SolveResponse warm_requested = Solve(&engine, "g", true);
  EXPECT_FALSE(warm_requested.stats.warm_started)
      << "eviction must invalidate the warm bank";
}

// ---------------------------------------------------------------------------
// UpdateGraph racing evict / re-register (extends the PR-4 snapshot-lookup
// hammer): one updater stream, one evict+re-register stream, two snapshot
// readers. TSAN (scripts/check.sh --tsan) verifies the locking; the
// assertions verify updates never resurrect an evicted id, every outcome is
// one of {applied, NotFound}, and readers never observe torn entries.
// ---------------------------------------------------------------------------

TEST(UpdateHammerTest, UpdateRacingEvictReregisterIsClean) {
  UpdateFixture f = UpdateFixture::Make(260, 2, 59);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  const serve::GraphDelta delta = WeightDelta(f.mvag, 6, 1.5);

  constexpr int kIterations = 120;
  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;

  threads.emplace_back([&] {  // updater
    for (int i = 0; i < kIterations; ++i) {
      auto updated = registry.UpdateGraph("g", delta);
      if (!updated.ok() &&
          updated.status().code() != StatusCode::kNotFound) {
        ++unexpected;  // FailedPrecondition would mean a sourceless entry
      }
      if (updated.ok() && (*updated)->aggregator->pattern_id() == 0) {
        ++unexpected;
      }
    }
  });
  threads.emplace_back([&] {  // evict + re-register under the same id
    for (int i = 0; i < kIterations; ++i) {
      registry.Evict("g");
      (void)registry.Register("g", f.mvag);
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {  // snapshot readers
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = registry.Find("g");
        if (snapshot == nullptr) continue;
        if (snapshot->num_nodes != 260 || snapshot->views.size() != 2u ||
            snapshot->epoch < 0 ||
            snapshot->aggregator->pattern_id() == 0) {
          ++unexpected;
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(unexpected.load(), 0);

  // The registry still works after the storm.
  ASSERT_NE(registry.Find("g"), nullptr);
  auto updated = registry.UpdateGraph("g", delta);
  EXPECT_TRUE(updated.ok()) << updated.status().ToString();
}

}  // namespace
}  // namespace sgla
