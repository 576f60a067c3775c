// Tiered-serving tests: coarse plan construction (valid canonical partition,
// pure function of the sparsity patterns, bit-identical to a serial
// reference implementation), bit-identity of the plan and of
// fast-tier solves across SGLA_THREADS, the fast tier's NMI
// gap against exact on an SBM fixture, the companion across UpdateGraph
// (value-only and pattern deltas of any size, and an edit after an epoch
// without a companion, must match a fresh re-registration bit for bit),
// refined requests serving exact bit for bit, and the zero-allocation
// steady state of the coarse serving kernels.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarsen.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "graph/graph.h"
#include "graph/laplacian.h"
#include "la/dense.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook (same scheme as engine_test.cc / update_test.cc).
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

/// Two-SBM-view fixture (no attribute views, so delta tests compare the
/// update path against re-registration without KNN in the picture).
struct CoarseFixture {
  core::MultiViewGraph mvag;

  static CoarseFixture Make(int64_t n, int k, uint64_t seed) {
    CoarseFixture f;
    Rng rng(seed);
    std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.04, 0.004, &rng));
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.02, 0.008, &rng));
    f.mvag.set_labels(std::move(labels));
    return f;
  }
};

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
  options.base.max_evaluations = 16;
  return options;
}

serve::SolveResponse SolveTier(serve::Engine* engine, const std::string& id,
                               serve::Quality quality) {
  serve::SolveRequest request;
  request.graph_id = id;
  request.quality = quality;
  request.options = FastOptions();
  auto response = engine->Solve(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

void ExpectValidCanonicalPlan(const coarse::CoarsePlan& plan) {
  ASSERT_EQ(plan.fine_to_coarse.size(),
            static_cast<size_t>(plan.fine_rows));
  ASSERT_EQ(plan.cluster_size.size(), static_cast<size_t>(plan.coarse_rows));
  std::vector<int64_t> counted(static_cast<size_t>(plan.coarse_rows), 0);
  // Canonical numbering: coarse ids appear for the first time in ascending
  // order as fine rows are scanned — id I's first member precedes id I+1's.
  int64_t next_fresh = 0;
  for (int64_t i = 0; i < plan.fine_rows; ++i) {
    const int64_t c = plan.fine_to_coarse[static_cast<size_t>(i)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, plan.coarse_rows);
    if (counted[static_cast<size_t>(c)] == 0) {
      EXPECT_EQ(c, next_fresh) << "non-canonical id order at fine row " << i;
      ++next_fresh;
    }
    ++counted[static_cast<size_t>(c)];
  }
  EXPECT_EQ(next_fresh, plan.coarse_rows);
  for (int64_t c = 0; c < plan.coarse_rows; ++c) {
    EXPECT_EQ(counted[static_cast<size_t>(c)],
              plan.cluster_size[static_cast<size_t>(c)]);
    EXPECT_GE(plan.cluster_size[static_cast<size_t>(c)], 1);
  }
}

void ExpectSamePlan(const coarse::CoarsePlan& a, const coarse::CoarsePlan& b) {
  EXPECT_EQ(a.fine_rows, b.fine_rows);
  EXPECT_EQ(a.coarse_rows, b.coarse_rows);
  EXPECT_EQ(a.fine_to_coarse, b.fine_to_coarse);
  EXPECT_EQ(a.cluster_size, b.cluster_size);
}

void ExpectSameViews(const std::vector<la::CsrMatrix>& a,
                     const std::vector<la::CsrMatrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].row_ptr, b[v].row_ptr) << "view " << v;
    EXPECT_EQ(a[v].col_idx, b[v].col_idx) << "view " << v;
    EXPECT_EQ(a[v].values, b[v].values) << "view " << v;
  }
}

// ---------------------------------------------------------------------------
// Serial reference coarsening: the two-pointer affinity and the
// single-threaded level contraction the library started from. The
// library's marker-array affinity and chunk-parallel contraction must
// reproduce its plans bit for bit.
// ---------------------------------------------------------------------------
namespace reference {

struct Level {
  int64_t rows = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col;
  std::vector<int64_t> weight;
};

/// Level 0: the union pattern weighted by how many views hold each slot.
Level LevelZero(const la::CsrMatrix& pattern,
                const std::vector<la::CsrMatrix>& views) {
  Level g;
  g.rows = pattern.rows;
  g.row_ptr = pattern.row_ptr;
  g.col = pattern.col_idx;
  g.weight.assign(pattern.col_idx.size(), 0);
  for (int64_t i = 0; i < pattern.rows; ++i) {
    const int64_t p_end = pattern.row_ptr[i + 1];
    for (const la::CsrMatrix& view : views) {
      int64_t p = pattern.row_ptr[i];
      for (int64_t q = view.row_ptr[i]; q < view.row_ptr[i + 1]; ++q) {
        while (p < p_end && pattern.col_idx[p] < view.col_idx[q]) ++p;
        if (p < p_end && pattern.col_idx[p] == view.col_idx[q]) ++g.weight[p];
      }
    }
  }
  return g;
}

/// score(u,v) = w(u,v) + sum over shared neighbors t != u, v of
/// min(w(u,t), w(v,t)), by two-pointer intersection of the sorted rows.
std::vector<int64_t> EdgeAffinity(const Level& g) {
  std::vector<int64_t> score(g.col.size(), 0);
  for (int64_t u = 0; u < g.rows; ++u) {
    for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
      const int64_t v = g.col[p];
      if (v == u) continue;
      int64_t s = g.weight[p];
      int64_t a = g.row_ptr[u];
      int64_t b = g.row_ptr[v];
      while (a < g.row_ptr[u + 1] && b < g.row_ptr[v + 1]) {
        if (g.col[a] < g.col[b]) {
          ++a;
        } else if (g.col[b] < g.col[a]) {
          ++b;
        } else {
          if (g.col[a] != u && g.col[a] != v) {
            s += std::min(g.weight[a], g.weight[b]);
          }
          ++a;
          ++b;
        }
      }
      score[p] = s;
    }
  }
  return score;
}

/// Greedy heavy-edge matching in ascending row order, ties to the smallest
/// neighbor, at most `max_merges` pairs. Returns match[u] (partner, u for a
/// singleton, -1 if never visited).
std::vector<int64_t> Match(const Level& g, int64_t max_merges) {
  const std::vector<int64_t> score = EdgeAffinity(g);
  std::vector<int64_t> match(static_cast<size_t>(g.rows), -1);
  int64_t merges = 0;
  for (int64_t u = 0; u < g.rows && merges < max_merges; ++u) {
    if (match[u] >= 0) continue;
    int64_t best = -1;
    int64_t best_w = 0;
    for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
      const int64_t v = g.col[p];
      if (v == u || match[v] >= 0) continue;
      if (score[p] > best_w) {
        best = v;
        best_w = score[p];
      }
    }
    match[u] = best >= 0 ? best : u;
    if (best >= 0) {
      match[best] = u;
      ++merges;
    }
  }
  return match;
}

/// Serial contraction: coarse rows ascending, members ascending, slots
/// ascending; self-edges drop.
Level Contract(const Level& g, const std::vector<int64_t>& map,
               int64_t coarse_rows) {
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(coarse_rows));
  for (int64_t u = 0; u < g.rows; ++u) members[map[u]].push_back(u);
  Level out;
  out.rows = coarse_rows;
  out.row_ptr.assign(static_cast<size_t>(coarse_rows) + 1, 0);
  std::vector<int64_t> accum(static_cast<size_t>(coarse_rows), 0);
  std::vector<int64_t> touched;
  for (int64_t dst = 0; dst < coarse_rows; ++dst) {
    touched.clear();
    for (int64_t u : members[dst]) {
      for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
        const int64_t other = map[g.col[p]];
        if (other == dst) continue;
        if (accum[other] == 0) touched.push_back(other);
        accum[other] += g.weight[p];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t other : touched) {
      out.col.push_back(other);
      out.weight.push_back(accum[other]);
      accum[other] = 0;
    }
    out.row_ptr[dst + 1] = static_cast<int64_t>(out.col.size());
  }
  return out;
}

void FillClusterSizes(coarse::CoarsePlan* plan) {
  plan->cluster_size.assign(static_cast<size_t>(plan->coarse_rows), 0);
  for (int64_t c : plan->fine_to_coarse) ++plan->cluster_size[c];
}

coarse::CoarsePlan BuildPlan(const la::CsrMatrix& pattern,
                             const std::vector<la::CsrMatrix>& views,
                             const coarse::CoarsenOptions& options) {
  const int64_t n = pattern.rows;
  coarse::CoarsePlan plan;
  plan.fine_rows = n;
  plan.fine_to_coarse.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) plan.fine_to_coarse[i] = i;
  const int64_t target = std::max<int64_t>(
      static_cast<int64_t>(std::ceil(options.ratio * static_cast<double>(n))),
      options.min_coarse_rows);
  int64_t current = n;
  Level g = LevelZero(pattern, views);
  while (current > target) {
    const std::vector<int64_t> match = Match(g, current - target);
    // Coarse ids by first appearance.
    std::vector<int64_t> map(static_cast<size_t>(g.rows), -1);
    int64_t next = 0;
    for (int64_t u = 0; u < g.rows; ++u) {
      if (map[u] >= 0) continue;
      map[u] = next;
      if (match[u] >= 0 && match[u] != u) map[match[u]] = next;
      ++next;
    }
    if (next * 20 > current * 19) break;
    for (int64_t i = 0; i < n; ++i) {
      plan.fine_to_coarse[i] = map[plan.fine_to_coarse[i]];
    }
    current = next;
    if (current <= target) break;
    g = Contract(g, map, next);
  }
  plan.coarse_rows = current;
  FillClusterSizes(&plan);
  return plan;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

TEST(CoarsePlanTest, BuildsValidCanonicalPartitionAtTargetSize) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 31);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);

  coarse::CoarsePlan plan =
      coarse::BuildCoarsePlan(aggregator.pattern(), *views);
  EXPECT_EQ(plan.fine_rows, 600);
  ExpectValidCanonicalPlan(plan);
  // ratio 0.1 on a connected SBM: real multilevel reduction, floored well
  // above degeneracy.
  EXPECT_GE(plan.coarse_rows, 32);
  EXPECT_LE(plan.coarse_rows, 150);
}

TEST(CoarsePlanTest, PlanIsAPureFunctionOfThePatterns) {
  // Scaling every stored value leaves the plan untouched: matching weights
  // are integer pattern multiplicities, never floats — the invariant the
  // registry's value-only delta fast path relies on.
  const CoarseFixture f = CoarseFixture::Make(400, 2, 41);
  auto views = core::ComputeViewLaplacians(f.mvag);
  ASSERT_TRUE(views.ok());
  core::LaplacianAggregator aggregator(&*views);
  const coarse::CoarsePlan plan =
      coarse::BuildCoarsePlan(aggregator.pattern(), *views);

  std::vector<la::CsrMatrix> scaled = *views;
  for (la::CsrMatrix& view : scaled) {
    for (double& value : view.values) value *= 3.25;
  }
  core::LaplacianAggregator scaled_aggregator(&scaled);
  const coarse::CoarsePlan replay =
      coarse::BuildCoarsePlan(scaled_aggregator.pattern(), scaled);
  ExpectSamePlan(plan, replay);
}

TEST(CoarsePlanTest, PlanAndFastSolveBitIdenticalAcrossThreadCounts) {
  // n spans several 512-row kernel chunks with a ragged tail. The reference
  // is threads=1; threads=4 must reproduce the plan, the contracted views,
  // and the fast-tier solve bit for bit.
  const CoarseFixture f = CoarseFixture::Make(2570, 3, 51);

  coarse::CoarsePlan reference_plan;
  std::vector<la::CsrMatrix> reference_views;
  la::Vector reference_weights;
  std::vector<int32_t> reference_labels;

  ThreadCountGuard guard;
  bool first = true;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    serve::GraphRegistry registry;
    auto entry = registry.Register("g", f.mvag);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    ASSERT_NE((*entry)->coarse, nullptr);
    const serve::CoarseGraphEntry& coarse = *(*entry)->coarse;

    serve::Engine engine(&registry);
    const serve::SolveResponse fast =
        SolveTier(&engine, "g", serve::Quality::kFast);
    EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
    ASSERT_EQ(fast.labels.size(), static_cast<size_t>(2570));

    if (first) {
      first = false;
      ExpectValidCanonicalPlan(coarse.plan);
      reference_plan = coarse.plan;
      reference_views = coarse.views;
      reference_weights = fast.integration.weights;
      reference_labels = fast.labels;
      continue;
    }
    ExpectSamePlan(reference_plan, coarse.plan);
    ExpectSameViews(reference_views, coarse.views);
    EXPECT_EQ(reference_weights, fast.integration.weights)
        << "threads=" << threads;
    EXPECT_EQ(reference_labels, fast.labels) << "threads=" << threads;
  }
}

struct NamedGraph {
  std::string name;
  core::MultiViewGraph mvag;
};

/// The reference sweep's fixtures: both SBM fixtures above (n = 2570 leaves
/// ragged chunks), a 3-view graph whose attribute view goes through KNN
/// (multiplicities 1..3), and a graph whose every ninth row is isolated in
/// every view (empty union rows).
std::vector<NamedGraph> ReferenceFixtures() {
  std::vector<NamedGraph> out;
  out.push_back({"sbm-600", CoarseFixture::Make(600, 3, 31).mvag});
  out.push_back({"sbm-2570", CoarseFixture::Make(2570, 3, 51).mvag});
  {
    const int64_t n = 900;
    Rng rng(131);
    std::vector<int32_t> labels = data::BalancedLabels(n, 3, &rng);
    core::MultiViewGraph mvag(n, 3);
    mvag.AddGraphView(data::SbmGraph(labels, 3, 0.04, 0.004, &rng));
    mvag.AddGraphView(data::SbmGraph(labels, 3, 0.02, 0.008, &rng));
    mvag.AddAttributeView(
        data::GaussianAttributes(labels, 3, 8, 3.0, 0.9, &rng));
    out.push_back({"3-view-knn", std::move(mvag)});
  }
  {
    const int64_t n = 500;
    Rng rng(141);
    std::vector<int32_t> labels = data::BalancedLabels(n, 2, &rng);
    core::MultiViewGraph mvag(n, 2);
    for (double p_in : {0.05, 0.03}) {
      const graph::Graph full = data::SbmGraph(labels, 2, p_in, 0.005, &rng);
      graph::Graph kept(n);
      for (const graph::Edge& e : full.edges()) {
        if (e.u % 9 != 4 && e.v % 9 != 4) kept.AddEdge(e.u, e.v, e.weight);
      }
      mvag.AddGraphView(std::move(kept));
    }
    out.push_back({"isolated-rows", std::move(mvag)});
  }
  return out;
}

TEST(CoarsePlanTest, MatchesSerialReferenceAtEveryThreadCount) {
  // Comparing thread counts against each other cannot catch a change to the
  // plan itself; the serial reference can.
  ThreadCountGuard guard;
  for (const NamedGraph& fixture : ReferenceFixtures()) {
    const int64_t n = fixture.mvag.num_nodes();
    auto views = core::ComputeViewLaplacians(fixture.mvag);
    ASSERT_TRUE(views.ok()) << fixture.name;
    core::LaplacianAggregator aggregator(&*views);

    for (double ratio : {0.05, 0.1, 0.25}) {
      coarse::CoarsenOptions options;
      options.ratio = ratio;
      const coarse::CoarsePlan want =
          reference::BuildPlan(aggregator.pattern(), *views, options);
      EXPECT_LT(want.coarse_rows, n) << fixture.name;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(fixture.name + " ratio=" + std::to_string(ratio) +
                     " threads=" + std::to_string(threads));
        util::ThreadPool::SetGlobalThreads(threads);
        ExpectSamePlan(want, coarse::BuildCoarsePlan(aggregator.pattern(),
                                                     *views, options));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prolongation / contraction kernels
// ---------------------------------------------------------------------------

TEST(CoarseKernelTest, ProlongateRowsGathersRows) {
  la::DenseMatrix src(3, 2);
  for (int64_t r = 0; r < 3; ++r) {
    src(r, 0) = 10.0 * static_cast<double>(r);
    src(r, 1) = 10.0 * static_cast<double>(r) + 1.0;
  }
  const std::vector<int64_t> map = {2, 0, 1, 0, 2};
  la::DenseMatrix out;
  la::ProlongateRows(src, map, &out);
  ASSERT_EQ(out.rows(), 5);
  ASSERT_EQ(out.cols(), 2);
  for (size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(out(static_cast<int64_t>(i), 0), src(map[i], 0));
    EXPECT_EQ(out(static_cast<int64_t>(i), 1), src(map[i], 1));
  }
}

TEST(CoarseKernelTest, AverageRowsMeansClusterMembers) {
  coarse::CoarsePlan plan;
  plan.fine_rows = 4;
  plan.coarse_rows = 2;
  plan.fine_to_coarse = {0, 1, 0, 1};
  plan.cluster_size = {2, 2};

  la::DenseMatrix fine(4, 2);
  fine(0, 0) = 1.0;
  fine(0, 1) = 2.0;
  fine(1, 0) = 10.0;
  fine(1, 1) = 20.0;
  fine(2, 0) = 3.0;
  fine(2, 1) = 4.0;
  fine(3, 0) = 30.0;
  fine(3, 1) = 40.0;

  const la::DenseMatrix avg = coarse::AverageRows(fine, plan);
  ASSERT_EQ(avg.rows(), 2);
  ASSERT_EQ(avg.cols(), 2);
  EXPECT_DOUBLE_EQ(avg(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(avg(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(avg(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(avg(1, 1), 30.0);
}

TEST(CoarseKernelTest, ProlongateLabelsCopiesThroughTheMap) {
  coarse::CoarsePlan plan;
  plan.fine_rows = 5;
  plan.coarse_rows = 2;
  plan.fine_to_coarse = {0, 1, 1, 0, 1};
  plan.cluster_size = {2, 3};
  const std::vector<int32_t> coarse_labels = {7, 9};
  std::vector<int32_t> fine;
  coarse::ProlongateLabels(plan, coarse_labels, &fine);
  EXPECT_EQ(fine, (std::vector<int32_t>{7, 9, 9, 7, 9}));
}

// ---------------------------------------------------------------------------
// Fast tier end to end
// ---------------------------------------------------------------------------

TEST(FastTierTest, NmiGapAgainstExactWithinBound) {
  // CI-gate scale (SGLA_BENCH_SCALE=0.1): the coarse companion must clear
  // the dense-eigensolver fallback threshold, i.e. behave like production.
  const int64_t n = 2000;
  const int k = 3;
  Rng rng(61);
  std::vector<int32_t> truth = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(truth, k, 0.10, 0.01, &rng));
  mvag.AddAttributeView(data::GaussianAttributes(truth, k, 8, 3.0, 0.9, &rng));

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", mvag).ok());
  serve::Engine engine(&registry);

  const serve::SolveResponse exact =
      SolveTier(&engine, "g", serve::Quality::kExact);
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(exact.stats.tier_served, serve::Quality::kExact);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kFast);
  ASSERT_EQ(fast.labels.size(), static_cast<size_t>(n));
  // The fast response's integration ran on the coarse graph.
  EXPECT_LT(fast.integration.laplacian.rows, n / 2);

  const double exact_nmi = eval::EvaluateClustering(exact.labels, truth).nmi;
  const double fast_nmi = eval::EvaluateClustering(fast.labels, truth).nmi;
  EXPECT_LE(exact_nmi - fast_nmi, 0.05)
      << "exact nmi " << exact_nmi << " fast nmi " << fast_nmi;
}

TEST(FastTierTest, FallsBackToExactWithoutCompanion) {
  const CoarseFixture f = CoarseFixture::Make(400, 2, 71);
  serve::GraphRegistry registry;
  serve::RegisterOptions options;
  options.coarsen_ratio = 0.0;  // decline the companion
  auto entry = registry.Register("g", f.mvag, options);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->coarse, nullptr);

  serve::Engine engine(&registry);
  const serve::SolveResponse fast =
      SolveTier(&engine, "g", serve::Quality::kFast);
  EXPECT_EQ(fast.stats.tier_served, serve::Quality::kExact);
  EXPECT_EQ(fast.integration.laplacian.rows, 400);
}

// ---------------------------------------------------------------------------
// Delta maintenance of the companion
// ---------------------------------------------------------------------------

/// Registers `mvag` as "g", applies `delta` through UpdateGraph, and holds
/// the updated companion to a fresh registration "h" of the post-delta
/// graph: the same plan, the same contracted views, and a fast solve that
/// serves fast with the same weights and labels.
void ExpectUpdatedCompanionMatchesReregistration(
    const core::MultiViewGraph& mvag, const serve::GraphDelta& delta) {
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", mvag).ok());
  auto updated = registry.UpdateGraph("g", delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ((*updated)->epoch, 1);

  core::MultiViewGraph post = mvag;
  std::vector<bool> affected;
  ASSERT_TRUE(serve::ApplyDelta(&post, delta, &affected).ok());
  auto fresh = registry.Register("h", post);
  ASSERT_TRUE(fresh.ok());
  ASSERT_NE((*fresh)->coarse, nullptr);
  ASSERT_NE((*updated)->coarse, nullptr);
  ExpectSamePlan((*fresh)->coarse->plan, (*updated)->coarse->plan);
  ExpectSameViews((*fresh)->coarse->views, (*updated)->coarse->views);

  serve::Engine engine(&registry);
  const serve::SolveResponse via_update =
      SolveTier(&engine, "g", serve::Quality::kFast);
  const serve::SolveResponse via_fresh =
      SolveTier(&engine, "h", serve::Quality::kFast);
  EXPECT_EQ(via_update.stats.tier_served, serve::Quality::kFast);
  EXPECT_EQ(via_update.integration.weights, via_fresh.integration.weights);
  EXPECT_EQ(via_update.labels, via_fresh.labels);
}

TEST(CoarseUpdateTest, ValueOnlyDeltaMatchesReregistration) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 81);
  ExpectUpdatedCompanionMatchesReregistration(f.mvag,
                                              WeightDelta(f.mvag, 40, 2.5));
}

TEST(CoarseUpdateTest, PatternDeltaOfAnySizeMatchesReregistration) {
  // Every pattern delta re-plans from scratch, so however few rows it
  // touches (2 removed edges) or however many (120), the updated companion
  // is indistinguishable from registering the post-delta graph fresh.
  const CoarseFixture f = CoarseFixture::Make(600, 3, 91);
  for (size_t removals : {2, 120}) {
    SCOPED_TRACE("removals=" + std::to_string(removals));
    ExpectUpdatedCompanionMatchesReregistration(f.mvag,
                                                RemovalDelta(f.mvag, removals));
  }
}

TEST(CoarseUpdateTest, EditAfterAnEpochWithoutCompanionBuildsTheFreshOne) {
  // Two edgeless views: nothing can merge, so registration builds no
  // companion. One delta then inserts the same SBM's edges into both
  // views; the next epoch must hold the companion a fresh registration of
  // the result builds, and serve fast from it.
  const int64_t n = 400;
  const int k = 4;
  Rng rng(151);
  const std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph edgeless(n, k);
  edgeless.AddGraphView(graph::Graph(n));
  edgeless.AddGraphView(graph::Graph(n));
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", edgeless);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  ASSERT_EQ((*registered)->coarse, nullptr);

  const graph::Graph sbm = data::SbmGraph(labels, k, 0.10, 0.01, &rng);
  serve::GraphDelta delta;
  for (int view : {0, 1}) {
    serve::GraphViewDelta edits;
    edits.view = view;
    for (const graph::Edge& e : sbm.edges()) {
      edits.upserts.push_back({e.u, e.v, e.weight});
    }
    delta.graph_views.push_back(std::move(edits));
  }
  ExpectUpdatedCompanionMatchesReregistration(edgeless, delta);
}

// ---------------------------------------------------------------------------
// Refined tier
// ---------------------------------------------------------------------------

TEST(RefinedTierTest, ServesExactBitIdentically) {
  // A graph with a coarse companion: a refined request still serves the
  // exact tier, every bit the same as an exact request's.
  const int64_t n = 1200;
  const int k = 3;
  Rng rng(111);
  std::vector<int32_t> truth = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(truth, k, 0.10, 0.01, &rng));
  mvag.AddAttributeView(data::GaussianAttributes(truth, k, 8, 3.0, 0.9, &rng));
  serve::GraphRegistry registry;
  auto registered = registry.Register("g", mvag);
  ASSERT_TRUE(registered.ok());
  ASSERT_NE((*registered)->coarse, nullptr);
  serve::Engine engine(&registry);

  const serve::SolveResponse exact =
      SolveTier(&engine, "g", serve::Quality::kExact);
  const serve::SolveResponse refined =
      SolveTier(&engine, "g", serve::Quality::kRefined);

  EXPECT_EQ(refined.stats.tier_served, serve::Quality::kExact);
  EXPECT_EQ(refined.integration.weights, exact.integration.weights);
  EXPECT_EQ(refined.integration.objective_history,
            exact.integration.objective_history);
  EXPECT_EQ(refined.integration.laplacian.values,
            exact.integration.laplacian.values);
  EXPECT_EQ(refined.labels, exact.labels);
  EXPECT_EQ(refined.stats.lanczos_iterations,
            exact.stats.lanczos_iterations);
}

// ---------------------------------------------------------------------------
// Steady-state allocation behavior of the coarse serving kernels
// ---------------------------------------------------------------------------

TEST(CoarseAllocationTest, SteadyStateCoarseKernelsAllocateNothing) {
  const CoarseFixture f = CoarseFixture::Make(600, 3, 121);
  serve::GraphRegistry registry;
  auto entry = registry.Register("g", f.mvag);
  ASSERT_TRUE(entry.ok());
  ASSERT_NE((*entry)->coarse, nullptr);
  const serve::CoarseGraphEntry& coarse = *(*entry)->coarse;

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);

    // Fast-tier objective evaluations on the coarse aggregator.
    core::EvalWorkspace workspace;
    core::SpectralObjective objective(coarse.aggregator.get(), 3,
                                      core::ObjectiveOptions(), &workspace);
    const std::vector<double> w1 = {0.55, 0.45};
    const std::vector<double> w2 = {0.30, 0.70};
    ASSERT_TRUE(objective.Evaluate(w1).ok());  // warm-up sizes the buffers
    ASSERT_TRUE(objective.Evaluate(w2).ok());

    // Prolongation kernels with pre-warmed outputs.
    std::vector<int32_t> coarse_labels(
        static_cast<size_t>(coarse.plan.coarse_rows), 1);
    std::vector<int32_t> fine_labels;
    coarse::ProlongateLabels(coarse.plan, coarse_labels, &fine_labels);
    la::DenseMatrix ritz(coarse.plan.coarse_rows, 4);
    la::DenseMatrix lifted;
    la::ProlongateRows(ritz, coarse.plan.fine_to_coarse, &lifted);

    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      auto value = objective.Evaluate(i % 2 == 0 ? w1 : w2);
      ASSERT_TRUE(value.ok());
      coarse::ProlongateLabels(coarse.plan, coarse_labels, &fine_labels);
      la::ProlongateRows(ritz, coarse.plan.fine_to_coarse, &lifted);
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "steady-state coarse kernels allocated at threads=" << threads;
  }
}

}  // namespace
}  // namespace sgla
