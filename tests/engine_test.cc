// Engine-layer tests: registry lifecycle (register -> concurrent solves ->
// evict -> re-register), bit-identity of engine solves with the one-shot
// core::Sgla/SglaPlus pipeline at SGLA_THREADS=1,2,8 and under concurrent
// mixed-graph load, and the zero-allocation guarantee for steady-state
// objective evaluations (via a global operator-new counting hook).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "embed/netmf.h"
#include "graph/laplacian.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook: every operator new in this binary bumps a
// counter. Tests measure deltas around code that promises to be
// allocation-free; frees are deliberately not counted (only acquisition).
// ---------------------------------------------------------------------------
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

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

namespace sgla {
namespace {

/// Restores the default global pool when a test that swept thread counts
/// finishes, so test order doesn't matter.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

/// A small MVAG with one SBM graph view and one attribute view (so
/// registration exercises the KNN path too), plus its single-shot reference
/// results computed through the pre-engine pipeline.
struct GraphFixture {
  core::MultiViewGraph mvag;
  std::vector<la::CsrMatrix> views;  // reference ComputeViewLaplacians output

  static GraphFixture Make(int64_t n, int k, uint64_t seed) {
    GraphFixture f;
    Rng rng(seed);
    std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
    f.mvag = core::MultiViewGraph(n, k);
    f.mvag.AddGraphView(data::SbmGraph(labels, k, 0.10, 0.01, &rng));
    f.mvag.AddAttributeView(
        data::GaussianAttributes(labels, k, 8, 3.0, 0.9, &rng));
    f.mvag.set_labels(std::move(labels));
    auto views = core::ComputeViewLaplacians(f.mvag);
    EXPECT_TRUE(views.ok());
    f.views = std::move(*views);
    return f;
  }
};

struct ClusterReference {
  core::IntegrationResult integration;
  std::vector<int32_t> labels;
};

ClusterReference SingleShotClusterReference(
    const std::vector<la::CsrMatrix>& views, int k,
    serve::Algorithm algorithm, const core::SglaPlusOptions& options = {}) {
  ClusterReference ref;
  auto integration = algorithm == serve::Algorithm::kSgla
                         ? core::Sgla(views, k, options.base)
                         : core::SglaPlus(views, k, options);
  EXPECT_TRUE(integration.ok()) << integration.status().ToString();
  ref.integration = std::move(*integration);
  auto labels = cluster::SpectralClustering(ref.integration.laplacian, k);
  EXPECT_TRUE(labels.ok());
  ref.labels = std::move(*labels);
  return ref;
}

void ExpectResponseMatchesReference(const serve::SolveResponse& response,
                                    const ClusterReference& reference) {
  // Exact equality on purpose: the engine promises identical bits.
  EXPECT_EQ(response.integration.weights, reference.integration.weights);
  EXPECT_EQ(response.integration.laplacian.row_ptr,
            reference.integration.laplacian.row_ptr);
  EXPECT_EQ(response.integration.laplacian.col_idx,
            reference.integration.laplacian.col_idx);
  EXPECT_EQ(response.integration.laplacian.values,
            reference.integration.laplacian.values);
  EXPECT_EQ(response.integration.objective_history,
            reference.integration.objective_history);
  EXPECT_EQ(response.labels, reference.labels);
}

TEST(GraphRegistryTest, RegisterFindEvictReregister) {
  const GraphFixture f = GraphFixture::Make(240, 3, 11);
  serve::GraphRegistry registry;
  auto entry = registry.Register("g", f.mvag);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ((*entry)->num_nodes, 240);
  EXPECT_EQ((*entry)->num_clusters, 3);
  EXPECT_EQ((*entry)->views.size(), 2u);  // graph view + KNN attribute view
  EXPECT_EQ(registry.size(), 1u);

  // The precomputed Laplacians match the one-shot pipeline's bit for bit.
  ASSERT_EQ((*entry)->views.size(), f.views.size());
  for (size_t v = 0; v < f.views.size(); ++v) {
    EXPECT_EQ((*entry)->views[v].row_ptr, f.views[v].row_ptr);
    EXPECT_EQ((*entry)->views[v].col_idx, f.views[v].col_idx);
    EXPECT_EQ((*entry)->views[v].values, f.views[v].values);
  }

  // Duplicate ids are rejected until the first entry is evicted.
  EXPECT_FALSE(registry.Register("g", f.mvag).ok());
  EXPECT_TRUE(registry.Evict("g"));
  EXPECT_FALSE(registry.Evict("g"));
  EXPECT_EQ(registry.Find("g"), nullptr);
  EXPECT_TRUE(registry.Register("g", f.mvag).ok());
}

TEST(GraphRegistryTest, EvictReregisterRacingSnapshotLookupsIsClean) {
  // Hammers the snapshot lifetime rule from four threads: two writers
  // alternate Evict -> re-Register under the same id while two readers loop
  // Find() and dereference whatever snapshot they got. A snapshot obtained
  // before an eviction must stay fully valid (views, aggregator pattern)
  // no matter how the writers interleave — TSAN (scripts/check.sh --tsan)
  // verifies there is no data race on the map or the entries, and the
  // assertions verify no torn/reclaimed state is ever observed.
  const GraphFixture f = GraphFixture::Make(160, 2, 111);
  const GraphFixture g = GraphFixture::Make(224, 2, 121);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  const int64_t nnz_f = f.views[0].nnz();
  const int64_t nnz_g = g.views[0].nnz();

  constexpr int kIterations = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_snapshots{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      const GraphFixture& mine = w == 0 ? f : g;
      for (int i = 0; i < kIterations; ++i) {
        registry.Evict("g");  // may lose the race to the other writer
        (void)registry.Register("g", mine.mvag);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = registry.Find("g");
        if (snapshot == nullptr) continue;  // between evict and re-register
        // Either generation is fine; anything else means a torn entry.
        const bool is_f = snapshot->num_nodes == 160 &&
                          snapshot->views[0].nnz() == nnz_f;
        const bool is_g = snapshot->num_nodes == 224 &&
                          snapshot->views[0].nnz() == nnz_g;
        if ((!is_f && !is_g) || snapshot->aggregator->pattern_id() == 0) {
          ++bad_snapshots;
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(bad_snapshots.load(), 0);

  // The registry still works after the storm: exactly one entry remains.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.Find("g"), nullptr);
}

TEST(EngineTest, ClusterSolveBitIdenticalToSingleShot) {
  const GraphFixture f = GraphFixture::Make(400, 4, 21);
  const ClusterReference sgla_ref =
      SingleShotClusterReference(f.views, 4, serve::Algorithm::kSgla);
  const ClusterReference plus_ref =
      SingleShotClusterReference(f.views, 4, serve::Algorithm::kSglaPlus);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::Engine engine(&registry);

  serve::SolveRequest request;
  request.graph_id = "g";
  request.algorithm = serve::Algorithm::kSgla;
  auto sgla_response = engine.Solve(request);
  ASSERT_TRUE(sgla_response.ok()) << sgla_response.status().ToString();
  ExpectResponseMatchesReference(*sgla_response, sgla_ref);

  request.algorithm = serve::Algorithm::kSglaPlus;
  auto plus_response = engine.Solve(request);
  ASSERT_TRUE(plus_response.ok()) << plus_response.status().ToString();
  ExpectResponseMatchesReference(*plus_response, plus_ref);

  // A second identical request through the now-warm workspace: same bits.
  auto again = engine.Solve(request);
  ASSERT_TRUE(again.ok());
  ExpectResponseMatchesReference(*again, plus_ref);
}

TEST(EngineTest, EmbedSolveBitIdenticalToSingleShot) {
  const GraphFixture f = GraphFixture::Make(300, 3, 31);
  auto integration = core::Sgla(f.views, 3);
  ASSERT_TRUE(integration.ok());
  auto reference = embed::NetMf(integration->laplacian, embed::NetMfOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::Engine engine(&registry);

  serve::SolveRequest request;
  request.graph_id = "g";
  request.mode = serve::SolveMode::kEmbed;
  auto response = engine.Solve(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->integration.weights, integration->weights);
  EXPECT_EQ(response->embedding.rows(), reference->rows());
  EXPECT_EQ(response->embedding.cols(), reference->cols());
  EXPECT_EQ(response->embedding.data(), reference->data());
}

TEST(EngineTest, BitIdenticalAcrossThreadCounts) {
  const GraphFixture f = GraphFixture::Make(400, 4, 41);
  const ClusterReference reference =
      SingleShotClusterReference(f.views, 4, serve::Algorithm::kSgla);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());

  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool::SetGlobalThreads(threads);
    serve::Engine engine(&registry);
    serve::SolveRequest request;
    request.graph_id = "g";
    auto response = engine.Solve(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectResponseMatchesReference(*response, reference);
  }
}

TEST(EngineTest, ConcurrentMixedGraphLoadBitIdentical) {
  const GraphFixture fa = GraphFixture::Make(360, 3, 51);
  const GraphFixture fb = GraphFixture::Make(420, 4, 61);
  const ClusterReference ref_a =
      SingleShotClusterReference(fa.views, 3, serve::Algorithm::kSgla);
  const ClusterReference ref_b =
      SingleShotClusterReference(fb.views, 4, serve::Algorithm::kSglaPlus);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("a", fa.mvag).ok());
  ASSERT_TRUE(registry.Register("b", fb.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 3;
  serve::Engine engine(&registry, options);

  // Several caller threads each submit an interleaved a/b mix and check
  // their own futures — sessions overlap arbitrarily, graphs alternate, and
  // every response must still match its single-shot reference exactly.
  constexpr int kCallers = 4;
  constexpr int kRequestsPerCaller = 4;
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerCaller; ++i) {
        const bool use_a = (c + i) % 2 == 0;
        serve::SolveRequest request;
        request.graph_id = use_a ? "a" : "b";
        request.algorithm =
            use_a ? serve::Algorithm::kSgla : serve::Algorithm::kSglaPlus;
        auto response = engine.Solve(request);
        const ClusterReference& reference = use_a ? ref_a : ref_b;
        if (!response.ok() ||
            response->integration.weights != reference.integration.weights ||
            response->integration.laplacian.values !=
                reference.integration.laplacian.values ||
            response->labels != reference.labels) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.completed(), kCallers * kRequestsPerCaller);
}

TEST(EngineTest, EvictedGraphRejectsNewButFinishesInFlightWork) {
  const GraphFixture f = GraphFixture::Make(320, 3, 71);
  const ClusterReference reference =
      SingleShotClusterReference(f.views, 3, serve::Algorithm::kSgla);

  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 1;  // force queueing so eviction races the backlog
  serve::Engine engine(&registry, options);

  std::vector<std::future<Result<serve::SolveResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    serve::SolveRequest request;
    request.graph_id = "g";
    futures.push_back(engine.Submit(std::move(request)));
  }

  // Evict while the backlog is (most likely) still draining: accepted work
  // carries its own snapshot, so every future must still resolve correctly
  // — no use-after-evict, no NotFound for already-submitted requests.
  EXPECT_TRUE(registry.Evict("g"));
  serve::SolveRequest evicted_request;
  evicted_request.graph_id = "g";
  auto rejected = engine.Solve(evicted_request);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);

  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectResponseMatchesReference(*response, reference);
  }

  // Re-register a *different* graph under the same id: solves now reflect
  // the new graph, not the evicted snapshot.
  const GraphFixture g2 = GraphFixture::Make(280, 4, 81);
  const ClusterReference reference2 =
      SingleShotClusterReference(g2.views, 4, serve::Algorithm::kSgla);
  ASSERT_TRUE(registry.Register("g", g2.mvag).ok());
  serve::SolveRequest new_request;
  new_request.graph_id = "g";
  auto response2 = engine.Solve(new_request);
  ASSERT_TRUE(response2.ok()) << response2.status().ToString();
  ExpectResponseMatchesReference(*response2, reference2);
}

TEST(EngineErrorPathTest, FailedStatusResolvesTheFutureWithoutHanging) {
  const GraphFixture f = GraphFixture::Make(120, 3, 13);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);

  serve::SolveRequest bad;
  bad.graph_id = "g";
  bad.k = 1;  // the solver requires k >= 2
  auto future = engine.Submit(bad);
  auto result = future.get();  // must resolve, not hang
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // completed() counts finished solves, successful or not.
  EXPECT_EQ(engine.completed(), 1);

  serve::SolveRequest good;
  good.graph_id = "g";
  EXPECT_TRUE(engine.Solve(good).ok());  // the worker survived
}

TEST(EngineErrorPathTest, ThrowingSolveRethrowsFromFutureAndWorkerSurvives) {
  const GraphFixture f = GraphFixture::Make(120, 3, 13);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);

  std::atomic<bool> explode{true};
  engine.SetSolveHookForTest([&explode](const serve::SolveRequest&) {
    if (explode.exchange(false)) throw std::runtime_error("injected fault");
  });

  serve::SolveRequest request;
  request.graph_id = "g";
  auto future = engine.Submit(request);
  EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_EQ(engine.completed(), 1);  // a thrown solve still "finished"

  // Drain must return even though the only solve so far blew up, and the
  // sole session worker must be alive to run the next request.
  engine.Drain();
  auto retry = engine.Solve(request);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(EngineErrorPathTest, TrySubmitCallbackSeesInternalOnThrow) {
  const GraphFixture f = GraphFixture::Make(120, 3, 13);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);

  engine.SetSolveHookForTest([](const serve::SolveRequest&) {
    throw std::runtime_error("injected fault");
  });

  std::promise<Status> delivered;
  serve::SolveRequest request;
  request.graph_id = "g";
  ASSERT_TRUE(engine
                  .TrySubmit(request,
                             [&delivered](
                                 const Result<serve::SolveResponse>& result) {
                               delivered.set_value(result.status());
                             })
                  .ok());
  // Callbacks have no exception channel: the throw surfaces as kInternal
  // with the what() text, exactly once.
  const Status status = delivered.get_future().get();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
  engine.Drain();
}

/// Submit and TrySubmit are two adapters over one admission path, so one
/// max_pending bound covers both: with the only admitted solve parked in the
/// hook, each form is rejected, and each admits again once it finishes.
TEST(EngineErrorPathTest, SubmitAndTrySubmitShareOneMaxPendingBound) {
  const GraphFixture f = GraphFixture::Make(120, 3, 13);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  // Declared before the engine, whose destructor drains the queue, so the
  // hook never outlives what it waits on.
  std::atomic<bool> park{true};
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  serve::EngineOptions options;
  options.num_sessions = 1;
  options.max_pending = 1;
  serve::Engine engine(&registry, options);
  engine.SetSolveHookForTest([&](const serve::SolveRequest&) {
    if (!park.exchange(false)) return;
    parked.set_value();
    released.wait();
  });

  serve::SolveRequest request;
  request.graph_id = "g";
  auto first = engine.Submit(request);
  parked.get_future().wait();
  EXPECT_EQ(engine.pending(), 1);
  // Both forms decide at submission; a rejected future is already resolved.
  auto second = engine.Submit(request);
  const Status try_rejected = engine.TrySubmit(
      request, [](const Result<serve::SolveResponse>&) {
        ADD_FAILURE() << "a rejected request's callback fired";
      });
  release.set_value();

  const Result<serve::SolveResponse> rejected = second.get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(try_rejected.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(first.get().ok());
  EXPECT_EQ(engine.pending(), 0);

  EXPECT_TRUE(engine.Submit(request).get().ok());
  std::promise<Status> delivered;
  ASSERT_TRUE(engine
                  .TrySubmit(request,
                             [&delivered](
                                 const Result<serve::SolveResponse>& result) {
                               delivered.set_value(result.status());
                             })
                  .ok());
  EXPECT_TRUE(delivered.get_future().get().ok());
  engine.Drain();
  EXPECT_EQ(engine.completed(), 3);
}

/// k = n asks every objective evaluation for n + 1 eigenpairs, so all of
/// them fail; the solve must return that error rather than OK with the
/// optimizer's untouched start weights. k = n - 1 is degenerate but legal.
TEST(EngineErrorPathTest, KEqualToNodeCountIsInvalidArgument) {
  const int64_t n = 120;
  const GraphFixture f = GraphFixture::Make(n, 3, 17);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);

  const std::pair<serve::SolveMode, serve::Quality> cases[] = {
      {serve::SolveMode::kCluster, serve::Quality::kExact},
      {serve::SolveMode::kCluster, serve::Quality::kRefined},
      {serve::SolveMode::kEmbed, serve::Quality::kExact},
  };
  for (const auto& [mode, quality] : cases) {
    SCOPED_TRACE(static_cast<int>(mode) * 10 + static_cast<int>(quality));
    serve::SolveRequest request;
    request.graph_id = "g";
    request.mode = mode;
    request.quality = quality;
    request.k = static_cast<int>(n);
    auto too_many = engine.Solve(request);
    ASSERT_FALSE(too_many.ok());
    EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument)
        << too_many.status().ToString();

    request.k = static_cast<int>(n - 1);
    auto fits = engine.Solve(request);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->stats.tier_served, serve::Quality::kExact);
  }
}

/// The fast tier needs k + 1 eigenpairs of the coarse companion; a k that
/// does not fit serves exact, like a graph without a companion.
TEST(EngineTierTest, FastServesExactWhenKExceedsCompanionRows) {
  const int64_t n = 120;
  const GraphFixture f = GraphFixture::Make(n, 3, 19);
  serve::GraphRegistry registry;
  ASSERT_TRUE(registry.Register("g", f.mvag).ok());
  const auto entry = registry.Find("g");
  ASSERT_NE(entry->coarse, nullptr);
  const int coarse_rows = static_cast<int>(entry->coarse->plan.coarse_rows);
  ASSERT_LT(coarse_rows, n - 1);
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);

  serve::SolveRequest request;
  request.graph_id = "g";
  request.quality = serve::Quality::kFast;
  request.k = coarse_rows - 1;
  auto fits = engine.Solve(request);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->stats.tier_served, serve::Quality::kFast);

  request.k = coarse_rows;
  auto fallback = engine.Solve(request);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->stats.tier_served, serve::Quality::kExact);

  request.quality = serve::Quality::kExact;
  auto exact = engine.Solve(request);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(fallback->integration.weights, exact->integration.weights);
  EXPECT_EQ(fallback->labels, exact->labels);
}

TEST(EngineAllocationTest, SteadyStateObjectiveEvaluationsAllocateNothing) {
  // n > 512 so SpMV/aggregation actually dispatch multi-chunk jobs through
  // the pool in the threaded sweep (the raw-pointer dispatch path).
  const GraphFixture f = GraphFixture::Make(1200, 4, 91);
  core::LaplacianAggregator aggregator(&f.views);

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::EvalWorkspace workspace;
    core::SpectralObjective objective(&aggregator, 4, core::ObjectiveOptions(),
                                      &workspace);
    const std::vector<double> w1 = {0.55, 0.45};
    const std::vector<double> w2 = {0.30, 0.70};
    // Warm-up: the first evaluations size every workspace buffer.
    ASSERT_TRUE(objective.Evaluate(w1).ok());
    ASSERT_TRUE(objective.Evaluate(w2).ok());

    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      auto value = objective.Evaluate(i % 2 == 0 ? w1 : w2);
      ASSERT_TRUE(value.ok());
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "steady-state Evaluate allocated at threads=" << threads;
  }
}

TEST(EngineAllocationTest, RebindingBetweenPatternsAllocatesNothing) {
  // One workspace alternates between two graphs of different n, the way a
  // session worker hops between registered graphs. The union pattern and
  // its SELL layout stay in each aggregator, so every Evaluate only resizes
  // the workspace's value array to the other graph's slot count. Once both
  // graphs have been served, the buffers fit either, so a hop must allocate
  // nothing — and every value must equal a fresh workspace's, bit for bit.
  const GraphFixture fa = GraphFixture::Make(1200, 4, 93);
  const GraphFixture fb = GraphFixture::Make(700, 3, 97);
  const core::LaplacianAggregator a(&fa.views);
  const core::LaplacianAggregator b(&fb.views);
  const std::vector<double> w = {0.55, 0.45};
  auto fresh_value = [&w](const core::LaplacianAggregator& aggregator,
                          int k) {
    core::EvalWorkspace fresh;
    core::SpectralObjective objective(&aggregator, k,
                                      core::ObjectiveOptions(), &fresh);
    auto value = objective.Evaluate(w);
    EXPECT_TRUE(value.ok());
    return *value;
  };
  const core::ObjectiveValue ref_a = fresh_value(a, 4);
  const core::ObjectiveValue ref_b = fresh_value(b, 3);

  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    util::ThreadPool::SetGlobalThreads(threads);
    core::EvalWorkspace workspace;
    core::SpectralObjective on_a(&a, 4, core::ObjectiveOptions(), &workspace);
    core::SpectralObjective on_b(&b, 3, core::ObjectiveOptions(), &workspace);
    ASSERT_TRUE(on_a.Evaluate(w).ok());  // warm-up: serve both graphs
    ASSERT_TRUE(on_b.Evaluate(w).ok());
    // The workspace holds one double per SELL slot of the graph it served
    // last, and no union-pattern CSR: both graphs are Lanczos-sized.
    EXPECT_EQ(static_cast<int64_t>(workspace.values.size()),
              b.sell_layout().num_slots());
    EXPECT_EQ(workspace.aggregate.row_ptr.capacity(), 0u);
    EXPECT_EQ(workspace.aggregate.col_idx.capacity(), 0u);
    EXPECT_EQ(workspace.aggregate.values.capacity(), 0u);

    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 6; ++i) {
      const bool use_a = i % 2 == 0;
      auto value = use_a ? on_a.Evaluate(w) : on_b.Evaluate(w);
      ASSERT_TRUE(value.ok());
      const core::ObjectiveValue& ref = use_a ? ref_a : ref_b;
      EXPECT_EQ(value->h, ref.h) << "i=" << i << " threads=" << threads;
      EXPECT_EQ(value->eigengap, ref.eigengap);
      EXPECT_EQ(value->lambda2, ref.lambda2);
      EXPECT_EQ(value->lanczos_iterations, ref.lanczos_iterations);
    }
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "hopping between served graphs allocated at threads="
        << threads;
  }
}

TEST(EngineAllocationTest, WarmClusteringWorkspaceAllocatesNothing) {
  const GraphFixture f = GraphFixture::Make(600, 3, 101);
  auto integration = core::Sgla(f.views, 3);
  ASSERT_TRUE(integration.ok());

  ThreadCountGuard guard;
  util::ThreadPool::SetGlobalThreads(1);
  cluster::SpectralWorkspace workspace;
  std::vector<int32_t> labels;
  cluster::KMeansOptions kmeans;
  ASSERT_TRUE(cluster::SpectralClusteringInto(integration->laplacian, 3,
                                              kmeans, &workspace, &labels)
                  .ok());  // warm-up
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(cluster::SpectralClusteringInto(integration->laplacian, 3,
                                              kmeans, &workspace, &labels)
                  .ok());
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "warm SpectralClusteringInto allocated";
}

}  // namespace
}  // namespace sgla
