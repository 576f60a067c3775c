// Micro-benchmarks (google-benchmark) for the numerical substrates: SpMV,
// Laplacian aggregation, Lanczos eigensolves, KNN construction, k-means and
// the COBYLA / Nelder-Mead optimizers on the true SGLA objective. These back
// the DESIGN.md ablation notes (aggregator reuse, eigensolver early exit,
// optimizer choice).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "coarse/coarsen.h"
#include "core/aggregator.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/eigen_sym.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "opt/simplex.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Allocation counter: operator new in this binary bumps a relaxed atomic, so
// the Engine* benches can report allocations per iteration alongside time.
// The engine layer's contract is that the steady-state objective benches
// report exactly 0 (scripts/check.sh --bench-smoke records the trajectory).
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

namespace {

using namespace sgla;

struct Fixture {
  std::vector<int32_t> labels;
  std::vector<la::CsrMatrix> views;
  la::DenseMatrix attributes;
  /// The two SBM graphs as an MVAG with no attribute view: its registered
  /// Laplacians are `views`, so the engine benches serve exactly them.
  core::MultiViewGraph mvag;

  static const Fixture& Get(int64_t n) {
    static std::map<int64_t, Fixture> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
      Fixture f;
      Rng rng(77);
      f.labels = data::BalancedLabels(n, 4, &rng);
      graph::Graph g1 = data::SbmGraph(f.labels, 4, 0.02, 0.002, &rng);
      graph::Graph g2 = data::SbmGraph(f.labels, 4, 0.01, 0.008, &rng);
      f.views = {graph::NormalizedLaplacian(g1), graph::NormalizedLaplacian(g2)};
      f.attributes = data::GaussianAttributes(f.labels, 4, 32, 1.0, 0.8, &rng);
      f.mvag = core::MultiViewGraph(n, 4);
      f.mvag.AddGraphView(std::move(g1));
      f.mvag.AddGraphView(std::move(g2));
      it = cache.emplace(n, std::move(f)).first;
    }
    return it->second;
  }
};

void BM_Spmv(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0), y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_Spmv)->Arg(2000)->Arg(8000);

void BM_AggregateReuse(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  aggregator.BindPattern(&out);
  double w = 0.3;
  for (auto _ : state) {
    aggregator.AggregateValuesInto({w, 1.0 - w}, &out);
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateReuse)->Arg(2000)->Arg(8000);

void BM_AggregateFromScratch(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  double w = 0.3;
  for (auto _ : state) {
    la::CsrMatrix sum = la::WeightedSum({&f.views[0], &f.views[1]}, {w, 1.0 - w});
    benchmark::DoNotOptimize(sum.values.data());
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateFromScratch)->Arg(2000)->Arg(8000);

void BM_LanczosSmallestEigenvalues(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    auto eig = la::SmallestEigenpairs(f.views[0], 5, 2.0);
    benchmark::DoNotOptimize(eig.ok());
  }
}
BENCHMARK(BM_LanczosSmallestEigenvalues)->Arg(2000)->Arg(8000);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::SpectralObjective objective(&f.views, 4);
  double w = 0.3;
  for (auto _ : state) {
    auto value = objective.Evaluate({w, 1.0 - w});
    benchmark::DoNotOptimize(value.ok());
    w = w < 0.7 ? w + 0.05 : 0.3;
  }
}
BENCHMARK(BM_ObjectiveEvaluation)->Arg(2000)->Arg(8000);

void BM_KnnExact(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  graph::KnnOptions options;
  options.k = 10;
  options.exact_threshold = 1 << 30;
  for (auto _ : state) {
    graph::Graph g = graph::KnnGraph(f.attributes, options);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_KnnExact)->Arg(2000);

void BM_KnnRpForest(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  graph::KnnOptions options;
  options.k = 10;
  options.exact_threshold = 1;  // force the approximate path
  for (auto _ : state) {
    graph::Graph g = graph::KnnGraph(f.attributes, options);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_KnnRpForest)->Arg(2000)->Arg(8000);

void BM_KMeans(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeans)->Arg(2000)->Arg(8000);

// ---------------------------------------------------------------------------
// Threaded-vs-serial sweeps: Args are {n, threads}. The deterministic
// execution layer promises bit-identical outputs at every thread count, so
// these measure pure scheduling overhead / speedup. Run with e.g.
//   bench_micro_substrates --benchmark_filter='Threads'
// ---------------------------------------------------------------------------

/// Pins the global pool for one benchmark run, restoring SGLA_THREADS /
/// hardware default afterwards so unsuffixed benches keep their config.
class PoolOverride {
 public:
  explicit PoolOverride(int threads) {
    util::ThreadPool::SetGlobalThreads(threads);
  }
  ~PoolOverride() {
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  }
};

void BM_SpmvThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0), y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SpmvThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

void BM_AggregateThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  aggregator.BindPattern(&out);
  double w = 0.3;
  for (auto _ : state) {
    aggregator.AggregateValuesInto({w, 1.0 - w}, &out);
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
}
BENCHMARK(BM_AggregateThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

void BM_KMeansThreads(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  PoolOverride pool(static_cast<int>(state.range(1)));
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeansThreads)
    ->Args({20000, 1})->Args({20000, 2})->Args({20000, 4})->Args({20000, 8});

// ---------------------------------------------------------------------------
// Per-ISA sweeps: one single-threaded run of each hot kernel per ISA path
// the host can execute, registered at runtime in main() (the available set
// is a host property). These back the DESIGN.md SIMD-dispatch speedup table;
// compare e.g. BM_SpmvIsa/avx2 against BM_SpmvIsa/scalar. Run with
//   bench_micro_substrates --benchmark_filter='Isa'
// ---------------------------------------------------------------------------

/// Sparser fixture for the per-ISA sweeps: ~7 nnz/row at n = 20000 (the
/// degree regime of kNN attribute views) keeps values + col_idx around 2 MB
/// — cache-resident — so these benches compare kernel codegen. The dense
/// Fixture at this size streams > 40 MB of CSR arrays per SpMV, which pins
/// every ISA at the same memory-bandwidth ceiling and hides codegen wins.
/// Short rows are also exactly where the SELL layout earns its keep: the
/// per-row CSR vector loop barely engages at width 7, while SELL runs 8
/// sorted rows per register.
struct IsaFixture {
  std::vector<int32_t> labels;
  std::vector<la::CsrMatrix> views;
  la::DenseMatrix attributes;

  static const IsaFixture& Get() {
    static const IsaFixture* f = [] {
      IsaFixture* fixture = new IsaFixture();
      Rng rng(78);
      fixture->labels = data::BalancedLabels(20000, 4, &rng);
      graph::Graph g1 = data::SbmGraph(fixture->labels, 4, 0.001, 0.0001, &rng);
      graph::Graph g2 = data::SbmGraph(fixture->labels, 4, 0.0005, 0.0004, &rng);
      fixture->views = {graph::NormalizedLaplacian(g1),
                        graph::NormalizedLaplacian(g2)};
      fixture->attributes =
          data::GaussianAttributes(fixture->labels, 4, 32, 1.0, 0.8, &rng);
      return fixture;
    }();
    return *f;
  }
};

/// Pins the SIMD dispatch path for one benchmark run, restoring the previous
/// path afterwards so unsuffixed benches keep auto-detection.
class IsaOverride {
 public:
  explicit IsaOverride(la::simd::Isa isa) : previous_(la::simd::ActiveIsa()) {
    la::simd::SetActiveForTesting(isa);
  }
  ~IsaOverride() { la::simd::SetActiveForTesting(previous_); }

 private:
  la::simd::Isa previous_;
};

void BM_SpmvIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  const la::CsrMatrix& m = f.views[0];
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}

void BM_SellSpmvIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  const la::CsrMatrix& m = f.views[0];
  la::SellMatrix sell;
  la::BuildSellPattern(m, &sell);
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::SellSpmv(sell, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}

void BM_AggregateIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  aggregator.BindPattern(&out);
  std::vector<double> weights = {0.3, 0.7};
  for (auto _ : state) {
    aggregator.AggregateValuesInto(weights, &out);
    benchmark::DoNotOptimize(out.values.data());
    weights[0] = weights[0] < 0.7 ? weights[0] + 0.01 : 0.3;
    weights[1] = 1.0 - weights[0];
  }
}

/// The modified Gram–Schmidt reorthogonalization kernels: every Lanczos
/// step runs one dot and one axpy of length n per basis and locked vector,
/// which dominates a large solve. Vectors of n = state.range(0) stay
/// cache-resident, so these compare kernel codegen, like the sweeps above.
void BM_DotIsa(benchmark::State& state, la::simd::Isa isa) {
  IsaOverride pin(isa);
  const int64_t n = state.range(0);
  la::Vector x(static_cast<size_t>(n), 0.5);
  la::Vector y(static_cast<size_t>(n), 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Dot(x.data(), y.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AxpyIsa(benchmark::State& state, la::simd::Isa isa) {
  IsaOverride pin(isa);
  const int64_t n = state.range(0);
  la::Vector x(static_cast<size_t>(n), 0.5);
  la::Vector y(static_cast<size_t>(n), 0.25);
  double alpha = 1e-3;
  for (auto _ : state) {
    la::Axpy(alpha, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    alpha = -alpha;  // keeps y bounded across iterations
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_KMeansIsa(benchmark::State& state, la::simd::Isa isa) {
  const IsaFixture& f = IsaFixture::Get();
  PoolOverride pool(1);
  IsaOverride pin(isa);
  cluster::KMeansOptions options;
  options.num_init = 1;
  for (auto _ : state) {
    auto result = cluster::KMeans(f.attributes, 4, options);
    benchmark::DoNotOptimize(result.inertia);
  }
}

// ---------------------------------------------------------------------------
// Engine-layer benches (scripts/check.sh --bench-smoke runs the 'Engine'
// filter at a tiny size and archives the JSON as BENCH_engine.json). Each
// reports allocs_per_iter from the global counting hook; the steady-state
// objective benches must report 0.
// ---------------------------------------------------------------------------

void BM_EngineObjectiveSteadyState(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  core::EvalWorkspace workspace;
  core::SpectralObjective objective(&aggregator, 4, core::ObjectiveOptions(),
                                    &workspace);
  const std::vector<double> w1 = {0.55, 0.45};
  const std::vector<double> w2 = {0.30, 0.70};
  // Warm-up sizes every workspace buffer before timing starts.
  benchmark::DoNotOptimize(objective.Evaluate(w1).ok());
  benchmark::DoNotOptimize(objective.Evaluate(w2).ok());
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  bool flip = false;
  for (auto _ : state) {
    auto value = objective.Evaluate(flip ? w1 : w2);
    benchmark::DoNotOptimize(value.ok());
    flip = !flip;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  // The dispatch path changes the timings (not the semantics), so archived
  // BENCH_engine.json runs record which ISA produced them.
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineObjectiveSteadyState)->Arg(512)->Arg(2000);

void BM_EngineAggregateSteadyState(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix out;
  double w = 0.3;
  std::vector<double> weights = {w, 1.0 - w};
  aggregator.BindPattern(&out);  // warm-up binding
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    weights[0] = w;
    weights[1] = 1.0 - w;
    aggregator.AggregateValuesInto(weights, &out);
    benchmark::DoNotOptimize(out.values.data());
    w = w < 0.7 ? w + 0.01 : 0.3;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineAggregateSteadyState)->Arg(512)->Arg(2000);

// End-to-end solve latency. The solve runs on a session worker, so the
// caller's cpu_time is only submit/wait overhead: timed in wall-clock, like
// BM_CoarsenGraph (and likewise for the fast-tier and re-solve benches).
void BM_EngineSolveCluster(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  auto registered = registry.Register("bench", f.mvag);
  if (!registered.ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineSolveCluster)->Arg(512)->Arg(2000)->UseRealTime();

// Fast-tier serving: the whole SGLA+ pipeline on the coarse companion with
// prolongation back to fine rows. Compare ns against BM_EngineSolveCluster
// at the same Arg for the tiered-serving speedup the NMI-gap gate holds to.
void BM_EngineSolveFastTier(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  auto registered = registry.Register("bench", f.mvag);
  if (!registered.ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  if ((*registered)->coarse == nullptr) {
    state.SkipWithError("no coarse companion");
    return;
  }
  serve::EngineOptions options;
  options.num_sessions = 1;
  serve::Engine engine(&registry, options);
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSglaPlus;
  request.quality = serve::Quality::kFast;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineSolveFastTier)->Arg(512)->Arg(2000)->UseRealTime();

// Registration-time cost of the coarse companion: the multilevel heavy-edge
// matching over the union pattern plus the Galerkin contraction of one view.
// UpdateGraph pays it again on every pattern delta (BM_EngineUpdateGraphPattern
// times the whole epoch). The affinity and contraction passes run on pool
// workers, so the caller's cpu_time would under-report the work: timed in
// wall-clock instead (perf_gate.py compares real_time for names ending in
// /real_time).
void BM_CoarsenGraph(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  core::LaplacianAggregator aggregator(&f.views);
  for (auto _ : state) {
    coarse::CoarsePlan plan =
        coarse::BuildCoarsePlan(aggregator.pattern(), f.views);
    la::CsrMatrix contracted = coarse::ContractView(f.views[0], plan);
    benchmark::DoNotOptimize(contracted.values.data());
  }
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_CoarsenGraph)->Arg(2000)->Arg(8000)->UseRealTime();

// End-to-end registration: view Laplacians, the union merge and its SELL
// layout, the coarse plan and contraction. Informational: no baseline entry
// and outside perf_gate.py's TIMING_GATED, so it shows what registration
// costs without gating it. The build runs on pool workers, so it is timed
// in wall-clock; the eviction and the entry's teardown are not timed.
void BM_EngineRegister(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  serve::GraphRegistry registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Register("bench", f.mvag).ok());
    state.PauseTiming();
    registry.Evict("bench");  // drops the last reference to the entry
    state.ResumeTiming();
  }
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineRegister)->Arg(2000)->Arg(8000)->UseRealTime();

// Steady-state incremental updates: a value-only delta (weight nudges on
// existing edges) absorbed by UpdateGraph's copy-on-write epoch swap. The
// epoch build allocates by design (new entry + donor aggregator); recorded
// for the perf trajectory, not alloc-gated.
void BM_EngineUpdateGraphValueOnly(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(177);
  std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  core::MultiViewGraph mvag(n, 4);
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.02, 0.002, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.01, 0.008, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  if (!registry.Register("bench", mvag).ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  for (size_t i = 0; i < edges.size() && i < 16; ++i) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, 1.5});
  }
  delta.graph_views.push_back(std::move(view_delta));

  double weight = 1.5;
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (serve::EdgeUpsert& upsert : delta.graph_views[0].upserts) {
      upsert.weight = weight;
    }
    auto updated = registry.UpdateGraph("bench", delta);
    benchmark::DoNotOptimize(updated.ok());
    weight = weight < 2.0 ? weight + 0.05 : 1.5;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineUpdateGraphValueOnly)->Arg(2000);

// Pattern-changing updates: the delta alternately inserts and removes the
// same 4 edges of view 0, so every epoch rebuilds the union pattern and
// re-plans the coarse companion from scratch — what any pattern delta costs.
// Recorded for the perf trajectory, not gated. The re-plan runs on pool
// workers, so it is timed in wall-clock.
void BM_EngineUpdateGraphPattern(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(177);
  std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  core::MultiViewGraph mvag(n, 4);
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.02, 0.002, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.01, 0.008, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  if (!registry.Register("bench", mvag).ok()) {
    state.SkipWithError("Register failed");
    return;
  }
  // Four node pairs (u, u + n/2) that view 0 does not connect.
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  const auto adjacent = [&edges](int64_t u, int64_t v) {
    for (const graph::Edge& e : edges) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return true;
    }
    return false;
  };
  serve::GraphDelta insert;
  serve::GraphDelta remove;
  insert.graph_views.resize(1);
  remove.graph_views.resize(1);
  for (int64_t u = 0; u < n / 2 && remove.graph_views[0].removals.size() < 4;
       ++u) {
    if (adjacent(u, u + n / 2)) continue;
    insert.graph_views[0].upserts.push_back({u, u + n / 2, 1.0});
    remove.graph_views[0].removals.push_back({u, u + n / 2});
  }

  bool inserted = false;
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto updated = registry.UpdateGraph("bench", inserted ? remove : insert);
    if (!updated.ok()) {
      state.SkipWithError("UpdateGraph failed");
      break;
    }
    benchmark::DoNotOptimize(updated->get());
    inserted = !inserted;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineUpdateGraphPattern)->Arg(2000)->UseRealTime();

// Re-solve after a small delta: the update-then-solve serving loop (a
// value-only upsert of 16 edges, then an exact SGLA solve, repeatedly).
void BM_EngineResolveAfterUpdate(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(179);
  std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
  core::MultiViewGraph mvag(n, 4);
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.02, 0.002, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, 4, 0.01, 0.008, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  serve::Engine engine(&registry);
  if (!engine.RegisterGraph("bench", mvag).ok()) {
    state.SkipWithError("RegisterGraph failed");
    return;
  }
  serve::SolveRequest request;
  request.graph_id = "bench";
  request.algorithm = serve::Algorithm::kSgla;
  request.options.base.max_evaluations = 16;
  benchmark::DoNotOptimize(engine.Solve(request).ok());  // warm the session

  serve::GraphDelta delta;
  serve::GraphViewDelta view_delta;
  view_delta.view = 0;
  const std::vector<graph::Edge>& edges = mvag.graph_views()[0].edges();
  for (size_t i = 0; i < edges.size() && i < 16; ++i) {
    view_delta.upserts.push_back({edges[i].u, edges[i].v, 1.2});
  }
  delta.graph_views.push_back(std::move(view_delta));

  double weight = 1.2;
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (serve::EdgeUpsert& upsert : delta.graph_views[0].upserts) {
      upsert.weight = weight;
    }
    benchmark::DoNotOptimize(engine.UpdateGraph("bench", delta).ok());
    auto response = engine.Solve(request);
    benchmark::DoNotOptimize(response.ok());
    weight = weight < 1.6 ? weight + 0.05 : 1.2;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(la::simd::ActiveIsaName());
}
BENCHMARK(BM_EngineResolveAfterUpdate)->Arg(2000)->UseRealTime();

// ---------------------------------------------------------------------------
// SpMV at the density the engine serves. The per-ISA sweeps above run on the
// ~7 nnz/row IsaFixture, where the vector CSR row loop barely engages. The
// e2ebench fixture's integrated Laplacian — two SBM views of expected degree
// 16 plus a 16-column Gaussian attribute view through KNN, aggregated at
// uniform weights — has ~47 nnz/row, and that is what the clustering and
// NetMF eigensolves multiply by. Informational: one thread, per ISA, no
// baseline entry, outside the --bench-smoke filter. Run with
//   bench_micro_substrates --benchmark_filter='ServedDensity'
// ---------------------------------------------------------------------------

/// The integrated Laplacian of an e2ebench-style fixture with n nodes.
const la::CsrMatrix& ServedLaplacian(int64_t n) {
  static std::map<int64_t, la::CsrMatrix> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    constexpr int kClusters = 4;
    Rng rng(47);
    const std::vector<int32_t> labels =
        data::BalancedLabels(n, kClusters, &rng);
    const double block = static_cast<double>(n) / kClusters;
    const double within = block - 1.0;
    const double across = static_cast<double>(n) - block;
    core::MultiViewGraph mvag(n, kClusters);
    mvag.AddGraphView(data::SbmGraph(labels, kClusters, 12.0 / within,
                                     4.0 / across, &rng));
    mvag.AddGraphView(data::SbmGraph(labels, kClusters, 10.0 / within,
                                     6.0 / across, &rng));
    mvag.AddAttributeView(
        data::GaussianAttributes(labels, kClusters, 16, 3.0, 0.9, &rng));
    auto views = core::ComputeViewLaplacians(mvag, graph::KnnOptions());
    SGLA_CHECK(views.ok()) << views.status().ToString();
    core::LaplacianAggregator aggregator(&*views);
    la::CsrMatrix laplacian;
    aggregator.BindPattern(&laplacian);
    aggregator.AggregateValuesInto(
        std::vector<double>(views->size(), 1.0 / static_cast<double>(
                                                     views->size())),
        &laplacian);
    it = cache.emplace(n, std::move(laplacian)).first;
  }
  return it->second;
}

void BM_CsrSpmvServedDensity(benchmark::State& state, la::simd::Isa isa) {
  const la::CsrMatrix& m = ServedLaplacian(state.range(0));
  PoolOverride pool(1);
  IsaOverride pin(isa);
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::Spmv(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  state.counters["nnz_per_row"] =
      static_cast<double>(m.nnz()) / static_cast<double>(m.rows);
}

void BM_SellSpmvServedDensity(benchmark::State& state, la::simd::Isa isa) {
  const la::CsrMatrix& m = ServedLaplacian(state.range(0));
  PoolOverride pool(1);
  IsaOverride pin(isa);
  la::SellMatrix sell;
  la::BuildSellPattern(m, &sell);
  la::Vector x(static_cast<size_t>(m.cols), 1.0);
  la::Vector y(static_cast<size_t>(m.rows));
  for (auto _ : state) {
    la::SellSpmv(sell, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  state.counters["nnz_per_row"] =
      static_cast<double>(m.nnz()) / static_cast<double>(m.rows);
}

// ---------------------------------------------------------------------------
// The Lanczos eigensolve, whole and its Rayleigh–Ritz step alone. Every SGLA
// objective evaluation is one eigensolve of k + 1 pairs on the SELL form of
// the integrated Laplacian; its inner loop is the SELL SpMV, the
// Gram–Schmidt sweep and the tridiagonal QL with its row rotations.
// Informational like the SpMV benches above: one thread, per ISA, no
// baseline entry, outside the --bench-smoke filter. Run with
//   bench_micro_substrates --benchmark_filter='Eigensolve|TridiagonalEigen'
// ---------------------------------------------------------------------------

/// One objective-shaped eigensolve: k + 1 = 5 pairs, default options, on
/// the served Laplacian's SELL form, with a reused workspace.
void BM_EigensolveServedDensity(benchmark::State& state, la::simd::Isa isa) {
  const la::CsrMatrix& m = ServedLaplacian(state.range(0));
  PoolOverride pool(1);
  IsaOverride pin(isa);
  la::SellMatrix sell;
  la::BuildSellPattern(m, &sell);
  const la::SpmvOperator op = la::SellSpmvOperator(sell, sell.values.data());
  la::LanczosWorkspace workspace;
  la::Eigenpairs pairs;
  la::LanczosStats stats;
  for (auto _ : state) {
    const Status solved = la::SmallestEigenpairsInto(
        op, 5, 2.0, la::LanczosOptions(), &workspace, &pairs, &stats);
    SGLA_CHECK(solved.ok()) << solved.ToString();
    benchmark::DoNotOptimize(pairs.values.data());
    benchmark::ClobberMemory();
  }
  state.counters["lanczos_vectors"] = stats.iterations;
}

/// Rayleigh–Ritz on one 48 x 48 tridiagonal, the default subspace size.
void BM_TridiagonalEigen(benchmark::State& state, la::simd::Isa isa) {
  IsaOverride pin(isa);
  const int m = static_cast<int>(state.range(0));
  Rng rng(48);
  la::Vector diag(static_cast<size_t>(m)), offdiag(static_cast<size_t>(m));
  for (double& d : diag) d = 1.0 + 0.5 * rng.Gaussian();
  for (double& e : offdiag) e = 0.05 + 0.5 * rng.Uniform();
  la::TridiagonalWorkspace workspace;
  la::Vector values;
  la::DenseMatrix vectors;
  for (auto _ : state) {
    const Status solved = la::TridiagonalEigenInto(
        diag.data(), offdiag.data(), m, &workspace, &values, &vectors);
    SGLA_CHECK(solved.ok()) << solved.ToString();
    benchmark::DoNotOptimize(vectors.data().data());
    benchmark::ClobberMemory();
  }
}

void BM_SglaCobyla(benchmark::State& state) {
  const Fixture& f = Fixture::Get(2000);
  core::SglaOptions options;
  options.optimizer = core::WeightOptimizer::kCobyla;
  for (auto _ : state) {
    auto result = core::Sgla(f.views, 4, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SglaCobyla);

void BM_SglaNelderMead(benchmark::State& state) {
  const Fixture& f = Fixture::Get(2000);
  core::SglaOptions options;
  options.optimizer = core::WeightOptimizer::kNelderMead;
  for (auto _ : state) {
    auto result = core::Sgla(f.views, 4, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SglaNelderMead);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the per-ISA sweeps register one
// instance per ISA the host can actually run — a host property the static
// BENCHMARK() registry cannot express.
int main(int argc, char** argv) {
  for (sgla::la::simd::Isa isa : sgla::la::simd::AvailableIsas()) {
    const std::string suffix = sgla::la::simd::IsaName(isa);
    benchmark::RegisterBenchmark(("BM_SpmvIsa/" + suffix).c_str(),
                                 BM_SpmvIsa, isa);
    benchmark::RegisterBenchmark(("BM_SellSpmvIsa/" + suffix).c_str(),
                                 BM_SellSpmvIsa, isa);
    benchmark::RegisterBenchmark(("BM_AggregateIsa/" + suffix).c_str(),
                                 BM_AggregateIsa, isa);
    benchmark::RegisterBenchmark(("BM_KMeansIsa/" + suffix).c_str(),
                                 BM_KMeansIsa, isa);
    benchmark::RegisterBenchmark(("BM_DotIsa/" + suffix).c_str(), BM_DotIsa,
                                 isa)
        ->Arg(512)
        ->Arg(2000)
        ->Arg(8000);
    benchmark::RegisterBenchmark(("BM_AxpyIsa/" + suffix).c_str(),
                                 BM_AxpyIsa, isa)
        ->Arg(512)
        ->Arg(2000)
        ->Arg(8000);
    benchmark::RegisterBenchmark(
        ("BM_CsrSpmvServedDensity/" + suffix).c_str(),
        BM_CsrSpmvServedDensity, isa)
        ->Arg(2000)
        ->Arg(8000);
    benchmark::RegisterBenchmark(
        ("BM_SellSpmvServedDensity/" + suffix).c_str(),
        BM_SellSpmvServedDensity, isa)
        ->Arg(2000)
        ->Arg(8000);
    benchmark::RegisterBenchmark(
        ("BM_EigensolveServedDensity/" + suffix).c_str(),
        BM_EigensolveServedDensity, isa)
        ->Arg(500)
        ->Arg(2000)
        ->Arg(8000);
    benchmark::RegisterBenchmark(("BM_TridiagonalEigen/" + suffix).c_str(),
                                 BM_TridiagonalEigen, isa)
        ->Arg(48);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
