// Fast-tier quality/speedup gate: builds an SBM fixture sized by
// SGLA_BENCH_SCALE, solves it through the engine at quality=exact and
// quality=fast, and fails unless the fast tier clears the committed bounds:
//
//   * NMI gap:  exact_nmi - fast_nmi <= --max-gap   (default 0.05)
//   * speedup:  exact_ms / fast_ms  >= --min-speedup (default 5)
//
// CI runs this as the nmi-gap-gate step (SGLA_BENCH_SCALE=0.1); the JSON
// report is archived as an artifact.
//
// Usage: sgla_nmi_gap [--max-gap F] [--min-speedup F] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/rng.h"

namespace sgla {
namespace {

double BenchScale() {
  const char* env = std::getenv("SGLA_BENCH_SCALE");
  if (env == nullptr || *env == '\0') return 0.1;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 0.1;
}

struct TimedSolve {
  serve::SolveResponse response;
  double ms = 0.0;
};

/// Synchronous solve, best-of-2 wall clock (the second rep runs on a warm
/// workspace; min damps scheduler noise without a full benchmark harness).
bool TimedRun(serve::Engine* engine, const serve::SolveRequest& request,
              TimedSolve* out) {
  out->ms = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto response = engine->Solve(request);
    const auto t1 = std::chrono::steady_clock::now();
    if (!response.ok()) {
      std::fprintf(stderr, "nmi_gap: solve failed: %s\n",
                   response.status().ToString().c_str());
      return false;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < out->ms) out->ms = ms;
    out->response = std::move(*response);
  }
  return true;
}

int Main(double max_gap, double min_speedup, const std::string& out_path) {
  const double scale = BenchScale();
  const int64_t n =
      std::max<int64_t>(400, static_cast<int64_t>(20000 * scale));
  const int k = 3;

  Rng rng(4107);
  std::vector<int32_t> truth = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(truth, k, 0.10, 0.01, &rng));
  mvag.AddAttributeView(data::GaussianAttributes(truth, k, 8, 3.0, 0.9, &rng));

  serve::GraphRegistry registry;
  serve::EngineOptions engine_options;
  engine_options.num_sessions = 1;
  serve::Engine engine(&registry, engine_options);
  auto entry = engine.RegisterGraph("gate", mvag);
  if (!entry.ok()) {
    std::fprintf(stderr, "nmi_gap: register failed: %s\n",
                 entry.status().ToString().c_str());
    return 1;
  }
  if ((*entry)->coarse == nullptr) {
    std::fprintf(stderr, "nmi_gap: no coarse companion at n=%lld\n",
                 static_cast<long long>(n));
    return 1;
  }
  std::fprintf(stderr, "nmi_gap: n=%lld coarse_rows=%lld\n",
               static_cast<long long>(n),
               static_cast<long long>((*entry)->coarse->plan.coarse_rows));

  serve::SolveRequest request;
  request.graph_id = "gate";
  request.algorithm = serve::Algorithm::kSgla;
  request.options.base.max_evaluations = 24;

  TimedSolve exact;
  TimedSolve fast;
  request.quality = serve::Quality::kExact;
  if (!TimedRun(&engine, request, &exact)) return 1;
  request.quality = serve::Quality::kFast;
  if (!TimedRun(&engine, request, &fast)) return 1;
  if (fast.response.stats.tier_served != serve::Quality::kFast) {
    std::fprintf(stderr, "nmi_gap: fast request fell back to exact\n");
    return 1;
  }

  const double exact_nmi =
      eval::EvaluateClustering(exact.response.labels, truth).nmi;
  const double fast_nmi =
      eval::EvaluateClustering(fast.response.labels, truth).nmi;
  const double gap = exact_nmi - fast_nmi;
  const double speedup = fast.ms > 0.0 ? exact.ms / fast.ms : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "nmi_gap: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"kind\": \"sgla_nmi_gap\",\n"
      << "  \"nodes\": " << n << ",\n"
      << "  \"coarse_rows\": " << (*entry)->coarse->plan.coarse_rows << ",\n"
      << "  \"exact_nmi\": " << exact_nmi << ",\n"
      << "  \"fast_nmi\": " << fast_nmi << ",\n"
      << "  \"nmi_gap\": " << gap << ",\n"
      << "  \"max_gap\": " << max_gap << ",\n"
      << "  \"exact_ms\": " << exact.ms << ",\n"
      << "  \"fast_ms\": " << fast.ms << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"min_speedup\": " << min_speedup << ",\n"
      << "  \"exact_lanczos_iterations\": "
      << exact.response.stats.lanczos_iterations << "\n"
      << "}\n";
  out.close();

  std::printf(
      "nmi_gap: exact nmi %.4f (%.1f ms)  fast nmi %.4f (%.1f ms)  "
      "gap %.4f  speedup %.1fx\n",
      exact_nmi, exact.ms, fast_nmi, fast.ms, gap, speedup);

  bool ok = true;
  if (gap > max_gap) {
    std::fprintf(stderr, "nmi_gap: FAIL gap %.4f > %.4f\n", gap, max_gap);
    ok = false;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr, "nmi_gap: FAIL speedup %.2fx < %.2fx\n", speedup,
                 min_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sgla

int main(int argc, char** argv) {
  double max_gap = 0.05;
  double min_speedup = 5.0;
  std::string out_path = "BENCH_nmi_gap.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-gap" && i + 1 < argc) {
      max_gap = std::atof(argv[++i]);
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: sgla_nmi_gap [--max-gap F] [--min-speedup F] "
                   "[--out PATH]\n");
      return 2;
    }
  }
  return sgla::Main(max_gap, min_speedup, out_path);
}
