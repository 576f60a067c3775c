// Determinism bit-dump: runs the objective / Sgla / SglaPlus / clustering
// pipeline on a fixed synthetic MVAG and prints an FNV-1a hash (plus a few
// raw hex-encoded doubles) of every result array. The CI determinism job
// runs this binary at SGLA_THREADS={1,4} per compiler and fails on ANY
// output difference — the thread count must never change bits.
// Cross-compiler dumps are archived as artifacts for inspection (different
// FP codegen may legitimately differ across compilers).
//
// Hashes are compared only within one ISA path: reduction kernels associate
// differently per ISA, so the job pins SGLA_ISA (or passes --isa) and diffs
// dumps that share it. `--print-best-isa` lets the script discover the best
// ISA the host can actually run.
//
// Usage: sgla_bitdump [--isa <name>] [--quality exact|fast]
//                     [--print-best-isa]
//        (thread count comes from SGLA_THREADS)
//
// --quality fast covers the coarse serving tier: the dump adds the coarse
// plan fingerprint (matching + contracted views) and the engine solves run
// at Quality::kFast, so the determinism matrix also proves coarsening and
// the coarse-solve path are bit-stable across threads within each ISA.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "la/simd.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace sgla {
namespace {

using util::HashCsr;
using util::HashVector;

uint64_t DoubleBits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

int Run(serve::Quality quality) {
  // Fixed fixture: spans several 512-row kernel chunks and is ragged
  // (n % 512 != 0) so the partial final chunk is exercised, small enough to
  // finish in CI seconds.
  const int64_t n = 2570;
  const int k = 3;
  Rng rng(20250715);
  std::vector<int32_t> labels = data::BalancedLabels(n, k, &rng);
  core::MultiViewGraph mvag(n, k);
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.03, 0.003, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, k, 0.015, 0.006, &rng));
  mvag.set_labels(std::move(labels));

  serve::GraphRegistry registry;
  auto entry = registry.Register("bitdump", mvag);
  if (!entry.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 entry.status().ToString().c_str());
    return 1;
  }
  // Config goes to stderr: stdout must be byte-identical across SGLA_THREADS
  // within one ISA, so the CI job can plain `diff` it.
  std::fprintf(stderr, "fixture n=%" PRId64 " k=%d views=%zu isa=%s\n", n, k,
               (*entry)->views.size(), la::simd::ActiveIsaName());
  for (size_t v = 0; v < (*entry)->views.size(); ++v) {
    std::printf("view[%zu] hash=%016" PRIx64 "\n", v,
                HashCsr((*entry)->views[v]));
  }

  // In fast mode the coarse companion is part of the contract: its matching
  // and every contracted view must be bit-identical across the matrix too.
  if (quality != serve::Quality::kExact) {
    const serve::CoarseGraphEntry* coarse = (*entry)->coarse.get();
    if (coarse == nullptr) {
      std::fprintf(stderr, "fast dump requested but no coarse companion\n");
      return 1;
    }
    std::printf("coarse rows=%" PRId64 " map=%016" PRIx64 "\n",
                coarse->plan.coarse_rows,
                HashVector(coarse->plan.fine_to_coarse));
    for (size_t v = 0; v < coarse->views.size(); ++v) {
      std::printf("coarse view[%zu] hash=%016" PRIx64 "\n", v,
                  HashCsr(coarse->views[v]));
    }
  }

  // Objective evaluations at fixed weights, through the registered entry's
  // serving aggregator.
  {
    core::EvalWorkspace eval_ws;
    core::SpectralObjective objective((*entry)->aggregator.get(), k,
                                      core::ObjectiveOptions(), &eval_ws);
    const std::vector<std::vector<double>> probes = {
        {0.5, 0.5}, {0.8, 0.2}, {0.35, 0.65}};
    for (const std::vector<double>& w : probes) {
      auto value = objective.Evaluate(w);
      if (!value.ok()) {
        std::fprintf(stderr, "objective failed\n");
        return 1;
      }
      std::printf("objective w0=%.2f h=%016" PRIx64 " gap=%016" PRIx64
                  " l2=%016" PRIx64 "\n",
                  w[0], DoubleBits(value->h), DoubleBits(value->eigengap),
                  DoubleBits(value->lambda2));
    }
  }

  // Full Sgla / SglaPlus cluster solves through the engine.
  serve::Engine engine(&registry);
  for (serve::Algorithm algorithm :
       {serve::Algorithm::kSgla, serve::Algorithm::kSglaPlus}) {
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.algorithm = algorithm;
    request.quality = quality;
    request.options.base.max_evaluations = 24;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (response->stats.tier_served != quality) {
      std::fprintf(stderr, "tier fell back to exact\n");
      return 1;
    }
    const char* name =
        algorithm == serve::Algorithm::kSgla ? "sgla" : "sgla+";
    std::printf("%s weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                name, HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
    for (size_t i = 0; i < response->integration.weights.size(); ++i) {
      std::printf("%s w[%zu]=%016" PRIx64 "\n", name, i,
                  DoubleBits(response->integration.weights[i]));
    }
  }

  // View-lifecycle fingerprints: the active-set signature of the full entry,
  // then a MaskView epoch and a solve on the compacted serving subset. The
  // lifecycle rebuild path must be exactly as bit-stable across thread
  // counts as registration is — the signature lines also pin
  // the FNV-1a uid fold itself.
  {
    std::printf("signature full=%016" PRIx64 " uids=%016" PRIx64 "\n",
                (*entry)->views_signature, HashVector((*entry)->view_uids));
    serve::GraphDelta mask;
    mask.mask_views = {1};
    auto masked = registry.UpdateGraph("bitdump", mask);
    if (!masked.ok()) {
      std::fprintf(stderr, "mask delta failed: %s\n",
                   masked.status().ToString().c_str());
      return 1;
    }
    std::printf("signature masked=%016" PRIx64 " active=%d/%zu\n",
                (*masked)->views_signature, (*masked)->num_active_views(),
                (*masked)->views.size());
    serve::SolveRequest request;
    request.graph_id = "bitdump";
    request.quality = quality;
    request.options.base.max_evaluations = 24;
    auto response = engine.Solve(request);
    if (!response.ok()) {
      std::fprintf(stderr, "masked solve failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("masked weights=%016" PRIx64 " history=%016" PRIx64
                " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
                HashVector(response->integration.weights),
                HashVector(response->integration.objective_history),
                HashCsr(response->integration.laplacian),
                HashVector(response->labels));
  }
  return 0;
}

}  // namespace
}  // namespace sgla

int main(int argc, char** argv) {
  sgla::serve::Quality quality = sgla::serve::Quality::kExact;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-best-isa") == 0) {
      std::printf("%s\n",
                  sgla::la::simd::IsaName(
                      sgla::la::simd::AvailableIsas().back()));
      return 0;
    }
    if (std::strcmp(argv[i], "--isa") == 0 && i + 1 < argc) {
      // Equivalent to exporting SGLA_ISA before launch: the dispatcher reads
      // the variable lazily on the first kernel call, which is after this.
      setenv("SGLA_ISA", argv[++i], /*overwrite=*/1);
      continue;
    }
    if (std::strcmp(argv[i], "--quality") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "exact") {
        quality = sgla::serve::Quality::kExact;
      } else if (name == "fast") {
        quality = sgla::serve::Quality::kFast;
      } else {
        std::fprintf(stderr, "unknown --quality %s\n", name.c_str());
        return 2;
      }
      continue;
    }
    std::fprintf(stderr,
                 "usage: sgla_bitdump [--isa <name>] [--quality exact|fast] "
                 "[--print-best-isa]\n");
    return 2;
  }
  return sgla::Run(quality);
}
