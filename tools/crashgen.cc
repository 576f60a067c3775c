// Crash-recovery harness behind the CI crash-recovery-gate (see
// .github/workflows/ci.yml and DESIGN.md "Durability & recovery").
//
// The parent first runs one UNINTERRUPTED pipeline — register a fixed SBM
// fixture, stream a deterministic delta sequence, solve at the exact and
// the fast tier — in a purely in-memory child (no --data-dir) and keeps its
// fingerprint (registry state, coarse companion, solves) as the
// reference. Each trial then runs the same pipeline in a persistent child
// (fresh data dir) and SIGKILLs it at a seeded-random instant — anywhere
// from mid-registration through mid-WAL-append to mid-solve — one or more
// times, restarting after every kill. The final restart recovers from the
// checkpoints + WAL, finishes the remaining deltas, solves, and writes its
// fingerprint; the gate fails unless it is byte-identical to the reference.
// That is the durability contract end to end: a kill -9 at ANY point loses
// nothing acknowledged and recovers to bit-identical solves.
//
// The kill schedule derives from one logged seed (SGLA_CRASH_SEED or --seed
// overrides), so a red run reproduces exactly. Children are separate
// processes via fork+execv of /proc/self/exe: a plain fork would duplicate
// the global kernel ThreadPool mid-flight, exec starts each child clean.
//
// Usage: sgla_crashgen --dir <workdir> [--trials T] [--deltas N] [--seed X]
//        (thread count comes from SGLA_THREADS, like sgla_bitdump)
#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mvag.h"
#include "data/generator.h"
#include "graph/graph.h"
#include "la/sparse.h"
#include "serve/engine.h"
#include "serve/graph_delta.h"
#include "serve/graph_registry.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace sgla {
namespace {

constexpr const char* kGraphId = "crash";
constexpr int64_t kNodes = 900;
constexpr int kClusters = 3;
constexpr uint64_t kFixtureSeed = 20250807;
// Per-epoch delta seeds: delta e is a pure function of (kDeltaSeed, e), so a
// recovered child regenerates epochs checkpoint+1 .. N exactly as the killed
// one produced them.
constexpr uint64_t kDeltaSeed = 715;
constexpr int64_t kAddViewEpoch = 6;

using util::HashCsr;
using util::HashVector;

/// The fixture both runs build identically: two SBM graph views plus one
/// label-shifted Gaussian attribute view, so recovery also covers the
/// deterministic KNN rebuild of attribute-view Laplacians.
core::MultiViewGraph BuildFixture() {
  Rng rng(kFixtureSeed);
  std::vector<int32_t> labels = data::BalancedLabels(kNodes, kClusters, &rng);
  core::MultiViewGraph mvag(kNodes, kClusters);
  mvag.AddGraphView(data::SbmGraph(labels, kClusters, 0.05, 0.005, &rng));
  mvag.AddGraphView(data::SbmGraph(labels, kClusters, 0.02, 0.008, &rng));
  la::DenseMatrix attributes(kNodes, 4);
  for (int64_t i = 0; i < kNodes; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      attributes(i, j) = rng.Gaussian() + 2.0 * labels[i];
    }
  }
  mvag.AddAttributeView(std::move(attributes));
  mvag.set_labels(std::move(labels));
  return mvag;
}

/// Delta that produces epoch `e` — a pure function of e, covering edge
/// upserts (value and pattern changes), an attribute row rewrite (KNN
/// recompute), a mask/unmask pair, and one AddView, so the WAL the gate
/// replays exercises every record shape including the PR 9 lifecycle ops.
serve::GraphDelta DeltaForEpoch(int64_t e) {
  Rng rng(kDeltaSeed + static_cast<uint64_t>(e));
  serve::GraphDelta delta;
  if (e % 7 == 3) {
    delta.mask_views = {1};
    return delta;
  }
  if (e % 7 == 4) {
    delta.unmask_views = {1};
    return delta;
  }
  if (e == kAddViewEpoch) {
    graph::Graph extra(kNodes);
    for (int64_t m = 0; m < 3 * kNodes; ++m) {
      const int64_t u = rng.UniformInt(0, kNodes - 1);
      const int64_t v = rng.UniformInt(0, kNodes - 1);
      if (u != v) extra.AddEdge(u, v, 1.0);
    }
    serve::ViewAddition addition;
    addition.attribute = false;
    addition.graph = std::move(extra);
    delta.add_views.push_back(std::move(addition));
    return delta;
  }
  if (e % 7 == 5) {
    serve::AttributeRowUpdate row;
    row.view = 0;
    row.row = (e * 131) % kNodes;
    row.values.resize(4);
    for (double& value : row.values) value = rng.Gaussian();
    delta.attribute_rows.push_back(std::move(row));
    return delta;
  }
  serve::GraphViewDelta edits;
  edits.view = static_cast<int>(e % 2);
  for (int i = 0; i < 3; ++i) {
    serve::EdgeUpsert upsert;
    upsert.u = rng.UniformInt(0, kNodes - 1);
    upsert.v = rng.UniformInt(0, kNodes - 1);
    if (upsert.u == upsert.v) upsert.v = (upsert.v + 1) % kNodes;
    upsert.weight = 0.5 + rng.Uniform();
    edits.upserts.push_back(upsert);
  }
  delta.graph_views.push_back(std::move(edits));
  return delta;
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fflush(f);
  fsync(fileno(f));
  std::fclose(f);
  if (!wrote || rename(tmp.c_str(), path.c_str()) != 0) {
    unlink(tmp.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Child mode: run (or resume) the pipeline, solve, write the fingerprint.
// ---------------------------------------------------------------------------

int RunChild(const std::string& data_dir, const std::string& fingerprint_path,
             int64_t deltas) {
  serve::GraphRegistry registry;
  serve::EngineOptions engine_options;
  engine_options.data_dir = data_dir;
  // Small interval so trials cross checkpoint + WAL-rotation boundaries, not
  // just plain appends — the compaction path must be as crash-safe as the
  // append path.
  engine_options.checkpoint_interval = 5;
  serve::Engine engine(&registry, engine_options);
  if (!engine.recovery_status().ok()) {
    std::fprintf(stderr, "child: recovery failed: %s\n",
                 engine.recovery_status().ToString().c_str());
    return 3;
  }

  int64_t epoch = 0;
  auto existing = registry.Find(kGraphId);
  if (existing != nullptr) {
    epoch = existing->epoch;
    const persist::RecoveryStats& stats = engine.recovery_stats();
    std::fprintf(stderr,
                 "child: recovered epoch=%" PRId64 " (replayed=%zu dup=%zu"
                 " truncated=%d)\n",
                 epoch, stats.deltas_replayed, stats.duplicates_skipped,
                 stats.wal_tail_truncated ? 1 : 0);
  } else {
    auto registered = engine.RegisterGraph(kGraphId, BuildFixture());
    if (!registered.ok()) {
      std::fprintf(stderr, "child: register failed: %s\n",
                   registered.status().ToString().c_str());
      return 3;
    }
  }

  for (int64_t e = epoch + 1; e <= deltas; ++e) {
    auto updated = engine.UpdateGraph(kGraphId, DeltaForEpoch(e));
    if (!updated.ok()) {
      std::fprintf(stderr, "child: delta %" PRId64 " failed: %s\n", e,
                   updated.status().ToString().c_str());
      return 3;
    }
    if ((*updated)->epoch != e) {
      std::fprintf(stderr, "child: delta %" PRId64 " published epoch %" PRId64
                   "\n", e, (*updated)->epoch);
      return 3;
    }
  }

  auto entry = registry.Find(kGraphId);
  if (entry == nullptr) {
    std::fprintf(stderr, "child: graph vanished\n");
    return 3;
  }
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "epoch=%" PRId64 " signature=%016" PRIx64 " uids=%016" PRIx64
                "\n",
                entry->epoch, entry->views_signature,
                HashVector(entry->view_uids));
  out << line;
  for (size_t v = 0; v < entry->views.size(); ++v) {
    std::snprintf(line, sizeof(line), "view[%zu]=%016" PRIx64 " active=%d\n",
                  v, HashCsr(entry->views[v]), entry->active[v] ? 1 : 0);
    out << line;
  }
  // The fast tier's companion is part of the contract: recovery rebuilds
  // it from the checkpoint, so it must equal the one the in-memory run
  // carried through every epoch.
  if (entry->coarse == nullptr) {
    out << "coarse none\n";
  } else {
    const serve::CoarseGraphEntry& coarse = *entry->coarse;
    std::snprintf(line, sizeof(line),
                  "coarse rows=%" PRId64 " map=%016" PRIx64 "\n",
                  coarse.plan.coarse_rows,
                  HashVector(coarse.plan.fine_to_coarse));
    out << line;
    for (size_t v = 0; v < coarse.views.size(); ++v) {
      std::snprintf(line, sizeof(line), "coarse view[%zu]=%016" PRIx64 "\n",
                    v, HashCsr(coarse.views[v]));
      out << line;
    }
  }
  for (serve::Algorithm algorithm :
       {serve::Algorithm::kSgla, serve::Algorithm::kSglaPlus}) {
    for (serve::Quality quality :
         {serve::Quality::kExact, serve::Quality::kFast}) {
      serve::SolveRequest request;
      request.graph_id = kGraphId;
      request.algorithm = algorithm;
      request.quality = quality;
      request.options.base.max_evaluations = 16;
      auto response = engine.Solve(request);
      if (!response.ok()) {
        std::fprintf(stderr, "child: solve failed: %s\n",
                     response.status().ToString().c_str());
        return 3;
      }
      std::snprintf(
          line, sizeof(line),
          "%s %s served=%s weights=%016" PRIx64 " history=%016" PRIx64
          " laplacian=%016" PRIx64 " labels=%016" PRIx64 "\n",
          algorithm == serve::Algorithm::kSgla ? "sgla" : "sgla+",
          quality == serve::Quality::kExact ? "exact" : "fast",
          response->stats.tier_served == serve::Quality::kFast ? "fast"
                                                               : "exact",
          HashVector(response->integration.weights),
          HashVector(response->integration.objective_history),
          HashCsr(response->integration.laplacian),
          HashVector(response->labels));
      out << line;
    }
  }
  if (!WriteFileAtomic(fingerprint_path, out.str())) {
    std::fprintf(stderr, "child: cannot write %s\n",
                 fingerprint_path.c_str());
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Parent mode: reference run, then kill/restart trials.
// ---------------------------------------------------------------------------

int64_t NowMicros() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

pid_t Spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

std::vector<std::string> ChildArgs(const std::string& data_dir,
                                   const std::string& fingerprint,
                                   int64_t deltas) {
  std::vector<std::string> args = {"sgla_crashgen", "--child", "--deltas",
                                   std::to_string(deltas), "--fingerprint",
                                   fingerprint};
  if (!data_dir.empty()) {
    args.push_back("--data-dir");
    args.push_back(data_dir);
  }
  return args;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int RunParent(const std::string& workdir, int trials, int64_t deltas,
              uint64_t seed) {
  // mkdir -p: check.sh points --dir at a nested per-matrix-cell path.
  for (size_t i = 1; i <= workdir.size(); ++i) {
    if (i != workdir.size() && workdir[i] != '/') continue;
    const std::string prefix = workdir.substr(0, i);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot create %s: %s\n", prefix.c_str(),
                   strerror(errno));
      return 2;
    }
  }
  std::fprintf(stderr,
               "crashgen seed=%" PRIu64 " trials=%d deltas=%" PRId64
               " (reproduce with SGLA_CRASH_SEED=%" PRIu64 ")\n",
               seed, trials, deltas, seed);

  // Reference: the same pipeline, no persistence, never killed.
  const std::string reference_path = workdir + "/reference.fp";
  const int64_t reference_start = NowMicros();
  {
    const pid_t pid =
        Spawn(ChildArgs("", reference_path, deltas));
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "reference run failed (status %d)\n", status);
      return 1;
    }
  }
  const int64_t reference_us = NowMicros() - reference_start;
  std::string reference;
  if (!ReadFile(reference_path, &reference) || reference.empty()) {
    std::fprintf(stderr, "reference fingerprint missing\n");
    return 1;
  }
  std::fprintf(stderr, "reference run: %" PRId64 " ms\n",
               reference_us / 1000);

  Rng rng(seed);
  int failures = 0;
  for (int t = 0; t < trials; ++t) {
    const std::string trial_dir = workdir + "/trial" + std::to_string(t);
    const std::string fingerprint = workdir + "/trial" +
                                    std::to_string(t) + ".fp";
    const std::vector<std::string> args =
        ChildArgs(trial_dir, fingerprint, deltas);
    // 1-2 kills per trial, each at a uniform instant over the reference
    // duration: early hits registration / checkpoint-0, the bulk hits WAL
    // appends and auto-checkpoints, late hits the solve (all state durable).
    const int64_t kills = 1 + rng.UniformInt(0, 1);
    for (int64_t k = 0; k < kills; ++k) {
      const int64_t delay_us = rng.UniformInt(0, reference_us);
      const pid_t pid = Spawn(args);
      usleep(static_cast<useconds_t>(delay_us));
      kill(pid, SIGKILL);
      int status = 0;
      waitpid(pid, &status, 0);
      std::fprintf(stderr, "trial %d kill %" PRId64 ": after %" PRId64
                   " us (%s)\n",
                   t, k, delay_us,
                   WIFSIGNALED(status) ? "killed" : "already done");
    }
    const pid_t pid = Spawn(args);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "trial %d: FINAL RUN FAILED (status %d)\n", t,
                   status);
      ++failures;
      continue;
    }
    std::string recovered;
    if (!ReadFile(fingerprint, &recovered)) {
      std::fprintf(stderr, "trial %d: fingerprint missing\n", t);
      ++failures;
      continue;
    }
    if (recovered != reference) {
      std::fprintf(stderr,
                   "trial %d: FINGERPRINT MISMATCH\n--- reference\n%s"
                   "--- recovered\n%s",
                   t, reference.c_str(), recovered.c_str());
      ++failures;
      continue;
    }
    std::fprintf(stderr, "trial %d: recovered bit-identical\n", t);
  }
  if (failures > 0) {
    std::fprintf(stderr, "crashgen: %d/%d trial(s) FAILED\n", failures,
                 trials);
    return 1;
  }
  std::fprintf(stderr, "crashgen: all %d trial(s) bit-identical\n", trials);
  return 0;
}

}  // namespace
}  // namespace sgla

int main(int argc, char** argv) {
  bool child = false;
  std::string workdir;
  std::string data_dir;
  std::string fingerprint;
  int trials = 4;
  // 20 epochs end on edits applied after the last lifecycle op (the unmask
  // at 18) and checkpointed at 20, so a recovery that rebuilds the coarse
  // companion from that checkpoint is held against one the reference
  // carried through edit epochs.
  int64_t deltas = 20;
  uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--child") {
      child = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      workdir = argv[++i];
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--fingerprint" && i + 1 < argc) {
      fingerprint = argv[++i];
    } else if (arg == "--trials" && i + 1 < argc) {
      trials = std::atoi(argv[++i]);
    } else if (arg == "--deltas" && i + 1 < argc) {
      deltas = std::atoll(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: sgla_crashgen --dir <workdir> [--trials T] "
                   "[--deltas N] [--seed X]\n");
      return 2;
    }
  }
  if (child) {
    if (fingerprint.empty() || deltas < 1) {
      std::fprintf(stderr, "child needs --fingerprint and --deltas\n");
      return 2;
    }
    return sgla::RunChild(data_dir, fingerprint, deltas);
  }
  if (workdir.empty() || trials < 1 || deltas < 1) {
    std::fprintf(stderr,
                 "usage: sgla_crashgen --dir <workdir> [--trials T] "
                 "[--deltas N] [--seed X]\n");
    return 2;
  }
  if (seed == 0) {
    const char* env = std::getenv("SGLA_CRASH_SEED");
    seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 20250807ull;
  }
  return sgla::RunParent(workdir, trials, deltas, seed);
}
