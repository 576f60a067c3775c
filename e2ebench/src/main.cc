// sgla_e2ebench: the repository's end-to-end benchmark.
//
//   sgla_e2ebench --workload serve-mixed|ingest-stream|serve-skewed
//                 --seed N --seconds S --trace 0|1 [--smoke] [--commit SHA]
//                 [--out-dir DIR]
//
// Prints one report line (run record, per-phase request counts, every
// per-workload metric) and, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of the traced run. Refuses to run from a Debug or
// sanitizer build, whose numbers are not comparable.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <thread>

#include "bench.h"
#include "la/simd.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Gated on every workload (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"solves_per_s", "1/s"},
    {"solve_exact_p50_ms", "ms"},
    {"register_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Reported by the traced run on every workload (BENCHMARK.json
// "per_layer").
constexpr MetricSpec kPerLayer[] = {
    {"rpc.overhead_ms", "ms"},
    {"rpc.roundtrip_us", "us"},
    {"rpc.codec_register_us", "us"},
    {"rpc.codec_update_us", "us"},
    {"rpc.codec_solve_reply_us", "us"},
    {"rpc.register_bytes", "B"},
    {"rpc.update_bytes", "B"},
    {"rpc.solve_reply_bytes", "B"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.warm_hit_ratio", "ratio"},
    {"serve.register_ms", "ms"},
    {"serve.update_value_ms", "ms"},
    {"serve.update_pattern_small_ms", "ms"},
    {"serve.update_pattern_large_ms", "ms"},
    {"serve.update_attr_row_ms", "ms"},
    {"serve.update_mask_ms", "ms"},
    {"serve.update_unmask_ms", "ms"},
    {"serve.rss_per_graph_mb", "MiB"},
    {"serve.warm_lanczos_vectors", "count"},
    {"serve.cold_lanczos_vectors", "count"},
    {"serve.warm_cold_time_ratio", "ratio"},
    {"core.view_laplacians_ms", "ms"},
    {"core.aggregator_build_ms", "ms"},
    {"core.integrate_sgla_ms", "ms"},
    {"core.integrate_sgla_plus_ms", "ms"},
    {"core.objective_evals", "count"},
    {"core.aggregate_us", "us"},
    {"core.aggregate_flops", "flop"},
    {"core.aggregate_bytes", "B"},
    {"la.eigensolve_ms", "ms"},
    {"la.lanczos_vectors", "count"},
    {"la.spmv_us", "us"},
    {"la.spmv_flops", "flop"},
    {"la.spmv_bytes", "B"},
    {"opt.self_ms", "ms"},
    {"cluster.spectral_ms", "ms"},
    {"cluster.kmeans_ms", "ms"},
    {"cluster.embedding_lanczos_vectors", "count"},
    {"cluster.kmeans_flops", "flop"},
    {"cluster.kmeans_bytes", "B"},
    {"embed.netmf_ms", "ms"},
    {"coarse.plan_ms", "ms"},
    {"coarse.contract_ms", "ms"},
    {"coarse.repair_ms", "ms"},
    {"coarse.rows_ratio", "ratio"},
    {"graph.knn_ms", "ms"},
    {"persist.wal_append_ms", "ms"},
    {"persist.wal_batch_records", "ratio"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.load_checkpoint_ms", "ms"},
    {"persist.replay_records", "count"},
    {"trace.solve_exact_p50_ms", "ms"},
    {"trace.hook_overhead_us", "us"},
};

const char* SanitizerTag() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

const char* BuildType() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricJson(const Metric& m) {
  return "\"" + Escape(m.name) + "\": {\"value\": " + Number(m.value) +
         ", \"unit\": \"" + Escape(m.unit) + "\"}";
}

/// Aggregate CPU jiffies from /proc/stat: {total, steal}. Steal is time the
/// hypervisor ran someone else on our vCPUs; a run with a high share is
/// noisy no matter what the benchmark does.
std::pair<double, double> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  double field = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {total, steal};
}

const Metric* Find(const std::vector<Metric>& list, const std::string& name) {
  for (const auto& m : list) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Usage() {
  std::fprintf(stderr,
               "usage: sgla_e2ebench --workload serve-mixed|ingest-stream|"
               "serve-skewed --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                     [--commit SHA] [--out-dir DIR]\n");
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--commit" && has_value) {
      args.commit = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    Usage();
    return 2;
  }
  if (std::string(SanitizerTag()) != "none" ||
      std::string(BuildType()) != "Release") {
    std::fprintf(stderr,
                 "e2ebench: refusing to record numbers from a %s build "
                 "(sanitizer: %s)\n",
                 BuildType(), SanitizerTag());
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  RunResult result;
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  bool ok = false;
  const auto cpu_before = CpuJiffies();
  if (args.workload == "serve-mixed") {
    ok = RunServeMixed(args, &result, traced);
  } else if (args.workload == "ingest-stream") {
    ok = RunIngestStream(args, &result, traced);
  } else if (args.workload == "serve-skewed") {
    ok = RunServeSkewed(args, &result, traced);
  } else {
    Usage();
    return 2;
  }
  if (!ok) {
    for (const auto& failure : result.check_failures) {
      std::fprintf(stderr, "e2ebench: %s\n", failure.c_str());
    }
    std::fprintf(stderr, "e2ebench: workload %s could not run\n",
                 args.workload.c_str());
    return 1;
  }
  const auto cpu_after = CpuJiffies();
  const double cpu_total = cpu_after.first - cpu_before.first;
  result.Detail("cpu_steal_pct",
                cpu_total > 0.0
                    ? 100.0 * (cpu_after.second - cpu_before.second) /
                          cpu_total
                    : 0.0,
                "%");
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
    }
  }

  // Report line: run record, phases, every number the run produced.
  const char* threads_env = std::getenv("SGLA_THREADS");
  std::string report = "{\"workload\": \"" + args.workload +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + Number(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"smoke\": " + (args.smoke ? "true" : "false") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"pool_threads\": " +
                       std::to_string(sgla::util::ThreadPool::DefaultThreads()) +
                       ", \"sgla_threads\": \"" +
                       Escape(threads_env ? threads_env : "") +
                       "\", \"isa\": \"" + sgla::la::simd::ActiveIsaName() +
                       "\", \"build_type\": \"" + BuildType() +
                       "\", \"sanitizer\": \"" + SanitizerTag() +
                       "\", \"commit\": \"" + Escape(args.commit) +
                       "\", \"phases\": {";
  bool first = true;
  for (const auto& phase : result.phases) {
    report += std::string(first ? "" : ", ") + "\"" + phase.first +
              "\": {\"sent\": " + std::to_string(phase.second.sent) +
              ", \"succeeded\": " + std::to_string(phase.second.ok) +
              ", \"failed\": " + std::to_string(phase.second.failed) + "}";
    first = false;
  }
  report += "}, \"labels\": {";
  first = true;
  for (const auto& label : result.labels) {
    report += std::string(first ? "" : ", ") + "\"" + label.first + "\": \"" +
              Escape(label.second) + "\"";
    first = false;
  }
  report += "}, \"metrics\": {";
  first = true;
  for (const auto* list : {&result.metrics, &result.detail}) {
    for (const auto& m : *list) {
      report += std::string(first ? "" : ", ") + MetricJson(m);
      first = false;
    }
  }
  report += "}, \"check_failures\": [";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    report += std::string(i ? ", " : "") + "\"" +
              Escape(result.check_failures[i]) + "\"";
  }
  report += "]}";
  std::printf("e2ebench report %s\n", report.c_str());

  // Result line.
  bool correct = result.failed() == 0 && result.check_failures.empty() &&
                 result.attempted() > 0;
  std::string metrics;
  auto emit = [&](const MetricSpec& spec, const std::vector<Metric>& from) {
    const Metric* m = Find(from, spec.name);
    if (m == nullptr || m->unit != spec.unit) {
      std::fprintf(stderr, "e2ebench: metric %s missing\n", spec.name);
      correct = false;
      return;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + MetricJson(*m);
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer) emit(spec, result.detail);
  } else {
    for (const auto& spec : kEndToEnd) {
      emit(spec, result.metrics);
      const Metric* m = Find(result.metrics, spec.name);
      if (m != nullptr && !(m->value > 0.0)) {
        std::fprintf(stderr, "e2ebench: metric %s is not positive\n",
                     spec.name);
        correct = false;
      }
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted()),
      static_cast<long long>(result.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
