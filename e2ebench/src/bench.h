// Shared pieces of the end-to-end benchmark: run arguments, the seeded MVAG
// fixture, latency sample sets, the in-memory span tracer and the result
// record each workload fills in. See e2ebench/README.md for the workloads
// and the metric definitions.
#ifndef SGLA_E2EBENCH_BENCH_H_
#define SGLA_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/mvag.h"
#include "serve/graph_delta.h"

namespace e2e {

namespace core = sgla::core;
namespace serve = sgla::serve;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0);
double MsBetween(Clock::time_point t0, Clock::time_point t1);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny graphs and one set-up: proves every metric is produced, measures
  /// nothing worth keeping.
  bool smoke = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
};

/// Graph sizes of one run; smoke mode shrinks all of them.
struct Sizes {
  int64_t mixed_nodes = 2000;
  int64_t ingest_nodes = 2000;
  int64_t large_nodes = 8000;
  int64_t small_nodes = 500;
  int setups = 3;  ///< set-ups per run; setup_s is their median
};
Sizes SizesFor(const Args& args);

constexpr int kClusters = 4;

/// One generated multi-view attributed graph plus the ground truth that
/// stays on the benchmark side.
struct Fixture {
  std::string id;
  core::MultiViewGraph mvag;  // labels stripped: only the views travel
  std::vector<int32_t> truth;
};

/// SBM MVAG with k = 4: two graph views of average degree ~16 (the second
/// with weaker in/out contrast) and one 16-dimensional Gaussian attribute
/// view. Deterministic in (seed, stream).
std::shared_ptr<Fixture> MakeFixture(const std::string& id, int64_t n,
                                     uint64_t seed, uint64_t stream);

/// What a client's `sequence`-th request is, as an index in [0, choices):
/// each client walks a fresh seeded permutation of all choices per cycle,
/// so every cycle holds the mix exactly, while two clients whose requests
/// once coalesced do not stay in lockstep (which arithmetic schedules do,
/// making throughput bimodal).
int Pick(uint64_t seed, int client, int64_t sequence, int choices);

/// The fixed ingest delta cycle, in order.
enum class DeltaKind { kValue, kPatternSmall, kPatternLarge, kAttrRow, kMask,
                       kUnmask };
constexpr int kDeltaKinds = 6;
const char* DeltaKindName(DeltaKind kind);

/// Builds the next delta of `kind` against the current source graph `mvag`
/// (which the caller keeps in step by applying every delta it sends).
/// Value-only upserts hit 16 existing edges; the small pattern delta
/// touches < 1% of rows, the large one > 5%; the attribute update replaces
/// one row; mask/unmask flip the second graph view.
sgla::serve::GraphDelta MakeDelta(DeltaKind kind,
                                  const sgla::core::MultiViewGraph& mvag,
                                  const std::vector<int32_t>& truth,
                                  uint64_t seed);

/// Thread-safe latency sample set (milliseconds unless stated otherwise).
class Samples {
 public:
  void Add(double v);
  size_t size() const;
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Sum() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

/// Requests of one phase of a workload: sent, succeeded, failed (errors,
/// rejections and replies that fail an output check).
struct PhaseCount {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

/// One named metric with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `metrics` are the gated numbers printed in the
/// result line; `detail` are the per-workload numbers printed in the report
/// line before it.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::map<std::string, PhaseCount> phases;
  std::vector<std::string> check_failures;
  std::map<std::string, std::string> labels;  ///< e.g. isa of la.* spans
  std::mutex fail_mutex;  ///< Fail() is called from client threads

  void Set(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& what);
  int64_t attempted() const;
  int64_t failed() const;
};

/// In-memory span recorder for the traced run: spans are appended under a
/// mutex and written as JSON lines when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::string label;
  };

  Tracer();
  int64_t Begin(const std::string& name, int64_t parent,
                const std::string& label);
  void End(int64_t id);
  bool Write(const std::string& path) const;

  /// The span new ScopedSpans hang under (0: none).
  int64_t root() const { return root_; }
  void set_root(int64_t id) { root_ = id; }

 private:
  Clock::time_point origin_;
  int64_t root_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a module, child of the tracer's root.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& label = "")
      : tracer_(tracer), id_(tracer->Begin(name, tracer->root(), label)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Resident set now and at peak, MiB.
double CurrentRssMb();
double PeakRssMb();

double Nmi(const std::vector<int32_t>& labels,
           const std::vector<int32_t>& truth);

/// Output-check thresholds, fixed from runs of the seed commit.
constexpr double kExactNmiFloor = 0.80;
constexpr double kFastNmiGap = 0.10;

// Workload entry points; each fills `result` and returns false on a setup
// error that leaves no meaningful numbers.
bool RunServeMixed(const Args& args, RunResult* result, Tracer* tracer);
bool RunIngestStream(const Args& args, RunResult* result, Tracer* tracer);
bool RunServeSkewed(const Args& args, RunResult* result, Tracer* tracer);

/// The traced run's module replay: calls each layer's public functions on
/// the workload's largest graph and fills the per-layer metrics.
bool ReplayModules(const Args& args, const Fixture& fixture, int shards,
                   RunResult* result, Tracer* tracer);

}  // namespace e2e

#endif  // SGLA_E2EBENCH_BENCH_H_
