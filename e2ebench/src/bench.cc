#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "util/rng.h"

namespace e2e {

double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Sizes SizesFor(const Args& args) {
  Sizes sizes;
  if (args.smoke) {
    sizes.mixed_nodes = 300;
    sizes.ingest_nodes = 300;
    sizes.large_nodes = 600;
    sizes.small_nodes = 160;
    sizes.setups = 1;
  }
  return sizes;
}

std::shared_ptr<Fixture> MakeFixture(const std::string& id, int64_t n,
                                     uint64_t seed, uint64_t stream) {
  sgla::Rng rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                1);
  auto fixture = std::make_shared<Fixture>();
  fixture->id = id;
  fixture->truth = sgla::data::BalancedLabels(n, kClusters, &rng);
  const double block = static_cast<double>(n) / kClusters;
  // Expected degree = p_in * (block - 1) + p_out * (n - block) ~ 16.
  auto p = [&](double degree, bool within) {
    return degree / (within ? block - 1.0 : static_cast<double>(n) - block);
  };
  fixture->mvag = core::MultiViewGraph(n, kClusters);
  fixture->mvag.AddGraphView(sgla::data::SbmGraph(
      fixture->truth, kClusters, p(12.0, true), p(4.0, false), &rng));
  // Weaker, but still above the detectability threshold: a second view
  // lost in the bulk spectrum makes the weight search's length vary from
  // instance to instance, and with it every solve time.
  fixture->mvag.AddGraphView(sgla::data::SbmGraph(
      fixture->truth, kClusters, p(10.0, true), p(6.0, false), &rng));
  fixture->mvag.AddAttributeView(sgla::data::GaussianAttributes(
      fixture->truth, kClusters, 16, 3.0, 0.9, &rng));
  return fixture;
}

int Pick(uint64_t seed, int client, int64_t sequence, int choices) {
  const int64_t cycle = sequence / choices;
  sgla::Rng rng(seed * 0x9E3779B97F4A7C15ull +
                static_cast<uint64_t>(client) * 0xBF58476D1CE4E5B9ull +
                static_cast<uint64_t>(cycle) * 0x94D049BB133111EBull);
  std::vector<int> order(static_cast<size_t>(choices));
  for (int i = 0; i < choices; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = choices - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  return order[static_cast<size_t>(sequence % choices)];
}

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kValue: return "value";
    case DeltaKind::kPatternSmall: return "pattern_small";
    case DeltaKind::kPatternLarge: return "pattern_large";
    case DeltaKind::kAttrRow: return "attr_row";
    case DeltaKind::kMask: return "mask";
    case DeltaKind::kUnmask: return "unmask";
  }
  return "unknown";
}

namespace {

// A random pair of distinct nodes in the same block (insertions keep the
// cluster structure, so output checks stay meaningful across a lineage).
std::pair<int64_t, int64_t> SameBlockPair(const std::vector<int32_t>& truth,
                                          sgla::Rng* rng) {
  const int64_t n = static_cast<int64_t>(truth.size());
  while (true) {
    const int64_t u = rng->UniformInt(0, n - 1);
    const int64_t v = rng->UniformInt(0, n - 1);
    if (u != v && truth[static_cast<size_t>(u)] ==
                      truth[static_cast<size_t>(v)]) {
      return {u, v};
    }
  }
}

}  // namespace

serve::GraphDelta MakeDelta(DeltaKind kind, const core::MultiViewGraph& mvag,
                            const std::vector<int32_t>& truth, uint64_t seed) {
  sgla::Rng rng(seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(kind) + 7);
  const int64_t n = mvag.num_nodes();
  serve::GraphDelta delta;
  switch (kind) {
    case DeltaKind::kValue: {
      // 16 weight changes on existing edges of view 0: same sparsity, so
      // the registry takes the value-only path.
      const auto& edges = mvag.graph_views()[0].edges();
      serve::GraphViewDelta view;
      view.view = 0;
      for (int i = 0; i < 16; ++i) {
        const auto& e = edges[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
        view.upserts.push_back({e.u, e.v, 0.5 + rng.Uniform()});
      }
      delta.graph_views.push_back(std::move(view));
      break;
    }
    case DeltaKind::kPatternSmall: {
      // 4 inserted edges on view 1: at most 8 rows (< 1% at n = 2000)
      // change structure, below the full re-coarsening threshold.
      serve::GraphViewDelta view;
      view.view = 1;
      for (int i = 0; i < 4; ++i) {
        const auto pair = SameBlockPair(truth, &rng);
        view.upserts.push_back({pair.first, pair.second, 1.0});
      }
      delta.graph_views.push_back(std::move(view));
      break;
    }
    case DeltaKind::kPatternLarge: {
      // n/25 insertions and n/100 removals on view 0: ~10% of rows change
      // structure, above the 5% threshold, so the companion re-coarsens.
      const auto& edges = mvag.graph_views()[0].edges();
      serve::GraphViewDelta view;
      view.view = 0;
      for (int64_t i = 0; i < std::max<int64_t>(4, n / 25); ++i) {
        const auto pair = SameBlockPair(truth, &rng);
        view.upserts.push_back({pair.first, pair.second, 1.0});
      }
      for (int64_t i = 0; i < std::max<int64_t>(1, n / 100); ++i) {
        const auto& e = edges[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
        view.removals.push_back({e.u, e.v});
      }
      delta.graph_views.push_back(std::move(view));
      break;
    }
    case DeltaKind::kAttrRow: {
      // One attribute row replaced by a perturbed copy of a same-cluster
      // row: the attribute view's KNN graph is rebuilt.
      const auto& x = mvag.attribute_views()[0];
      const auto pair = SameBlockPair(truth, &rng);
      sgla::serve::AttributeRowUpdate row;
      row.view = 0;
      row.row = pair.first;
      row.values.resize(static_cast<size_t>(x.cols()));
      for (int64_t j = 0; j < x.cols(); ++j) {
        row.values[static_cast<size_t>(j)] =
            x(pair.second, j) + 0.1 * (rng.Uniform() - 0.5);
      }
      delta.attribute_rows.push_back(std::move(row));
      break;
    }
    case DeltaKind::kMask:
      delta.mask_views = {1};
      break;
    case DeltaKind::kUnmask:
      delta.unmask_views = {1};
      break;
  }
  return delta;
}

void Samples::Add(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.push_back(v);
}

size_t Samples::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_.size();
}

double Samples::Percentile(double p) const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = values_;
  }
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::Detail(const std::string& name, double value,
                       const std::string& unit) {
  detail.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(fail_mutex);
  if (check_failures.size() < 20) check_failures.push_back(what);
}

int64_t RunResult::attempted() const {
  int64_t total = 0;
  for (const auto& phase : phases) total += phase.second.sent;
  return total;
}

int64_t RunResult::failed() const {
  int64_t total = 0;
  for (const auto& phase : phases) total += phase.second.failed;
  return total;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      const std::string& label) {
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.start_ms = now;
  span.end_ms = -1.0;
  span.label = label;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id - 1)].end_ms = now;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  char line[512];
  for (const auto& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                  "\"start_ms\":%.6f,\"end_ms\":%.6f,\"label\":\"%s\"}\n",
                  span.name.c_str(), static_cast<long long>(span.id),
                  static_cast<long long>(span.parent), span.start_ms,
                  span.end_ms, span.label.c_str());
    out << line;
  }
  return static_cast<bool>(out);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Nmi(const std::vector<int32_t>& labels,
           const std::vector<int32_t>& truth) {
  if (labels.size() != truth.size()) return 0.0;
  return sgla::eval::EvaluateClustering(labels, truth).nmi;
}

}  // namespace e2e
