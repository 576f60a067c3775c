#ifndef SGLA_SERVE_ENGINE_H_
#define SGLA_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "embed/netmf.h"
#include "persist/store.h"
#include "serve/graph_registry.h"
#include "util/status.h"
#include "util/task_queue.h"

namespace sgla {
namespace serve {

/// What to produce from the integrated Laplacian.
enum class SolveMode {
  kCluster,  ///< NJW spectral clustering labels
  kEmbed,    ///< NetMF embedding of the integrated Laplacian
};

/// Which weight search to run.
enum class Algorithm {
  kSgla,      ///< full derivative-free search (one eigensolve per step)
  kSglaPlus,  ///< surrogate sampling (constant number of eigensolves)
};

/// Serving tier of a solve (see DESIGN.md "Tiered serving").
enum class Quality {
  /// Full-resolution solve on the registered views — today's exact path,
  /// bit-identical at any thread count.
  kExact,
  /// The whole pipeline (weight search + clustering/embedding) runs on the
  /// graph's coarse companion and the result prolongates back to fine rows:
  /// labels copy through the prolongation map, embeddings row-gather.
  /// Roughly an order of magnitude cheaper at the default coarsen_ratio;
  /// approximate by construction (response.integration.laplacian is
  /// coarse-sized). Entries without a companion, or whose companion has
  /// fewer than k + 1 rows, quietly serve exact.
  kFast,
  /// Accepted and served exactly like kExact (tier_served reports kExact):
  /// the name is kept on the wire for a future exact-sized tier.
  kRefined,
};

struct SolveRequest {
  std::string graph_id;
  SolveMode mode = SolveMode::kCluster;
  Algorithm algorithm = Algorithm::kSgla;
  /// Cluster count k of the spectral objective (and of the kCluster
  /// backend); 0 = the graph's registered default. The kEmbed output
  /// dimensionality is `netmf.dim`, not k.
  int k = 0;
  /// Accepted and ignored: every solve runs cold, so its answer depends
  /// only on the graph snapshot it ran on.
  bool warm_start = false;
  /// Serving tier. Tier participates in the coalescing key, so a fast solve
  /// in flight never answers an exact request.
  Quality quality = Quality::kExact;
  /// Run the robust (corrupted-view-resistant) objective: the weight search
  /// adds the cross-view agreement penalty
  /// (core::ObjectiveOptions::robust), down-weighting views whose spectra
  /// disagree with the median view. ORed with the graph's registration-time
  /// RegisterOptions::robust_views; the effective flag joins the coalescing
  /// key, so robust and plain solves never coalesce.
  bool robust = false;
  /// `options.base` configures kSgla; the full struct configures kSglaPlus.
  core::SglaPlusOptions options;
  cluster::KMeansOptions kmeans;  ///< kCluster backend
  embed::NetMfOptions netmf;      ///< kEmbed backend
};

/// Per-response solve instrumentation.
struct SolveStats {
  int64_t graph_epoch = 0;    ///< entry epoch the solve ran against
  /// Always false: no solve is seeded from an earlier one (the field stays
  /// for callers that read it).
  bool warm_started = false;
  int64_t lanczos_iterations = 0;  ///< basis vectors built across the solve
  /// The tier that actually served the request: kFast only for a fast
  /// request on a graph whose coarse companion has at least k + 1 rows;
  /// kExact for everything else, refined requests included.
  Quality tier_served = Quality::kExact;
  /// Basis vectors of the clustering embedding eigensolve (0 for kEmbed).
  int64_t embedding_lanczos_iterations = 0;
  /// View-lifecycle visibility: how many views the solve actually served
  /// over (the active subset) out of the entry's resident total — equal
  /// unless some view is masked.
  int32_t active_views = 0;
  int32_t total_views = 0;
};

struct SolveResponse {
  std::string graph_id;
  core::IntegrationResult integration;
  std::vector<int32_t> labels;   ///< kCluster
  la::DenseMatrix embedding;     ///< kEmbed
  SolveStats stats;
};

struct EngineOptions {
  /// Concurrent solve sessions. Each session worker owns one reusable
  /// workspace (one value array and one Lanczos basis per tier: ~7.9 MB
  /// warm at n = 8000, ~2.0 MB at n = 2000); kernel-level parallelism inside
  /// a solve still comes from the shared deterministic ThreadPool. 4
  /// sessions instead of 2 nearly doubled serve-skewed throughput but
  /// slowed ingest-stream exact solves by ~40% (ROADMAP.md).
  int num_sessions = 2;
  /// Admission bound: maximum accepted-but-unfinished solves across
  /// Submit/TrySubmit. 0 (default) keeps today's unbounded behavior; > 0
  /// makes both submission paths reject with RESOURCE_EXHAUSTED once the
  /// bound is reached — typed backpressure instead of an ever-growing
  /// TaskQueue backlog. Coalesced joins ride an already-admitted solve and
  /// are never rejected by this bound.
  int64_t max_pending = 0;
  /// Durability root (see DESIGN.md "Durability & recovery"). Empty
  /// (default) keeps the engine purely in-memory. Non-empty: construction
  /// recovers the registry from the directory's checkpoints + WAL
  /// (recovery_status() reports how that went), and every RegisterGraph /
  /// UpdateGraph / EvictGraph is durable on stable storage before it
  /// returns — a kill -9 at any instant restarts into a state whose solves
  /// are bit-identical to the acknowledged pre-crash state.
  std::string data_dir;
  /// Auto-checkpoint a graph after this many WAL records for it since its
  /// last checkpoint; 0 disables auto-checkpointing (Checkpoint() only).
  int64_t checkpoint_interval = 64;
  /// fsync WAL commits and checkpoint files (default). False is for tests
  /// and tooling that want the format without the disk stalls.
  bool persist_fsync = true;
};

/// Per-call submission knobs for the callback form.
struct SubmitOptions {
  /// Share one physical solve among identical in-flight requests: requests
  /// whose (graph_id, mode, algorithm, effective k, quality, robust) all
  /// match an in-flight coalescable solve get that solve's response instead of
  /// queueing their own. Correct only when callers also send identical
  /// solver options — the RPC front-end guarantees this by construction (the
  /// wire exposes exactly the key fields; options stay at their defaults).
  bool coalesce = false;
};

/// Stateful serving engine over a GraphRegistry: callers submit
/// SolveRequests and get futures; a fixed set of session workers drains the
/// queue. Per-request results are bit-identical to the one-shot
/// core::Sgla/SglaPlus + cluster/embed pipeline on the same views, at any
/// thread count and any request interleaving — solves share only immutable
/// registry state and the (deterministic) kernel pool, and every mutable
/// buffer lives in a per-session workspace that is fully re-initialized per
/// solve. Steady-state objective evaluations inside a warm session allocate
/// zero heap memory (see DESIGN.md "Engine layer").
class Engine {
 public:
  explicit Engine(GraphRegistry* registry, const EngineOptions& options = {});
  /// Drains all pending requests (every future completes) before returning.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a graph on the underlying registry (`options.shards` is
  /// accepted and ignored).
  Result<std::shared_ptr<const GraphEntry>> RegisterGraph(
      const std::string& id, const core::MultiViewGraph& mvag,
      const RegisterOptions& options = {});

  /// Applies a delta through the registry's copy-on-write epoch scheme (see
  /// GraphRegistry::UpdateGraph): in-flight solves finish on their snapshot,
  /// requests submitted afterwards see the new epoch.
  Result<std::shared_ptr<const GraphEntry>> UpdateGraph(
      const std::string& id, const GraphDelta& delta);

  /// Evicts the graph; solves already admitted finish on their snapshot.
  bool EvictGraph(const std::string& id);

  /// Forces a durable checkpoint of one graph now (persistent engines only:
  /// FailedPrecondition without EngineOptions::data_dir). Compacts the
  /// graph's WAL suffix into a fresh checkpoint — and truncates the WAL once
  /// every graph is covered — so the next recovery replays less. Returns the
  /// epoch the checkpoint captured.
  Result<int64_t> Checkpoint(const std::string& id);

  /// OK when persistence is off or recovery succeeded. When construction
  /// found a data_dir it could not recover (corrupt checkpoint, impossible
  /// WAL sequence, I/O failure), the typed error lands here and every
  /// mutating call (RegisterGraph/UpdateGraph/EvictGraph/Checkpoint) returns
  /// it — the engine refuses to build divergent state on top of a directory
  /// it could not read, and never silently serves wrong state.
  const Status& recovery_status() const { return recovery_status_; }
  /// What recovery restored/replayed; zeros when persistence is off.
  const persist::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// Enqueues a solve; the future resolves when a session worker finishes
  /// it. Same admission path and max_pending bound as TrySubmit, minus
  /// coalescing. The graph snapshot is taken here, at submit time: a graph
  /// evicted (or replaced under the same id) afterwards still serves this
  /// request from the submitted snapshot — an unknown id fails the future
  /// with NotFound immediately, without occupying a session, and a full
  /// engine (EngineOptions::max_pending) fails it with ResourceExhausted the
  /// same way. The future ALWAYS completes: a solve that returns a non-OK
  /// Status resolves with that Status, and a solve that throws resolves by
  /// re-throwing from future.get() (promise->set_exception) — callers never
  /// hang on a failed request, and the session worker survives to serve the
  /// next one.
  std::future<Result<SolveResponse>> Submit(SolveRequest request);

  /// Completion callback of the callback submission form. Invoked exactly
  /// once, on a session worker thread, after the solve finishes — a solve
  /// that throws surfaces as StatusCode::kInternal here (callbacks have no
  /// exception channel). Must not block for long: it runs on the worker
  /// that would otherwise start the next solve.
  using SolveCallback = std::function<void(const Result<SolveResponse>&)>;

  /// Bounded, coalescing, callback submission — the RPC front-end's entry
  /// point. Returns OK iff the request was admitted (the callback will fire
  /// exactly once); otherwise returns the rejection — NotFound for an
  /// unknown id, ResourceExhausted when `max_pending` accepted solves are
  /// already in flight — and the callback never fires. With
  /// `options.coalesce`, a request identical to an in-flight coalescable
  /// solve (same graph_id/mode/algorithm/effective k/quality/robust) joins
  /// that solve: its callback receives the shared response, no new
  /// work is queued, and coalesced() ticks instead of completed(). Quality
  /// is part of the key, so a fast solve in flight never answers an exact
  /// request (or vice versa).
  Status TrySubmit(SolveRequest request, SolveCallback done,
                   const SubmitOptions& options = {});

  /// Synchronous solve through the same queue (submit + wait).
  Result<SolveResponse> Solve(SolveRequest request);

  /// Blocks until every submitted request has completed.
  void Drain();

  int num_sessions() const { return queue_.num_workers(); }
  /// Requests that finished a physical solve — successful, failed-Status,
  /// and thrown alike (a finished request is a finished request; callers
  /// that care about success inspect their own result). Coalesced joins do
  /// not count here: they never ran a solve of their own.
  int64_t completed() const;
  /// Accepted-but-unfinished physical solves (the admission counter).
  int64_t pending() const;
  /// Requests served by joining another request's in-flight solve.
  int64_t coalesced() const;

  /// Test-only fault/latency injection: when set, runs at the top of every
  /// physical solve task on the session worker, before the solve. Tests
  /// block in it (to observe queue depth and coalescing deterministically)
  /// or throw from it (to exercise the exception path). Set it before
  /// serving traffic; it is read unsynchronized on the workers.
  void SetSolveHookForTest(std::function<void(const SolveRequest&)> hook) {
    solve_hook_ = std::move(hook);
  }

 private:
  /// One serving tier's scratch. The clustering eigensolve borrows
  /// `eval.lanczos` and `eval.eigen` for its call, so a tier keeps one
  /// Lanczos basis and one eigenpair buffer; `cluster.lanczos` and
  /// `cluster.eigen` stay empty between solves.
  struct TierWorkspace {
    core::EvalWorkspace eval;
    cluster::SpectralWorkspace cluster;
  };

  /// Per-session reusable state; index = session worker id. Per session,
  /// not per graph: the pattern and its SELL layout stay in each graph's
  /// aggregator, so hopping to another graph only resizes buffers. The
  /// fast tier runs in `coarse`, sized by the coarse companion
  /// (~coarsen_ratio * n). On the e2ebench fixture a warm exact tier holds
  /// ~7.9 MB at n = 8000 and ~2.0 MB at n = 2000 (DESIGN.md "Engine
  /// layer").
  struct SessionWorkspace {
    TierWorkspace exact;
    TierWorkspace coarse;
    std::vector<int32_t> coarse_labels;  ///< pre-prolongation labels
  };

  Result<SolveResponse> Run(const SolveRequest& request,
                            const GraphEntry& entry, SessionWorkspace* ws);

  /// Run with every escape hatch closed: the test hook and the solve run
  /// under a catch-all; a thrown exception comes back through `thrown`, and
  /// the result is then kInternal carrying its what() text. Never throws.
  Result<SolveResponse> RunGuarded(const SolveRequest& request,
                                   const GraphEntry& entry,
                                   SessionWorkspace* ws,
                                   std::exception_ptr* thrown);

  /// How an admitted request learns its outcome: called exactly once, on a
  /// session worker, with RunGuarded's result and exception (null unless
  /// the solve threw). A flight calls its joiners first and its leader
  /// last, so only the leader may move from `result`.
  using Completion =
      std::function<void(Result<SolveResponse>& result,
                         std::exception_ptr thrown)>;

  /// The one admission path behind Submit and TrySubmit: snapshots the
  /// entry, joins an identical in-flight solve when `coalesce` allows,
  /// otherwise checks max_pending and queues the solve task, which does the
  /// completion accounting and then runs the completions. Returns the
  /// rejection (NotFound, ResourceExhausted) without calling `done`.
  Status Admit(SolveRequest request, bool coalesce, Completion done);

  /// The coalescing key: the request fields a wire solve carries that can
  /// change its answer. Quality is the *requested* tier and robust the
  /// effective flag (request ORed with the graph's default).
  struct FlightKey {
    std::string graph_id;
    int mode = 0;
    int algorithm = 0;
    int k = 0;
    int quality = 0;
    int robust = 0;

    bool operator<(const FlightKey& other) const {
      return std::tie(graph_id, mode, algorithm, k, quality, robust) <
             std::tie(other.graph_id, other.mode, other.algorithm, other.k,
                      other.quality, other.robust);
    }
  };

  /// One physical in-flight solve that coalesced joiners attach to.
  struct Flight {
    std::vector<Completion> joiners;  ///< under inflight_mutex_
  };

  GraphRegistry* registry_;
  /// Durable front over registry_ (EngineOptions::data_dir); null when
  /// persistence is off OR recovery failed (then recovery_status_ explains
  /// and mutations refuse).
  std::unique_ptr<persist::Store> store_;
  Status recovery_status_;
  persist::RecoveryStats recovery_stats_;
  int64_t max_pending_ = 0;
  std::vector<SessionWorkspace> workspaces_;
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> coalesced_{0};
  std::function<void(const SolveRequest&)> solve_hook_;
  /// Coalescable in-flight solves by key; admission (pending_ vs
  /// max_pending_) is decided under this mutex too, so a join-or-admit
  /// decision is atomic with respect to flight completion.
  std::mutex inflight_mutex_;
  std::map<FlightKey, std::shared_ptr<Flight>> inflight_;
  util::TaskQueue queue_;  ///< declared last: destroyed (drained) first
};

}  // namespace serve
}  // namespace sgla

#endif  // SGLA_SERVE_ENGINE_H_
