#include "serve/engine.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "util/logging.h"

namespace sgla {
namespace serve {

Engine::Engine(GraphRegistry* registry, const EngineOptions& options)
    : registry_(registry),
      max_pending_(options.max_pending),
      workspaces_(static_cast<size_t>(std::max(1, options.num_sessions))),
      queue_(std::max(1, options.num_sessions)) {
  if (!options.data_dir.empty()) {
    persist::StoreOptions store_options;
    store_options.dir = options.data_dir;
    store_options.fsync = options.persist_fsync;
    store_options.checkpoint_interval = options.checkpoint_interval;
    auto store = persist::Store::Open(store_options, registry_);
    if (store.ok()) {
      store_ = std::move(*store);
      recovery_stats_ = store_->recovery();
    } else {
      // Recovery failed: keep the typed error; every mutation returns it
      // (building fresh state over a directory we could not read would
      // diverge from it silently).
      recovery_status_ = store.status();
    }
  }
}

// queue_ is declared last, so it is destroyed — draining every pending task,
// resolving every outstanding future — before the workspaces its workers use.
Engine::~Engine() = default;

Result<std::shared_ptr<const GraphEntry>> Engine::RegisterGraph(
    const std::string& id, const core::MultiViewGraph& mvag,
    const RegisterOptions& options) {
  if (!recovery_status_.ok()) return recovery_status_;
  if (store_ != nullptr) return store_->Register(id, mvag, options);
  return registry_->Register(id, mvag, options);
}

Result<std::shared_ptr<const GraphEntry>> Engine::UpdateGraph(
    const std::string& id, const GraphDelta& delta) {
  if (!recovery_status_.ok()) return recovery_status_;
  if (store_ != nullptr) return store_->Update(id, delta);
  return registry_->UpdateGraph(id, delta);
}

bool Engine::EvictGraph(const std::string& id) {
  if (!recovery_status_.ok()) return false;
  if (store_ != nullptr) return store_->Evict(id);
  return registry_->Evict(id);
}

Result<int64_t> Engine::Checkpoint(const std::string& id) {
  if (!recovery_status_.ok()) return recovery_status_;
  if (store_ == nullptr) {
    return FailedPrecondition(
        "engine has no data_dir: nothing to checkpoint to");
  }
  return store_->Checkpoint(id);
}

Status Engine::Admit(SolveRequest request, bool coalesce, Completion done) {
  // Snapshot at submit time: the shared_ptr rides along with the task, so a
  // concurrent Evict (or re-register under the same id) cannot invalidate —
  // or change the meaning of — work that was already accepted.
  std::shared_ptr<const GraphEntry> entry = registry_->Find(request.graph_id);
  if (entry == nullptr) {
    return NotFound("graph '" + request.graph_id + "' is not registered");
  }
  // The coalescing key needs the *effective* k (0 = the graph's default).
  // Quality is the *requested* tier: two fast requests coalesce even on a
  // graph that will fall back to exact, and a fast flight never answers an
  // exact request.
  const int k = request.k > 0 ? request.k : entry->num_clusters;
  const FlightKey key{request.graph_id, static_cast<int>(request.mode),
                      static_cast<int>(request.algorithm), k,
                      static_cast<int>(request.quality),
                      request.robust || entry->robust_views ? 1 : 0};

  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (coalesce) {
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // Join the in-flight solve: share its (bit-identical) response,
        // queue nothing, consume no admission slot.
        it->second->joiners.push_back(std::move(done));
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        return OkStatus();
      }
    }
    if (max_pending_ > 0 &&
        pending_.load(std::memory_order_relaxed) >= max_pending_) {
      return ResourceExhausted(
          "engine is saturated: " + std::to_string(max_pending_) +
          " solves already pending");
    }
    pending_.fetch_add(1, std::memory_order_relaxed);
    if (coalesce) {
      // Publish the flight before queueing so identical requests arriving
      // from now on join it instead of racing a duplicate solve.
      flight = std::make_shared<Flight>();
      inflight_[key] = flight;
    }
  }

  // shared_ptr wrappers keep the task copyable for std::function.
  auto shared_request = std::make_shared<SolveRequest>(std::move(request));
  auto shared_done = std::make_shared<Completion>(std::move(done));
  queue_.Submit(
      [this, shared_request, shared_done, entry, flight, key](int worker) {
        std::exception_ptr thrown;
        Result<SolveResponse> result = RunGuarded(
            *shared_request, *entry,
            &workspaces_[static_cast<size_t>(worker)], &thrown);
        std::vector<Completion> joiners;
        {
          // Retire the flight BEFORE resolving anyone: a caller that saw
          // its response and immediately re-submits must start (or join) a
          // fresh solve, never attach to this finished one. Count before
          // resolving too: a caller that saw its request complete must never
          // observe a completed() that excludes it. completed() counts
          // errored (non-OK Status and thrown) solves too — it means
          // "finished", not "succeeded".
          std::lock_guard<std::mutex> lock(inflight_mutex_);
          if (flight != nullptr) {
            joiners = std::move(flight->joiners);
            auto it = inflight_.find(key);
            if (it != inflight_.end() && it->second == flight) {
              inflight_.erase(it);
            }
          }
          ++completed_;
          pending_.fetch_sub(1, std::memory_order_relaxed);
        }
        for (Completion& joiner : joiners) joiner(result, thrown);
        (*shared_done)(result, thrown);  // last: it may consume `result`
      });
  return OkStatus();
}

std::future<Result<SolveResponse>> Engine::Submit(SolveRequest request) {
  auto promise = std::make_shared<std::promise<Result<SolveResponse>>>();
  std::future<Result<SolveResponse>> future = promise->get_future();
  const Status admitted = Admit(
      std::move(request), /*coalesce=*/false,
      [promise](Result<SolveResponse>& result, std::exception_ptr thrown) {
        // A solve that threw resolves the future by re-throwing from
        // future.get(): the caller sees the real exception instead of
        // hanging forever on a promise that was never fulfilled, and the
        // worker (which caught it) lives on to serve the next request.
        if (thrown != nullptr) {
          promise->set_exception(thrown);
        } else {
          promise->set_value(std::move(result));
        }
      });
  if (!admitted.ok()) promise->set_value(admitted);
  return future;
}

Status Engine::TrySubmit(SolveRequest request, SolveCallback done,
                         const SubmitOptions& options) {
  SGLA_CHECK(done != nullptr) << "TrySubmit without a completion callback";
  // Callbacks have no exception channel: a throw reaches them as the typed
  // INTERNAL result RunGuarded made of it (the RPC layer turns it into an
  // error frame).
  return Admit(std::move(request), options.coalesce,
               [done = std::move(done)](Result<SolveResponse>& result,
                                        std::exception_ptr) { done(result); });
}

Result<SolveResponse> Engine::Solve(SolveRequest request) {
  return Submit(std::move(request)).get();
}

void Engine::Drain() { queue_.Drain(); }

int64_t Engine::completed() const { return completed_.load(); }

int64_t Engine::pending() const {
  return pending_.load(std::memory_order_relaxed);
}

int64_t Engine::coalesced() const {
  return coalesced_.load(std::memory_order_relaxed);
}

Result<SolveResponse> Engine::RunGuarded(const SolveRequest& request,
                                         const GraphEntry& entry,
                                         SessionWorkspace* ws,
                                         std::exception_ptr* thrown) {
  *thrown = nullptr;
  try {
    if (solve_hook_) solve_hook_(request);
    return Run(request, entry, ws);
  } catch (const std::exception& e) {
    *thrown = std::current_exception();
    return Internal(std::string("solve threw: ") + e.what());
  } catch (...) {
    *thrown = std::current_exception();
    return Internal("solve threw a non-std exception");
  }
}

Result<SolveResponse> Engine::Run(const SolveRequest& request,
                                  const GraphEntry& entry,
                                  SessionWorkspace* ws) {
  const int k = request.k > 0 ? request.k : entry.num_clusters;

  // Tier resolution: fast needs a coarse companion with room for the k + 1
  // eigenpairs the objective reads; entries without one (coarsening
  // disabled, tiny graph, matching achieved no reduction, or k too large for
  // the coarse rows) quietly serve exact. Refined requests serve exact.
  const CoarseGraphEntry* coarse = entry.coarse.get();
  const bool fast = request.quality == Quality::kFast && coarse != nullptr &&
                    coarse->plan.coarse_rows >= int64_t{k} + 1;

  // Robust mode: the per-request flag ORs with the graph's registration
  // default.
  core::SglaPlusOptions options = request.options;
  options.base.objective.robust = request.robust || entry.robust_views;

  // The fast tier runs in the coarse-sized workspace so fast and exact
  // solves on one session don't resize each other's buffers.
  const core::LaplacianAggregator& aggregator =
      fast ? *coarse->aggregator : *entry.aggregator;
  TierWorkspace* tier = fast ? &ws->coarse : &ws->exact;
  Result<core::IntegrationResult> integration =
      request.algorithm == Algorithm::kSgla
          ? core::SglaOnAggregator(aggregator, k, options.base, &tier->eval)
          : core::SglaPlusOnAggregator(aggregator, k, options, &tier->eval);
  if (!integration.ok()) return integration.status();

  SolveResponse response;
  response.graph_id = request.graph_id;
  response.integration = std::move(*integration);
  response.stats.graph_epoch = entry.epoch;
  response.stats.lanczos_iterations = response.integration.lanczos_iterations;
  response.stats.tier_served = fast ? Quality::kFast : Quality::kExact;
  response.stats.active_views = entry.num_active_views();
  response.stats.total_views = static_cast<int32_t>(entry.views.size());

  if (request.mode == SolveMode::kCluster) {
    la::LanczosStats embed_stats;
    // Lend the tier's weight-search Lanczos and eigenpair buffers to the
    // embedding eigensolve and take them back: a solve leaves nothing in
    // them that the next one reads, so the loan changes no bits.
    std::swap(tier->eval.lanczos, tier->cluster.lanczos);
    std::swap(tier->eval.eigen, tier->cluster.eigen);
    Status clustered = cluster::SpectralClusteringInto(
        response.integration.laplacian, k, request.kmeans, &tier->cluster,
        fast ? &ws->coarse_labels : &response.labels, nullptr, nullptr,
        nullptr, &embed_stats);
    std::swap(tier->eval.eigen, tier->cluster.eigen);
    std::swap(tier->eval.lanczos, tier->cluster.lanczos);
    if (!clustered.ok()) return clustered;
    if (fast) {
      coarse::ProlongateLabels(coarse->plan, ws->coarse_labels,
                               &response.labels);
    }
    response.stats.embedding_lanczos_iterations = embed_stats.iterations;
  } else {
    auto embedding =
        embed::NetMf(response.integration.laplacian, request.netmf);
    if (!embedding.ok()) return embedding.status();
    if (fast) {
      la::ProlongateRows(*embedding, coarse->plan.fine_to_coarse,
                         &response.embedding);
    } else {
      response.embedding = std::move(*embedding);
    }
  }
  return response;
}

}  // namespace serve
}  // namespace sgla
