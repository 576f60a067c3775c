// The three closed-loop workloads. Each drives an in-process rpc::Server over
// serve::Engine on loopback: set-up (repeated, median reported), a timed
// load phase of --seconds, then the output checks. In a traced run the load
// phase runs for half the time with the engine's solve hook recording queue
// waits, and the module replay (replay.cc) fills the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <shared_mutex>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "rpc/client.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"

namespace e2e {
namespace {

namespace rpc = sgla::rpc;

constexpr int kEmbedDim = 64;  // serve::SolveRequest's default NetMF dim

/// Engine + server on an ephemeral loopback port. Members are destroyed in
/// reverse order: the server drains first, then the engine, then the
/// registry.
struct Stack {
  std::unique_ptr<serve::GraphRegistry> registry;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<rpc::Server> server;
};

struct Registration {
  std::shared_ptr<Fixture> fixture;
  int shards = 1;
};

/// Matches the engine's solve hook to the client send that caused each
/// physical solve: per request key, the oldest send not yet matched. A
/// coalesced join never reaches the hook; its entry is dropped when its
/// reply arrives.
class QueueWaitProbe {
 public:
  int64_t Sent(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t ticket = ++next_ticket_;
    outstanding_[key].push_back({ticket, Clock::now()});
    return ticket;
  }
  void Replied(const std::string& key, int64_t ticket) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& queue = outstanding_[key];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->first == ticket) {
        queue.erase(it);
        return;
      }
    }
  }
  void SolveStarted(const std::string& key) {
    const auto hook_start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& queue = outstanding_[key];
      if (!queue.empty()) {
        waits.Add(MsBetween(queue.front().second, hook_start));
        queue.pop_front();
      }
    }
    hook_us.Add(MsSince(hook_start) * 1000.0);
  }

  Samples waits;    ///< ms from client send to physical solve start
  Samples hook_us;  ///< cost of the hook itself, µs

 private:
  std::mutex mutex_;
  int64_t next_ticket_ = 0;
  std::map<std::string, std::deque<std::pair<int64_t, Clock::time_point>>>
      outstanding_;
};

std::string RequestKey(const std::string& graph_id, int mode, int algorithm,
                       int quality) {
  return graph_id + "|" + std::to_string(mode) + "|" +
         std::to_string(algorithm) + "|" + std::to_string(quality);
}

/// Starts engine + server and registers `graphs` through one client. The
/// set-up time runs from before engine construction to the last register
/// reply.
std::unique_ptr<Stack> Setup(const serve::EngineOptions& options,
                             const std::vector<Registration>& graphs,
                             Samples* register_ms, double* setup_s,
                             double* rss_growth_mb) {
  const auto t0 = Clock::now();
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<serve::GraphRegistry>();
  stack->engine =
      std::make_unique<serve::Engine>(stack->registry.get(), options);
  if (!stack->engine->recovery_status().ok()) {
    std::fprintf(stderr, "e2ebench: engine recovery failed: %s\n",
                 stack->engine->recovery_status().ToString().c_str());
    return nullptr;
  }
  stack->server = std::make_unique<rpc::Server>(stack->engine.get());
  if (!stack->server->Start().ok()) {
    std::fprintf(stderr, "e2ebench: server failed to start\n");
    return nullptr;
  }
  rpc::Client client;
  if (!client.Connect("127.0.0.1", stack->server->port()).ok()) {
    std::fprintf(stderr, "e2ebench: set-up connect failed\n");
    return nullptr;
  }
  const double rss_before = CurrentRssMb();
  for (const auto& graph : graphs) {
    rpc::RegisterRequest request;
    request.id = graph.fixture->id;
    request.mvag = graph.fixture->mvag;
    request.shards = graph.shards;
    const auto r0 = Clock::now();
    auto reply = client.Register(request);
    register_ms->Add(MsSince(r0));
    if (!reply.ok()) {
      std::fprintf(stderr, "e2ebench: register %s failed: %s\n",
                   request.id.c_str(), reply.status().ToString().c_str());
      return nullptr;
    }
  }
  *setup_s = MsSince(t0) / 1000.0;
  if (rss_growth_mb != nullptr) *rss_growth_mb = CurrentRssMb() - rss_before;
  return stack;
}

/// setup_s is the median of several set-ups per run. The first one serves
/// the load; the others run after the load and are torn down at once, so
/// the load (and its peak RSS) sees a process that has set up only once.
/// `prepare` readies per-set-up state, e.g. a fresh data directory.
class SetupRuns {
 public:
  SetupRuns(std::function<serve::EngineOptions()> prepare,
            const std::vector<Registration>* graphs, Samples* register_ms)
      : prepare_(std::move(prepare)),
        graphs_(graphs),
        register_ms_(register_ms) {}

  std::unique_ptr<Stack> Run(double* rss_per_graph_mb = nullptr) {
    double seconds = 0.0;
    double growth = 0.0;
    auto stack =
        Setup(prepare_(), *graphs_, register_ms_, &seconds, &growth);
    if (stack != nullptr) setup_s_.Add(seconds);
    if (rss_per_graph_mb != nullptr) {
      *rss_per_graph_mb = growth / static_cast<double>(graphs_->size());
    }
    return stack;
  }

  /// Runs the remaining set-ups (a traced run sets up once) and reports.
  bool Finish(const Args& args, RunResult* result) {
    const int total = args.trace ? 1 : SizesFor(args).setups;
    for (int i = static_cast<int>(setup_s_.size()); i < total; ++i) {
      if (Run() == nullptr) return false;
    }
    result->Set("setup_s", setup_s_.Median(), "s");
    return true;
  }

 private:
  std::function<serve::EngineOptions()> prepare_;
  const std::vector<Registration>* graphs_;
  Samples* register_ms_;
  Samples setup_s_;
};

struct Timed {
  sgla::Result<rpc::SolveReply> reply = sgla::Status(
      sgla::StatusCode::kInternal, "not sent");
  double ms = 0.0;
};

Timed TimedSolve(rpc::Client* client, const rpc::SolveWireRequest& request,
                 QueueWaitProbe* probe) {
  const std::string key =
      probe == nullptr
          ? std::string()
          : RequestKey(request.graph_id, static_cast<int>(request.mode),
                       static_cast<int>(request.algorithm),
                       static_cast<int>(request.quality));
  const int64_t ticket = probe == nullptr ? 0 : probe->Sent(key);
  Timed out;
  const auto t0 = Clock::now();
  out.reply = client->Solve(request);
  out.ms = MsSince(t0);
  if (probe != nullptr) probe->Replied(key, ticket);
  return out;
}

bool EmbeddingOk(const rpc::SolveReply& reply, int64_t n) {
  if (reply.embedding.rows() != n || reply.embedding.cols() != kEmbedDim) {
    return false;
  }
  for (int64_t i = 0; i < n; ++i) {
    const double* row = reply.embedding.Row(i);
    for (int64_t j = 0; j < kEmbedDim; ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

/// Thread-safe per-phase request tally.
class Tally {
 public:
  void Sent() { ++sent_; }
  void Ok() { ++ok_; }
  void Failed(RunResult* result, const std::string& what) {
    ++failed_;
    result->Fail(what);
  }
  void Into(RunResult* result, const std::string& phase) const {
    auto& p = result->phases[phase];
    p.sent += sent_.load();
    p.ok += ok_.load();
    p.failed += failed_.load();
  }

 private:
  std::atomic<int64_t> sent_{0}, ok_{0}, failed_{0};
};

/// Closed loop: `clients` threads, each with its own connection, call
/// `step(client, sequence, connection)` until `deadline`. Returns the load
/// phase's wall time in seconds, to the last reply.
double RunClients(int clients, int port, Clock::time_point deadline,
                  const std::function<void(int, int64_t, rpc::Client*)>& step,
                  Tally* tally, RunResult* result) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      rpc::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        tally->Sent();
        tally->Failed(result, "client connect failed");
        return;
      }
      for (int64_t s = 0; Clock::now() < deadline; ++s) step(c, s, &client);
    });
  }
  for (auto& t : threads) t.join();
  return MsSince(start) / 1000.0;
}

Clock::time_point Deadline(const Args& args) {
  // A traced run spends half its time on the module replay.
  const double seconds =
      args.trace ? std::max(1.0, args.seconds / 2.0) : args.seconds;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Whole-run p50 and p95 of one latency class, for the report.
void ReportLatencies(RunResult* result, const std::string& prefix,
                     const Samples& samples) {
  result->Detail(prefix + "_p50_ms", samples.Median(), "ms");
  result->Detail(prefix + "_p95_ms", samples.Percentile(0.95), "ms");
  result->Detail(prefix + "_samples", static_cast<double>(samples.size()),
                 "count");
}

/// The gated solve metrics: OK solve replies per second of load, and the
/// median exact-solve latency.
void SetSolveMetrics(RunResult* result, int64_t solved,
                     const Samples& exact_ms, double load_s) {
  result->Set("solves_per_s", static_cast<double>(solved) / load_s, "1/s");
  result->Set("solve_exact_p50_ms", exact_ms.Median(), "ms");
  ReportLatencies(result, "solve_exact", exact_ms);
}

void Finish(RunResult* result, double peak_rss, Tracer* tracer,
            const QueueWaitProbe& probe, Stack* stack,
            int64_t solve_requests) {
  result->Set("peak_rss_mb", peak_rss, "MiB");
  result->Detail("failed_ratio",
                 result->attempted() > 0
                     ? static_cast<double>(result->failed()) /
                           static_cast<double>(result->attempted())
                     : 0.0,
                 "ratio");
  if (tracer == nullptr || stack == nullptr) return;
  result->Detail("serve.queue_wait_ms", probe.waits.Median(), "ms");
  result->Detail("trace.hook_overhead_us", probe.hook_us.Median(), "us");
  result->Detail("serve.coalesced_ratio",
                 solve_requests > 0
                     ? static_cast<double>(stack->engine->coalesced()) /
                           static_cast<double>(solve_requests)
                     : 0.0,
                 "ratio");
  // One RPC round trip with no work behind it.
  rpc::Client client;
  if (client.Connect("127.0.0.1", stack->server->port()).ok()) {
    Samples ping_us;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      if (client.Ping().ok()) ping_us.Add(MsSince(t0) * 1000.0);
    }
    result->Detail("rpc.roundtrip_us", ping_us.Median(), "us");
  }
}

/// rpc.overhead_ms: the same fast-tier solve through the client and
/// through Engine::Solve, back to back on an idle stack (which one goes
/// first alternates); the median of the per-pair differences.
void MeasureRpcOverhead(Stack* stack, const std::string& graph_id,
                        RunResult* result) {
  rpc::Client client;
  if (!client.Connect("127.0.0.1", stack->server->port()).ok()) return;
  rpc::SolveWireRequest wire;
  wire.graph_id = graph_id;
  wire.quality = serve::Quality::kFast;
  wire.coalesce = false;
  serve::SolveRequest request;
  request.graph_id = graph_id;
  request.quality = serve::Quality::kFast;
  Samples diff_ms;
  for (int i = 0; i < 15; ++i) {
    double rpc_ms = 0.0;
    double engine_ms = 0.0;
    bool ok = true;
    for (int side = 0; side < 2; ++side) {
      const bool via_rpc = (side + i) % 2 == 0;
      const auto t0 = Clock::now();
      ok = ok && (via_rpc ? client.Solve(wire).ok()
                          : stack->engine->Solve(request).ok());
      (via_rpc ? rpc_ms : engine_ms) = MsSince(t0);
    }
    if (ok) diff_ms.Add(rpc_ms - engine_ms);
  }
  result->Detail("rpc.overhead_ms", diff_ms.Median(), "ms");
}

/// The traced run's serve-level numbers: the traced load's exact p50 (the
/// tracing overhead is it minus the untraced run's on the same seed), RSS
/// growth per set-up graph, and the RPC overhead on `graph_id`.
void ReportTraced(RunResult* result, const Samples& exact_ms,
                  double rss_per_graph, Stack* stack,
                  const std::string& graph_id) {
  result->Detail("trace.solve_exact_p50_ms", exact_ms.Median(), "ms");
  result->Detail("serve.rss_per_graph_mb", rss_per_graph, "MiB");
  MeasureRpcOverhead(stack, graph_id, result);
}

void InstallProbe(Stack* stack, QueueWaitProbe* probe) {
  stack->engine->SetSolveHookForTest([probe](const serve::SolveRequest& r) {
    probe->SolveStarted(RequestKey(r.graph_id, static_cast<int>(r.mode),
                                   static_cast<int>(r.algorithm),
                                   static_cast<int>(r.quality)));
  });
}

}  // namespace

bool RunServeMixed(const Args& args, RunResult* result, Tracer* tracer) {
  const Sizes sizes = SizesFor(args);
  std::vector<Registration> graphs;
  for (int g = 0; g < 4; ++g) {
    graphs.push_back({MakeFixture("mixed-" + std::to_string(g),
                                  sizes.mixed_nodes, args.seed, 100 + g),
                      1});
  }
  Samples register_ms;
  double rss_per_graph = 0.0;
  SetupRuns setups([] { return serve::EngineOptions(); }, &graphs,
                   &register_ms);
  auto stack = setups.Run(&rss_per_graph);
  if (stack == nullptr) return false;
  QueueWaitProbe probe;
  if (tracer != nullptr) InstallProbe(stack.get(), &probe);

  Samples exact_ms, fast_ms, embed_ms;
  std::mutex fast_mutex;
  std::vector<std::pair<int, double>> fast_nmi;  // (graph, nmi)
  Tally tally;
  auto step = [&](int c, int64_t s, rpc::Client* client) {
    // 20 (graph, class) combinations: classes 0-1 exact (SGLA, SGLA+),
    // 2-3 fast, 4 embed.
    const int pick = Pick(args.seed, c, s, 20);
    const int g = pick % 4;
    const int cls = pick / 4;
    const Fixture& fx = *graphs[static_cast<size_t>(g)].fixture;
    rpc::SolveWireRequest request;
    request.graph_id = fx.id;
    if (cls == 1) request.algorithm = serve::Algorithm::kSglaPlus;
    if (cls == 2 || cls == 3) request.quality = serve::Quality::kFast;
    if (cls == 4) request.mode = serve::SolveMode::kEmbed;
    tally.Sent();
    Timed t = TimedSolve(client, request, tracer ? &probe : nullptr);
    if (!t.reply.ok()) {
      tally.Failed(result, "solve: " + t.reply.status().ToString());
      return;
    }
    if (cls <= 1) {
      exact_ms.Add(t.ms);
      const double nmi = Nmi(t.reply->labels, fx.truth);
      if (nmi < kExactNmiFloor) {
        tally.Failed(result, "exact NMI " + std::to_string(nmi) + " on " +
                                 fx.id);
        return;
      }
    } else if (cls <= 3) {
      fast_ms.Add(t.ms);
      if (t.reply->tier_served !=
          static_cast<uint8_t>(serve::Quality::kFast)) {
        tally.Failed(result, "fast request served exact on " + fx.id);
        return;
      }
      std::lock_guard<std::mutex> lock(fast_mutex);
      fast_nmi.push_back({g, Nmi(t.reply->labels, fx.truth)});
    } else {
      embed_ms.Add(t.ms);
      if (!EmbeddingOk(*t.reply, fx.mvag.num_nodes())) {
        tally.Failed(result, "embedding shape or values wrong on " + fx.id);
        return;
      }
    }
    tally.Ok();
  };
  const double load_s = RunClients(4, stack->server->port(), Deadline(args),
                                   step, &tally, result);
  const double peak_rss = PeakRssMb();
  tally.Into(result, "load");

  // Fast-tier check: each fast reply within kFastNmiGap of the exact NMI of
  // the same graph (one untimed reference solve per graph).
  rpc::Client client;
  std::vector<double> exact_ref(graphs.size(), 0.0);
  auto& check = result->phases["check"];
  if (client.Connect("127.0.0.1", stack->server->port()).ok()) {
    for (size_t g = 0; g < graphs.size(); ++g) {
      rpc::SolveWireRequest request;
      request.graph_id = graphs[g].fixture->id;
      ++check.sent;
      auto reply = client.Solve(request);
      if (reply.ok()) {
        ++check.ok;
        exact_ref[g] = Nmi(reply->labels, graphs[g].fixture->truth);
      } else {
        ++check.failed;
      }
    }
  }
  auto& load = result->phases["load"];
  for (const auto& item : fast_nmi) {
    if (item.second < exact_ref[static_cast<size_t>(item.first)] -
                          kFastNmiGap) {
      --load.ok;
      ++load.failed;
      result->Fail("fast NMI " + std::to_string(item.second) +
                   " vs exact " +
                   std::to_string(exact_ref[static_cast<size_t>(item.first)]));
    }
  }

  SetSolveMetrics(result, load.ok, exact_ms, load_s);
  ReportLatencies(result, "solve_fast", fast_ms);
  ReportLatencies(result, "embed", embed_ms);
  if (tracer != nullptr) {
    ReportTraced(result, exact_ms, rss_per_graph, stack.get(),
                 graphs[0].fixture->id);
  }
  Finish(result, peak_rss, tracer, probe, stack.get(), load.sent);
  stack.reset();
  if (!setups.Finish(args, result)) return false;
  result->Set("register_p50_ms", register_ms.Median(), "ms");
  if (tracer != nullptr) {
    return ReplayModules(args, *graphs[0].fixture, 1, result, tracer);
  }
  return true;
}

namespace {

/// One writer's live lineage, read by the reader clients. Readers hold the
/// lock shared for a whole request, so the writer's evict (under the
/// exclusive lock) never races a solve on the evicted id.
struct Slot {
  std::shared_mutex mutex;
  std::shared_ptr<Fixture> fixture;
};

}  // namespace

bool RunIngestStream(const Args& args, RunResult* result, Tracer* tracer) {
  const Sizes sizes = SizesFor(args);
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(args.out_dir) / ("ingest-" + std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(base, ec);
  const std::string data_dir = (base / "data").string();

  constexpr int kWriters = 2;
  std::vector<Registration> first;
  for (int w = 0; w < kWriters; ++w) {
    first.push_back({MakeFixture("w" + std::to_string(w) + "-0",
                                 sizes.ingest_nodes, args.seed,
                                 1000 + static_cast<uint64_t>(w) * 10000),
                     1});
  }
  Samples register_ms;
  double rss_per_graph = 0.0;
  serve::EngineOptions engine_options;
  engine_options.data_dir = data_dir;
  SetupRuns setups(
      [&] {
        std::error_code remove_ec;
        fs::remove_all(data_dir, remove_ec);
        fs::create_directories(data_dir, remove_ec);
        return engine_options;
      },
      &first, &register_ms);
  auto stack = setups.Run(&rss_per_graph);
  if (stack == nullptr) return false;
  QueueWaitProbe probe;
  if (tracer != nullptr) InstallProbe(stack.get(), &probe);

  Slot slots[kWriters];
  for (int w = 0; w < kWriters; ++w) slots[w].fixture = first[w].fixture;

  std::atomic<int64_t> solved{0};
  Samples exact_ms, fresh_ms, fast_ms, update_ms, checkpoint_ms, evict_ms;
  Samples update_by_kind[kDeltaKinds];
  Tally writes, reads;

  const auto deadline = Deadline(args);
  auto exact_solve = [&](rpc::Client* client, const Fixture& fx, bool warm,
                         Samples* extra) {
    rpc::SolveWireRequest request;
    request.graph_id = fx.id;
    request.warm_start = warm;
    writes.Sent();
    Timed t = TimedSolve(client, request, tracer ? &probe : nullptr);
    if (!t.reply.ok()) {
      writes.Failed(result, "solve: " + t.reply.status().ToString());
      return;
    }
    exact_ms.Add(t.ms);
    if (extra != nullptr) extra->Add(t.ms);
    const double nmi = Nmi(t.reply->labels, fx.truth);
    if (nmi < kExactNmiFloor) {
      writes.Failed(result, "exact NMI " + std::to_string(nmi) + " on " +
                                fx.id);
      return;
    }
    writes.Ok();
    ++solved;
  };
  auto writer_step = [&](int w, int64_t lineage, rpc::Client* client) {
    Slot& slot = slots[w];
    std::shared_ptr<Fixture> fx = slot.fixture;
    core::MultiViewGraph mvag = fx->mvag;
    std::vector<bool> active;
    exact_solve(client, *fx, false, nullptr);
    for (int d = 0; d < kDeltaKinds && Clock::now() < deadline; ++d) {
      const auto kind = static_cast<DeltaKind>(d);
      rpc::UpdateRequest update;
      update.id = fx->id;
      update.delta = MakeDelta(kind, mvag, fx->truth,
                               args.seed * 1000003 + lineage * 64 + d + w);
      serve::DeltaEffects effects;
      if (!sgla::serve::ApplyDelta(&mvag, update.delta, active, &effects)
               .ok()) {
        writes.Sent();
        writes.Failed(result, "benchmark delta invalid");
        return;
      }
      active = effects.active;
      writes.Sent();
      const auto t0 = Clock::now();
      auto reply = client->Update(update);
      const double ms = MsSince(t0);
      if (!reply.ok()) {
        writes.Failed(result, "update: " + reply.status().ToString());
        return;
      }
      writes.Ok();
      update_ms.Add(ms);
      update_by_kind[d].Add(ms);
      exact_solve(client, *fx, true, &fresh_ms);
      if (d == 2 || d == kDeltaKinds - 1) {
        writes.Sent();
        const auto c0 = Clock::now();
        auto checkpoint = client->Checkpoint({fx->id});
        checkpoint_ms.Add(MsSince(c0));
        if (checkpoint.ok()) {
          writes.Ok();
        } else {
          writes.Failed(result,
                        "checkpoint: " + checkpoint.status().ToString());
        }
      }
    }
    if (Clock::now() >= deadline) return;
    // Next lineage: register a fresh graph, publish it, evict the old one.
    auto next = MakeFixture(
        "w" + std::to_string(w) + "-" + std::to_string(lineage + 1),
        mvag.num_nodes(), args.seed,
        1000 + static_cast<uint64_t>(w) * 10000 +
            static_cast<uint64_t>(lineage) + 1);
    rpc::RegisterRequest request;
    request.id = next->id;
    request.mvag = next->mvag;
    writes.Sent();
    const auto r0 = Clock::now();
    auto registered = client->Register(request);
    register_ms.Add(MsSince(r0));
    if (!registered.ok()) {
      writes.Failed(result, "register: " + registered.status().ToString());
      return;
    }
    writes.Ok();
    std::unique_lock<std::shared_mutex> lock(slot.mutex);
    slot.fixture = next;
    writes.Sent();
    const auto e0 = Clock::now();
    auto evicted = client->Evict({fx->id});
    evict_ms.Add(MsSince(e0));
    if (evicted.ok() && evicted->existed) {
      writes.Ok();
    } else {
      writes.Failed(result, "evict of " + fx->id + " failed");
    }
  };
  auto reader_step = [&](int r, int64_t s, rpc::Client* client) {
    Slot& slot = slots[Pick(args.seed, kWriters + r, s, kWriters)];
    std::shared_lock<std::shared_mutex> lock(slot.mutex);
    const std::shared_ptr<Fixture> fx = slot.fixture;
    rpc::SolveWireRequest request;
    request.graph_id = fx->id;
    request.quality = serve::Quality::kFast;
    reads.Sent();
    Timed t = TimedSolve(client, request, tracer ? &probe : nullptr);
    lock.unlock();
    if (!t.reply.ok()) {
      reads.Failed(result, "fast solve: " + t.reply.status().ToString());
      return;
    }
    fast_ms.Add(t.ms);
    const double nmi = Nmi(t.reply->labels, fx->truth);
    if (t.reply->tier_served != static_cast<uint8_t>(serve::Quality::kFast) ||
        nmi < kExactNmiFloor - kFastNmiGap) {
      reads.Failed(result, "fast reply on " + fx->id + " NMI " +
                               std::to_string(nmi));
      return;
    }
    reads.Ok();
    ++solved;
  };
  // Clients 0-1 write, 2-3 read.
  const double load_s = RunClients(
      4, stack->server->port(), deadline,
      [&](int c, int64_t s, rpc::Client* client) {
        if (c < kWriters) {
          writer_step(c, s, client);
        } else {
          reader_step(c - kWriters, s, client);
        }
      },
      &writes, result);
  const double peak_before_reopen = PeakRssMb();
  writes.Into(result, "write");
  reads.Into(result, "read");
  SetSolveMetrics(result, solved, exact_ms, load_s);
  ReportLatencies(result, "solve_fast", fast_ms);
  ReportLatencies(result, "update", update_ms);
  for (int d = 0; d < kDeltaKinds; ++d) {
    result->Detail(std::string("update_") +
                       DeltaKindName(static_cast<DeltaKind>(d)) + "_p50_ms",
                   update_by_kind[d].Median(), "ms");
  }
  result->Detail("fresh_solve_p50_ms", fresh_ms.Median(), "ms");
  result->Detail("checkpoint_p50_ms", checkpoint_ms.Median(), "ms");
  result->Detail("evict_p50_ms", evict_ms.Median(), "ms");
  if (tracer != nullptr) {
    ReportTraced(result, exact_ms, rss_per_graph, stack.get(),
                 slots[0].fixture->id);
  }
  Finish(result, peak_before_reopen, tracer, probe, stack.get(),
         static_cast<int64_t>(exact_ms.size() + fast_ms.size()));

  // Recovery: cold exact solves of the live graphs before shutdown must be
  // bit-identical to the same solves after reopening the data directory.
  auto& check = result->phases["recovery"];
  std::vector<rpc::SolveReply> before(kWriters);
  {
    rpc::Client client;
    if (!client.Connect("127.0.0.1", stack->server->port()).ok()) {
      ++check.sent;
      ++check.failed;
      result->Fail("recovery: connect failed");
    }
    for (int w = 0; w < kWriters && client.connected(); ++w) {
      rpc::SolveWireRequest request;
      request.graph_id = slots[w].fixture->id;
      ++check.sent;
      auto reply = client.Solve(request);
      if (!reply.ok()) {
        ++check.failed;
        result->Fail("pre-shutdown solve: " + reply.status().ToString());
        continue;
      }
      ++check.ok;
      before[static_cast<size_t>(w)] = std::move(*reply);
    }
  }
  stack.reset();
  const auto t0 = Clock::now();
  sgla::serve::GraphRegistry registry;
  double recovery_s = 0.0;
  {
    serve::Engine engine(&registry, engine_options);
    for (int w = 0; w < kWriters; ++w) {
      serve::SolveRequest request;
      request.graph_id = slots[w].fixture->id;
      ++check.sent;
      auto response = engine.recovery_status().ok()
                          ? engine.Solve(request)
                          : sgla::Result<serve::SolveResponse>(
                                engine.recovery_status());
      if (w == 0) recovery_s = MsSince(t0) / 1000.0;
      const auto& expected = before[static_cast<size_t>(w)];
      if (!response.ok()) {
        ++check.failed;
        result->Fail("post-recovery solve: " +
                     response.status().ToString());
      } else if (response->labels != expected.labels ||
                 response->integration.weights != expected.weights) {
        ++check.failed;
        result->Fail("recovered solve differs on " + slots[w].fixture->id);
      } else {
        ++check.ok;
      }
    }
  }
  result->Detail("recovery_s", recovery_s, "s");
  const bool setups_ok = setups.Finish(args, result);
  fs::remove_all(base, ec);
  if (!setups_ok) return false;
  result->Set("register_p50_ms", register_ms.Median(), "ms");
  if (tracer != nullptr) {
    return ReplayModules(args, *first[0].fixture, 1, result, tracer);
  }
  return true;
}

bool RunServeSkewed(const Args& args, RunResult* result, Tracer* tracer) {
  const Sizes sizes = SizesFor(args);
  std::vector<Registration> graphs;
  graphs.push_back(
      {MakeFixture("large", sizes.large_nodes, args.seed, 200), 4});
  constexpr int kSmall = 8;
  for (int g = 0; g < kSmall; ++g) {
    graphs.push_back({MakeFixture("small-" + std::to_string(g),
                                  sizes.small_nodes, args.seed, 300 + g),
                      1});
  }
  Samples register_ms;
  double rss_per_graph = 0.0;
  SetupRuns setups([] { return serve::EngineOptions(); }, &graphs,
                   &register_ms);
  auto stack = setups.Run(&rss_per_graph);
  if (stack == nullptr) return false;
  QueueWaitProbe probe;
  if (tracer != nullptr) InstallProbe(stack.get(), &probe);

  std::atomic<int64_t> solved{0};
  Samples all_ms, small_ms, large_ms;
  Tally tally;
  auto step = [&](int c, int64_t s, rpc::Client* client) {
    const size_t g =
        c == 0 ? 0 : 1 + static_cast<size_t>(Pick(args.seed, c, s, kSmall));
    const Fixture& fx = *graphs[g].fixture;
    rpc::SolveWireRequest request;
    request.graph_id = fx.id;
    tally.Sent();
    Timed t = TimedSolve(client, request, tracer ? &probe : nullptr);
    if (!t.reply.ok()) {
      tally.Failed(result, "solve: " + t.reply.status().ToString());
      return;
    }
    all_ms.Add(t.ms);
    (g == 0 ? large_ms : small_ms).Add(t.ms);
    const double nmi = Nmi(t.reply->labels, fx.truth);
    if (nmi < kExactNmiFloor) {
      tally.Failed(result, "exact NMI " + std::to_string(nmi) + " on " +
                               fx.id);
      return;
    }
    tally.Ok();
    ++solved;
  };
  const double load_s = RunClients(4, stack->server->port(), Deadline(args),
                                   step, &tally, result);
  const double peak_rss = PeakRssMb();
  tally.Into(result, "load");
  SetSolveMetrics(result, solved, all_ms, load_s);
  ReportLatencies(result, "small_solve", small_ms);
  ReportLatencies(result, "large_solve", large_ms);
  if (tracer != nullptr) {
    ReportTraced(result, all_ms, rss_per_graph, stack.get(),
                 graphs[1].fixture->id);
  }
  Finish(result, peak_rss, tracer, probe, stack.get(),
         result->phases["load"].sent);
  stack.reset();
  if (!setups.Finish(args, result)) return false;
  result->Set("register_p50_ms", register_ms.Median(), "ms");
  if (tracer != nullptr) {
    return ReplayModules(args, *graphs[0].fixture, 4, result, tracer);
  }
  return true;
}

}  // namespace e2e
