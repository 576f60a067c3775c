// Module replay of the traced run: the workload's largest graph goes
// through each layer's public functions directly, one span per call, so the
// per-layer numbers come from the benchmark's own files without touching the
// library. Kernel flops and bytes are computed from nnz and dimensions, not
// counted by hardware.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "coarse/coarsen.h"
#include "core/aggregator.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "embed/netmf.h"
#include "graph/knn.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "persist/checkpoint.h"
#include "persist/store.h"
#include "persist/wal.h"
#include "rpc/messages.h"
#include "serve/engine.h"
#include "serve/graph_registry.h"

namespace e2e {
namespace {

namespace la = sgla::la;
namespace rpc = sgla::rpc;
namespace persist = sgla::persist;

/// Times `fn` under a span `reps` times and returns the median (ms).
template <typename Fn>
double Spanned(Tracer* tracer, const std::string& name, int reps, Fn fn,
               const std::string& label = "") {
  Samples ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, name, label);
      fn();
    }
    ms.Add(MsSince(t0));
  }
  return ms.Median();
}

int64_t Nnz(const la::CsrMatrix& m) {
  return static_cast<int64_t>(m.col_idx.size());
}

}  // namespace

bool ReplayModules(const Args& args, const Fixture& fixture, int shards,
                   RunResult* result, Tracer* tracer) {
  const int reps = args.smoke ? 1 : 3;
  const int k = kClusters;
  const core::MultiViewGraph& mvag = fixture.mvag;
  const int64_t n = mvag.num_nodes();
  const std::string isa = la::simd::ActiveIsaName();
  result->labels["la.isa"] = isa;
  result->labels["kernel_counts"] = "computed from nnz and dimensions";
  const serve::SolveRequest defaults;  // the serving path's solver options
  ScopedSpan replay(tracer, "replay", fixture.id);
  tracer->set_root(replay.id());

  // graph: the attribute view's KNN graph.
  result->Detail("graph.knn_ms",
                 Spanned(tracer, "graph.knn", reps,
                         [&] {
                           sgla::graph::KnnGraph(mvag.attribute_views()[0],
                                                 sgla::graph::KnnOptions());
                         }),
                 "ms");

  // core: view Laplacians and the union-pattern aggregator.
  std::vector<la::CsrMatrix> views;
  result->Detail("core.view_laplacians_ms",
                 Spanned(tracer, "core.view_laplacians", reps,
                         [&] { views = *core::ComputeViewLaplacians(mvag); }),
                 "ms");
  std::unique_ptr<core::LaplacianAggregator> aggregator;
  result->Detail(
      "core.aggregator_build_ms",
      Spanned(tracer, "core.aggregator_build", reps,
              [&] {
                aggregator =
                    std::make_unique<core::LaplacianAggregator>(&views);
              }),
      "ms");

  // coarse: plan, contraction of every view, repair after a small delta.
  sgla::coarse::CoarsePlan plan;
  result->Detail("coarse.plan_ms",
                 Spanned(tracer, "coarse.plan", reps,
                         [&] {
                           plan = sgla::coarse::BuildCoarsePlan(
                               aggregator->pattern(), views);
                         }),
                 "ms");
  result->Detail("coarse.contract_ms",
                 Spanned(tracer, "coarse.contract", reps,
                         [&] {
                           for (const auto& view : views) {
                             sgla::coarse::ContractView(view, plan);
                           }
                         }),
                 "ms");
  result->Detail("coarse.rows_ratio",
                 static_cast<double>(plan.coarse_rows) /
                     static_cast<double>(n),
                 "ratio");
  {
    core::MultiViewGraph edited = mvag;
    const auto delta =
        MakeDelta(DeltaKind::kPatternSmall, edited, fixture.truth, args.seed);
    std::vector<bool> affected;
    if (!sgla::serve::ApplyDelta(&edited, delta, &affected).ok()) {
      result->Fail("replay: small pattern delta rejected");
      return false;
    }
    auto edited_views = *core::ComputeViewLaplacians(edited);
    core::LaplacianAggregator edited_aggregator(&edited_views);
    std::vector<bool> changed(static_cast<size_t>(n), false);
    for (const auto& upsert : delta.graph_views[0].upserts) {
      changed[static_cast<size_t>(upsert.u)] = true;
      changed[static_cast<size_t>(upsert.v)] = true;
    }
    Samples repair_ms;
    for (int i = 0; i < reps; ++i) {
      sgla::coarse::CoarsePlan repaired = plan;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "coarse.repair");
        sgla::coarse::RepairCoarsePlan(edited_aggregator.pattern(),
                                       edited_views, changed, &repaired);
      }
      repair_ms.Add(MsSince(t0));
    }
    result->Detail("coarse.repair_ms", repair_ms.Median(), "ms");
  }

  // core + opt: both weight searches on the shared aggregator.
  core::EvalWorkspace workspace;
  core::IntegrationResult sgla_result;
  core::IntegrationResult plus_result;
  const double sgla_ms = Spanned(
      tracer, "core.integrate", reps,
      [&] {
        sgla_result = *core::SglaOnAggregator(*aggregator, k,
                                              defaults.options.base,
                                              &workspace);
      },
      "sgla");
  const double plus_ms = Spanned(
      tracer, "core.integrate", reps,
      [&] {
        plus_result = *core::SglaPlusOnAggregator(*aggregator, k,
                                                  defaults.options, &workspace);
      },
      "sgla_plus");
  result->Detail("core.integrate_sgla_ms", sgla_ms, "ms");
  result->Detail("core.integrate_sgla_plus_ms", plus_ms, "ms");
  const double evals = static_cast<double>(sgla_result.objective_history.size());
  result->Detail("core.objective_evals", evals, "count");
  // One objective evaluation at each point the search visited (up to 8);
  // the optimizer's own time is the search minus its evaluations.
  Samples eval_ms;
  {
    core::EvalWorkspace eval_workspace;
    core::SpectralObjective objective(aggregator.get(), k,
                                      defaults.options.base.objective,
                                      &eval_workspace);
    const size_t points = std::min<size_t>(8, sgla_result.weight_history.size());
    for (size_t i = 0; i < points; ++i) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "core.evaluate");
        objective.Evaluate(sgla_result.weight_history[i]);
      }
      eval_ms.Add(MsSince(t0));
    }
  }
  result->Detail("opt.self_ms", sgla_ms - evals * eval_ms.Median(), "ms");

  // core: one aggregation pass at the optimum.
  la::CsrMatrix aggregate;
  aggregator->BindPattern(&aggregate);
  result->Detail("core.aggregate_us",
                 1000.0 * Spanned(tracer, "core.aggregate", 50, [&] {
                   aggregator->AggregateValuesInto(sgla_result.weights,
                                                   &aggregate);
                 }),
                 "us");
  int64_t view_nnz = 0;
  for (const auto& view : views) view_nnz += Nnz(view);
  // Per view entry: one multiply-add, read value + scatter index, then
  // read-modify-write of the union slot.
  result->Detail("core.aggregate_flops", 2.0 * static_cast<double>(view_nnz),
                 "flop");
  result->Detail("core.aggregate_bytes",
                 static_cast<double>(view_nnz) * (8 + 8 + 16), "B");

  // la: the objective's eigensolve and the SELL SpMV it is made of.
  la::LanczosWorkspace lanczos;
  la::Eigenpairs eigen;
  la::LanczosStats stats;
  result->Detail("la.eigensolve_ms",
                 Spanned(
                     tracer, "la.eigensolve", reps,
                     [&] {
                       la::SmallestEigenpairsInto(aggregate, k + 1, 2.0, {},
                                                  &lanczos, &eigen, &stats);
                     },
                     isa),
                 "ms");
  result->Detail("la.lanczos_vectors", stats.iterations, "count");
  la::SellMatrix sell;
  la::BuildSellPattern(aggregate, &sell);
  std::vector<double> x(static_cast<size_t>(n), 1.0);
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  result->Detail("la.spmv_us",
                 1000.0 * Spanned(
                              tracer, "la.spmv", 100,
                              [&] { la::SellSpmv(sell, x.data(), y.data()); },
                              isa),
                 "us");
  // Per stored slot (padding included): value + column index + gathered x;
  // per row: one y write.
  result->Detail("la.spmv_flops", 2.0 * static_cast<double>(Nnz(aggregate)),
                 "flop");
  result->Detail("la.spmv_bytes",
                 static_cast<double>(sell.values.size()) * 24.0 +
                     static_cast<double>(n) * 8.0,
                 "B");

  // cluster: spectral clustering of the integrated Laplacian, then k-means
  // alone on its embedding.
  sgla::cluster::SpectralWorkspace spectral;
  std::vector<int32_t> labels;
  la::LanczosStats embedding_stats;
  result->Detail(
      "cluster.spectral_ms",
      Spanned(tracer, "cluster.spectral", reps,
              [&] {
                sgla::cluster::SpectralClusteringInto(
                    sgla_result.laplacian, k, defaults.kmeans, &spectral,
                    &labels, nullptr, nullptr, nullptr, &embedding_stats);
              }),
      "ms");
  result->Detail("cluster.embedding_lanczos_vectors",
                 embedding_stats.iterations, "count");
  const la::DenseMatrix points = spectral.eigen.vectors;
  sgla::cluster::KMeansWorkspace kmeans_workspace;
  sgla::cluster::KMeansResult kmeans_result;
  result->Detail("cluster.kmeans_ms",
                 Spanned(tracer, "cluster.kmeans", reps,
                         [&] {
                           sgla::cluster::KMeansInto(points, k,
                                                     defaults.kmeans,
                                                     &kmeans_workspace,
                                                     &kmeans_result);
                         }),
                 "ms");
  // One assignment pass: n*k distances of d dims (sub, mul, add each).
  const double d = static_cast<double>(points.cols());
  result->Detail("cluster.kmeans_flops", 3.0 * static_cast<double>(n) * k * d,
                 "flop");
  result->Detail("cluster.kmeans_bytes",
                 8.0 * static_cast<double>(n) * d + 8.0 * k * d +
                     4.0 * static_cast<double>(n),
                 "B");

  // embed: NetMF on the integrated Laplacian.
  result->Detail("embed.netmf_ms",
                 Spanned(tracer, "embed.netmf", args.smoke ? 1 : 2,
                         [&] {
                           sgla::embed::NetMf(sgla_result.laplacian,
                                              defaults.netmf);
                         }),
                 "ms");

  // serve: registration and each delta kind straight on a registry, with no
  // persistence behind it.
  serve::RegisterOptions register_options;
  register_options.shards = shards;
  {
    sgla::serve::GraphRegistry registry;
    result->Detail("serve.register_ms",
                   Spanned(tracer, "serve.register", reps,
                           [&] {
                             registry.Evict(fixture.id);
                             registry.Register(fixture.id, mvag,
                                               register_options);
                           }),
                   "ms");
    core::MultiViewGraph source = mvag;
    std::vector<bool> active;
    for (int kind = 0; kind < kDeltaKinds; ++kind) {
      const auto delta_kind = static_cast<DeltaKind>(kind);
      const auto delta =
          MakeDelta(delta_kind, source, fixture.truth, args.seed + kind);
      serve::DeltaEffects effects;
      sgla::serve::ApplyDelta(&source, delta, active, &effects);
      active = effects.active;
      bool ok = true;
      const double ms = Spanned(
          tracer, "serve.update", 1,
          [&] { ok = registry.UpdateGraph(fixture.id, delta).ok(); },
          DeltaKindName(delta_kind));
      if (!ok) result->Fail("replay: update rejected");
      result->Detail(std::string("serve.update_") + DeltaKindName(delta_kind) +
                         "_ms",
                     ms, "ms");
    }
  }

  // serve + persist: the same delta cycle on a durable engine, each delta
  // followed by a warm re-solve and its cold twin on the same epoch; then a
  // reopen replays the log.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(args.out_dir) / ("replay-" + std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir / "data", ec);
  serve::EngineOptions durable;
  durable.data_dir = (dir / "data").string();
  std::vector<serve::GraphDelta> cycle;
  {
    sgla::serve::GraphRegistry registry;
    serve::Engine engine(&registry, durable);
    if (!engine.RegisterGraph(fixture.id, mvag, register_options).ok()) {
      result->Fail("replay: durable register failed");
      return false;
    }
    serve::SolveRequest request;
    request.graph_id = fixture.id;
    engine.Solve(request);  // banks the warm-start seed
    core::MultiViewGraph source = mvag;
    std::vector<bool> active;
    Samples warm_ms, cold_ms;
    double warm_vectors = 0.0;
    double cold_vectors = 0.0;
    int warm_hits = 0;
    for (int kind = 0; kind < kDeltaKinds; ++kind) {
      cycle.push_back(MakeDelta(static_cast<DeltaKind>(kind), source,
                                fixture.truth, args.seed + 17 * kind));
      serve::DeltaEffects effects;
      sgla::serve::ApplyDelta(&source, cycle.back(), active, &effects);
      active = effects.active;
      if (!engine.UpdateGraph(fixture.id, cycle.back()).ok()) {
        result->Fail("replay: durable update failed");
        return false;
      }
      // Warm first: the cold twin then banks its seed for the next delta,
      // as the previous epoch's solve would in the load.
      for (bool warm : {true, false}) {
        request.warm_start = warm;
        const auto t0 = Clock::now();
        auto response = engine.Solve(request);
        const double ms = MsSince(t0);
        if (!response.ok()) {
          result->Fail("replay: twin solve failed");
          return false;
        }
        const double vectors =
            static_cast<double>(response->stats.lanczos_iterations);
        if (warm) {
          warm_ms.Add(ms);
          warm_vectors += vectors;
          warm_hits += response->stats.warm_started ? 1 : 0;
        } else {
          cold_ms.Add(ms);
          cold_vectors += vectors;
        }
      }
    }
    result->Detail("serve.warm_hit_ratio",
                   static_cast<double>(warm_hits) / kDeltaKinds, "ratio");
    result->Detail("serve.warm_lanczos_vectors", warm_vectors / kDeltaKinds,
                   "count");
    result->Detail("serve.cold_lanczos_vectors", cold_vectors / kDeltaKinds,
                   "count");
    result->Detail("serve.warm_cold_time_ratio", warm_ms.Sum() / cold_ms.Sum(),
                   "ratio");
  }
  {
    sgla::serve::GraphRegistry registry;
    serve::Engine engine(&registry, durable);
    result->Detail("persist.replay_records",
                   static_cast<double>(engine.recovery_stats().deltas_replayed),
                   "count");
    if (!engine.recovery_status().ok()) result->Fail("replay: reopen failed");
  }

  // persist: WAL appends of the cycle's records with fsync, group commit
  // under two concurrent appenders, checkpoint save and load.
  std::vector<std::vector<uint8_t>> records;
  for (size_t i = 0; i < cycle.size(); ++i) {
    persist::WalRecord record;
    record.reg_uid = 1;
    record.id = fixture.id;
    record.epoch = static_cast<int64_t>(i) + 1;
    record.delta = cycle[i];
    records.emplace_back();
    persist::EncodeWalRecord(record, &records.back());
  }
  auto no_replay = [](const uint8_t*, size_t) { return sgla::Status(); };
  {
    persist::WalOpenStats open_stats;
    auto wal = persist::Wal::Open((dir / "append.wal").string(), {}, no_replay,
                                  &open_stats);
    if (!wal.ok()) {
      result->Fail("replay: wal open failed");
      return false;
    }
    Samples append_ms;
    for (const auto& record : records) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "persist.wal_append");
        (*wal)->Append(record);
      }
      append_ms.Add(MsSince(t0));
    }
    result->Detail("persist.wal_append_ms", append_ms.Median(), "ms");
  }
  {
    persist::WalOpenStats open_stats;
    auto wal = persist::Wal::Open((dir / "batch.wal").string(), {}, no_replay,
                                  &open_stats);
    if (!wal.ok()) {
      result->Fail("replay: wal open failed");
      return false;
    }
    std::vector<std::thread> appenders;
    for (int t = 0; t < 2; ++t) {
      appenders.emplace_back([&] {
        for (int round = 0; round < 4; ++round) {
          for (const auto& record : records) (*wal)->Append(record);
        }
      });
    }
    for (auto& t : appenders) t.join();
    result->Detail("persist.wal_batch_records",
                   static_cast<double>((*wal)->records_appended()) /
                       static_cast<double>(std::max<uint64_t>(
                           1, (*wal)->commits())),
                   "ratio");
  }
  persist::CheckpointData checkpoint;
  checkpoint.id = fixture.id;
  checkpoint.reg_uid = 1;
  checkpoint.options = register_options;
  checkpoint.mvag = mvag;
  const std::string checkpoint_path = (dir / "graph.sgck").string();
  result->Detail("persist.checkpoint_ms",
                 Spanned(tracer, "persist.checkpoint", reps,
                         [&] {
                           persist::SaveCheckpoint(checkpoint,
                                                   checkpoint_path);
                         }),
                 "ms");
  result->Detail("persist.load_checkpoint_ms",
                 Spanned(tracer, "persist.load_checkpoint", reps,
                         [&] { persist::LoadCheckpoint(checkpoint_path); }),
                 "ms");
  fs::remove_all(dir, ec);

  // rpc: encode + decode of the workload's messages, and their sizes.
  auto codec = [&](const std::string& name, auto encode, auto decode) {
    Samples us;
    size_t bytes = 0;
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "rpc.codec", name);
        rpc::WireWriter writer;
        encode(&writer);
        bytes = writer.buffer().size();
        rpc::WireReader reader(writer.buffer().data(), writer.buffer().size());
        if (!decode(&reader)) result->Fail("replay: " + name + " decode");
      }
      us.Add(MsSince(t0) * 1000.0);
    }
    result->Detail("rpc.codec_" + name + "_us", us.Median(), "us");
    result->Detail("rpc." + name + "_bytes", static_cast<double>(bytes), "B");
  };
  rpc::RegisterRequest register_request;
  register_request.id = fixture.id;
  register_request.mvag = mvag;
  codec(
      "register",
      [&](rpc::WireWriter* w) { rpc::EncodeRegisterRequest(register_request, w); },
      [&](rpc::WireReader* r) {
        rpc::RegisterRequest back;
        return rpc::DecodeRegisterRequest(r, &back);
      });
  rpc::UpdateRequest update_request;
  update_request.id = fixture.id;
  update_request.delta = cycle[static_cast<size_t>(DeltaKind::kPatternLarge)];
  codec(
      "update",
      [&](rpc::WireWriter* w) { rpc::EncodeUpdateRequest(update_request, w); },
      [&](rpc::WireReader* r) {
        rpc::UpdateRequest back;
        return rpc::DecodeUpdateRequest(r, &back);
      });
  rpc::SolveReply solve_reply;
  solve_reply.weights = sgla_result.weights;
  solve_reply.labels = labels;
  codec(
      "solve_reply",
      [&](rpc::WireWriter* w) { rpc::EncodeSolveReply(solve_reply, w); },
      [&](rpc::WireReader* r) {
        rpc::SolveReply back;
        return rpc::DecodeSolveReply(r, &back);
      });
  return true;
}

}  // namespace e2e
