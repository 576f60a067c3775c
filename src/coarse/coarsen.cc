#include "coarse/coarsen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/graph.h"
#include "graph/laplacian.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace coarse {
namespace {

/// Row grain of the parallel passes: fixed, so the chunk partition — and
/// with it every accumulation order — is independent of the thread count.
constexpr int64_t kRowGrain = 512;
/// Coarse rows are ~10x fewer; a smaller grain keeps the pool busy.
constexpr int64_t kCoarseGrain = 256;
/// Chunks per matching level. Contracted levels shrink (1021, 529, 281 rows
/// at n = 2000) while getting denser, so a fixed row grain would leave the
/// costliest levels on one or two chunks; a grain derived from the level's
/// row count keeps every level spread over the pool.
constexpr int64_t kLevelChunks = 64;

/// Row grain of a level's affinity and contraction passes: a function of
/// the row count only, never of the thread count.
int64_t LevelGrain(int64_t rows) {
  return std::max<int64_t>(1, (rows + kLevelChunks - 1) / kLevelChunks);
}

/// Integer heavy-edge weights of the union pattern: slot p counts the views
/// whose row holds a structural entry at the same (row, col). Pattern-only
/// on purpose — value-only deltas leave every multiplicity (and therefore
/// the matching) untouched.
std::vector<int64_t> PatternMultiplicity(
    const la::CsrMatrix& union_pattern,
    const std::vector<la::CsrMatrix>& views) {
  std::vector<int64_t> mult(union_pattern.col_idx.size(), 0);
  util::ThreadPool::Global().ParallelFor(
      0, union_pattern.rows, kRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t p_end = union_pattern.row_ptr[i + 1];
          for (const la::CsrMatrix& view : views) {
            // Two-pointer merge: the view row is a sorted subset of the
            // union row by construction.
            int64_t p = union_pattern.row_ptr[i];
            for (int64_t q = view.row_ptr[i]; q < view.row_ptr[i + 1]; ++q) {
              const int64_t col = view.col_idx[q];
              while (p < p_end && union_pattern.col_idx[p] < col) ++p;
              if (p < p_end && union_pattern.col_idx[p] == col) ++mult[p];
            }
          }
        }
      });
  return mult;
}

/// One coarsening level's adjacency: integer-weighted, rows sorted, may
/// contain the diagonal at level 0 (skipped by the matcher).
struct LevelGraph {
  int64_t rows = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col;
  std::vector<int64_t> weight;
};

LevelGraph LevelFromUnion(const la::CsrMatrix& union_pattern,
                          const std::vector<int64_t>& mult) {
  LevelGraph g;
  g.rows = union_pattern.rows;
  g.row_ptr = union_pattern.row_ptr;
  g.col = union_pattern.col_idx;
  g.weight = mult;
  return g;
}

/// Matching affinity per edge slot: direct weight plus the weighted common
/// neighborhood, score(u,v) = w(u,v) + sum_t min(w(u,t), w(v,t)) over shared
/// neighbors t (t != u, v). Raw multiplicities at level 0 are nearly
/// constant ({1..views}) so heavy-edge on them degenerates to index-order
/// tie-breaking, which happily merges across cluster boundaries; shared
/// neighborhoods separate intra- from inter-cluster pairs by a wide margin
/// at every level. Integer arithmetic over patterns only, so the score — and
/// with it the plan — is still untouched by value-only deltas. Pure function
/// of the level graph (no matching state), hence safely parallel per row.
///
/// Marker-array form: row u's weights are scattered into a rows-sized
/// marker once, then each neighbor v's row is streamed against it. Weights
/// are non-negative, so min(mark[t], w(v,t)) is 0 for every t outside row
/// u, and zeroing mark[u] (for the whole row) and mark[v] (for v's pass)
/// drops exactly the excluded t = u, v.
///
/// Half-edge: only slots above the diagonal (v > u) are scored; the rest
/// stay 0. MatchLevel visits vertices in ascending order and leaves every
/// visited vertex matched or a singleton, so when it reads row u every
/// v < u is already taken and that slot is never read. Each undirected edge
/// is therefore scored once, from its smaller endpoint, and the cost is
/// O(sum_u sum_{v > u in N(u)} deg(v)) per level, about half the full
/// O(sum_v deg(v)^2). The upper slots hold exactly what scoring every slot
/// would, so the plan keeps its bits and assumes no symmetry. Every score
/// slot is an independent integer sum written by the chunk holding its
/// row, so any row partition gives the same bits; the marker is per chunk,
/// so chunks share nothing.
std::vector<int64_t> EdgeAffinity(const LevelGraph& g) {
  std::vector<int64_t> score(g.col.size(), 0);
  util::ThreadPool::Global().ParallelFor(
      0, g.rows, LevelGrain(g.rows), [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> mark(static_cast<size_t>(g.rows), 0);
        for (int64_t u = lo; u < hi; ++u) {
          const int64_t u_begin = g.row_ptr[u];
          const int64_t u_end = g.row_ptr[u + 1];
          for (int64_t p = u_begin; p < u_end; ++p) {
            mark[g.col[p]] = g.weight[p];
          }
          mark[u] = 0;
          for (int64_t p = u_begin; p < u_end; ++p) {
            const int64_t v = g.col[p];
            if (v <= u) continue;  // the diagonal, or a slot never read
            mark[v] = 0;
            int64_t s = g.weight[p];
            for (int64_t q = g.row_ptr[v]; q < g.row_ptr[v + 1]; ++q) {
              s += std::min(mark[g.col[q]], g.weight[q]);
            }
            mark[v] = g.weight[p];
            score[p] = s;
          }
          for (int64_t p = u_begin; p < u_end; ++p) mark[g.col[p]] = 0;
        }
      });
  return score;
}

/// Greedy heavy-edge matching in ascending vertex order on the affinity
/// scores; ties go to the smallest neighbor index (CSR columns ascend, so
/// the first maximum wins). Every vertex below u was visited and is matched
/// or a singleton, so only neighbors above u can still be free and only
/// EdgeAffinity's upper slots are read. At most `max_merges` pairs form — a
/// full level halves the graph, so an uncapped final level would overshoot
/// the target ratio by up to 2x (and can push the coarse graph under the
/// dense-eigensolver threshold); the cap turns it into a partial level that
/// lands on the target exactly, leaving later-visited rows as singletons.
/// Writes the level's fine -> coarse map (ids by first appearance) and
/// returns the coarse row count.
int64_t MatchLevel(const LevelGraph& g, int64_t max_merges,
                   std::vector<int64_t>* map) {
  const std::vector<int64_t> score = EdgeAffinity(g);
  std::vector<int64_t> match(static_cast<size_t>(g.rows), -1);
  int64_t merges = 0;
  for (int64_t u = 0; u < g.rows && merges < max_merges; ++u) {
    if (match[u] >= 0) continue;
    int64_t best = -1;
    int64_t best_w = 0;
    for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
      const int64_t v = g.col[p];
      if (v <= u || match[v] >= 0) continue;
      if (score[p] > best_w) {
        best = v;
        best_w = score[p];
      }
    }
    match[u] = best >= 0 ? best : u;
    if (best >= 0) {
      match[best] = u;
      ++merges;
    }
  }
  map->assign(static_cast<size_t>(g.rows), -1);
  int64_t next = 0;
  for (int64_t u = 0; u < g.rows; ++u) {
    if ((*map)[u] >= 0) continue;
    (*map)[u] = next;
    if (match[u] >= 0 && match[u] != u) (*map)[match[u]] = next;
    ++next;
  }
  return next;
}

/// Contracts a level along `map`, summing multiplicities; self-edges drop.
/// Chunk-parallel over coarse rows: each chunk sums its rows in a fixed
/// order (members ascending, slots ascending) into its own buffers, and the
/// buffers are concatenated in chunk order — integer arithmetic, so the
/// result equals the serial loop's at any partition.
LevelGraph ContractLevel(const LevelGraph& g, const std::vector<int64_t>& map,
                         int64_t coarse_rows) {
  // Members of each coarse row in ascending fine order (counting sort).
  std::vector<int64_t> members_ptr(static_cast<size_t>(coarse_rows) + 1, 0);
  for (int64_t u = 0; u < g.rows; ++u) ++members_ptr[map[u] + 1];
  for (int64_t i = 0; i < coarse_rows; ++i) {
    members_ptr[i + 1] += members_ptr[i];
  }
  std::vector<int64_t> members(static_cast<size_t>(g.rows));
  {
    std::vector<int64_t> cursor(members_ptr.begin(), members_ptr.end() - 1);
    for (int64_t u = 0; u < g.rows; ++u) members[cursor[map[u]]++] = u;
  }
  LevelGraph out;
  out.rows = coarse_rows;
  out.row_ptr.assign(static_cast<size_t>(coarse_rows) + 1, 0);
  const int64_t grain = LevelGrain(coarse_rows);
  const int64_t chunks = util::ThreadPool::NumChunks(0, coarse_rows, grain);
  std::vector<std::vector<int64_t>> chunk_col(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> chunk_weight(static_cast<size_t>(chunks));
  util::ThreadPool::Global().ParallelForChunks(
      0, coarse_rows, grain, [&](int64_t chunk, int64_t lo, int64_t hi) {
        std::vector<int64_t>& col = chunk_col[chunk];
        std::vector<int64_t>& weight = chunk_weight[chunk];
        std::vector<int64_t> accum(static_cast<size_t>(coarse_rows), 0);
        std::vector<int64_t> touched;
        for (int64_t dst = lo; dst < hi; ++dst) {
          touched.clear();
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const int64_t u = members[m];
            for (int64_t p = g.row_ptr[u]; p < g.row_ptr[u + 1]; ++p) {
              const int64_t other = map[g.col[p]];
              if (other == dst) continue;
              if (accum[other] == 0) touched.push_back(other);
              accum[other] += g.weight[p];
            }
          }
          std::sort(touched.begin(), touched.end());
          for (int64_t other : touched) {
            col.push_back(other);
            weight.push_back(accum[other]);
            accum[other] = 0;
          }
          // Row length for now; the prefix sum below turns it into offsets.
          out.row_ptr[dst + 1] = static_cast<int64_t>(touched.size());
        }
      });
  for (int64_t dst = 0; dst < coarse_rows; ++dst) {
    out.row_ptr[dst + 1] += out.row_ptr[dst];
  }
  out.col.reserve(static_cast<size_t>(out.row_ptr[coarse_rows]));
  out.weight.reserve(static_cast<size_t>(out.row_ptr[coarse_rows]));
  for (int64_t c = 0; c < chunks; ++c) {
    out.col.insert(out.col.end(), chunk_col[c].begin(), chunk_col[c].end());
    out.weight.insert(out.weight.end(), chunk_weight[c].begin(),
                      chunk_weight[c].end());
  }
  return out;
}

void FillClusterSizes(CoarsePlan* plan) {
  plan->cluster_size.assign(static_cast<size_t>(plan->coarse_rows), 0);
  for (int64_t i = 0; i < plan->fine_rows; ++i) {
    ++plan->cluster_size[plan->fine_to_coarse[i]];
  }
}

/// Members of each coarse row in ascending fine order.
void BuildMembers(const CoarsePlan& plan, std::vector<int64_t>* members_ptr,
                  std::vector<int64_t>* members) {
  members_ptr->assign(static_cast<size_t>(plan.coarse_rows) + 1, 0);
  for (int64_t i = 0; i < plan.fine_rows; ++i) {
    ++(*members_ptr)[plan.fine_to_coarse[i] + 1];
  }
  for (int64_t c = 0; c < plan.coarse_rows; ++c) {
    (*members_ptr)[c + 1] += (*members_ptr)[c];
  }
  members->resize(static_cast<size_t>(plan.fine_rows));
  std::vector<int64_t> cursor(members_ptr->begin(), members_ptr->end() - 1);
  for (int64_t i = 0; i < plan.fine_rows; ++i) {
    (*members)[cursor[plan.fine_to_coarse[i]]++] = i;
  }
}

}  // namespace

CoarsePlan BuildCoarsePlan(const la::CsrMatrix& union_pattern,
                           const std::vector<la::CsrMatrix>& views,
                           const CoarsenOptions& options) {
  const int64_t n = union_pattern.rows;
  CoarsePlan plan;
  plan.fine_rows = n;
  plan.coarse_rows = n;
  plan.fine_to_coarse.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) plan.fine_to_coarse[i] = i;
  const int64_t target =
      options.ratio > 0.0
          ? std::max<int64_t>(
                static_cast<int64_t>(
                    std::ceil(options.ratio * static_cast<double>(n))),
                options.min_coarse_rows)
          : n;
  if (options.ratio <= 0.0 || n <= target) {
    FillClusterSizes(&plan);
    return plan;
  }
  LevelGraph g = LevelFromUnion(union_pattern,
                                PatternMultiplicity(union_pattern, views));
  int64_t current_rows = n;
  std::vector<int64_t> map;
  while (current_rows > target) {
    const int64_t next = MatchLevel(g, current_rows - target, &map);
    // Shrink of less than 5%: the matching has saturated (e.g. a near-empty
    // union); forcing more levels would only burn time.
    if (next * 20 > current_rows * 19) break;
    for (int64_t i = 0; i < n; ++i) {
      plan.fine_to_coarse[i] = map[plan.fine_to_coarse[i]];
    }
    current_rows = next;
    if (current_rows <= target) break;
    g = ContractLevel(g, map, next);
  }
  plan.coarse_rows = current_rows;
  FillClusterSizes(&plan);
  return plan;
}

void RepairCoarsePlan(const la::CsrMatrix& union_pattern,
                      const std::vector<la::CsrMatrix>& views,
                      const std::vector<bool>& /*changed_rows*/,
                      CoarsePlan* plan) {
  *plan = BuildCoarsePlan(union_pattern, views);
}

la::CsrMatrix ContractView(const la::CsrMatrix& fine, const CoarsePlan& plan) {
  SGLA_CHECK(fine.rows == plan.fine_rows) << "ContractView shape mismatch";
  std::vector<int64_t> members_ptr, members;
  BuildMembers(plan, &members_ptr, &members);
  // Per coarse row, accumulate inter-cluster similarity in ascending
  // (member, slot) order — fixed per row, so the chunk partition cannot
  // change any floating-point sum. Each chunk brings its own scratch;
  // allocation here is registration-time cost, not solve-path cost.
  std::vector<std::vector<graph::Edge>> row_edges(
      static_cast<size_t>(plan.coarse_rows));
  util::ThreadPool::Global().ParallelFor(
      0, plan.coarse_rows, kCoarseGrain, [&](int64_t lo, int64_t hi) {
        std::vector<double> accum(static_cast<size_t>(plan.coarse_rows), 0.0);
        std::vector<int64_t> touched;
        for (int64_t dst = lo; dst < hi; ++dst) {
          touched.clear();
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const int64_t i = members[m];
            for (int64_t p = fine.row_ptr[i]; p < fine.row_ptr[i + 1]; ++p) {
              const int64_t other = plan.fine_to_coarse[fine.col_idx[p]];
              if (other == dst) continue;
              // Off-diagonal Laplacian entries are -similarity; clamp keeps
              // hostile positive off-diagonals from becoming negative edges.
              const double s = std::max(0.0, -fine.values[p]);
              if (s == 0.0) continue;
              if (accum[other] == 0.0) touched.push_back(other);
              accum[other] += s;
            }
          }
          std::sort(touched.begin(), touched.end());
          for (int64_t other : touched) {
            // The fine Laplacian is symmetric, so each undirected coarse
            // edge is seen (with the same total) from both endpoint rows;
            // emit it once, from the smaller id.
            if (other > dst) {
              row_edges[dst].push_back({dst, other, accum[other]});
            }
            accum[other] = 0.0;
          }
        }
      });
  std::vector<graph::Edge> edges;
  for (const std::vector<graph::Edge>& row : row_edges) {
    edges.insert(edges.end(), row.begin(), row.end());
  }
  return graph::NormalizedLaplacian(
      graph::Graph::FromEdges(plan.coarse_rows, std::move(edges)));
}

la::DenseMatrix AverageRows(const la::DenseMatrix& fine,
                            const CoarsePlan& plan) {
  SGLA_CHECK(fine.rows() == plan.fine_rows) << "AverageRows shape mismatch";
  std::vector<int64_t> members_ptr, members;
  BuildMembers(plan, &members_ptr, &members);
  la::DenseMatrix out(plan.coarse_rows, fine.cols());
  util::ThreadPool::Global().ParallelFor(
      0, plan.coarse_rows, kCoarseGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t dst = lo; dst < hi; ++dst) {
          double* orow = out.Row(dst);
          for (int64_t m = members_ptr[dst]; m < members_ptr[dst + 1]; ++m) {
            const double* frow = fine.Row(members[m]);
            for (int64_t c = 0; c < fine.cols(); ++c) orow[c] += frow[c];
          }
          const double inv = 1.0 / static_cast<double>(plan.cluster_size[dst]);
          for (int64_t c = 0; c < fine.cols(); ++c) orow[c] *= inv;
        }
      });
  return out;
}

void ProlongateLabels(const CoarsePlan& plan,
                      const std::vector<int32_t>& coarse_labels,
                      std::vector<int32_t>* fine) {
  SGLA_CHECK(static_cast<int64_t>(coarse_labels.size()) == plan.coarse_rows)
      << "ProlongateLabels size mismatch";
  fine->resize(static_cast<size_t>(plan.fine_rows));
  util::ThreadPool::Global().ParallelFor(
      0, plan.fine_rows, kRowGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          (*fine)[i] = coarse_labels[plan.fine_to_coarse[i]];
        }
      });
}

}  // namespace coarse
}  // namespace sgla
