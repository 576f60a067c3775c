#ifndef SGLA_CORE_VIEW_LAPLACIAN_H_
#define SGLA_CORE_VIEW_LAPLACIAN_H_

#include <cstdint>
#include <vector>

#include "core/mvag.h"
#include "graph/knn.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace core {

/// Trust-boundary rules on graph content: an edge's endpoints lie in
/// [0, n) and its weight is finite and non-negative (zero-weight edges stay
/// legal); an attribute value is finite. Every intake enforces them —
/// ComputeViewLaplacian(s) below (and through them Register, RPC Register
/// and checkpoint Restore) and serve::ApplyDelta — so a malformed graph is
/// rejected with InvalidArgument instead of aborting the process or solving
/// to garbage.
Status ValidateEdge(int64_t u, int64_t v, double weight, int64_t n);
Status ValidateAttributeValues(const double* values, int64_t count);

/// One normalized Laplacian per view: graph views directly, attribute views
/// through a KNN graph built with `knn`. Order: graph views first, then
/// attribute views (matching the paper's L_1..L_r indexing). Fails with
/// InvalidArgument on a shape mismatch or on content that breaks the rules
/// above, naming the offending view.
Result<std::vector<la::CsrMatrix>> ComputeViewLaplacians(
    const MultiViewGraph& mvag, const graph::KnnOptions& knn = {});

/// The Laplacian of one view only, in the same global ordering (graph views
/// first). Bit-identical to ComputeViewLaplacians(mvag, knn)[view] — the
/// incremental-update path recomputes just the views a delta touched.
Result<la::CsrMatrix> ComputeViewLaplacian(const MultiViewGraph& mvag,
                                           int view,
                                           const graph::KnnOptions& knn = {});

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_VIEW_LAPLACIAN_H_
