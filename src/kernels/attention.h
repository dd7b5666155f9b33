/**
 * @file
 * Tensor-level entry points for the fused clustering kernels.
 *
 * These wrap the raw-pointer kernels in kernels.h with layout handling,
 * runtime-pool parallelism (chunk-deterministic) and DeviceManager flop
 * accounting, so the clustering core can call them like any other
 * tensor op. The fused attention table computes
 *
 *     softmax_rows( -(u_i - c_j)^2 / tau )
 *
 * in a single pass with no intermediate tensors — replacing the
 * composed `sub -> square -> mulScalar -> softmaxLastDim` chain, whose
 * per-element result it reproduces exactly (same IEEE operations in the
 * same order; asserted by tests/test_kernels.cc).
 */

#ifndef EDKM_KERNELS_ATTENTION_H_
#define EDKM_KERNELS_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace edkm {
namespace kernels {

/**
 * Fused attention table. @p u is the value column ([U], [U,1] or any
 * contiguous layout of U elements), @p c the centroid row ([k], [1,k],
 * [k,1]). Returns softmax_rows(-(u_i - c_j)^2 / tau) as [U, k].
 */
Tensor attentionTable(const Tensor &u, const Tensor &c, float tau);

/**
 * Fused distance+argmin against ascending-sorted @p centroids for every
 * element of @p values, written to @p out (size n). Bit-compatible with
 * per-element binary-search `nearestCentroid`, vectorized and
 * parallelized over values.
 */
void assignNearest(const std::vector<float> &centroids, const float *values,
                   int64_t n, int32_t *out);

} // namespace kernels
} // namespace edkm

#endif // EDKM_KERNELS_ATTENTION_H_
