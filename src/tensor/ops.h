/**
 * @file
 * Non-differentiable tensor kernels.
 *
 * These free functions implement the arithmetic the autograd layer and the
 * clustering core are built from. Every kernel computes in float32
 * regardless of storage dtype and records its flop count with the
 * DeviceManager cost model so experiments report simulated runtimes.
 *
 * Broadcasting follows numpy rules (trailing dims aligned; size-1 dims
 * stretch).
 */

#ifndef EDKM_TENSOR_OPS_H_
#define EDKM_TENSOR_OPS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace edkm {

// ----------------------------------------------------------------------
// Elementwise binary (broadcasting)
// ----------------------------------------------------------------------

Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);
Tensor div(const Tensor &a, const Tensor &b);

/** Result shape of broadcasting @p a against @p b (fatal if impossible). */
Shape broadcastShape(const Shape &a, const Shape &b);

// ----------------------------------------------------------------------
// Elementwise with scalar / unary
// ----------------------------------------------------------------------

Tensor addScalar(const Tensor &a, float s);
Tensor mulScalar(const Tensor &a, float s);
Tensor powScalar(const Tensor &a, float p);
Tensor neg(const Tensor &a);
Tensor expT(const Tensor &a);
Tensor logT(const Tensor &a);
Tensor sqrtT(const Tensor &a);
Tensor absT(const Tensor &a);
Tensor square(const Tensor &a);
Tensor reciprocal(const Tensor &a);
Tensor clampT(const Tensor &a, float lo, float hi);
Tensor silu(const Tensor &a);
Tensor relu(const Tensor &a);
Tensor sigmoid(const Tensor &a);

// ----------------------------------------------------------------------
// Matrix multiply
// ----------------------------------------------------------------------

/**
 * Matrix product. Supports [m,k]x[k,n] and batched [b,m,k]x[b,k,n]
 * (or [b,m,k]x[k,n] with broadcast of the right operand).
 *
 * Row-shape invariance (n > 1): row i of the result is bit-identical to
 * `matmul(a.slice(0, i, i+1), b)` — the m==1 path accumulates each
 * element in the same ascending-k order with the same zero skip as the
 * general row loop. Single-position KV-cache decode depends on this to
 * reproduce full-prefix forwards bit-exactly.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * Row-block provider for matmulStreamed: fill rows [p0, p1) of the
 * right operand B — each @p n floats, row-major — into @p dst. Ranges
 * are non-overlapping and cover [0, k), but are NOT always sequential:
 * the m==1 path decompresses each tile's sub-ranges concurrently from
 * pool threads. Providers must be re-entrant and keep no cross-call
 * state (per-call locals only).
 */
using MatmulRowFill =
    std::function<void(int64_t p0, int64_t p1, float *dst)>;

/**
 * y = a · B for a [m, k] @p a and a [k, n] right operand whose rows are
 * produced on demand by @p fill, so B is never resident as a whole —
 * the serving path for palettized weights streams LUT+index tiles
 * through here.
 *
 * Bit-identical to `matmul(a, B)` with B dense: every accumulation
 * (per-output-row ascending-p order for m >= 1, the n==1 fixed-lane
 * matvec) replays the dense kernel's exact FP op sequence on tile
 * copies of the same values — including matmul's row-shape invariance.
 *
 * The palettized m==1 decode (core/palettize.cc::paletteMatmulT) has a
 * fused sibling that skips the dense staging entirely
 * (kernels::KernelTable::paletteDotFused); it replays this function's
 * m==1 accumulation contract — ascending-p, zero skip, separate IEEE
 * mul/add per element — so the two stay bit-identical (ctest-gated).
 */
Tensor matmulStreamed(const Tensor &a, int64_t k, int64_t n,
                      const MatmulRowFill &fill);

// ----------------------------------------------------------------------
// Reductions
// ----------------------------------------------------------------------

/** Sum of all elements as a scalar (0-d equivalently shape {1}). */
Tensor sumAll(const Tensor &a);

/** Mean of all elements as a scalar. */
Tensor meanAll(const Tensor &a);

/** Sum along @p d (keepdim selectable). */
Tensor sumDim(const Tensor &a, int64_t d, bool keepdim = false);

/** Mean along @p d. */
Tensor meanDim(const Tensor &a, int64_t d, bool keepdim = false);

/** Row-max values and argmax indices along the last dimension. */
std::pair<Tensor, Tensor> maxLastDim(const Tensor &a);

/** Argmax along the last dimension (kI64). */
Tensor argmaxLastDim(const Tensor &a);

// ----------------------------------------------------------------------
// Softmax family (last dimension)
// ----------------------------------------------------------------------

Tensor softmaxLastDim(const Tensor &a);
Tensor logSoftmaxLastDim(const Tensor &a);

// ----------------------------------------------------------------------
// Indexing
// ----------------------------------------------------------------------

/** Gather rows of a [r, c] @p table by 1-D integer @p indices -> [n, c]. */
Tensor gatherRows(const Tensor &table, const Tensor &indices);

/**
 * Accumulate rows of @p src [n, c] into a new [rows, c] tensor at
 * positions given by @p indices (reverse of gatherRows; used by backward
 * passes of embedding and uniquified attention).
 */
Tensor scatterAddRows(const Tensor &src, const Tensor &indices,
                      int64_t rows);

/** Concatenate along dimension 0 (same trailing shape). */
Tensor cat0(const std::vector<Tensor> &parts);

/** Copy @p src elementwise into @p view (same logical shape; the view
 *  may alias another tensor's storage, e.g. a slice). */
void copyIntoView(Tensor view, const Tensor &src);

/** Materialise @p t broadcast to @p shape. */
Tensor broadcastTo(const Tensor &t, const Shape &shape);

// ----------------------------------------------------------------------
// Layout helpers
// ----------------------------------------------------------------------

/**
 * @p t as a contiguous f32 tensor: a no-op view when it already is one,
 * otherwise a single fused strided-read + dtype-convert pass (never the
 * contiguous()-then-to(kF32) double copy).
 */
Tensor toF32Contig(const Tensor &t);

// ----------------------------------------------------------------------
// Comparisons / test helpers
// ----------------------------------------------------------------------

/** True when |a-b| <= atol + rtol*|b| elementwise (converted to f32). */
bool allclose(const Tensor &a, const Tensor &b, float rtol = 1e-5f,
              float atol = 1e-6f);

/** Max absolute elementwise difference. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace edkm

#endif // EDKM_TENSOR_OPS_H_
