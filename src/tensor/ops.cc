#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "device/device_manager.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "util/logging.h"

namespace edkm {

namespace {

using runtime::grainFor;
using runtime::grainForAligned;
using runtime::parallelFor;
using runtime::parallelReduce;

/** Contiguous-binary kernel signature from the dispatch table. */
using BinKernel = void (*)(const float *, const float *, float *,
                           int64_t);

/**
 * Apply a kernel/functor pair elementwise over a broadcast pair into a
 * fresh tensor: the vector @p kern covers the contiguous same-shape fast
 * path, the inlined scalar functor @p f the general broadcast walk (no
 * std::function dispatch in either).
 */
template <typename F>
Tensor
binaryOp(const Tensor &a, const Tensor &b, BinKernel kern, const F &f)
{
    Shape out_shape = broadcastShape(a.shape(), b.shape());
    Tensor out = Tensor::empty(out_shape, DType::kF32, a.device());
    int64_t n = out.numel();
    Tensor ac = toF32Contig(a);
    Tensor bc = toF32Contig(b);
    const float *pa = ac.rawData<float>();
    const float *pb = bc.rawData<float>();
    float *po = out.rawData<float>();

    // Fast path: identical shapes.
    if (a.shape() == b.shape()) {
        parallelFor(0, n, grainForAligned(n, 1, kernels::kAccLanes),
                    [&](int64_t cb, int64_t ce) {
                        kern(pa + cb, pb + cb, po + cb, ce - cb);
                    });
        chargeFlops(static_cast<double>(n), a.device());
        return out;
    }

    // General broadcast path: odometer walk with per-dim stride deltas
    // (stride 0 on broadcast dimensions). Each chunk re-derives its
    // odometer state from its first flat index, so chunks are
    // independent.
    int64_t rank = static_cast<int64_t>(out_shape.size());
    std::vector<int64_t> sa(rank, 0), sb(rank, 0);
    int64_t acc_a = 1, acc_b = 1;
    for (int64_t d = rank - 1; d >= 0; --d) {
        int64_t off_a = d - (rank - ac.dim());
        int64_t off_b = d - (rank - bc.dim());
        int64_t dim_a = off_a >= 0 ? ac.shape()[off_a] : 1;
        int64_t dim_b = off_b >= 0 ? bc.shape()[off_b] : 1;
        sa[d] = (dim_a == 1) ? 0 : acc_a;
        sb[d] = (dim_b == 1) ? 0 : acc_b;
        acc_a *= dim_a;
        acc_b *= dim_b;
    }
    parallelFor(0, n, grainFor(n), [&](int64_t cb, int64_t ce) {
        std::vector<int64_t> idx(rank, 0);
        int64_t rem = cb;
        int64_t oa = 0, ob = 0;
        for (int64_t d = rank - 1; d >= 0; --d) {
            idx[d] = rem % out_shape[d];
            rem /= out_shape[d];
            oa += idx[d] * sa[d];
            ob += idx[d] * sb[d];
        }
        for (int64_t i = cb; i < ce; ++i) {
            po[i] = f(pa[oa], pb[ob]);
            for (int64_t d = rank - 1; d >= 0; --d) {
                oa += sa[d];
                ob += sb[d];
                if (++idx[d] < out_shape[d]) {
                    break;
                }
                idx[d] = 0;
                oa -= sa[d] * out_shape[d];
                ob -= sb[d] * out_shape[d];
            }
        }
    });
    chargeFlops(static_cast<double>(n), a.device());
    return out;
}

/** Apply the scalar functor @p f elementwise (cold ops with no vector
 *  kernel: pow, log, reciprocal). */
template <typename F>
Tensor
unaryOp(const Tensor &a, const F &f)
{
    Tensor out = Tensor::empty(a.shape(), DType::kF32, a.device());
    int64_t n = a.numel();
    float *po = out.rawData<float>();
    if (a.isContiguous() && a.dtype() == DType::kF32) {
        const float *pa = a.rawData<float>();
        parallelFor(0, n, grainFor(n), [&](int64_t cb, int64_t ce) {
            for (int64_t i = cb; i < ce; ++i) {
                po[i] = f(pa[i]);
            }
        });
    } else {
        parallelFor(0, n, grainFor(n, 4), [&](int64_t cb, int64_t ce) {
            for (int64_t i = cb; i < ce; ++i) {
                po[i] = f(a.flatAt(i));
            }
        });
    }
    chargeFlops(static_cast<double>(n), a.device());
    return out;
}

/**
 * Apply a contiguous vector kernel elementwise. Non-contiguous or
 * non-f32 inputs are compacted first (single fused pass) so every
 * layout runs the same kernel — results never depend on strides.
 */
template <typename K>
Tensor
unaryKernelOp(const Tensor &a, const K &kern_call)
{
    Tensor ac = toF32Contig(a);
    Tensor out = Tensor::empty(a.shape(), DType::kF32, a.device());
    int64_t n = a.numel();
    const float *pa = ac.rawData<const float>();
    float *po = out.rawData<float>();
    parallelFor(0, n, grainForAligned(n, 1, kernels::kAccLanes),
                [&](int64_t cb, int64_t ce) {
                    kern_call(pa + cb, po + cb, ce - cb);
                });
    chargeFlops(static_cast<double>(n), a.device());
    return out;
}

} // namespace

Tensor
toF32Contig(const Tensor &t)
{
    if (t.dtype() == DType::kF32) {
        return t.isContiguous() ? t : t.contiguous();
    }
    if (t.isContiguous()) {
        return t.to(DType::kF32);
    }
    // Strided read + dtype conversion fused into one pass (instead of a
    // contiguous() copy followed by a full to(kF32) re-copy).
    Tensor out = Tensor::empty(t.shape(), DType::kF32, t.device());
    float *po = out.rawData<float>();
    int64_t n = t.numel();
    parallelFor(0, n, grainFor(n, 4), [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
            po[i] = t.flatAt(i);
        }
    });
    return out;
}

Shape
broadcastShape(const Shape &a, const Shape &b)
{
    size_t rank = std::max(a.size(), b.size());
    Shape out(rank);
    for (size_t i = 0; i < rank; ++i) {
        int64_t da = (i < rank - a.size()) ? 1 : a[i - (rank - a.size())];
        int64_t db = (i < rank - b.size()) ? 1 : b[i - (rank - b.size())];
        if (da == db || da == 1 || db == 1) {
            out[i] = std::max(da, db);
        } else {
            fatal("broadcastShape: incompatible dims ", da, " vs ", db);
        }
    }
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, kernels::active().add,
                    [](float x, float y) { return x + y; });
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, kernels::active().sub,
                    [](float x, float y) { return x - y; });
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, kernels::active().mul,
                    [](float x, float y) { return x * y; });
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return binaryOp(a, b, kernels::active().div,
                    [](float x, float y) { return x / y; });
}

Tensor
addScalar(const Tensor &a, float s)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt, s](const float *p, float *o,
                                     int64_t n) { kt.offset(p, s, o, n); });
}

Tensor
mulScalar(const Tensor &a, float s)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt, s](const float *p, float *o,
                                     int64_t n) { kt.scale(p, s, o, n); });
}

Tensor
powScalar(const Tensor &a, float p)
{
    return unaryOp(a, [p](float x) { return std::pow(x, p); });
}

Tensor
neg(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.negate(p, o, n);
    });
}

Tensor
expT(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.expv(p, o, n);
    });
}

Tensor
logT(const Tensor &a)
{
    return unaryOp(a, [](float x) { return std::log(x); });
}

Tensor
sqrtT(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.sqrtv(p, o, n);
    });
}

Tensor
absT(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.absval(p, o, n);
    });
}

Tensor
square(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.squarev(p, o, n);
    });
}

Tensor
reciprocal(const Tensor &a)
{
    return unaryOp(a, [](float x) { return 1.0f / x; });
}

Tensor
clampT(const Tensor &a, float lo, float hi)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a,
                         [&kt, lo, hi](const float *p, float *o,
                                       int64_t n) {
                             kt.clampv(p, lo, hi, o, n);
                         });
}

Tensor
silu(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.siluv(p, o, n);
    });
}

Tensor
relu(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.reluv(p, o, n);
    });
}

Tensor
sigmoid(const Tensor &a)
{
    const kernels::KernelTable &kt = kernels::active();
    return unaryKernelOp(a, [&kt](const float *p, float *o, int64_t n) {
        kt.sigmoidv(p, o, n);
    });
}

namespace {

/**
 * Core 2-D matmul on contiguous f32 buffers. Shape-specialised onto the
 * kernel layer: a blocked matvec for [m,k]x[k,1] (attention pooling,
 * W~ = A*C), a column-parallel single row for [1,k]x[k,n], and an
 * axpy-based row loop for the general case — all chunk-deterministic.
 *
 * Row-shape invariance: every output element of the m==1 and general
 * paths accumulates in the same ascending-p order with the same zero
 * skip, so row i of an [m,k]x[k,n] product is bit-identical to the
 * [1,k]x[k,n] product of row i alone. KV-cache incremental decode
 * (serve/engine) relies on this to reproduce full-prefix logits
 * bit-exactly from single-position forwards.
 */
void
matmul2d(const float *a, const float *b, float *c, int64_t m, int64_t k,
         int64_t n)
{
    const kernels::KernelTable &kt = kernels::active();
    if (n == 1) {
        // Matvec: one fixed-lane dot per output row.
        parallelFor(0, m, grainFor(m, 2 * k),
                    [&](int64_t rb, int64_t re) {
                        kt.matvec(a + rb * k, re - rb, k, b, c + rb);
                    });
        return;
    }
    if (m == 1) {
        // One row: parallelise over output columns; axpy is elementwise,
        // so each element still accumulates ascending-p with zero skip —
        // identical to the row loop below at any thread count.
        parallelFor(0, n, grainFor(n, 2 * k), [&](int64_t cb, int64_t ce) {
            std::fill(c + cb, c + ce, 0.0f);
            for (int64_t p = 0; p < k; ++p) {
                float av = a[p];
                if (av == 0.0f) {
                    continue;
                }
                kt.axpy(b + p * n + cb, av, c + cb, ce - cb);
            }
        });
        return;
    }
    parallelFor(0, m, grainFor(m, 2 * k * n), [&](int64_t rb, int64_t re) {
        std::fill(c + rb * n, c + re * n, 0.0f);
        for (int64_t i = rb; i < re; ++i) {
            for (int64_t p = 0; p < k; ++p) {
                float av = a[i * k + p];
                if (av == 0.0f) {
                    continue;
                }
                kt.axpy(b + p * n, av, c + i * n, n);
            }
        }
    });
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    EDKM_CHECK(a.dim() >= 2 && b.dim() >= 2, "matmul: need >=2-d operands");
    Tensor ac = toF32Contig(a);
    Tensor bc = toF32Contig(b);

    if (ac.dim() == 2 && bc.dim() == 2) {
        int64_t m = ac.size(0), k = ac.size(1);
        EDKM_CHECK(bc.size(0) == k, "matmul: inner dims ", k, " vs ",
                   bc.size(0));
        int64_t n = bc.size(1);
        Tensor out = Tensor::empty({m, n}, DType::kF32, ac.device());
        matmul2d(ac.rawData<float>(), bc.rawData<float>(),
                 out.rawData<float>(), m, k, n);
        chargeFlops(2.0 * m * k * n, ac.device());
        return out;
    }

    // Batched: [b,m,k] x [b,k,n] or [b,m,k] x [k,n].
    EDKM_CHECK(ac.dim() == 3, "matmul: unsupported ranks");
    int64_t bs = ac.size(0), m = ac.size(1), k = ac.size(2);
    bool b_batched = bc.dim() == 3;
    int64_t n = b_batched ? bc.size(2) : bc.size(1);
    EDKM_CHECK((b_batched ? bc.size(1) : bc.size(0)) == k,
               "matmul: inner dim mismatch");
    if (b_batched) {
        EDKM_CHECK(bc.size(0) == bs, "matmul: batch mismatch");
    }
    Tensor out = Tensor::empty({bs, m, n}, DType::kF32, ac.device());
    const float *pa = ac.rawData<float>();
    const float *pb = bc.rawData<float>();
    float *po = out.rawData<float>();
    for (int64_t i = 0; i < bs; ++i) {
        matmul2d(pa + i * m * k, b_batched ? pb + i * k * n : pb,
                 po + i * m * n, m, k, n);
    }
    chargeFlops(2.0 * bs * m * k * n, ac.device());
    return out;
}

Tensor
matmulStreamed(const Tensor &a, int64_t k, int64_t n,
               const MatmulRowFill &fill)
{
    EDKM_CHECK(a.dim() == 2, "matmulStreamed: left operand must be 2-d");
    EDKM_CHECK(k >= 1 && n >= 1, "matmulStreamed: bad B geometry [", k,
               ",", n, "]");
    Tensor ac = toF32Contig(a);
    EDKM_CHECK(ac.size(1) == k, "matmulStreamed: inner dims ", ac.size(1),
               " vs ", k);
    int64_t m = ac.size(0);
    Tensor out = Tensor::empty({m, n}, DType::kF32, ac.device());
    const float *pa = ac.rawData<float>();
    float *pc = out.rawData<float>();
    const kernels::KernelTable &kt = kernels::active();

    if (n == 1) {
        // Matvec: B is one column; mirror matmul2d's fixed-lane dots.
        std::vector<float> b(static_cast<size_t>(k));
        fill(0, k, b.data());
        parallelFor(0, m, grainFor(m, 2 * k),
                    [&](int64_t rb, int64_t re) {
                        kt.matvec(pa + rb * k, re - rb, k, b.data(),
                                  pc + rb);
                    });
    } else if (m == 1) {
        // One row: stream B tiles in ascending-p order and parallelise
        // over output columns. Each element accumulates ascending-p with
        // the same zero skip as matmul2d's m==1 path, preserving the
        // row-shape invariance the KV-cache decode path relies on.
        // Tile decompression parallelises over disjoint row ranges —
        // fill values are threading-independent, and the accumulation
        // below only starts after the whole tile is in place, so the
        // FP op sequence is untouched.
        std::fill(pc, pc + n, 0.0f);
        int64_t tile_rows =
            std::max<int64_t>(1, std::min(k, (256 << 10) / (n * 4)));
        std::vector<float> tile(static_cast<size_t>(tile_rows * n));
        for (int64_t p0 = 0; p0 < k; p0 += tile_rows) {
            int64_t p1 = std::min(k, p0 + tile_rows);
            float *pt = tile.data();
            parallelFor(p0, p1, grainFor(p1 - p0, n),
                        [&](int64_t fb, int64_t fe) {
                            fill(fb, fe, pt + (fb - p0) * n);
                        });
            parallelFor(0, n, grainFor(n, 2 * (p1 - p0)),
                        [&](int64_t cb, int64_t ce) {
                            for (int64_t p = p0; p < p1; ++p) {
                                float av = pa[p];
                                if (av == 0.0f) {
                                    continue;
                                }
                                kt.axpy(pt + (p - p0) * n + cb, av,
                                        pc + cb, ce - cb);
                            }
                        });
        }
    } else {
        // General case: p-tiles stream through a bounded scratch; per
        // output row the accumulation stays ascending-p with the same
        // zero skip, so the result matches matmul2d's axpy loop bit for
        // bit while only ever holding one tile of B.
        std::fill(pc, pc + m * n, 0.0f);
        int64_t tile_rows =
            std::max<int64_t>(1, std::min(k, (256 << 10) / (n * 4)));
        std::vector<float> tile(static_cast<size_t>(tile_rows * n));
        for (int64_t p0 = 0; p0 < k; p0 += tile_rows) {
            int64_t p1 = std::min(k, p0 + tile_rows);
            // Decompress the tile in parallel like the m==1 path: fill
            // ranges are disjoint and value-deterministic, and the row
            // accumulation below only starts once the tile is complete,
            // so the per-row FP op sequence is untouched. This is what
            // keeps batched decode (m = batch) from serialising on
            // codec decompression.
            float *pw = tile.data();
            parallelFor(p0, p1, grainFor(p1 - p0, n),
                        [&](int64_t fb, int64_t fe) {
                            fill(fb, fe, pw + (fb - p0) * n);
                        });
            const float *pt = tile.data();
            parallelFor(0, m, grainFor(m, 2 * (p1 - p0) * n),
                        [&](int64_t rb, int64_t re) {
                            for (int64_t i = rb; i < re; ++i) {
                                for (int64_t p = p0; p < p1; ++p) {
                                    float av = pa[i * k + p];
                                    if (av == 0.0f) {
                                        continue;
                                    }
                                    kt.axpy(pt + (p - p0) * n, av,
                                            pc + i * n, n);
                                }
                            }
                        });
        }
    }
    chargeFlops(2.0 * m * k * n, ac.device());
    return out;
}

Tensor
sumAll(const Tensor &a)
{
    // Chunked reduction: per-chunk double partials combined in chunk
    // order — identical result for any thread count (incl. serial).
    int64_t n = a.numel();
    auto combine = [](double x, double y) { return x + y; };
    double acc;
    if (a.isContiguous() && a.dtype() == DType::kF32) {
        const float *p = a.rawData<float>();
        acc = parallelReduce<double>(
            0, n, grainFor(n), 0.0,
            [&](int64_t cb, int64_t ce) {
                double s = 0.0;
                for (int64_t i = cb; i < ce; ++i) {
                    s += p[i];
                }
                return s;
            },
            combine);
    } else {
        acc = parallelReduce<double>(
            0, n, grainFor(n, 4), 0.0,
            [&](int64_t cb, int64_t ce) {
                double s = 0.0;
                for (int64_t i = cb; i < ce; ++i) {
                    s += a.flatAt(i);
                }
                return s;
            },
            combine);
    }
    chargeFlops(static_cast<double>(n), a.device());
    return Tensor::full({1}, static_cast<float>(acc), DType::kF32,
                        a.device());
}

Tensor
meanAll(const Tensor &a)
{
    Tensor s = sumAll(a);
    return mulScalar(s, 1.0f / static_cast<float>(a.numel()));
}

Tensor
sumDim(const Tensor &a, int64_t d, bool keepdim)
{
    if (d < 0) d += a.dim();
    EDKM_CHECK(d >= 0 && d < a.dim(), "sumDim: dim out of range");
    Shape out_shape = a.shape();
    out_shape[d] = 1;
    Tensor out = Tensor::zeros(out_shape, DType::kF32, a.device());

    // outer x reduce x inner decomposition over a contiguous copy.
    Tensor ac = toF32Contig(a);
    int64_t reduce = a.shape()[d];
    int64_t inner = 1;
    for (int64_t dd = d + 1; dd < a.dim(); ++dd) {
        inner *= a.shape()[dd];
    }
    int64_t outer = a.numel() / (reduce * inner);
    const float *pa = ac.rawData<float>();
    float *po = out.rawData<float>();
    parallelFor(0, outer, grainFor(outer, reduce * inner),
                [&](int64_t ob, int64_t oe) {
                    for (int64_t o = ob; o < oe; ++o) {
                        const float *block = pa + o * reduce * inner;
                        float *orow = po + o * inner;
                        for (int64_t r = 0; r < reduce; ++r) {
                            const float *row = block + r * inner;
                            for (int64_t i = 0; i < inner; ++i) {
                                orow[i] += row[i];
                            }
                        }
                    }
                });
    chargeFlops(static_cast<double>(a.numel()), a.device());
    return keepdim ? out : out.squeeze(d);
}

Tensor
meanDim(const Tensor &a, int64_t d, bool keepdim)
{
    int64_t dd = d < 0 ? d + a.dim() : d;
    Tensor s = sumDim(a, d, keepdim);
    return mulScalar(s, 1.0f / static_cast<float>(a.shape()[dd]));
}

std::pair<Tensor, Tensor>
maxLastDim(const Tensor &a)
{
    EDKM_CHECK(a.dim() >= 1, "maxLastDim: needs >=1-d");
    int64_t cols = a.size(-1);
    int64_t rows = a.numel() / cols;
    Tensor ac = a.isContiguous() ? a : a.contiguous();
    Shape out_shape(a.shape().begin(), a.shape().end() - 1);
    if (out_shape.empty()) {
        out_shape.push_back(1);
    }
    Tensor values = Tensor::empty(out_shape, DType::kF32, a.device());
    Tensor indices = Tensor::empty(out_shape, DType::kI64, a.device());
    parallelFor(0, rows, grainFor(rows, cols),
                [&](int64_t rb, int64_t re) {
                    for (int64_t r = rb; r < re; ++r) {
                        float best = ac.flatAt(r * cols);
                        int64_t best_i = 0;
                        for (int64_t c = 1; c < cols; ++c) {
                            float v = ac.flatAt(r * cols + c);
                            if (v > best) {
                                best = v;
                                best_i = c;
                            }
                        }
                        values.setFlatAt(r, best);
                        indices.setFlatAtInt(r, best_i);
                    }
                });
    chargeFlops(static_cast<double>(a.numel()), a.device());
    return {values, indices};
}

Tensor
argmaxLastDim(const Tensor &a)
{
    return maxLastDim(a).second;
}

Tensor
softmaxLastDim(const Tensor &a)
{
    int64_t cols = a.size(-1);
    int64_t rows = a.numel() / cols;
    Tensor ac = toF32Contig(a);
    Tensor out = Tensor::empty(a.shape(), DType::kF32, a.device());
    const float *pi = ac.rawData<float>();
    float *po = out.rawData<float>();
    const kernels::KernelTable &kt = kernels::active();
    parallelFor(0, rows, grainFor(rows, 5 * cols),
                [&](int64_t rb, int64_t re) {
                    kt.softmaxRows(pi + rb * cols, re - rb, cols,
                                   po + rb * cols);
                });
    chargeFlops(5.0 * static_cast<double>(a.numel()), a.device());
    return out;
}

Tensor
logSoftmaxLastDim(const Tensor &a)
{
    int64_t cols = a.size(-1);
    int64_t rows = a.numel() / cols;
    Tensor ac = toF32Contig(a);
    Tensor out = Tensor::empty(a.shape(), DType::kF32, a.device());
    const float *pi = ac.rawData<float>();
    float *po = out.rawData<float>();
    parallelFor(0, rows, grainFor(rows, 5 * cols),
                [&](int64_t rb, int64_t re) {
                    for (int64_t r = rb; r < re; ++r) {
                        const float *row = pi + r * cols;
                        float *orow = po + r * cols;
                        float mx = row[0];
                        for (int64_t c = 1; c < cols; ++c) {
                            mx = std::max(mx, row[c]);
                        }
                        double denom = 0.0;
                        for (int64_t c = 0; c < cols; ++c) {
                            denom += std::exp(row[c] - mx);
                        }
                        float lse =
                            mx + static_cast<float>(std::log(denom));
                        for (int64_t c = 0; c < cols; ++c) {
                            orow[c] = row[c] - lse;
                        }
                    }
                });
    chargeFlops(5.0 * static_cast<double>(a.numel()), a.device());
    return out;
}

Tensor
gatherRows(const Tensor &table, const Tensor &indices)
{
    EDKM_CHECK(table.dim() == 2, "gatherRows: table must be 2-d");
    EDKM_CHECK(indices.dim() == 1, "gatherRows: indices must be 1-d");
    int64_t rows = table.size(0), cols = table.size(1);
    int64_t n = indices.numel();
    Tensor tc = toF32Contig(table);
    Tensor out = Tensor::empty({n, cols}, DType::kF32, table.device());
    const float *pt = tc.rawData<float>();
    float *po = out.rawData<float>();
    parallelFor(0, n, grainFor(n, cols), [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
            int64_t r = indices.flatAtInt(i);
            EDKM_CHECK(r >= 0 && r < rows, "gatherRows: index ", r,
                       " out of range [0,", rows, ")");
            std::copy(pt + r * cols, pt + (r + 1) * cols, po + i * cols);
        }
    });
    chargeFlops(static_cast<double>(n * cols), table.device());
    return out;
}

Tensor
scatterAddRows(const Tensor &src, const Tensor &indices, int64_t rows)
{
    EDKM_CHECK(src.dim() == 2, "scatterAddRows: src must be 2-d");
    EDKM_CHECK(indices.dim() == 1 && indices.numel() == src.size(0),
               "scatterAddRows: one index per src row");
    int64_t cols = src.size(1);
    Tensor sc = toF32Contig(src);
    Tensor out = Tensor::zeros({rows, cols}, DType::kF32, src.device());
    const float *ps = sc.rawData<float>();
    float *po = out.rawData<float>();
    int64_t n = src.size(0);
    for (int64_t i = 0; i < n; ++i) {
        int64_t r = indices.flatAtInt(i);
        EDKM_CHECK(r >= 0 && r < rows, "scatterAddRows: index out of range");
        const float *srow = ps + i * cols;
        float *orow = po + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
            orow[c] += srow[c];
        }
    }
    chargeFlops(static_cast<double>(n * cols), src.device());
    return out;
}

Tensor
cat0(const std::vector<Tensor> &parts)
{
    EDKM_CHECK(!parts.empty(), "cat0: no tensors");
    Shape shape = parts[0].shape();
    int64_t total = 0;
    for (const Tensor &p : parts) {
        EDKM_CHECK(p.dim() == static_cast<int64_t>(shape.size()),
                   "cat0: rank mismatch");
        for (int64_t d = 1; d < p.dim(); ++d) {
            EDKM_CHECK(p.size(d) == shape[d], "cat0: trailing shape "
                       "mismatch");
        }
        total += p.size(0);
    }
    shape[0] = total;
    Tensor out = Tensor::empty(shape, DType::kF32, parts[0].device());
    int64_t written = 0;
    for (const Tensor &p : parts) {
        Tensor pc = toF32Contig(p);
        int64_t n = pc.numel();
        std::copy(pc.rawData<float>(), pc.rawData<float>() + n,
                  out.rawData<float>() + written);
        written += n;
    }
    return out;
}

void
copyIntoView(Tensor view, const Tensor &src)
{
    EDKM_CHECK(view.numel() == src.numel(),
               "copyIntoView: numel mismatch");
    int64_t n = view.numel();
    parallelFor(0, n, grainFor(n, 4), [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
            view.setFlatAt(i, src.flatAt(i));
        }
    });
}

Tensor
broadcastTo(const Tensor &t, const Shape &shape)
{
    return add(Tensor::zeros(shape, DType::kF32, t.device()), t);
}

bool
allclose(const Tensor &a, const Tensor &b, float rtol, float atol)
{
    if (a.shape() != b.shape()) {
        return false;
    }
    int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) {
        float x = a.flatAt(i), y = b.flatAt(i);
        if (std::fabs(x - y) > atol + rtol * std::fabs(y)) {
            return false;
        }
    }
    return true;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    EDKM_CHECK(a.numel() == b.numel(), "maxAbsDiff: numel mismatch");
    float mx = 0.0f;
    int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) {
        mx = std::max(mx, std::fabs(a.flatAt(i) - b.flatAt(i)));
    }
    return mx;
}

// Operator sugar on Tensor (declared in tensor.h).
Tensor
Tensor::operator+(const Tensor &o) const
{
    return edkm::add(*this, o);
}
Tensor
Tensor::operator-(const Tensor &o) const
{
    return edkm::sub(*this, o);
}
Tensor
Tensor::operator*(const Tensor &o) const
{
    return edkm::mul(*this, o);
}
Tensor
Tensor::operator/(const Tensor &o) const
{
    return edkm::div(*this, o);
}
Tensor
Tensor::operator*(float s) const
{
    return edkm::mulScalar(*this, s);
}
Tensor
Tensor::operator+(float s) const
{
    return edkm::addScalar(*this, s);
}
Tensor
Tensor::operator-() const
{
    return edkm::neg(*this);
}

} // namespace edkm
