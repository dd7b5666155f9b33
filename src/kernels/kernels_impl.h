/**
 * @file
 * Generic kernel implementations, templated over a SIMD backend tag.
 *
 * Each backend translation unit (kernels.cc for scalar, kernels_avx2.cc,
 * kernels_neon.cc) includes this header and instantiates
 * `makeKernelTable<Tag>()` exactly once. Vector main loops advance by the
 * hardware width; tails always run through `Vec<ScalarTag>` with the same
 * generic functor, which performs the identical IEEE operations — so a
 * kernel's result never depends on where the vector loop stops, and all
 * backends agree bitwise (see the contract in kernels.h).
 */

#ifndef EDKM_KERNELS_KERNELS_IMPL_H_
#define EDKM_KERNELS_KERNELS_IMPL_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "kernels/kernels.h"
#include "kernels/simd.h"

namespace edkm {
namespace kernels {
namespace impl {
// Anonymous namespace for the same reason as in simd.h: per-TU internal
// linkage so an ISA-specific TU's instantiations can never be COMDAT-
// merged into the scalar TU's (see the note there).
namespace {

// ----------------------------------------------------------------------
// Generic map loops (vector main + scalar-reference tail).
// ----------------------------------------------------------------------

template <typename Tag, typename F>
inline void
mapUnary(const float *a, float *o, int64_t n, const F &f)
{
    using V = Vec<Tag>;
    using S = Vec<ScalarTag>;
    int64_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        f(V::load(a + i)).store(o + i);
    }
    for (; i < n; ++i) {
        f(S::load(a + i)).store(o + i);
    }
}

template <typename Tag, typename F>
inline void
mapBinary(const float *a, const float *b, float *o, int64_t n, const F &f)
{
    using V = Vec<Tag>;
    using S = Vec<ScalarTag>;
    int64_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        f(V::load(a + i), V::load(b + i)).store(o + i);
    }
    for (; i < n; ++i) {
        f(S::load(a + i), S::load(b + i)).store(o + i);
    }
}

// ----------------------------------------------------------------------
// Polynomial expf shared by the exp-family kernels (Cephes-style).
// ~2 ulp over the representable range; saturates at exp(88) above and
// flushes to +0 below -87.33654 (where libm would return subnormals).
// ----------------------------------------------------------------------

template <typename V>
inline V
expPs(V x)
{
    const V hi = V::broadcast(88.0f);
    const V lo = V::broadcast(-87.33654f);
    const V log2e = V::broadcast(1.44269504088896341f);
    const V c1 = V::broadcast(0.693359375f);
    const V c2 = V::broadcast(-2.12194440e-4f);
    const V one = V::broadcast(1.0f);
    const V half = V::broadcast(0.5f);

    const V xin = x;
    V under = V::cmpLt(x, lo); // flush-to-zero mask on the *input*
    x = V::min(x, hi);
    x = V::max(x, lo);

    V n = V::floor(x * log2e + half);
    x = x - n * c1;
    x = x - n * c2;

    V p = V::broadcast(1.9875691500e-4f);
    p = p * x + V::broadcast(1.3981999507e-3f);
    p = p * x + V::broadcast(8.3334519073e-3f);
    p = p * x + V::broadcast(4.1665795894e-2f);
    p = p * x + V::broadcast(1.6666665459e-1f);
    p = p * x + V::broadcast(5.0000001201e-1f);
    V r = (p * (x * x) + x + one) * V::pow2Int(n);
    r = V::blend(under, V::broadcast(0.0f), r);
    // Propagate NaN (the clamps above would otherwise map it to
    // exp(88) and silently launder a poisoned input into a plausible
    // finite value): lanes where x is ordered keep r, NaN lanes keep x.
    return V::blend(V::cmpEq(xin, xin), r, xin);
}

/** Scalar max with the backends' shared NaN semantics. */
inline float
smax(float a, float b)
{
    return a > b ? a : b;
}

// ----------------------------------------------------------------------
// Reductions with the fixed virtual accumulator width kAccLanes.
// ----------------------------------------------------------------------

/** Slot l accumulates elements ≡ l (mod kAccLanes); slots fold in lane
 *  order, then the tail folds in element order. Identical on every
 *  backend by construction. Backends wider than kAccLanes reduce
 *  through their 8-lane ReduceTag sibling (see simd.h) — the virtual
 *  accumulator never changes shape. */
template <typename RawTag>
inline float
reduceMaxT(const float *a, int64_t n)
{
    using Tag = typename ReduceTag<RawTag>::type;
    using V = Vec<Tag>;
    static_assert(V::kWidth <= kAccLanes,
                  "reduction vector wider than the virtual accumulator");
    if (n <= 0) {
        return -std::numeric_limits<float>::infinity();
    }
    if (n < kAccLanes) {
        float m = a[0];
        for (int64_t i = 1; i < n; ++i) {
            m = smax(m, a[i]);
        }
        return m;
    }
    constexpr int kNumVecs = kAccLanes / V::kWidth;
    V acc[kNumVecs];
    for (int v = 0; v < kNumVecs; ++v) {
        acc[v] = V::load(a + v * V::kWidth);
    }
    int64_t main_n = (n / kAccLanes) * kAccLanes;
    for (int64_t i = kAccLanes; i < main_n; i += kAccLanes) {
        for (int v = 0; v < kNumVecs; ++v) {
            acc[v] = V::max(acc[v], V::load(a + i + v * V::kWidth));
        }
    }
    float m = acc[0].lane(0);
    for (int l = 1; l < kAccLanes; ++l) {
        m = smax(m, acc[l / V::kWidth].lane(l % V::kWidth));
    }
    for (int64_t i = main_n; i < n; ++i) {
        m = smax(m, a[i]);
    }
    return m;
}

template <typename RawTag>
inline float
dotT(const float *a, const float *b, int64_t n)
{
    using Tag = typename ReduceTag<RawTag>::type;
    using V = Vec<Tag>;
    static_assert(V::kWidth <= kAccLanes,
                  "reduction vector wider than the virtual accumulator");
    constexpr int kNumVecs = kAccLanes / V::kWidth;
    V acc[kNumVecs];
    for (int v = 0; v < kNumVecs; ++v) {
        acc[v] = V::broadcast(0.0f);
    }
    int64_t main_n = (n / kAccLanes) * kAccLanes;
    for (int64_t i = 0; i < main_n; i += kAccLanes) {
        for (int v = 0; v < kNumVecs; ++v) {
            acc[v] = acc[v] + V::load(a + i + v * V::kWidth) *
                                  V::load(b + i + v * V::kWidth);
        }
    }
    float s = 0.0f;
    for (int l = 0; l < kAccLanes; ++l) {
        s += acc[l / V::kWidth].lane(l % V::kWidth);
    }
    for (int64_t i = main_n; i < n; ++i) {
        s += a[i] * b[i];
    }
    return s;
}

// ----------------------------------------------------------------------
// Blocked matvec.
// ----------------------------------------------------------------------

template <typename Tag>
inline void
matvecT(const float *a, int64_t rows, int64_t k, const float *x, float *y)
{
    for (int64_t i = 0; i < rows; ++i) {
        y[i] = dotT<Tag>(a + i * k, x, k);
    }
}

// ----------------------------------------------------------------------
// Fused palettized decode: tiled indices -> LUT lookup -> mul-acc.
// ----------------------------------------------------------------------

/**
 * Tile-row lookups: row() turns one tile row (kernels.h layout) into
 * the kPaletteTile weights lut[idx(16t + l, p)], as kVecs vectors of
 * consecutive lanes. This generic form decodes the 16 indices and
 * gathers; it serves the scalar and NEON backends and every backend
 * above 4 bits, where the LUT outgrows a register.
 */
template <typename Tag>
struct TileGather
{
    using V = Vec<Tag>;
    static constexpr int kVecs = kPaletteTile / V::kWidth;
    const float *lut;
    int bits;

    TileGather(const float *l, int b) : lut(l), bits(b) {}

    void
    row(const uint8_t *r, V *w) const
    {
        int32_t idx[kPaletteTile];
        unpackTileRow(r, bits, idx);
        for (int v = 0; v < kVecs; ++v) {
            w[v] = V::gather(lut, idx + v * V::kWidth);
        }
    }
};

/** The LUT padded to @p n entries: entry i is lut[i mod 2^bits], so a
 *  permute that reads the low log2(n) bits of a lane needs no mask —
 *  the bits above the index (the next lane's) select a copy. */
inline void
replicateLut(const float *lut, int bits, float *out, int n)
{
    for (int i = 0; i < n; ++i) {
        out[i] = lut[i & ((1 << bits) - 1)];
    }
}

/** Per-lane shift of a broadcast group: lane l's index starts at bit
 *  bits * (l mod 8) of its group. */
inline void
laneShifts(int bits, int32_t *out, int n)
{
    for (int l = 0; l < n; ++l) {
        out[l] = bits * (l & 7);
    }
}

#if defined(__AVX512F__)
/** AVX-512 at ≤ 4 bits: both groups broadcast into one register (group
 *  g in lanes 8g..8g+7), vpsrlvd by bits·lane, then one vpermps over
 *  the replicated 16-entry LUT (it reads the low 4 bits of a lane). */
struct TilePermute512
{
    using V = Vec<Avx512Tag>;
    static constexpr int kVecs = 1;
    __m512 table;
    __m512i shifts;
    int bits;

    TilePermute512(const float *lut, int b) : bits(b)
    {
        alignas(64) float t[16];
        alignas(64) int32_t sh[16];
        replicateLut(lut, bits, t, 16);
        laneShifts(bits, sh, 16);
        table = _mm512_load_ps(t);
        shifts = _mm512_load_si512(sh);
    }

    void
    row(const uint8_t *r, V *w) const
    {
        __m512i g = _mm512_mask_set1_epi32(
            _mm512_set1_epi32(static_cast<int>(loadLe32(r))), 0xff00,
            static_cast<int>(loadLe32(r + bits)));
        __m512i idx = _mm512_maskz_srlv_epi32(V::kAll, g, shifts);
        w[0] = {_mm512_maskz_permutexvar_ps(V::kAll, idx, table)};
    }
};
#endif

#if defined(__AVX2__)
/** AVX2 at ≤ 4 bits: per group, broadcast, vpsrlvd by bits·lane, then
 *  vpermps (low 3 bits) over the replicated 8-entry LUT. At 4 bits a
 *  second vpermps reads LUT entries 8..15 and bit 3, shifted into the
 *  sign bit, blends the two. */
template <bool kFourBits>
struct TilePermute256
{
    using V = Vec<Avx2Tag>;
    static constexpr int kVecs = 2;
    __m256 lo, hi;
    __m256i shifts;
    int bits;

    TilePermute256(const float *lut, int b) : bits(b)
    {
        alignas(32) float t[16];
        alignas(32) int32_t sh[8];
        replicateLut(lut, bits, t, 16);
        laneShifts(bits, sh, 8);
        lo = _mm256_load_ps(t);
        hi = _mm256_load_ps(t + 8);
        shifts = _mm256_load_si256(reinterpret_cast<const __m256i *>(sh));
    }

    void
    row(const uint8_t *r, V *w) const
    {
        for (int g = 0; g < 2; ++g) {
            __m256i idx = _mm256_srlv_epi32(
                _mm256_set1_epi32(static_cast<int>(loadLe32(r + g * bits))),
                shifts);
            __m256 v = _mm256_permutevar8x32_ps(lo, idx);
            if (kFourBits) {
                v = _mm256_blendv_ps(
                    v, _mm256_permutevar8x32_ps(hi, idx),
                    _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)));
            }
            w[g] = {v};
        }
    }
};
#endif

/**
 * out[t*16 + l] for kTiles consecutive tiles starting at @p tile: each
 * lane is one output column running the staged path's exact chain.
 * Several tiles advance together so a one-register tile does not wait
 * on its own add latency.
 */
template <int kTiles, typename Lookup>
inline void
paletteTilesT(const float *x, int64_t k, const uint8_t *tile,
              int64_t tile_bytes, int64_t row_bytes, const Lookup &lk,
              float *out)
{
    using V = typename Lookup::V;
    constexpr int kVecs = Lookup::kVecs;
    V acc[kTiles][kVecs];
    for (auto &a : acc) {
        for (V &v : a) {
            v = V::broadcast(0.0f);
        }
    }
    V w[kVecs];
    for (int64_t p = 0; p < k; ++p) {
        const float xv = x[p];
        if (xv == 0.0f) {
            continue;
        }
        const V bx = V::broadcast(xv);
        const uint8_t *r = tile + p * row_bytes;
        for (int t = 0; t < kTiles; ++t) {
            lk.row(r + t * tile_bytes, w);
            for (int v = 0; v < kVecs; ++v) {
                acc[t][v] = acc[t][v] + bx * w[v];
            }
        }
    }
    for (int t = 0; t < kTiles; ++t) {
        for (int v = 0; v < kVecs; ++v) {
            acc[t][v].store(out + t * kPaletteTile + v * V::kWidth);
        }
    }
}

/** Columns [col0, col0 + cols) through @p lk: blocks of tiles, then
 *  single tiles, then a partial last tile through a scratch row. */
template <typename Lookup>
inline void
paletteColumnsT(const float *x, int64_t k, const uint8_t *tiles, int bits,
                const Lookup &lk, int64_t col0, int64_t cols, float *out)
{
    constexpr int kBlock = Lookup::kVecs >= 4 ? 1 : 4 / Lookup::kVecs;
    const int64_t row_bytes = 2 * static_cast<int64_t>(bits);
    const int64_t tile_bytes = k * row_bytes;
    const uint8_t *tile = tiles + col0 / kPaletteTile * tile_bytes;
    int64_t j = 0;
    for (; j + kBlock * kPaletteTile <= cols;
         j += kBlock * kPaletteTile, tile += kBlock * tile_bytes) {
        paletteTilesT<kBlock>(x, k, tile, tile_bytes, row_bytes, lk,
                              out + j);
    }
    for (; j + kPaletteTile <= cols; j += kPaletteTile, tile += tile_bytes) {
        paletteTilesT<1>(x, k, tile, tile_bytes, row_bytes, lk, out + j);
    }
    if (j < cols) {
        float last[kPaletteTile];
        paletteTilesT<1>(x, k, tile, tile_bytes, row_bytes, lk, last);
        for (int64_t l = 0; j + l < cols; ++l) {
            out[j + l] = last[l];
        }
    }
}

/**
 * out[j] = sum_p x[p] * lut[idx(col0 + j, p)] over tiled indices
 * (kernels.h layout) — no dense staging buffer.
 *
 * Bit-identity argument: the staged path (matmulStreamed m==1) computes
 * every output element as the chain "0.0f; for p ascending, skip
 * x[p] == 0.0f: out[j] = out[j] + x[p] * w[p][j]" with a separate IEEE
 * mul then add (kernels.h axpy). This kernel replays exactly that chain
 * per element; vector lanes hold *independent output columns*, so the
 * hardware width, the lookup (permute or gather — both return the LUT
 * float itself) and the number of tiles in flight only change how many
 * such chains advance per step, never the FP sequence inside one.
 */
template <typename Tag>
inline void
paletteDotFusedT(const float *x, int64_t k, const uint8_t *tiles,
                 int bits, const float *lut, int64_t col0, int64_t cols,
                 float *out)
{
#if defined(__AVX512F__)
    if constexpr (std::is_same_v<Tag, Avx512Tag>) {
        if (bits <= 4) {
            paletteColumnsT(x, k, tiles, bits, TilePermute512(lut, bits),
                            col0, cols, out);
            return;
        }
    }
#endif
#if defined(__AVX2__)
    if constexpr (std::is_same_v<Tag, Avx2Tag>) {
        if (bits <= 3) {
            paletteColumnsT(x, k, tiles, bits,
                            TilePermute256<false>(lut, bits), col0, cols,
                            out);
            return;
        }
        if (bits == 4) {
            paletteColumnsT(x, k, tiles, bits,
                            TilePermute256<true>(lut, bits), col0, cols,
                            out);
            return;
        }
    }
#endif
    paletteColumnsT(x, k, tiles, bits, TileGather<Tag>(lut, bits), col0,
                    cols, out);
}

// ----------------------------------------------------------------------
// Fused row kernels.
// ----------------------------------------------------------------------

/** Row softmax in place over @p row of length @p k: max (virtual-lane
 *  semantics), poly exp, sequential double denominator, scale. */
template <typename Tag>
inline void
softmaxOneRowT(const float *in, int64_t k, float *out)
{
    using V = Vec<Tag>;
    using S = Vec<ScalarTag>;
    float mx = reduceMaxT<Tag>(in, k);
    const V mxv = V::broadcast(mx);
    int64_t j = 0;
    for (; j + V::kWidth <= k; j += V::kWidth) {
        expPs(V::load(in + j) - mxv).store(out + j);
    }
    for (; j < k; ++j) {
        expPs(S::load(in + j) - S::broadcast(mx)).store(out + j);
    }
    double denom = 0.0;
    for (int64_t c = 0; c < k; ++c) {
        denom += out[c];
    }
    float inv = static_cast<float>(1.0 / denom);
    const V invv = V::broadcast(inv);
    j = 0;
    for (; j + V::kWidth <= k; j += V::kWidth) {
        (V::load(out + j) * invv).store(out + j);
    }
    for (; j < k; ++j) {
        (S::load(out + j) * S::broadcast(inv)).store(out + j);
    }
}

template <typename Tag>
inline void
softmaxRowsT(const float *a, int64_t rows, int64_t k, float *o)
{
    for (int64_t r = 0; r < rows; ++r) {
        softmaxOneRowT<Tag>(a + r * k, k, o + r * k);
    }
}

// ----------------------------------------------------------------------
// Row-lane kernels. Lane l of every vector holds one row and replays
// that row's scalar IEEE sequence, so the hardware width changes how
// many rows advance together, never the arithmetic inside a row. Small
// k (the clustering tables have 2..256 centroids) cannot fill a vector
// across centroids; rows can. Per-row intermediates live in a
// transposed scratch block, element j of lane l at [j * kWidth + l].
// The ScalarTag instantiation (one row per step, whose transposed block
// is just the row) is the reference and runs the tail rows.
// ----------------------------------------------------------------------

/** Store lane l of @p v to p[l * stride]. */
template <typename W, typename T>
inline void
storeLanes(W v, T *p, int64_t stride)
{
    T t[W::kWidth];
    v.store(t);
    for (int l = 0; l < W::kWidth; ++l) {
        p[l * stride] = t[l];
    }
}

/** reduceMaxT's max order (kAccLanes slots, slot fold, then the tail)
 *  run in every lane over the k elements of a transposed block. */
template <typename V>
inline V
rowMaxT(const float *blk, int64_t k)
{
    constexpr int W = V::kWidth;
    if (k < kAccLanes) {
        V m = V::load(blk);
        for (int64_t j = 1; j < k; ++j) {
            m = V::max(m, V::load(blk + j * W));
        }
        return m;
    }
    V acc[kAccLanes];
    for (int l = 0; l < kAccLanes; ++l) {
        acc[l] = V::load(blk + l * W);
    }
    int64_t main_n = (k / kAccLanes) * kAccLanes;
    for (int64_t j = kAccLanes; j < main_n; ++j) {
        acc[j % kAccLanes] =
            V::max(acc[j % kAccLanes], V::load(blk + j * W));
    }
    V m = acc[0];
    for (int l = 1; l < kAccLanes; ++l) {
        m = V::max(m, acc[l]);
    }
    for (int64_t j = main_n; j < k; ++j) {
        m = V::max(m, V::load(blk + j * W));
    }
    return m;
}

/** Row-lane attention table: per row the scores (u - c_j)^2 * nis, the
 *  reduceMaxT max, expPs, the ascending-j f64 denominator, then
 *  float(1.0 / denom) scaling — softmaxOneRowT's sequence exactly. */
template <typename Tag>
inline void
attentionRowsT(const float *u, int64_t rows, const float *c, int64_t k,
               float neg_inv_tau, float *o)
{
    using V = Vec<Tag>;
    using D = VecD<Tag>;
    constexpr int W = V::kWidth;
    if (k <= 0) {
        return;
    }
    std::vector<float> scratch(W > 1 ? static_cast<size_t>(k * W) : 0);
    const V nis = V::broadcast(neg_inv_tau);
    int64_t r = 0;
    for (; r + W <= rows; r += W) {
        float *orow = o + r * k;
        float *blk = W > 1 ? scratch.data() : orow;
        const V uv = V::load(u + r);
        for (int64_t j = 0; j < k; ++j) {
            V d = uv - V::broadcast(c[j]);
            ((d * d) * nis).store(blk + j * W);
        }
        const V mx = rowMaxT<V>(blk, k);
        D denom = D::broadcast(0.0);
        for (int64_t j = 0; j < k; ++j) {
            V e = expPs(V::load(blk + j * W) - mx);
            e.store(blk + j * W);
            denom = denom + D::widen(e);
        }
        const V inv = (D::broadcast(1.0) / denom).narrow();
        for (int64_t j = 0; j < k; ++j) {
            storeLanes(V::load(blk + j * W) * inv, orow + j, k);
        }
    }
    if constexpr (W > 1) {
        attentionRowsT<ScalarTag>(u + r, rows - r, c, k, neg_inv_tau,
                                  o + r * k);
    }
}

/** Row-lane paper-mode eDKM backward (KernelTable::paperRows). */
template <typename Tag>
inline void
paperRowsT(const PaperRowArgs &a, int64_t i0, int64_t rows,
           double *terms, float *gw)
{
    using V = Vec<Tag>;
    using D = VecD<Tag>;
    constexpr int W = V::kWidth;
    const int64_t k = a.k;
    // The block's table rows, transposed, and their gA.
    std::vector<float> scratch(static_cast<size_t>(2 * k * W));
    float *at = scratch.data();
    float *ga = at + k * W;
    const V zero = V::broadcast(0.0f);
    const V inv_tau = V::broadcast(a.invTau);
    const D two = D::broadcast(2.0);
    const D minus_two = D::broadcast(-2.0);
    int64_t i = 0;
    for (; i + W <= rows; i += W) {
        const int64_t ib = i0 + i;
        // Lane l reads table row row(ib + l): offsets relative to the
        // block's first row without idx, so they fit int32 at any n.
        const float *tbase =
            a.idx != nullptr ? a.table : a.table + ib * k;
        int32_t off[W];
        float wl[W];
        for (int l = 0; l < W; ++l) {
            int64_t row = a.idx != nullptr ? a.idx[ib + l] : ib + l;
            off[l] = static_cast<int32_t>(
                (a.idx != nullptr ? row : l) * k);
            wl[l] = a.vals[row];
        }
        const V wv = V::load(wl);
        const V gv = a.g != nullptr ? V::load(a.g + ib) : zero;

        // gA += gn w + gm; direct gw from nv; dot = sum gA a.
        D gw_acc = D::broadcast(0.0);
        D dot = D::broadcast(0.0);
        for (int64_t j = 0; j < k; ++j) {
            V av = V::gather(tbase + j, off);
            av.store(at + j * W);
            V seed =
                a.g != nullptr ? gv * V::broadcast(a.cFinal[j]) : zero;
            V gr = seed + (V::broadcast(a.gn[j]) * wv +
                           V::broadcast(a.gm[j]));
            gr.store(ga + j * W);
            gw_acc = gw_acc + D::widen(av) * D::broadcast(a.gn[j]);
            dot = dot + D::widen(gr) * D::widen(av);
        }
        // softmax backward + distance path.
        const V dotf = dot.narrow();
        for (int64_t j = 0; j < k; ++j) {
            V gs = V::load(at + j * W) * (V::load(ga + j * W) - dotf);
            V gdsq = V::neg(gs) * inv_tau;
            V d = wv - V::broadcast(a.cIn[j]);
            D gd = D::widen(gdsq);
            D dd = D::widen(d);
            gw_acc = gw_acc + (gd * two) * dd;
            storeLanes((gd * minus_two) * dd, terms + i * k + j, k);
        }
        gw_acc.narrow().store(gw + i);
    }
    if constexpr (W > 1) {
        paperRowsT<ScalarTag>(a, i0 + i, rows - i, terms + i * k, gw + i);
    }
}

/** Gather-add with centroids across the lanes: each part[j] is its own
 *  chain over ascending i, so any lane split gives the same bits. Runs
 *  on the 8-lane ReduceTag sibling, the widest that k = 8 fills. */
template <typename Tag>
inline void
gatherAddRowsT(const double *terms, const float *gw_row, int64_t k,
               const uint16_t *idx, int64_t n, double *part, float *gw)
{
    using D = VecD<typename ReduceTag<Tag>::type>;
    auto row = [&](int64_t i) {
        return terms + (idx != nullptr ? idx[i] : i) * k;
    };
    int64_t j = 0;
    for (; j + D::kWidth <= k; j += D::kWidth) {
        D acc = D::load(part + j);
        for (int64_t i = 0; i < n; ++i) {
            acc = acc + D::load(row(i) + j);
        }
        acc.store(part + j);
    }
    for (; j < k; ++j) {
        double acc = part[j];
        for (int64_t i = 0; i < n; ++i) {
            acc += row(i)[j];
        }
        part[j] = acc;
    }
    for (int64_t i = 0; i < n; ++i) {
        gw[i] += gw_row[idx != nullptr ? idx[i] : i];
    }
}

template <typename Tag>
inline void
absDiffRowsT(const float *u, int64_t rows, const float *c, int64_t k,
             float *o)
{
    using V = Vec<Tag>;
    using S = Vec<ScalarTag>;
    for (int64_t r = 0; r < rows; ++r) {
        float *orow = o + r * k;
        const V uv = V::broadcast(u[r]);
        int64_t j = 0;
        for (; j + V::kWidth <= k; j += V::kWidth) {
            V::abs(uv - V::load(c + j)).store(orow + j);
        }
        for (; j < k; ++j) {
            S::abs(S::broadcast(u[r]) - S::load(c + j)).store(orow + j);
        }
    }
}

/**
 * Tie-break rule reproducing binary-search `nearestCentroid` exactly on
 * an ascending-sorted centroid list (duplicates included): advance to a
 * later candidate on a distance tie only when that centroid lies
 * strictly below the value — precisely which of the two lower_bound
 * neighbours (or which end of a duplicate run) the reference returns.
 */
template <typename Tag>
inline void
nearestRowsT(const float *v, int64_t n, const float *c, int64_t k,
             int32_t *out)
{
    using V = Vec<Tag>;
    int64_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        V vv = V::load(v + i);
        V best = V::abs(vv - V::broadcast(c[0]));
        V best_j = V::broadcast(0.0f);
        for (int64_t j = 1; j < k; ++j) {
            V cv = V::broadcast(c[j]);
            V d = V::abs(vv - cv);
            V m = V::maskOr(V::cmpLt(d, best),
                            V::maskAnd(V::cmpEq(d, best),
                                       V::cmpLt(cv, vv)));
            best = V::blend(m, d, best);
            best_j = V::blend(m, V::broadcast(static_cast<float>(j)),
                              best_j);
        }
        for (int l = 0; l < V::kWidth; ++l) {
            out[i + l] = static_cast<int32_t>(best_j.lane(l));
        }
    }
    for (; i < n; ++i) {
        float best = std::fabs(v[i] - c[0]);
        int32_t bj = 0;
        for (int64_t j = 1; j < k; ++j) {
            float d = std::fabs(v[i] - c[j]);
            if (d < best || (d == best && c[j] < v[i])) {
                best = d;
                bj = static_cast<int32_t>(j);
            }
        }
        out[i] = bj;
    }
}

// ----------------------------------------------------------------------
// AdamW element update (formula identical to the reference loop).
// ----------------------------------------------------------------------

template <typename Tag>
inline void
adamwStepT(float *p, float *m, float *v, const float *g, int64_t n,
           float lr, float beta1, float beta2, float eps,
           float weight_decay, float bc1, float bc2)
{
    using V = Vec<Tag>;
    const float ob1 = 1.0f - beta1;
    const float ob2 = 1.0f - beta2;
    auto step = [&](auto pv, auto mv, auto vv, auto gv) {
        using W = decltype(pv);
        mv = W::broadcast(beta1) * mv + W::broadcast(ob1) * gv;
        vv = W::broadcast(beta2) * vv + (W::broadcast(ob2) * gv) * gv;
        W mhat = mv / W::broadcast(bc1);
        W vhat = vv / W::broadcast(bc2);
        W upd = mhat / (W::sqrt(vhat) + W::broadcast(eps)) +
                W::broadcast(weight_decay) * pv;
        pv = pv - W::broadcast(lr) * upd;
        struct
        {
            W pv, mv, vv;
        } r{pv, mv, vv};
        return r;
    };
    int64_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        auto r = step(V::load(p + i), V::load(m + i), V::load(v + i),
                      V::load(g + i));
        r.pv.store(p + i);
        r.mv.store(m + i);
        r.vv.store(v + i);
    }
    using S = Vec<ScalarTag>;
    for (; i < n; ++i) {
        auto r = step(S::load(p + i), S::load(m + i), S::load(v + i),
                      S::load(g + i));
        r.pv.store(p + i);
        r.mv.store(m + i);
        r.vv.store(v + i);
    }
}

// ----------------------------------------------------------------------
// Table assembly.
// ----------------------------------------------------------------------

template <typename Tag>
KernelTable
makeKernelTable(Backend id)
{
    KernelTable t;
    t.backend = id;

    t.add = [](const float *a, const float *b, float *o, int64_t n) {
        mapBinary<Tag>(a, b, o, n,
                       [](auto x, auto y) { return x + y; });
    };
    t.sub = [](const float *a, const float *b, float *o, int64_t n) {
        mapBinary<Tag>(a, b, o, n,
                       [](auto x, auto y) { return x - y; });
    };
    t.mul = [](const float *a, const float *b, float *o, int64_t n) {
        mapBinary<Tag>(a, b, o, n,
                       [](auto x, auto y) { return x * y; });
    };
    t.div = [](const float *a, const float *b, float *o, int64_t n) {
        mapBinary<Tag>(a, b, o, n,
                       [](auto x, auto y) { return x / y; });
    };

    t.scale = [](const float *a, float s, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [s](auto x) {
            return x * decltype(x)::broadcast(s);
        });
    };
    t.offset = [](const float *a, float s, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [s](auto x) {
            return x + decltype(x)::broadcast(s);
        });
    };
    t.negate = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) {
            return decltype(x)::broadcast(0.0f) - x;
        });
    };
    t.absval = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n,
                      [](auto x) { return decltype(x)::abs(x); });
    };
    t.squarev = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) { return x * x; });
    };
    t.sqrtv = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n,
                      [](auto x) { return decltype(x)::sqrt(x); });
    };
    t.reluv = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) {
            using W = decltype(x);
            // x > 0 ? x : 0, NaN -> 0 (matches `x > 0.0f ? x : 0.0f`).
            W zero = W::broadcast(0.0f);
            return W::blend(W::cmpLt(zero, x), x, zero);
        });
    };
    t.clampv = [](const float *a, float lo, float hi, float *o,
                  int64_t n) {
        mapUnary<Tag>(a, o, n, [lo, hi](auto x) {
            using W = decltype(x);
            // std::clamp semantics: lower bound first, then upper;
            // NaN passes through (min/max alone would launder it
            // into lo).
            W r = W::min(W::max(x, W::broadcast(lo)),
                         W::broadcast(hi));
            return W::blend(W::cmpEq(x, x), r, x);
        });
    };
    t.expv = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) { return expPs(x); });
    };
    t.siluv = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) {
            using W = decltype(x);
            W one = W::broadcast(1.0f);
            return x / (one + expPs(W::broadcast(0.0f) - x));
        });
    };
    t.sigmoidv = [](const float *a, float *o, int64_t n) {
        mapUnary<Tag>(a, o, n, [](auto x) {
            using W = decltype(x);
            W one = W::broadcast(1.0f);
            return one / (one + expPs(W::broadcast(0.0f) - x));
        });
    };

    t.axpy = [](const float *a, float s, float *o, int64_t n) {
        using V = Vec<Tag>;
        using S = Vec<ScalarTag>;
        const V sv = V::broadcast(s);
        int64_t i = 0;
        for (; i + V::kWidth <= n; i += V::kWidth) {
            (V::load(o + i) + sv * V::load(a + i)).store(o + i);
        }
        for (; i < n; ++i) {
            (S::load(o + i) + S::broadcast(s) * S::load(a + i))
                .store(o + i);
        }
    };

    t.reduceMax = [](const float *a, int64_t n) {
        return reduceMaxT<Tag>(a, n);
    };
    t.dot = [](const float *a, const float *b, int64_t n) {
        return dotT<Tag>(a, b, n);
    };

    t.matvec = [](const float *a, int64_t rows, int64_t k,
                  const float *x, float *y) {
        matvecT<Tag>(a, rows, k, x, y);
    };
    t.paletteDotFused = [](const float *x, int64_t k,
                           const uint8_t *tiles, int bits,
                           const float *lut, int64_t col0, int64_t cols,
                           float *out) {
        paletteDotFusedT<Tag>(x, k, tiles, bits, lut, col0, cols, out);
    };
    t.softmaxRows = [](const float *a, int64_t rows, int64_t k,
                       float *o) {
        softmaxRowsT<Tag>(a, rows, k, o);
    };
    t.attentionRows = [](const float *u, int64_t rows, const float *c,
                         int64_t k, float neg_inv_tau, float *o) {
        attentionRowsT<Tag>(u, rows, c, k, neg_inv_tau, o);
    };
    t.paperRows = [](const PaperRowArgs &a, int64_t i0, int64_t rows,
                     double *terms, float *gw) {
        paperRowsT<Tag>(a, i0, rows, terms, gw);
    };
    t.gatherAddRows = [](const double *terms, const float *gw_row,
                         int64_t k, const uint16_t *idx, int64_t n,
                         double *part, float *gw) {
        gatherAddRowsT<Tag>(terms, gw_row, k, idx, n, part, gw);
    };
    t.absDiffRows = [](const float *u, int64_t rows, const float *c,
                       int64_t k, float *o) {
        absDiffRowsT<Tag>(u, rows, c, k, o);
    };
    t.nearestRows = [](const float *v, int64_t n, const float *c,
                       int64_t k, int32_t *out) {
        nearestRowsT<Tag>(v, n, c, k, out);
    };

    t.adamwStep = [](float *p, float *m, float *v, const float *g,
                     int64_t n, float lr, float beta1, float beta2,
                     float eps, float weight_decay, float bc1,
                     float bc2) {
        adamwStepT<Tag>(p, m, v, g, n, lr, beta1, beta2, eps,
                        weight_decay, bc1, bc2);
    };

    return t;
}

} // namespace
} // namespace impl
} // namespace kernels
} // namespace edkm

#endif // EDKM_KERNELS_KERNELS_IMPL_H_
