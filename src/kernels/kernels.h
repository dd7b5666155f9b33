/**
 * @file
 * edkm::kernels — vectorized inner kernels with runtime backend dispatch.
 *
 * Every function here operates on raw contiguous f32 buffers (callers —
 * mostly tensor/ops.cc and the clustering core — handle layout/dtype).
 * A `KernelTable` is one backend's full set of kernels; the scalar
 * reference table is always available, and AVX2 / AVX-512 / NEON tables
 * are linked in when the build enables them (CMake option `EDKM_SIMD`,
 * default ON).
 *
 * Backend selection happens once per process in `active()`:
 *   1. `EDKM_SIMD=off|scalar|0` (env) forces the scalar reference;
 *      `avx2|avx512|neon` pins a specific backend (falling back to the
 *      best available one, with a warning, when it is unusable).
 *   2. Otherwise the best compiled-in backend the CPU supports wins
 *      (avx512 > avx2 > neon > scalar).
 *
 * Numerics contract: all backends are **bit-identical** — elementwise
 * kernels map 1:1 onto IEEE single ops, and reductions use the fixed
 * virtual accumulator width `kAccLanes` (see simd.h) regardless of the
 * hardware lane count. Switching backends (or disabling SIMD) never
 * changes results; combined with the runtime layer's chunk-determinism
 * this keeps clustering output bit-identical across thread counts too.
 *
 * exp-family kernels (`expv`, `siluv`, `sigmoidv`, the softmax/attention
 * row kernels) use a shared degree-5 polynomial expf (Cephes-style,
 * ~2 ulp, saturating at exp(88), flushing to 0 below exp(-87.34), and
 * propagating NaN) — identical across backends, slightly different from
 * libm's std::exp.
 */

#ifndef EDKM_KERNELS_KERNELS_H_
#define EDKM_KERNELS_KERNELS_H_

#include <cstdint>
#include <vector>

namespace edkm {
namespace kernels {

/** Virtual accumulator lane count shared by every backend. Reductions
 *  (dot, sum, max) accumulate into kAccLanes independent slots — slot l
 *  holds elements with index ≡ l (mod kAccLanes) — then fold the slots
 *  in ascending lane order, then fold the tail in element order. */
constexpr int kAccLanes = 8;

enum class Backend
{
    kScalar,
    kAvx2,
    kAvx512,
    kNeon,
};

/** Human-readable backend name ("scalar", "avx2", "avx512", "neon"). */
const char *backendName(Backend b);

/**
 * Random-access read of the @p i-th @p bits-wide value (bits in
 * [1, 16]) of a packBits little-endian bitstream. Touches only the
 * bytes holding the value, so it is safe up to the last element of a
 * minimally-sized stream. Lives in the kernels layer next to the tile
 * builder; core/palettize.h re-exports it as `edkm::unpackBitsAt`.
 */
inline int32_t
unpackBitsAt(const uint8_t *stream, int bits, int64_t i)
{
    const int64_t bitpos = i * bits;
    int64_t byte = bitpos >> 3;
    int off = static_cast<int>(bitpos & 7);
    uint32_t acc = static_cast<uint32_t>(stream[byte]) >> off;
    int got = 8 - off;
    while (got < bits) {
        ++byte;
        acc |= static_cast<uint32_t>(stream[byte]) << got;
        got += 8;
    }
    return static_cast<int32_t>(acc & ((1u << bits) - 1u));
}

/**
 * Tiled palette indices: the index layout the fused m==1 decode reads.
 * A palettized [rows, k] weight (rows = output columns of x · W^T) is
 * cut into tiles of kPaletteTile rows; tile t holds rows
 * [16t, 16t + 16), the rows past `rows` in the last tile padded with
 * index 0. For each tile and each p ascending, one *tile row* holds the
 * 16 indices (16t + l, p), l = 0..15, as two groups of 8: group g is
 * exactly `bits` bytes and packs lanes 8g..8g+7 LSB-first as packBits
 * does (lane 8g + i at bits [i·bits, (i+1)·bits) of the group). So a
 * tile row is 2·bits bytes, a tile is k·2·bits bytes, and tile t starts
 * at byte t·k·2·bits. kPaletteTilePad zero bytes follow the last tile,
 * so a 4-byte little-endian load starting anywhere inside the last
 * group stays in bounds. Without the pad the stream is as large as the
 * packBits stream plus the padding rows of the last tile.
 *
 * At ≤ 4 bits one group fits a 32-bit word, so a vector backend turns
 * a tile row into lane indices with a broadcast and a per-lane shift,
 * and the ≤ 16-entry LUT lookup becomes a register permute.
 */
constexpr int kPaletteTile = 16;
constexpr int kPaletteTilePad = 3;

/** Bytes of the tiled index stream of a [rows, k] weight, pad included. */
inline int64_t
paletteTileBytes(int64_t rows, int64_t k, int bits)
{
    return (rows + kPaletteTile - 1) / kPaletteTile * k * 2 * bits +
           kPaletteTilePad;
}

/** Repack a [rows, k] packBits index stream (element (r, p) at position
 *  r*k + p) into the tiled layout above. Reads only the bytes of a
 *  minimally-sized stream. */
std::vector<uint8_t> tilePaletteIndices(const uint8_t *packed, int bits,
                                        int64_t rows, int64_t k);

/** Little-endian 32-bit load of 4 bytes at @p p. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Decode the kPaletteTile indices of one tile row (any bits in
 *  [1, 16]): idx[l] is lane l's index. */
inline void
unpackTileRow(const uint8_t *row, int bits, int32_t *idx)
{
    const uint32_t mask = (1u << bits) - 1u;
    for (int l = 0; l < kPaletteTile; ++l) {
        const int bit = (l & 7) * bits;
        const uint32_t w = loadLe32(row + (l >> 3) * bits + (bit >> 3));
        idx[l] = static_cast<int32_t>((w >> (bit & 7)) & mask);
    }
}

/**
 * Signature of the fused palettized dot-product kernels: one [1,k] x
 * [k,cols] product read straight off a palettized [rows, k] weight in
 * the tiled layout above (@p tiles), decoded through the 2^bits-entry
 * @p lut. Writes out[j] = sum_p x[p] * lut[idx(col0 + j, p)] for j in
 * [0, cols). @p col0 must be a multiple of kPaletteTile; @p cols may end
 * inside a tile.
 */
using PaletteDotFn = void (*)(const float *x, int64_t k,
                              const uint8_t *tiles, int bits,
                              const float *lut, int64_t col0,
                              int64_t cols, float *out);

/**
 * One iteration of the paper-mode (kReconstruct) eDKM backward, as read
 * by `KernelTable::paperRows`. Row i of a block is member or unique
 * value i; its table row is row(i) = idx ? idx[i] : i.
 */
struct PaperRowArgs
{
    int64_t k;
    float invTau;            ///< 1 / tau
    const float *gn;         ///< [k] gradient w.r.t. the pooled nv
    const float *gm;         ///< [k] gradient w.r.t. the pooled mass m
    const float *cIn;        ///< [k] centroids the table was built from
    const float *table;      ///< attention rows, k floats each
    const float *vals;       ///< value of each table row
    const uint16_t *idx;     ///< row i -> table row, or null (identity)
    const float *g;          ///< row i's gA seed is g[i] cFinal, or null: 0
    const float *cFinal;     ///< [k] final centroids (read only with g)
};

/**
 * One backend's kernels. All pointers are non-null; buffers must be
 * valid for the stated lengths, and in/out may alias only when noted.
 */
struct KernelTable
{
    Backend backend;

    // ---- elementwise binary: o[i] = a[i] OP b[i] ----
    void (*add)(const float *a, const float *b, float *o, int64_t n);
    void (*sub)(const float *a, const float *b, float *o, int64_t n);
    void (*mul)(const float *a, const float *b, float *o, int64_t n);
    void (*div)(const float *a, const float *b, float *o, int64_t n);

    // ---- elementwise unary / scalar-parameter ----
    void (*scale)(const float *a, float s, float *o, int64_t n);
    void (*offset)(const float *a, float s, float *o, int64_t n);
    void (*negate)(const float *a, float *o, int64_t n);
    void (*absval)(const float *a, float *o, int64_t n);
    void (*squarev)(const float *a, float *o, int64_t n);
    void (*sqrtv)(const float *a, float *o, int64_t n);
    void (*reluv)(const float *a, float *o, int64_t n);
    void (*clampv)(const float *a, float lo, float hi, float *o,
                   int64_t n);
    void (*expv)(const float *a, float *o, int64_t n);
    void (*siluv)(const float *a, float *o, int64_t n);
    void (*sigmoidv)(const float *a, float *o, int64_t n);

    /** o[i] += s * a[i] (o accumulates in place). */
    void (*axpy)(const float *a, float s, float *o, int64_t n);

    // ---- reductions (virtual kAccLanes accumulator semantics) ----
    float (*reduceMax)(const float *a, int64_t n);
    float (*dot)(const float *a, const float *b, int64_t n);

    // ---- blocked matvec micro-kernel ----
    /** y[i] = dot(a[i*k .. i*k+k), x) for i in [0, rows). (The former
     *  vecmat sibling was retired when matmul's m==1 path switched to
     *  the row-shape-invariant axpy column loop.) */
    void (*matvec)(const float *a, int64_t rows, int64_t k,
                   const float *x, float *y);

    // ---- fused rows ----
    /** Row-softmax in place-able form: o[r,:] = softmax(a[r,:]) for
     *  r in [0, rows), row length k. a == o allowed. */
    void (*softmaxRows)(const float *a, int64_t rows, int64_t k,
                        float *o);
    /** Fused attention table: o[r,j] = softmax_j((u[r]-c[j])^2 * nis)
     *  with nis = -1/tau, each row exactly as softmaxRows would do it.
     *  Row-lane: vector lanes hold rows, so small k vectorizes. */
    void (*attentionRows)(const float *u, int64_t rows, const float *c,
                          int64_t k, float neg_inv_tau, float *o);
    /** o[r,j] = |u[r] - c[j]| (the cdist1d forward). */
    void (*absDiffRows)(const float *u, int64_t rows, const float *c,
                        int64_t k, float *o);

    /**
     * Paper-mode backward of rows [i0, i0+rows): for row i with value
     * w = vals[row(i)] and attention row a = table[row(i)*k ..],
     *   gA_j = seed_j + (gn_j w + gm_j),  seed_j = g[i] cFinal_j or 0,
     *   dot  = sum_j double(gA_j) a_j,    gs_j = a_j (gA_j - float(dot)),
     *   gdsq_j = -gs_j invTau,            d_j = w - cIn_j,
     * writes terms[(i-i0)*k + j] = double(gdsq_j) * -2 * d_j (the gc
     * term) and gw[i-i0] = float(acc), where the f64 acc sums the k
     * terms double(a_j) gn_j, then the k terms double(gdsq_j) * 2 * d_j.
     * Every f64 sum runs in ascending j; lanes hold rows (see
     * docs/kernels.md, "Row-lane kernels for small k").
     */
    void (*paperRows)(const PaperRowArgs &a, int64_t i0, int64_t rows,
                      double *terms, float *gw);
    /** For i in [0, n) ascending, with r = idx ? idx[i] : i:
     *  part[j] += terms[r*k + j] for every j, and gw[i] += gwRow[r]. */
    void (*gatherAddRows)(const double *terms, const float *gwRow,
                          int64_t k, const uint16_t *idx, int64_t n,
                          double *part, float *gw);

    // ---- fused palettized decode (the m==1 serving hot path) ----
    /** Walk tiled indices -> LUT lookups -> multiply-accumulate, no
     *  dense staging buffer. Replays the staged decode-then-axpy path's
     *  exact per-element FP sequence — ascending p, skip x[p] == 0.0f,
     *  separate IEEE mul then add — and maps vector lanes to
     *  *independent output columns*, so the result is bit-identical to
     *  the staged path on every backend at any hardware width. */
    PaletteDotFn paletteDotFused;
    /** Fused distance+argmin against ascending-sorted @p c: out[i] is
     *  the index minimising |v[i] - c[j]|, lowest index on ties —
     *  bit-compatible with the binary-search nearestCentroid. */
    void (*nearestRows)(const float *v, int64_t n, const float *c,
                        int64_t k, int32_t *out);

    // ---- optimizer ----
    /** One AdamW element-update over [0, n): identical formula to the
     *  reference scalar loop in nn/adamw.cc. */
    void (*adamwStep)(float *p, float *m, float *v, const float *g,
                      int64_t n, float lr, float beta1, float beta2,
                      float eps, float weight_decay, float bc1,
                      float bc2);
};

/** The backend the process resolved to (env + CPU + build). */
const KernelTable &active();

/** A specific backend's table; falls back to scalar when @p b was not
 *  compiled in or the CPU lacks it. */
const KernelTable &table(Backend b);

/** Backends usable in this process (always contains kScalar). */
std::vector<Backend> availableBackends();

// ----------------------------------------------------------------------
// Layout helpers with no per-backend variance.
// ----------------------------------------------------------------------

/** Gather scalars: out[i] = src[idx[i]]. */
void gatherU16(const float *src, const uint16_t *idx, int64_t n,
               float *out);

} // namespace kernels
} // namespace edkm

#endif // EDKM_KERNELS_KERNELS_H_
