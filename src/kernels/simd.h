/**
 * @file
 * Portable fixed-width SIMD vector abstraction.
 *
 * `Vec<Tag>` wraps one hardware vector register of f32 lanes behind a
 * uniform interface; the kernel templates in kernels_impl.h are written
 * once against it and instantiated per backend translation unit:
 *
 *   - `ScalarTag` — 1-lane reference, always compiled, no intrinsics.
 *   - `Avx2Tag`   — 8 lanes, only where the TU is built with -mavx2.
 *   - `Avx512Tag` — 16 lanes, only where the TU is built with -mavx512f.
 *   - `NeonTag`   — 4 lanes, only where the TU targets ARM NEON.
 *
 * `VecD<Tag>` is the f64 companion of `Vec<Tag>` (same lane count) for
 * row-lane kernels whose rows keep double-precision sums.
 *
 * Numerics contract: every Vec operation maps to the IEEE-754 single
 * operation of its scalar counterpart (add/sub/mul/div/sqrt/min/max are
 * exact; no FMA contraction — backend TUs compile with -ffp-contract=off
 * wherever the target ISA would otherwise allow it). Reduction kernels
 * additionally fix a *virtual* accumulator width of `kAccLanes` (8)
 * independent of the hardware width, so every backend — including the
 * scalar reference — produces bit-identical results. A backend wider
 * than kAccLanes runs the reductions on its `ReduceTag` half-width
 * sibling (AVX-512 reduces through the 8-lane AVX2 type) so the virtual
 * accumulator never changes shape.
 */

#ifndef EDKM_KERNELS_SIMD_H_
#define EDKM_KERNELS_SIMD_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace edkm {
namespace kernels {

// Everything below lives in an anonymous namespace on purpose: these
// inline templates are instantiated both by the plain-flags TU
// (kernels.cc) and by ISA-specific TUs (kernels_avx2.cc built with
// -mavx2). With external linkage the identical COMDAT symbols could be
// deduplicated by the linker into the AVX-encoded copy, and the scalar
// fallback would then execute AVX instructions on a CPU without them —
// defeating the runtime dispatch. Internal linkage keeps every TU's
// instantiations compiled with that TU's own flags.
namespace {

struct ScalarTag
{
};
struct Avx2Tag
{
};
struct Avx512Tag
{
};
struct NeonTag
{
};

template <typename Tag>
struct Vec;

// ----------------------------------------------------------------------
// Scalar reference backend: 1 lane, plain float ops.
// ----------------------------------------------------------------------

template <>
struct Vec<ScalarTag>
{
    static constexpr int kWidth = 1;
    float v;

    static Vec
    load(const float *p)
    {
        return {*p};
    }
    static Vec
    broadcast(float x)
    {
        return {x};
    }
    void
    store(float *p) const
    {
        *p = v;
    }
    float
    lane(int) const
    {
        return v;
    }
    /** Lane-wise table load: lane l reads base[idx[l]] (kWidth indices). */
    static Vec
    gather(const float *base, const int32_t *idx)
    {
        return {base[idx[0]]};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {a.v + b.v};
    }
    friend Vec
    operator-(Vec a, Vec b)
    {
        return {a.v - b.v};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {a.v * b.v};
    }
    friend Vec
    operator/(Vec a, Vec b)
    {
        return {a.v / b.v};
    }

    /** x86 maxps semantics: returns @p b when the compare is unordered. */
    static Vec
    max(Vec a, Vec b)
    {
        return {a.v > b.v ? a.v : b.v};
    }
    static Vec
    min(Vec a, Vec b)
    {
        return {a.v < b.v ? a.v : b.v};
    }
    static Vec
    abs(Vec a)
    {
        return {std::fabs(a.v)};
    }
    /** Sign flip, as unary minus (0 - x would give +0 for x = +0). */
    static Vec
    neg(Vec a)
    {
        return {-a.v};
    }
    static Vec
    sqrt(Vec a)
    {
        return {std::sqrt(a.v)};
    }
    static Vec
    floor(Vec a)
    {
        return {std::floor(a.v)};
    }

    /** Lane mask of a < b (all-ones float bit pattern when true). */
    static Vec
    cmpLt(Vec a, Vec b)
    {
        uint32_t bits = a.v < b.v ? 0xffffffffu : 0u;
        Vec r;
        std::memcpy(&r.v, &bits, 4);
        return r;
    }
    /** Lane mask of a == b (ordered; NaN lanes clear). */
    static Vec
    cmpEq(Vec a, Vec b)
    {
        uint32_t bits = a.v == b.v ? 0xffffffffu : 0u;
        Vec r;
        std::memcpy(&r.v, &bits, 4);
        return r;
    }
    /** Bitwise AND of two lane masks. */
    static Vec
    maskAnd(Vec a, Vec b)
    {
        uint32_t ba, bb;
        std::memcpy(&ba, &a.v, 4);
        std::memcpy(&bb, &b.v, 4);
        uint32_t bits = ba & bb;
        Vec r;
        std::memcpy(&r.v, &bits, 4);
        return r;
    }
    /** Bitwise OR of two lane masks. */
    static Vec
    maskOr(Vec a, Vec b)
    {
        uint32_t ba, bb;
        std::memcpy(&ba, &a.v, 4);
        std::memcpy(&bb, &b.v, 4);
        uint32_t bits = ba | bb;
        Vec r;
        std::memcpy(&r.v, &bits, 4);
        return r;
    }
    /** Per-lane select: mask lane set -> @p a, else @p b. */
    static Vec
    blend(Vec mask, Vec a, Vec b)
    {
        uint32_t bits;
        std::memcpy(&bits, &mask.v, 4);
        return bits ? a : b;
    }

    /** 2^n for a lane-wise integral-valued @p n in [-126, 127]. */
    static Vec
    pow2Int(Vec n)
    {
        int32_t e = static_cast<int32_t>(n.v);
        uint32_t bits = static_cast<uint32_t>(e + 127) << 23;
        Vec r;
        std::memcpy(&r.v, &bits, 4);
        return r;
    }
};

// ----------------------------------------------------------------------
// AVX2 backend: 8 f32 lanes. Compiled only in TUs built with -mavx2.
// ----------------------------------------------------------------------

#if defined(__AVX2__)
template <>
struct Vec<Avx2Tag>
{
    static constexpr int kWidth = 8;
    __m256 v;

    static Vec
    load(const float *p)
    {
        return {_mm256_loadu_ps(p)};
    }
    static Vec
    broadcast(float x)
    {
        return {_mm256_set1_ps(x)};
    }
    void
    store(float *p) const
    {
        _mm256_storeu_ps(p, v);
    }
    float
    lane(int i) const
    {
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, v);
        return tmp[i];
    }
    static Vec
    gather(const float *base, const int32_t *idx)
    {
        __m256i vi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(idx));
        return {_mm256_i32gather_ps(base, vi, 4)};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm256_add_ps(a.v, b.v)};
    }
    friend Vec
    operator-(Vec a, Vec b)
    {
        return {_mm256_sub_ps(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm256_mul_ps(a.v, b.v)};
    }
    friend Vec
    operator/(Vec a, Vec b)
    {
        return {_mm256_div_ps(a.v, b.v)};
    }

    static Vec
    max(Vec a, Vec b)
    {
        // maxps(a, b) == (a > b ? a : b); unordered lanes yield b —
        // exactly the scalar reference's semantics.
        return {_mm256_max_ps(a.v, b.v)};
    }
    static Vec
    min(Vec a, Vec b)
    {
        return {_mm256_min_ps(a.v, b.v)};
    }
    static Vec
    abs(Vec a)
    {
        __m256 sign = _mm256_set1_ps(-0.0f);
        return {_mm256_andnot_ps(sign, a.v)};
    }
    static Vec
    neg(Vec a)
    {
        return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f))};
    }
    static Vec
    sqrt(Vec a)
    {
        return {_mm256_sqrt_ps(a.v)};
    }
    static Vec
    floor(Vec a)
    {
        return {_mm256_floor_ps(a.v)};
    }

    static Vec
    cmpLt(Vec a, Vec b)
    {
        return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
    }
    static Vec
    cmpEq(Vec a, Vec b)
    {
        return {_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)};
    }
    static Vec
    maskAnd(Vec a, Vec b)
    {
        return {_mm256_and_ps(a.v, b.v)};
    }
    static Vec
    maskOr(Vec a, Vec b)
    {
        return {_mm256_or_ps(a.v, b.v)};
    }
    static Vec
    blend(Vec mask, Vec a, Vec b)
    {
        return {_mm256_blendv_ps(b.v, a.v, mask.v)};
    }

    static Vec
    pow2Int(Vec n)
    {
        __m256i e = _mm256_cvttps_epi32(n.v);
        e = _mm256_add_epi32(e, _mm256_set1_epi32(127));
        e = _mm256_slli_epi32(e, 23);
        return {_mm256_castsi256_ps(e)};
    }
};
#endif // __AVX2__

// ----------------------------------------------------------------------
// AVX-512 backend: 16 f32 lanes. Compiled only in TUs built with
// -mavx512f (which also implies -ffp-contract=off in CMake, as AVX-512
// drags in FMA and the scalar tails must not contract). Only AVX512F
// intrinsics are used — mask registers are expanded back to all-ones
// float lane masks so the shared blend/maskAnd/maskOr shapes hold.
// ----------------------------------------------------------------------

#if defined(__AVX512F__)
template <>
struct Vec<Avx512Tag>
{
    static constexpr int kWidth = 16;
    /** All-lanes mask. Intrinsics with an implicit merge source (max,
     *  min, sqrt, roundscale, cvtt, slli, gather) are called in their
     *  zero- or explicit-source masked form with this mask: the same
     *  instruction result, but the plain forms pass GCC an undefined
     *  merge value that it reports as maybe-uninitialized. */
    static constexpr __mmask16 kAll = 0xffff;
    __m512 v;

    static Vec
    load(const float *p)
    {
        return {_mm512_loadu_ps(p)};
    }
    static Vec
    broadcast(float x)
    {
        return {_mm512_set1_ps(x)};
    }
    void
    store(float *p) const
    {
        _mm512_storeu_ps(p, v);
    }
    float
    lane(int i) const
    {
        alignas(64) float tmp[16];
        _mm512_store_ps(tmp, v);
        return tmp[i];
    }
    static Vec
    gather(const float *base, const int32_t *idx)
    {
        __m512i vi = _mm512_loadu_si512(idx);
        return {_mm512_mask_i32gather_ps(_mm512_setzero_ps(), kAll, vi,
                                         base, 4)};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm512_add_ps(a.v, b.v)};
    }
    friend Vec
    operator-(Vec a, Vec b)
    {
        return {_mm512_sub_ps(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm512_mul_ps(a.v, b.v)};
    }
    friend Vec
    operator/(Vec a, Vec b)
    {
        return {_mm512_div_ps(a.v, b.v)};
    }

    static Vec
    max(Vec a, Vec b)
    {
        // EVEX vmaxps keeps the legacy semantics: (a > b ? a : b),
        // unordered lanes yield b — same as the scalar reference.
        return {_mm512_maskz_max_ps(kAll, a.v, b.v)};
    }
    static Vec
    min(Vec a, Vec b)
    {
        return {_mm512_maskz_min_ps(kAll, a.v, b.v)};
    }
    static Vec
    abs(Vec a)
    {
        __m512i magnitude = _mm512_set1_epi32(INT32_C(0x7fffffff));
        return {_mm512_castsi512_ps(
            _mm512_and_si512(magnitude, _mm512_castps_si512(a.v)))};
    }
    static Vec
    neg(Vec a)
    {
        __m512i sign = _mm512_set1_epi32(INT32_C(0x80000000));
        return {_mm512_castsi512_ps(
            _mm512_xor_si512(sign, _mm512_castps_si512(a.v)))};
    }
    static Vec
    sqrt(Vec a)
    {
        return {_mm512_maskz_sqrt_ps(kAll, a.v)};
    }
    static Vec
    floor(Vec a)
    {
        return {_mm512_maskz_roundscale_ps(
            kAll, a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
    }

    /** Compares produce a k-mask; expand it to the shared all-ones
     *  float lane-mask representation (AVX512F-only ops). */
    static Vec
    cmpLt(Vec a, Vec b)
    {
        __mmask16 m = _mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ);
        return {_mm512_castsi512_ps(_mm512_maskz_set1_epi32(m, -1))};
    }
    static Vec
    cmpEq(Vec a, Vec b)
    {
        __mmask16 m = _mm512_cmp_ps_mask(a.v, b.v, _CMP_EQ_OQ);
        return {_mm512_castsi512_ps(_mm512_maskz_set1_epi32(m, -1))};
    }
    static Vec
    maskAnd(Vec a, Vec b)
    {
        return {_mm512_castsi512_ps(_mm512_and_si512(
            _mm512_castps_si512(a.v), _mm512_castps_si512(b.v)))};
    }
    static Vec
    maskOr(Vec a, Vec b)
    {
        return {_mm512_castsi512_ps(_mm512_or_si512(
            _mm512_castps_si512(a.v), _mm512_castps_si512(b.v)))};
    }
    static Vec
    blend(Vec mask, Vec a, Vec b)
    {
        __m512i mi = _mm512_castps_si512(mask.v);
        __mmask16 m = _mm512_test_epi32_mask(mi, mi);
        return {_mm512_mask_blend_ps(m, b.v, a.v)};
    }

    static Vec
    pow2Int(Vec n)
    {
        __m512i e = _mm512_maskz_cvttps_epi32(kAll, n.v);
        e = _mm512_add_epi32(e, _mm512_set1_epi32(127));
        e = _mm512_maskz_slli_epi32(kAll, e, 23);
        return {_mm512_castsi512_ps(e)};
    }
};
#endif // __AVX512F__

// ----------------------------------------------------------------------
// NEON backend: 4 f32 lanes. Compiled only in TUs targeting ARM NEON.
// ----------------------------------------------------------------------

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
template <>
struct Vec<NeonTag>
{
    static constexpr int kWidth = 4;
    float32x4_t v;

    static Vec
    load(const float *p)
    {
        return {vld1q_f32(p)};
    }
    static Vec
    broadcast(float x)
    {
        return {vdupq_n_f32(x)};
    }
    void
    store(float *p) const
    {
        vst1q_f32(p, v);
    }
    float
    lane(int i) const
    {
        float tmp[4];
        vst1q_f32(tmp, v);
        return tmp[i];
    }
    static Vec
    gather(const float *base, const int32_t *idx)
    {
        float t[4] = {base[idx[0]], base[idx[1]], base[idx[2]],
                      base[idx[3]]};
        return {vld1q_f32(t)};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {vaddq_f32(a.v, b.v)};
    }
    friend Vec
    operator-(Vec a, Vec b)
    {
        return {vsubq_f32(a.v, b.v)};
    }
    friend Vec
    operator*(Vec a, Vec b)
    {
        return {vmulq_f32(a.v, b.v)};
    }
    friend Vec
    operator/(Vec a, Vec b)
    {
#if defined(__aarch64__)
        return {vdivq_f32(a.v, b.v)};
#else
        float ta[4], tb[4];
        vst1q_f32(ta, a.v);
        vst1q_f32(tb, b.v);
        for (int i = 0; i < 4; ++i) {
            ta[i] /= tb[i];
        }
        return {vld1q_f32(ta)};
#endif
    }

    /** Mirror the scalar reference (a > b ? a : b) including NaN lanes:
     *  select via the ordered greater-than compare. */
    static Vec
    max(Vec a, Vec b)
    {
        return {vbslq_f32(vcgtq_f32(a.v, b.v), a.v, b.v)};
    }
    static Vec
    min(Vec a, Vec b)
    {
        return {vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v)};
    }
    static Vec
    abs(Vec a)
    {
        return {vabsq_f32(a.v)};
    }
    static Vec
    neg(Vec a)
    {
        return {vnegq_f32(a.v)};
    }
    static Vec
    sqrt(Vec a)
    {
#if defined(__aarch64__)
        return {vsqrtq_f32(a.v)};
#else
        float t[4];
        vst1q_f32(t, a.v);
        for (int i = 0; i < 4; ++i) {
            t[i] = std::sqrt(t[i]);
        }
        return {vld1q_f32(t)};
#endif
    }
    static Vec
    floor(Vec a)
    {
#if defined(__aarch64__)
        return {vrndmq_f32(a.v)};
#else
        float t[4];
        vst1q_f32(t, a.v);
        for (int i = 0; i < 4; ++i) {
            t[i] = std::floor(t[i]);
        }
        return {vld1q_f32(t)};
#endif
    }

    static Vec
    cmpLt(Vec a, Vec b)
    {
        return {vreinterpretq_f32_u32(vcltq_f32(a.v, b.v))};
    }
    static Vec
    cmpEq(Vec a, Vec b)
    {
        return {vreinterpretq_f32_u32(vceqq_f32(a.v, b.v))};
    }
    static Vec
    maskAnd(Vec a, Vec b)
    {
        return {vreinterpretq_f32_u32(
            vandq_u32(vreinterpretq_u32_f32(a.v),
                      vreinterpretq_u32_f32(b.v)))};
    }
    static Vec
    maskOr(Vec a, Vec b)
    {
        return {vreinterpretq_f32_u32(
            vorrq_u32(vreinterpretq_u32_f32(a.v),
                      vreinterpretq_u32_f32(b.v)))};
    }
    static Vec
    blend(Vec mask, Vec a, Vec b)
    {
        return {vbslq_f32(vreinterpretq_u32_f32(mask.v), a.v, b.v)};
    }

    static Vec
    pow2Int(Vec n)
    {
        int32x4_t e = vcvtq_s32_f32(n.v);
        e = vaddq_s32(e, vdupq_n_s32(127));
        e = vshlq_n_s32(e, 23);
        return {vreinterpretq_f32_s32(e)};
    }
};
#endif // __ARM_NEON

// ----------------------------------------------------------------------
// f64 companion lanes. `VecD<Tag>` holds Vec<Tag>::kWidth doubles, lane
// l pairing with lane l of a Vec<Tag>, so row-lane kernels can run a
// row's double-precision chain (an f64 denominator or gradient sum) in
// the same lane as its f32 math. Every op is the IEEE double op of the
// scalar code: widen is exact, narrow rounds to nearest like
// static_cast<float>(double). The generic form runs each lane in scalar
// code (the scalar and NEON backends); AVX2 and AVX-512 specialize it
// over two native f64 registers.
// ----------------------------------------------------------------------

template <typename Tag>
struct VecD
{
    static constexpr int kWidth = Vec<Tag>::kWidth;
    double v[kWidth];

    static VecD
    broadcast(double x)
    {
        VecD r;
        for (int l = 0; l < kWidth; ++l) {
            r.v[l] = x;
        }
        return r;
    }
    static VecD
    load(const double *p)
    {
        VecD r;
        for (int l = 0; l < kWidth; ++l) {
            r.v[l] = p[l];
        }
        return r;
    }
    void
    store(double *p) const
    {
        for (int l = 0; l < kWidth; ++l) {
            p[l] = v[l];
        }
    }
    /** Exact f32 -> f64 of every lane. */
    static VecD
    widen(Vec<Tag> f)
    {
        float t[kWidth];
        f.store(t);
        VecD r;
        for (int l = 0; l < kWidth; ++l) {
            r.v[l] = static_cast<double>(t[l]);
        }
        return r;
    }
    /** Round-to-nearest f64 -> f32 of every lane. */
    Vec<Tag>
    narrow() const
    {
        float t[kWidth];
        for (int l = 0; l < kWidth; ++l) {
            t[l] = static_cast<float>(v[l]);
        }
        return Vec<Tag>::load(t);
    }

    friend VecD
    operator+(VecD a, VecD b)
    {
        for (int l = 0; l < kWidth; ++l) {
            a.v[l] += b.v[l];
        }
        return a;
    }
    friend VecD
    operator*(VecD a, VecD b)
    {
        for (int l = 0; l < kWidth; ++l) {
            a.v[l] *= b.v[l];
        }
        return a;
    }
    friend VecD
    operator/(VecD a, VecD b)
    {
        for (int l = 0; l < kWidth; ++l) {
            a.v[l] /= b.v[l];
        }
        return a;
    }
};

#if defined(__AVX2__)
template <>
struct VecD<Avx2Tag>
{
    static constexpr int kWidth = 8;
    __m256d lo, hi; ///< lanes 0-3, 4-7

    static VecD
    broadcast(double x)
    {
        return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
    }
    static VecD
    load(const double *p)
    {
        return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
    }
    void
    store(double *p) const
    {
        _mm256_storeu_pd(p, lo);
        _mm256_storeu_pd(p + 4, hi);
    }
    static VecD
    widen(Vec<Avx2Tag> f)
    {
        return {_mm256_cvtps_pd(_mm256_castps256_ps128(f.v)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(f.v, 1))};
    }
    Vec<Avx2Tag>
    narrow() const
    {
        return {_mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))};
    }

    friend VecD
    operator+(VecD a, VecD b)
    {
        return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
    }
    friend VecD
    operator*(VecD a, VecD b)
    {
        return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
    }
    friend VecD
    operator/(VecD a, VecD b)
    {
        return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
    }
};
#endif // __AVX2__

#if defined(__AVX512F__)
template <>
struct VecD<Avx512Tag>
{
    static constexpr int kWidth = 16;
    __m512d lo, hi; ///< lanes 0-7, 8-15

    static VecD
    broadcast(double x)
    {
        return {_mm512_set1_pd(x), _mm512_set1_pd(x)};
    }
    void
    store(double *p) const
    {
        _mm512_storeu_pd(p, lo);
        _mm512_storeu_pd(p + 8, hi);
    }
    // Zero-masking forms with an all-ones mask, as in Vec<Avx512Tag>.
    static VecD
    widen(Vec<Avx512Tag> f)
    {
        __m512d both = _mm512_castps_pd(f.v);
        __m256 flo = _mm256_castpd_ps(
            _mm512_maskz_extractf64x4_pd(0xff, both, 0));
        __m256 fhi = _mm256_castpd_ps(
            _mm512_maskz_extractf64x4_pd(0xff, both, 1));
        return {_mm512_maskz_cvtps_pd(0xff, flo),
                _mm512_maskz_cvtps_pd(0xff, fhi)};
    }
    Vec<Avx512Tag>
    narrow() const
    {
        __m256d flo = _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xff, lo));
        __m256d fhi = _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xff, hi));
        __m512d low = _mm512_maskz_insertf64x4(0xff, _mm512_setzero_pd(),
                                               flo, 0);
        __m512d both = _mm512_maskz_insertf64x4(0xff, low, fhi, 1);
        return {_mm512_castpd_ps(both)};
    }

    friend VecD
    operator+(VecD a, VecD b)
    {
        return {_mm512_add_pd(a.lo, b.lo), _mm512_add_pd(a.hi, b.hi)};
    }
    friend VecD
    operator*(VecD a, VecD b)
    {
        return {_mm512_mul_pd(a.lo, b.lo), _mm512_mul_pd(a.hi, b.hi)};
    }
    friend VecD
    operator/(VecD a, VecD b)
    {
        return {_mm512_div_pd(a.lo, b.lo), _mm512_div_pd(a.hi, b.hi)};
    }
};
#endif // __AVX512F__

// ----------------------------------------------------------------------
// Reduction tag mapping. Reductions fold a fixed virtual 8-slot
// (kAccLanes) accumulator; a hardware vector wider than 8 f32 lanes
// cannot hold that shape, so backends wider than the virtual width run
// their reductions on an 8-lane sibling type. AVX-512 maps to the AVX2
// Vec (always compiled alongside it: -mavx512f implies __AVX2__);
// everything else reduces as itself.
// ----------------------------------------------------------------------

template <typename Tag>
struct ReduceTag
{
    using type = Tag;
};
#if defined(__AVX512F__) && defined(__AVX2__)
template <>
struct ReduceTag<Avx512Tag>
{
    using type = Avx2Tag;
};
#endif

} // namespace

} // namespace kernels
} // namespace edkm

#endif // EDKM_KERNELS_SIMD_H_
