/**
 * @file
 * Tests for the src/kernels/ subsystem: scalar-vs-SIMD equivalence of
 * every kernel in the dispatch table (bit-exact by the fixed virtual
 * accumulator-lane contract), polynomial-exp accuracy against libm,
 * fused-vs-composed attention-table equivalence, fused distance+argmin
 * vs the binary-search reference, gather batching, and thread-count
 * determinism of the fused kernels (mirroring tests/test_runtime.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/engine.h"
#include "autograd/variable.h"
#include "core/dkm.h"
#include "core/kmeans.h"
#include "device/device_manager.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace edkm {
namespace {

/** Restore the global pool to the ambient default on scope exit. */
class ThreadCountScope
{
  public:
    explicit ThreadCountScope(int threads)
    {
        runtime::Runtime::instance().setThreadCount(threads);
    }
    ~ThreadCountScope()
    {
        runtime::Runtime::instance().setThreadCount(
            runtime::Runtime::defaultThreadCount());
    }
};

std::vector<float>
randomVec(int64_t n, uint64_t seed, float lo = -3.0f, float hi = 3.0f)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (float &x : v) {
        x = rng.uniform(lo, hi);
    }
    return v;
}

void
expectBitEqual(const std::vector<float> &a, const std::vector<float> &b,
               const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << what << " element " << i;
    }
}

/** Sizes covering sub-lane, exact-lane and ragged-tail cases. */
const int64_t kSizes[] = {1, 3, 7, 8, 9, 16, 31, 64, 1000, 1023};

// ---------------------------------------------------------------------
// Scalar-vs-SIMD bit equivalence for every table entry.
// ---------------------------------------------------------------------

TEST(KernelBackends, ScalarAlwaysAvailable)
{
    auto backends = kernels::availableBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_EQ(backends[0], kernels::Backend::kScalar);
    EXPECT_STREQ(kernels::backendName(kernels::Backend::kScalar),
                 "scalar");
    // active() resolves to one of the available backends.
    bool found = false;
    for (auto b : backends) {
        found = found || kernels::active().backend == b;
    }
    EXPECT_TRUE(found);
}

TEST(KernelBackends, ElementwiseBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t n : kSizes) {
            std::vector<float> x = randomVec(n, 11u + n);
            std::vector<float> y = randomVec(n, 23u + n, 0.5f, 2.0f);
            std::vector<float> r0(x.size()), r1(x.size());

            auto checkBin = [&](auto fn, const char *what) {
                fn(sc)(x.data(), y.data(), r0.data(), n);
                fn(kt)(x.data(), y.data(), r1.data(), n);
                expectBitEqual(r0, r1, what);
            };
            checkBin([](const kernels::KernelTable &t) { return t.add; },
                     "add");
            checkBin([](const kernels::KernelTable &t) { return t.sub; },
                     "sub");
            checkBin([](const kernels::KernelTable &t) { return t.mul; },
                     "mul");
            checkBin([](const kernels::KernelTable &t) { return t.div; },
                     "div");

            auto checkUn = [&](auto fn, const char *what) {
                fn(sc)(x.data(), r0.data(), n);
                fn(kt)(x.data(), r1.data(), n);
                expectBitEqual(r0, r1, what);
            };
            checkUn([](const kernels::KernelTable &t) { return t.negate; },
                    "negate");
            checkUn([](const kernels::KernelTable &t) { return t.absval; },
                    "absval");
            checkUn(
                [](const kernels::KernelTable &t) { return t.squarev; },
                "squarev");
            checkUn([](const kernels::KernelTable &t) { return t.reluv; },
                    "reluv");
            checkUn([](const kernels::KernelTable &t) { return t.expv; },
                    "expv");
            checkUn([](const kernels::KernelTable &t) { return t.siluv; },
                    "siluv");
            checkUn(
                [](const kernels::KernelTable &t) { return t.sigmoidv; },
                "sigmoidv");

            // sqrt on non-negative input.
            std::vector<float> xp = randomVec(n, 31u + n, 0.0f, 9.0f);
            sc.sqrtv(xp.data(), r0.data(), n);
            kt.sqrtv(xp.data(), r1.data(), n);
            expectBitEqual(r0, r1, "sqrtv");

            sc.scale(x.data(), 1.7f, r0.data(), n);
            kt.scale(x.data(), 1.7f, r1.data(), n);
            expectBitEqual(r0, r1, "scale");
            sc.offset(x.data(), -0.3f, r0.data(), n);
            kt.offset(x.data(), -0.3f, r1.data(), n);
            expectBitEqual(r0, r1, "offset");
            sc.clampv(x.data(), -1.0f, 1.0f, r0.data(), n);
            kt.clampv(x.data(), -1.0f, 1.0f, r1.data(), n);
            expectBitEqual(r0, r1, "clampv");

            std::vector<float> acc0 = randomVec(n, 5u + n);
            std::vector<float> acc1 = acc0;
            sc.axpy(x.data(), 0.77f, acc0.data(), n);
            kt.axpy(x.data(), 0.77f, acc1.data(), n);
            expectBitEqual(acc0, acc1, "axpy");
        }
    }
}

TEST(KernelBackends, ReductionsBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t n : kSizes) {
            std::vector<float> x = randomVec(n, 41u + n);
            std::vector<float> y = randomVec(n, 43u + n);
            EXPECT_EQ(sc.reduceMax(x.data(), n), kt.reduceMax(x.data(), n))
                << "reduceMax n=" << n;
            EXPECT_EQ(sc.dot(x.data(), y.data(), n),
                      kt.dot(x.data(), y.data(), n))
                << "dot n=" << n;
        }
    }
}

TEST(KernelBackends, MatvecBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t k : {1, 7, 16, 33}) {
            int64_t rows = 57;
            std::vector<float> a = randomVec(rows * k, 51u + k);
            std::vector<float> x = randomVec(k, 53u + k);
            std::vector<float> y0(static_cast<size_t>(rows)),
                y1(static_cast<size_t>(rows));
            sc.matvec(a.data(), rows, k, x.data(), y0.data());
            kt.matvec(a.data(), rows, k, x.data(), y1.data());
            expectBitEqual(y0, y1, "matvec");
        }
    }
}

/** Bitwise equality, with every NaN matching every NaN: which NaN
 *  operand's payload and sign an op propagates depends on the operand
 *  order the compiler picks for commutative ops, even between two
 *  compilations of the same scalar code, so NaN bits are outside the
 *  contract. */
template <typename T>
void
expectSameBits(const std::vector<T> &a, const std::vector<T> &b,
               const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i])) {
            continue;
        }
        ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(T)), 0)
            << what << " element " << i << ": " << a[i] << " vs " << b[i];
    }
}

/** Hardware f32 lanes of a backend (row-lane kernels step by this). */
int64_t
laneWidth(kernels::Backend b)
{
    switch (b) {
    case kernels::Backend::kAvx2:
        return 8;
    case kernels::Backend::kAvx512:
        return 16;
    case kernels::Backend::kNeon:
        return 4;
    case kernels::Backend::kScalar:
        break;
    }
    return 1;
}

/**
 * Values and centroids for the row kernels, salted with the special
 * cases: NaN, +-inf, -0, values equal to a centroid, and duplicate
 * centroids. Centroids stay sorted (nearestRows needs that) and
 * include -0 and +inf.
 */
struct RowCase
{
    std::vector<float> u;
    std::vector<float> c;
    /** c with one NaN centroid (not sorted any more): rows then mix a
     *  NaN score with ordinary ones. */
    std::vector<float> cNan;
};

RowCase
rowCase(int64_t rows, int64_t k, uint64_t seed)
{
    RowCase rc;
    rc.u = randomVec(rows, seed, -0.1f, 0.1f);
    rc.c = randomVec(k, seed + 1, -0.1f, 0.1f);
    if (k >= 3) {
        rc.c[1] = rc.c[0]; // duplicate centroid
        rc.c[2] = -0.0f;
    }
    if (k >= 4) {
        // A row at u = +inf then scores NaN at this centroid only.
        rc.c[3] = std::numeric_limits<float>::infinity();
    }
    std::sort(rc.c.begin(), rc.c.end());
    const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             -0.0f, 0.0f, rc.c[0], rc.c[k - 1]};
    for (int64_t i = 0; i < rows; i += 5) {
        rc.u[static_cast<size_t>(i)] = special[(i / 5) % 7];
    }
    rc.cNan = rc.c;
    if (k >= 2) {
        rc.cNan[static_cast<size_t>(k / 2)] =
            std::numeric_limits<float>::quiet_NaN();
    }
    return rc;
}

const int64_t kRowKs[] = {1, 5, 8, 16, 19, 256};

/** Row counts around a backend's lane width, plus large ragged ones. */
std::vector<int64_t>
rowCounts(kernels::Backend b)
{
    int64_t w = laneWidth(b);
    return {1, w - 1, w, w + 1, 97, 2357};
}

TEST(KernelBackends, FusedRowKernelsBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t k : kRowKs) {
            for (int64_t rows : rowCounts(b)) {
                SCOPED_TRACE(::testing::Message()
                             << kernels::backendName(b) << " k=" << k
                             << " rows=" << rows);
                RowCase rc = rowCase(rows, k, 61u + k + rows);
                std::vector<float> t0(static_cast<size_t>(rows * k));
                std::vector<float> t1(static_cast<size_t>(rows * k));
                // tau 1e-3, and 1e-30 whose scores underflow exp.
                for (const std::vector<float> *c : {&rc.cNan, &rc.c}) {
                    for (float nis : {-1e3f, -1e30f}) {
                        sc.attentionRows(rc.u.data(), rows, c->data(), k,
                                         nis, t0.data());
                        kt.attentionRows(rc.u.data(), rows, c->data(), k,
                                         nis, t1.data());
                        expectSameBits(t0, t1, "attentionRows");
                    }
                }

                sc.softmaxRows(t0.data(), rows, k, t0.data());
                kt.softmaxRows(t1.data(), rows, k, t1.data());
                expectSameBits(t0, t1, "softmaxRows");

                sc.absDiffRows(rc.u.data(), rows, rc.c.data(), k,
                               t0.data());
                kt.absDiffRows(rc.u.data(), rows, rc.c.data(), k,
                               t1.data());
                expectSameBits(t0, t1, "absDiffRows");

                std::vector<int32_t> a0(static_cast<size_t>(rows));
                std::vector<int32_t> a1(static_cast<size_t>(rows));
                sc.nearestRows(rc.u.data(), rows, rc.c.data(), k,
                               a0.data());
                kt.nearestRows(rc.u.data(), rows, rc.c.data(), k,
                               a1.data());
                EXPECT_EQ(a0, a1) << "nearestRows";
            }
        }
    }
}

/**
 * The paper-mode backward rows and the gather-add against the scalar
 * table: table rows read directly and through idx, gA seeded from g and
 * from 0, a block starting mid-range, and the special-valued attention
 * tables and values of rowCase.
 */
TEST(KernelBackends, PaperRowKernelsBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t k : kRowKs) {
            for (int64_t rows : rowCounts(b)) {
                SCOPED_TRACE(::testing::Message()
                             << kernels::backendName(b) << " k=" << k
                             << " rows=" << rows);
                RowCase rc = rowCase(rows, k, 71u + k + rows);
                std::vector<float> table(static_cast<size_t>(rows * k));
                sc.attentionRows(rc.u.data(), rows, rc.c.data(), k,
                                 -1e3f, table.data());
                std::vector<float> gn = randomVec(k, 73u + k, -5.0f, 5.0f);
                std::vector<float> gm = randomVec(k, 79u + k, -5.0f, 5.0f);
                std::vector<float> g = randomVec(rows, 83u + rows);
                if (rows > 0) {
                    g[0] = -0.0f;
                }
                Rng ir(89u + static_cast<uint64_t>(rows));
                std::vector<uint16_t> idx(static_cast<size_t>(rows));
                for (uint16_t &x : idx) {
                    x = static_cast<uint16_t>(ir.randint(0, rows - 1));
                }

                kernels::PaperRowArgs args{};
                args.k = k;
                args.invTau = 1e3f;
                args.gn = gn.data();
                args.gm = gm.data();
                args.cIn = rc.c.data();
                args.table = table.data();
                args.vals = rc.u.data();
                args.cFinal = rc.c.data();
                for (bool via_idx : {false, true}) {
                    for (bool seeded : {false, true}) {
                        args.idx = via_idx ? idx.data() : nullptr;
                        args.g = seeded ? g.data() : nullptr;
                        const size_t nt = static_cast<size_t>(rows * k);
                        std::vector<double> terms0(nt), terms1(nt);
                        std::vector<float> gw0(static_cast<size_t>(rows));
                        std::vector<float> gw1(static_cast<size_t>(rows));
                        sc.paperRows(args, 0, rows, terms0.data(),
                                     gw0.data());
                        // Two blocks on the backend under test, the
                        // second starting mid-range.
                        int64_t split = rows / 3;
                        kt.paperRows(args, 0, split, terms1.data(),
                                     gw1.data());
                        kt.paperRows(args, split, rows - split,
                                     terms1.data() + split * k,
                                     gw1.data() + split);
                        expectSameBits(terms0, terms1, "paperRows terms");
                        expectSameBits(gw0, gw1, "paperRows gw");

                        std::vector<double> part0(static_cast<size_t>(k),
                                                  0.5);
                        std::vector<double> part1 = part0;
                        std::vector<float> acc0 = g, acc1 = g;
                        sc.gatherAddRows(terms0.data(), gw0.data(), k,
                                         args.idx, rows, part0.data(),
                                         acc0.data());
                        kt.gatherAddRows(terms0.data(), gw0.data(), k,
                                         args.idx, rows, part1.data(),
                                         acc1.data());
                        expectSameBits(part0, part1, "gatherAddRows part");
                        expectSameBits(acc0, acc1, "gatherAddRows gw");
                    }
                }
            }
        }
    }
}

TEST(KernelBackends, AdamwStepBitIdenticalAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        for (int64_t n : kSizes) {
            std::vector<float> p0 = randomVec(n, 71u + n);
            std::vector<float> m0 = randomVec(n, 73u + n, -0.1f, 0.1f);
            std::vector<float> v0 = randomVec(n, 79u + n, 0.0f, 0.1f);
            std::vector<float> g = randomVec(n, 83u + n);
            std::vector<float> p1 = p0, m1 = m0, v1 = v0;
            sc.adamwStep(p0.data(), m0.data(), v0.data(), g.data(), n,
                         1e-3f, 0.9f, 0.999f, 1e-8f, 0.01f, 0.1f,
                         0.001999f);
            kt.adamwStep(p1.data(), m1.data(), v1.data(), g.data(), n,
                         1e-3f, 0.9f, 0.999f, 1e-8f, 0.01f, 0.1f,
                         0.001999f);
            expectBitEqual(p0, p1, "adamw p");
            expectBitEqual(m0, m1, "adamw m");
            expectBitEqual(v0, v1, "adamw v");
        }
    }
}

// ---------------------------------------------------------------------
// Polynomial exp accuracy and saturation semantics.
// ---------------------------------------------------------------------

TEST(KernelExp, MatchesLibmWithinTightRelativeError)
{
    const kernels::KernelTable &kt = kernels::active();
    std::vector<float> x;
    for (float v = -87.0f; v <= 88.0f; v += 0.37f) {
        x.push_back(v);
    }
    std::vector<float> y(x.size());
    kt.expv(x.data(), y.data(), static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
        double ref = std::exp(static_cast<double>(x[i]));
        EXPECT_NEAR(y[i] / ref, 1.0, 1e-6) << "exp(" << x[i] << ")";
    }
}

TEST(KernelExp, FlushesToZeroBelowRangeAndSaturatesAbove)
{
    const kernels::KernelTable &kt = kernels::active();
    std::vector<float> x = {-1e9f, -200.0f, -88.0f, 200.0f, 1e9f};
    std::vector<float> y(x.size());
    kt.expv(x.data(), y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 0.0f);
    EXPECT_GT(y[3], 1e38f); // saturated at exp(88), still finite
    EXPECT_EQ(y[3], y[4]);
    EXPECT_TRUE(std::isfinite(y[3]));
}

TEST(KernelExp, PropagatesNaNOnEveryBackend)
{
    // A poisoned input must stay visibly poisoned (std::exp semantics),
    // not be laundered into a plausible finite attention weight.
    float nan = std::numeric_limits<float>::quiet_NaN();
    for (auto b : kernels::availableBackends()) {
        const kernels::KernelTable &kt = kernels::table(b);
        std::vector<float> x = {0.5f, nan, -1.0f, nan, 2.0f, 0.0f,
                                nan, 1.0f, nan};
        std::vector<float> y(x.size());
        kt.expv(x.data(), y.data(), static_cast<int64_t>(x.size()));
        for (size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(std::isnan(y[i]), std::isnan(x[i]))
                << kernels::backendName(b) << " element " << i;
        }
        kt.sigmoidv(x.data(), y.data(), static_cast<int64_t>(x.size()));
        EXPECT_TRUE(std::isnan(y[1]));
        // clamp keeps std::clamp's NaN pass-through instead of
        // laundering NaN into the lower bound.
        kt.clampv(x.data(), -1.0f, 1.0f, y.data(),
                  static_cast<int64_t>(x.size()));
        EXPECT_TRUE(std::isnan(y[1]));
        EXPECT_EQ(y[4], 1.0f);
        // A NaN score poisons its whole softmax row instead of
        // producing a clean distribution.
        std::vector<float> row = {1.0f, nan, 2.0f, 0.5f};
        std::vector<float> sm(row.size());
        kt.softmaxRows(row.data(), 1, 4, sm.data());
        bool any_nan = false;
        for (float v : sm) {
            any_nan = any_nan || std::isnan(v);
        }
        EXPECT_TRUE(any_nan) << kernels::backendName(b);
    }
}

// ---------------------------------------------------------------------
// Fused attention table == composed op chain, bitwise.
// ---------------------------------------------------------------------

TEST(FusedAttention, BitIdenticalToComposedOpChain)
{
    Rng rng(7);
    int64_t n = 3000, k = 16;
    float tau = 2e-4f;
    Tensor u = Tensor::randn({n, 1}, rng, Device::cpu(), 0.02f);
    Tensor c = Tensor::randn({1, k}, rng, Device::cpu(), 0.02f);

    Tensor composed =
        softmaxLastDim(mulScalar(square(sub(u, c)), -1.0f / tau));
    Tensor fused = kernels::attentionTable(u, c, tau);

    ASSERT_EQ(fused.shape(), composed.shape());
    std::vector<float> vf = fused.toVector(), vc = composed.toVector();
    for (size_t i = 0; i < vf.size(); ++i) {
        ASSERT_EQ(vf[i], vc[i]) << "element " << i;
    }
}

TEST(FusedAttention, RowsSumToOne)
{
    Rng rng(9);
    int64_t n = 513, k = 8;
    Tensor u = Tensor::randn({n}, rng);
    Tensor cvec = Tensor::randn({k}, rng);
    Tensor t = kernels::attentionTable(u, cvec, 0.5f);
    for (int64_t r = 0; r < n; ++r) {
        double s = 0.0;
        for (int64_t j = 0; j < k; ++j) {
            s += t.at({r, j});
        }
        EXPECT_NEAR(s, 1.0, 1e-5) << "row " << r;
    }
}

// ---------------------------------------------------------------------
// Fused distance+argmin vs the binary-search reference.
// ---------------------------------------------------------------------

TEST(NearestKernel, MatchesBinarySearchReference)
{
    Rng rng(13);
    for (int k : {1, 2, 16, 200}) {
        std::vector<float> centroids(static_cast<size_t>(k));
        for (float &c : centroids) {
            c = rng.uniform(-1.0f, 1.0f);
        }
        // Inject duplicates to exercise tie-breaking.
        if (k >= 4) {
            centroids[1] = centroids[2];
        }
        std::sort(centroids.begin(), centroids.end());
        std::vector<float> values(1537);
        for (float &v : values) {
            v = rng.uniform(-1.2f, 1.2f);
        }
        // Exact centroid hits and midpoints (worst-case ties).
        values[0] = centroids[0];
        if (k >= 2) {
            values[1] =
                centroids[0] + (centroids[1] - centroids[0]) / 2.0f;
        }
        std::vector<int32_t> got(values.size());
        kernels::assignNearest(centroids, values.data(),
                               static_cast<int64_t>(values.size()),
                               got.data());
        for (size_t i = 0; i < values.size(); ++i) {
            ASSERT_EQ(got[i], nearestCentroid(centroids, values[i]))
                << "value " << values[i] << " k=" << k;
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: fused kernels are bit-identical across thread counts,
// and the DKM inference fast path reproduces the autograd path.
// ---------------------------------------------------------------------

TEST(KernelDeterminism, AttentionTableIdentical1Vs8Threads)
{
    Rng rng(19);
    Tensor u = Tensor::randn({20000, 1}, rng, Device::cpu(), 0.02f);
    Tensor c = Tensor::randn({1, 16}, rng, Device::cpu(), 0.02f);
    Tensor serial_t, parallel_t;
    {
        ThreadCountScope scope(1);
        serial_t = kernels::attentionTable(u, c, 1e-3f);
    }
    {
        ThreadCountScope scope(8);
        parallel_t = kernels::attentionTable(u, c, 1e-3f);
    }
    std::vector<float> a = serial_t.toVector(), b = parallel_t.toVector();
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "element " << i;
    }
}

TEST(KernelDeterminism, MatvecPathIdentical1Vs8Threads)
{
    Rng rng(23);
    Tensor a = Tensor::randn({50000, 16}, rng);
    Tensor x = Tensor::randn({16, 1}, rng);
    Tensor serial_y, parallel_y;
    {
        ThreadCountScope scope(1);
        serial_y = matmul(a, x);
    }
    {
        ThreadCountScope scope(8);
        parallel_y = matmul(a, x);
    }
    std::vector<float> va = serial_y.toVector(),
                       vb = parallel_y.toVector();
    for (size_t i = 0; i < va.size(); ++i) {
        ASSERT_EQ(va[i], vb[i]) << "row " << i;
    }
}

TEST(KernelDeterminism, DkmFastPathMatchesAutogradPathBitwise)
{
    Rng rng(29);
    Tensor w = Tensor::randn({4096}, rng, Device::cpu(), 0.02f)
                   .to(DType::kBf16)
                   .to(DType::kF32);
    DkmConfig cfg;
    cfg.bits = 4;
    cfg.maxIters = 5;

    DkmLayer grad_layer(cfg);
    Variable out_grad = grad_layer.forward(Variable(w.clone(), true));

    DkmLayer fast_layer(cfg);
    Tensor out_fast;
    {
        NoGradGuard ng;
        out_fast =
            fast_layer.forward(Variable(w.clone(), true)).data();
    }
    EXPECT_EQ(grad_layer.lastIterations(), fast_layer.lastIterations());
    std::vector<float> a = out_grad.data().toVector(),
                       b = out_fast.toVector();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "element " << i;
    }
}

} // namespace
} // namespace edkm
