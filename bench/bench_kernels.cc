/**
 * @file
 * Kernel-layer micro-bench: single-thread throughput of the fused
 * attention-table kernel against the composed op chain it replaced
 * (sub -> square -> mulScalar -> softmaxLastDim), of the vector
 * elementwise kernels against the scalar reference backend, of the
 * attention-table kernel at k = 8 and 16 against the scalar backend
 * (exit code gated on SIMD being no slower at either k), and of the
 * fused palettized decode per backend and against the staged path
 * (exit code gated on bit identity, fused <= staged, and SIMD <= scalar
 * at 1024x1024 @4b). Also re-asserts the determinism contract
 * end-to-end: eDKM clustering forward+backward is bit-identical at 1
 * and 8 threads.
 *
 * Emits machine-readable JSON to BENCH_kernels.json (cwd) so CI can
 * track the fused-kernel speedup across PRs. Wall-clock time is
 * measured; the simulated-seconds cost model is irrelevant here.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/edkm.h"
#include "core/palettize.h"
#include "device/device_manager.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace edkm;

namespace {

double
medianMs(std::vector<double> &ms)
{
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

template <typename F>
double
timeMs(int reps, const F &run)
{
    run(); // warm-up
    std::vector<double> ms;
    ms.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        run();
        auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return medianMs(ms);
}

/** Clustering forward+backward output+grad at @p threads. */
std::pair<std::vector<float>, std::vector<float>>
edkmRun(const Tensor &w, const Tensor &upstream, int threads)
{
    runtime::Runtime::instance().setThreadCount(threads);
    EdkmConfig cfg;
    cfg.dkm.bits = 4;
    cfg.dkm.maxIters = 3;
    cfg.uniquify = true;
    EdkmLayer layer(cfg);
    Variable wv(w.clone(), true);
    Variable out = layer.forward(wv);
    backward(af::sumAll(af::mul(out, af::constant(upstream))));
    return {out.data().toVector(), wv.grad().toVector()};
}

} // namespace

int
main(int argc, char **argv)
{
    int64_t n = 65536;
    int64_t k = 16;
    int reps = 7;
    try {
        if (argc > 1) {
            n = std::stoll(argv[1]);
        }
        if (argc > 2) {
            k = std::stoll(argv[2]);
        }
    } catch (const std::exception &) {
        std::cerr << "usage: bench_kernels [n] [k]  (positive integers)\n";
        return 2;
    }
    if (n < 1 || k < 1) {
        std::cerr << "usage: bench_kernels [n] [k]  (positive integers)\n";
        return 2;
    }
    float tau = 2e-4f;

    Rng rng(7);
    Tensor u = Tensor::randn({n, 1}, rng, Device::cpu(), 0.02f);
    Tensor c = Tensor::randn({1, k}, rng, Device::cpu(), 0.02f);

    // ---- fused vs composed attention table, single thread ----
    double composed_ms, fused_ms;
    {
        runtime::SerialGuard serial;
        composed_ms = timeMs(reps, [&] {
            Tensor t = softmaxLastDim(
                mulScalar(square(sub(u, c)), -1.0f / tau));
            volatile float sink = t.rawData<float>()[0];
            (void)sink;
        });
        fused_ms = timeMs(reps, [&] {
            Tensor t = kernels::attentionTable(u, c, tau);
            volatile float sink = t.rawData<float>()[0];
            (void)sink;
        });
    }
    double fused_speedup = composed_ms / fused_ms;
    std::cout << "attention table n=" << n << " k=" << k
              << " (single thread)\n"
              << "  composed chain: " << composed_ms << " ms\n"
              << "  fused kernel:   " << fused_ms << " ms ("
              << fused_speedup << "x)\n";

    // ---- vector vs scalar elementwise (raw kernel, no tensor glue).
    // mul is memory-bandwidth-bound (expect ~1x once the compiler
    // auto-vectorizes the scalar reference); expv is compute-bound and
    // shows the real vector win. Cache-resident buffers. ----
    int64_t en = 1 << 18;
    std::vector<float> ex(static_cast<size_t>(en)),
        ey(static_cast<size_t>(en)), eo(static_cast<size_t>(en));
    for (int64_t i = 0; i < en; ++i) {
        ex[static_cast<size_t>(i)] =
            static_cast<float>(i % 913) * 0.01f - 4.0f;
        ey[static_cast<size_t>(i)] = static_cast<float>(i % 677) * 0.02f;
    }
    const kernels::KernelTable &scalar_t =
        kernels::table(kernels::Backend::kScalar);
    const kernels::KernelTable &active_t = kernels::active();
    double mul_scalar_ms = timeMs(reps, [&] {
        scalar_t.mul(ex.data(), ey.data(), eo.data(), en);
    });
    double mul_simd_ms = timeMs(reps, [&] {
        active_t.mul(ex.data(), ey.data(), eo.data(), en);
    });
    double exp_scalar_ms = timeMs(reps, [&] {
        scalar_t.expv(ex.data(), eo.data(), en);
    });
    double exp_simd_ms = timeMs(reps, [&] {
        active_t.expv(ex.data(), eo.data(), en);
    });
    std::cout << "elementwise over " << en << " f32, "
              << kernels::backendName(active_t.backend)
              << " vs scalar backend\n"
              << "  mul: " << mul_scalar_ms << " -> " << mul_simd_ms
              << " ms (" << mul_scalar_ms / mul_simd_ms << "x)\n"
              << "  exp: " << exp_scalar_ms << " -> " << exp_simd_ms
              << " ms (" << exp_scalar_ms / exp_simd_ms << "x)\n";

    // ---- attention table rows at the paper's small k: the active
    // backend's row-lane kernel against the scalar reference (raw
    // kernel, single thread). Gate: SIMD is no slower than scalar at
    // each k; with the scalar backend active both rows time the same
    // kernel, so the gate only applies to a SIMD backend. ----
    struct AttentionRow
    {
        int64_t k;
        double scalar_ms;
        double simd_ms;
    };
    std::vector<AttentionRow> attention_rows;
    bool attention_simd_ok = true;
    {
        const float *pu = u.rawData<const float>();
        std::vector<float> ao(static_cast<size_t>(n * 16));
        for (int64_t ak : {8, 16}) {
            Rng crng(11 + static_cast<uint64_t>(ak));
            std::vector<float> ac(static_cast<size_t>(ak));
            for (float &cv : ac) {
                cv = crng.normal(0.0f, 0.02f);
            }
            auto timed = [&](const kernels::KernelTable &kt) {
                return timeMs(reps, [&] {
                    kt.attentionRows(pu, n, ac.data(), ak, -1.0f / tau,
                                     ao.data());
                    volatile float sink = ao[0];
                    (void)sink;
                });
            };
            AttentionRow row{ak, timed(scalar_t), timed(active_t)};
            attention_rows.push_back(row);
            if (active_t.backend != kernels::Backend::kScalar &&
                row.simd_ms > row.scalar_ms) {
                attention_simd_ok = false;
            }
        }
    }
    std::cout << "attention table rows n=" << n << ", "
              << kernels::backendName(active_t.backend)
              << " vs scalar backend\n";
    for (const AttentionRow &row : attention_rows) {
        std::cout << "  k=" << row.k << ": " << row.scalar_ms << " -> "
                  << row.simd_ms << " ms ("
                  << row.scalar_ms / row.simd_ms << "x)\n";
    }
    std::cout << "  attention[simd] <= attention[scalar] at every k: "
              << (attention_simd_ok ? "yes" : "NO") << "\n";

    // ---- fused palettized decode over the tiled indices: per-backend
    // rows keyed by dispatch name and the staged-vs-fused tensor path,
    // at 1024x1024 @4b and at the serving / paper setting 256x256 @3b.
    // Gates: staged and fused are bit-identical and fused is no slower
    // than staged at each shape; at 1024x1024 @4b every SIMD backend's
    // kernel is no slower than the scalar one. ----
    struct PaletteRow
    {
        std::string variant;
        double ms;
    };
    struct PaletteCase
    {
        int64_t out, in;
        int bits;
        std::vector<PaletteRow> rows; // rows[0] is the scalar backend
        double staged_ms = 0.0, fused_ms = 0.0;
        bool identical = false;
    };
    auto paletteCase = [&](int64_t dout, int64_t din, int dbits,
                           uint64_t seed) {
        PaletteCase pc{dout, din, dbits, {}, 0.0, 0.0, false};
        Rng prng(seed);
        std::vector<float> plut(static_cast<size_t>(1) << dbits);
        for (float &cv : plut) {
            cv = prng.uniform(-0.05f, 0.05f);
        }
        std::vector<int32_t> passign(static_cast<size_t>(din * dout));
        for (int32_t &a : passign) {
            a = static_cast<int32_t>(prng.randint(0, (1 << dbits) - 1));
        }
        PalettizedTensor pal = PalettizedTensor::fromAssignments(
            {dout, din}, plut, passign, dbits);
        PaletteView pview = viewOf(pal);
        std::vector<float> px(static_cast<size_t>(din));
        for (float &v : px) {
            v = prng.bernoulli(0.1) ? 0.0f : prng.uniform(-1.0f, 1.0f);
        }
        Tensor pxT = Tensor::fromVector(px, {1, din});

        // Per-backend raw kernel rows (single thread, no tensor glue).
        {
            runtime::SerialGuard serial;
            std::vector<float> pout(static_cast<size_t>(dout));
            for (auto be : kernels::availableBackends()) {
                const kernels::KernelTable &kt = kernels::table(be);
                double ms = timeMs(reps, [&] {
                    kt.paletteDotFused(px.data(), din,
                                       pview.tiles->data(), pview.bits,
                                       pview.lut.data(), 0, dout,
                                       pout.data());
                    volatile float sink = pout[0];
                    (void)sink;
                });
                pc.rows.push_back({kernels::backendName(be), ms});
            }
        }

        // Tensor-level staged vs fused decode (active backend, threaded
        // as the serving path runs it) + the bit-identity gate.
        pc.staged_ms = timeMs(reps, [&] {
            Tensor t = paletteMatmulTStaged(pxT, pview);
            volatile float sink = t.rawData<float>()[0];
            (void)sink;
        });
        pc.fused_ms = timeMs(reps, [&] {
            Tensor t = paletteMatmulT(pxT, pview);
            volatile float sink = t.rawData<float>()[0];
            (void)sink;
        });
        std::vector<float> staged_out =
            paletteMatmulTStaged(pxT, pview).toVector();
        std::vector<float> fused_out =
            paletteMatmulT(pxT, pview).toVector();
        pc.identical = staged_out.size() == fused_out.size() &&
                       std::memcmp(staged_out.data(), fused_out.data(),
                                   staged_out.size() * sizeof(float)) == 0;
        return pc;
    };
    std::vector<PaletteCase> palette_cases = {paletteCase(1024, 1024, 4, 17),
                                              paletteCase(256, 256, 3, 19)};
    bool palette_ok = true;
    for (const PaletteCase &pc : palette_cases) {
        bool fused_wins = pc.fused_ms <= pc.staged_ms;
        bool simd_wins = true;
        if (pc.out == 1024 && pc.in == 1024 && pc.bits == 4) {
            for (const PaletteRow &row : pc.rows) {
                simd_wins = simd_wins && row.ms <= pc.rows[0].ms;
            }
        }
        palette_ok = palette_ok && pc.identical && fused_wins && simd_wins;
        std::cout << "palettized decode " << pc.out << "x" << pc.in << " @"
                  << pc.bits << "b\n";
        for (const PaletteRow &row : pc.rows) {
            std::cout << "  fused[" << row.variant << "]: " << row.ms
                      << " ms\n";
        }
        std::cout << "  staged path: " << pc.staged_ms << " ms\n"
                  << "  fused path:  " << pc.fused_ms << " ms ("
                  << pc.staged_ms / pc.fused_ms << "x)\n"
                  << "  staged/fused bit-identical: "
                  << (pc.identical ? "yes" : "NO") << "\n"
                  << "  fused path <= staged path: "
                  << (fused_wins ? "yes" : "NO") << "\n";
        if (pc.out == 1024 && pc.in == 1024 && pc.bits == 4) {
            std::cout << "  fused[simd] <= fused[scalar] per backend: "
                      << (simd_wins ? "yes" : "NO") << "\n";
        }
    }

    // ---- thread-count determinism of the full clustering stack ----
    Rng wr(31);
    Tensor w = Tensor::randn({16384}, wr, Device::cpu(), 0.02f)
                   .to(DType::kBf16)
                   .to(DType::kF32);
    Rng ur(32);
    Tensor upstream = Tensor::randn({16384}, ur);
    auto [out1, grad1] = edkmRun(w, upstream, 1);
    auto [out8, grad8] = edkmRun(w, upstream, 8);
    runtime::Runtime::instance().setThreadCount(
        runtime::Runtime::defaultThreadCount());
    bool identical = out1 == out8 && grad1 == grad8;
    std::cout << "edkm clustering 1-vs-8 threads bit-identical: "
              << (identical ? "yes" : "NO") << "\n";

    std::ofstream json("BENCH_kernels.json");
    json << "{\n"
         << "  \"bench\": \"kernels\",\n"
         << "  \"backend\": \""
         << kernels::backendName(active_t.backend) << "\",\n"
         << "  \"n\": " << n << ",\n"
         << "  \"k\": " << k << ",\n"
         << "  \"attention_composed_ms\": " << composed_ms << ",\n"
         << "  \"attention_fused_ms\": " << fused_ms << ",\n"
         << "  \"attention_fused_speedup\": " << fused_speedup << ",\n"
         << "  \"elementwise_n\": " << en << ",\n"
         << "  \"mul_scalar_ms\": " << mul_scalar_ms << ",\n"
         << "  \"mul_simd_ms\": " << mul_simd_ms << ",\n"
         << "  \"mul_simd_speedup\": " << mul_scalar_ms / mul_simd_ms
         << ",\n"
         << "  \"exp_scalar_ms\": " << exp_scalar_ms << ",\n"
         << "  \"exp_simd_ms\": " << exp_simd_ms << ",\n"
         << "  \"exp_simd_speedup\": " << exp_scalar_ms / exp_simd_ms
         << ",\n"
         << "  \"attention_rows\": [\n";
    for (size_t i = 0; i < attention_rows.size(); ++i) {
        const AttentionRow &row = attention_rows[i];
        json << "    {\"k\": " << row.k << ", \"scalar_ms\": "
             << row.scalar_ms << ", \"simd_ms\": " << row.simd_ms
             << "}" << (i + 1 < attention_rows.size() ? "," : "")
             << "\n";
    }
    json << "  ],\n"
         << "  \"attention_simd_ok\": "
         << (attention_simd_ok ? "true" : "false") << ",\n"
         << "  \"edkm_1v8_threads_bit_identical\": "
         << (identical ? "true" : "false") << ",\n"
         << "  \"palette_ok\": " << (palette_ok ? "true" : "false")
         << ",\n"
         << "  \"palette_decode\": [\n";
    for (size_t c = 0; c < palette_cases.size(); ++c) {
        const PaletteCase &pc = palette_cases[c];
        json << "    {\"out\": " << pc.out << ", \"in\": " << pc.in
             << ", \"bits\": " << pc.bits << ", \"rows\": [";
        for (size_t i = 0; i < pc.rows.size(); ++i) {
            json << (i ? ", " : "") << "{\"variant\": \""
                 << pc.rows[i].variant
                 << "\", \"fused_ms\": " << pc.rows[i].ms << "}";
        }
        json << "], \"staged_ms\": " << pc.staged_ms
             << ", \"fused_ms\": " << pc.fused_ms
             << ", \"fused_speedup\": " << pc.staged_ms / pc.fused_ms
             << ", \"staged_fused_bit_identical\": "
             << (pc.identical ? "true" : "false") << "}"
             << (c + 1 < palette_cases.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote BENCH_kernels.json\n";
    return identical && palette_ok && attention_simd_ok ? 0 : 1;
}
