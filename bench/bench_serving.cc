/**
 * @file
 * Serving bench, three measurements over one palettized (eDKM) artifact:
 *
 *  1. Cold start: eager consumption (ModelArtifact::load + reconstruct,
 *     every payload decoded to dense f32 up front) vs the streaming
 *     path (ArtifactReader mmap + InferenceEngine lazy decode) —
 *     time-to-first-logits and resident weight bytes. Streaming must
 *     stay under half the eager footprint.
 *  2. Decode throughput: tokens/sec generating with the KV cache
 *     (prefill + single-position steps) vs full-prefix recompute at the
 *     same sequence length. Tokens must be bit-identical and the KV
 *     path must win.
 *  3. Throughput scaling: requests/sec through serve::Server at
 *     1/2/4/8 worker threads over the one shared reader.
 *  4. Continuous batching: decode tokens/sec through the batched
 *     step-level scheduler at concurrency 1/4/8/16 vs the per-thread-
 *     engine baseline (threads = min(concurrency, 8)). Batched output
 *     must be bit-identical to serial and beat the baseline at
 *     concurrency >= 4.
 *  5. Prefix cache: shared-prompt-head workload served cold (empty
 *     cache) and warm (head banked by the cold pass) — hit rates and
 *     tokens/sec per pass; the warm pass must actually hit.
 *  6. Checksum verification overhead: cold start (open + first logits)
 *     over the same v2.1 checksummed file under EDKM_VERIFY eager /
 *     lazy / off — the price of paying for integrity up front, on
 *     first touch, or not at all. Logits must be identical.
 *  7. Hot-swap cutover under load: a batched server serving a ticket
 *     stream swaps artifacts mid-stream; measures the swap() blocking
 *     time and gates on zero dropped tickets with per-generation
 *     bit-identity.
 *  8. Fused palettized decode: tokens/sec with the fused m==1
 *     gather-mul-acc kernel vs the staged tile-decompress path, gated
 *     on bit-identical tokens and logits.
 *
 * Emits machine-readable JSON to BENCH_serving.json (cwd).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "core/palettize.h"
#include "device/device_manager.h"
#include "serve/engine.h"
#include "serve/reader.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/rng.h"

using namespace edkm;

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

Tensor
promptTokens(int64_t vocab)
{
    std::vector<int64_t> toks;
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
        toks.push_back(rng.randint(0, vocab - 1));
    }
    return Tensor::fromIndices(toks, {1, 16});
}

struct ColdStart
{
    double coldStartMs = 0.0;
    int64_t residentBytes = 0;
};

} // namespace

int
main()
{
    std::cout << "==========================================\n"
              << " bench_serving (eager vs streaming consume)\n"
              << "==========================================\n\n";

    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 64;
    cfg.heads = 4;
    cfg.layers = 4;
    nn::MiniLlama model(cfg);

    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 2;
    plan.embeddingBits = 8;
    api::CalibData calib;
    calib.trainConfig.steps = 0; // freeze-only: serving-cost bench
    api::Session session;
    api::SessionResult res = session.run(model, plan, std::move(calib));

    // Per-run path: concurrent bench runs on one host must not race
    // on the artifact file.
    std::string path =
        "/tmp/edkm_bench_serving." +
        std::to_string(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()) +
        ".edkm";
    res.artifact.save(path);
    Tensor toks = promptTokens(cfg.vocab);
    NoGradGuard ng;

    // --- Eager: load, reconstruct (full dense decode), first logits.
    ColdStart eager;
    std::vector<float> eager_logits;
    {
        StatsScope scope(Device::cpu());
        auto t0 = std::chrono::steady_clock::now();
        api::ModelArtifact art = api::ModelArtifact::load(path);
        nn::MiniLlama served = art.reconstruct();
        eager_logits = served.forward(toks).data().toVector();
        eager.coldStartMs = msSince(t0);
        // Live tensor bytes at this point: the model's dense weights
        // plus its attention caches (activations are already freed).
        eager.residentBytes = scope.currentDelta();
    }

    // --- Streaming: mmap, engine, first logits via lazy/streamed
    //     consumption.
    ColdStart streaming;
    std::vector<float> stream_logits;
    serve::EngineStats stats;
    bool mapped = false;
    {
        StatsScope scope(Device::cpu());
        auto t0 = std::chrono::steady_clock::now();
        auto reader = serve::ArtifactReader::open(path);
        serve::InferenceEngine engine(reader);
        stream_logits = engine.forward(toks).toVector();
        streaming.coldStartMs = msSince(t0);
        streaming.residentBytes = scope.currentDelta();
        stats = engine.stats();
        mapped = reader->mapped();
    }
    // --- Decode throughput: KV-cache incremental decode vs full-prefix
    //     recompute, same request, same reader.
    const int64_t kPromptLen = 16, kNewTokens = 48;
    serve::InferenceEngine::Request req;
    {
        Rng rng(29);
        for (int64_t i = 0; i < kPromptLen; ++i) {
            req.prompt.push_back(rng.randint(0, cfg.vocab - 1));
        }
        req.maxNewTokens = kNewTokens;
    }
    auto reader = serve::ArtifactReader::open(path);
    double kv_s = 0.0, full_s = 0.0;
    bool kv_identical = false;
    {
        serve::InferenceEngine kv_engine(reader);
        serve::EngineConfig full_cfg;
        full_cfg.kvCacheDecode = false;
        serve::InferenceEngine full_engine(reader, full_cfg);
        kv_engine.generate(req);   // warm weight caches / views
        full_engine.generate(req);
        auto t0 = std::chrono::steady_clock::now();
        auto kv_res = kv_engine.generate(req);
        kv_s = msSince(t0) / 1e3;
        t0 = std::chrono::steady_clock::now();
        auto full_res = full_engine.generate(req);
        full_s = msSince(t0) / 1e3;
        kv_identical = kv_res.tokens == full_res.tokens;
    }
    double kv_tps = kNewTokens / kv_s;
    double full_tps = kNewTokens / full_s;

    // --- Fused palettized decode: tokens/sec with the fused m==1
    //     gather-mul-acc kernel vs the staged (tile-decompress) path,
    //     same engine, same request. Gated on bit-identical tokens and
    //     single-step logits, and on the fused path actually running.
    double fused_tps = 0.0, staged_tps = 0.0;
    bool fusedpath_identical = false;
    int64_t fused_decodes = 0;
    {
        serve::InferenceEngine engine(reader);
        Tensor one = Tensor::fromIndices({7}, {1, 1});

        setPaletteFusedDecode(true);
        engine.generate(req); // warm views
        auto t0 = std::chrono::steady_clock::now();
        auto fused_res = engine.generate(req);
        fused_tps = kNewTokens / (msSince(t0) / 1e3);
        fused_decodes = engine.stats().fusedDecodes;
        std::vector<float> fused_logits = engine.forward(one).toVector();

        setPaletteFusedDecode(false);
        engine.generate(req);
        t0 = std::chrono::steady_clock::now();
        auto staged_res = engine.generate(req);
        staged_tps = kNewTokens / (msSince(t0) / 1e3);
        std::vector<float> staged_logits =
            engine.forward(one).toVector();
        setPaletteFusedDecode(true);

        fusedpath_identical = fused_res.tokens == staged_res.tokens &&
                              fused_logits == staged_logits;
    }

    // --- Throughput scaling: requests/sec through serve::Server at
    //     1/2/4/8 workers, all over the same shared reader.
    struct ScaleRow
    {
        int threads = 0;
        double seconds = 0.0;
        double requestsPerSec = 0.0;
    };
    std::vector<serve::Server::Request> batch;
    {
        Rng rng(31);
        for (int i = 0; i < 16; ++i) {
            serve::Server::Request r;
            for (int64_t t = 0; t < kPromptLen; ++t) {
                r.prompt.push_back(rng.randint(0, cfg.vocab - 1));
            }
            r.maxNewTokens = 16;
            batch.push_back(std::move(r));
        }
    }
    std::vector<ScaleRow> scaling;
    bool scaling_identical = true;
    std::vector<std::vector<int64_t>> scale_ref;
    for (int threads : {1, 2, 4, 8}) {
        serve::ServerConfig scfg;
        scfg.threads = threads;
        serve::Server server(reader, scfg);
        auto t0 = std::chrono::steady_clock::now();
        auto responses = server.wait(server.submit(batch));
        double s = msSince(t0) / 1e3;
        if (threads == 1) {
            for (const auto &r : responses) {
                scale_ref.push_back(r.tokens);
            }
        } else {
            for (size_t i = 0; i < responses.size(); ++i) {
                scaling_identical =
                    scaling_identical &&
                    responses[i].tokens == scale_ref[i];
            }
        }
        scaling.push_back(
            {threads, s, static_cast<double>(batch.size()) / s});
    }

    // --- Continuous batching: the batched step-level scheduler vs the
    //     per-thread-engine baseline, same 32-request workload at every
    //     concurrency level.
    struct CbRow
    {
        int concurrency = 0;
        int baselineThreads = 0;
        double baselineTps = 0.0;
        double batchedTps = 0.0;
        bool identical = false;
    };
    const int64_t kCbNewTokens = 16;
    std::vector<serve::Server::Request> cb_batch;
    {
        Rng rng(37);
        for (int i = 0; i < 32; ++i) {
            serve::Server::Request r;
            for (int64_t t = 0; t < kPromptLen; ++t) {
                r.prompt.push_back(rng.randint(0, cfg.vocab - 1));
            }
            r.maxNewTokens = kCbNewTokens;
            cb_batch.push_back(std::move(r));
        }
    }
    std::vector<std::vector<int64_t>> cb_ref;
    {
        serve::InferenceEngine serial_engine(reader);
        for (const auto &r : cb_batch) {
            cb_ref.push_back(serial_engine.generate(r).tokens);
        }
    }
    double cb_total_tokens =
        static_cast<double>(cb_batch.size()) * kCbNewTokens;
    std::vector<CbRow> cb_rows;
    for (int conc : {1, 4, 8, 16}) {
        CbRow row;
        row.concurrency = conc;
        row.baselineThreads = std::min(conc, 8);
        {
            serve::ServerConfig scfg;
            scfg.threads = row.baselineThreads;
            serve::Server server(reader, scfg);
            auto t0 = std::chrono::steady_clock::now();
            server.wait(server.submit(cb_batch));
            row.baselineTps = cb_total_tokens / (msSince(t0) / 1e3);
        }
        {
            serve::ServerConfig scfg;
            scfg.batched = true;
            scfg.scheduler.maxBatch = conc;
            serve::Server server(reader, scfg);
            auto t0 = std::chrono::steady_clock::now();
            auto responses = server.wait(server.submit(cb_batch));
            row.batchedTps = cb_total_tokens / (msSince(t0) / 1e3);
            row.identical = true;
            for (size_t i = 0; i < responses.size(); ++i) {
                row.identical =
                    row.identical && responses[i].tokens == cb_ref[i];
            }
        }
        cb_rows.push_back(row);
    }

    // --- Prefix cache: 16 requests sharing a 12-token head, served
    //     with an empty cache (cold) and again with the head banked
    //     (warm), through one batched scheduler.
    struct PrefixRow
    {
        double seconds = 0.0;
        double tokensPerSec = 0.0;
        int64_t hits = 0;
        int64_t misses = 0;
        int64_t reusedTokens = 0;
        double hitRate = 0.0;
    };
    PrefixRow cold, warm;
    bool prefix_identical = true;
    {
        std::vector<serve::InferenceEngine::Request> shared;
        Rng rng(41);
        std::vector<int64_t> head;
        for (int t = 0; t < 12; ++t) {
            head.push_back(rng.randint(0, cfg.vocab - 1));
        }
        for (int i = 0; i < 16; ++i) {
            serve::InferenceEngine::Request r;
            r.prompt = head;
            for (int t = 0; t < 4; ++t) {
                r.prompt.push_back(rng.randint(0, cfg.vocab - 1));
            }
            r.maxNewTokens = 8;
            shared.push_back(std::move(r));
        }
        std::vector<std::vector<int64_t>> shared_ref;
        serve::InferenceEngine serial_engine(reader);
        for (const auto &r : shared) {
            shared_ref.push_back(serial_engine.generate(r).tokens);
        }
        serve::InferenceEngine engine(reader);
        serve::SchedulerConfig pcfg;
        pcfg.maxBatch = 8;
        pcfg.prefixCacheBytes = 32 << 20;
        serve::BatchScheduler sched(engine, pcfg);
        auto pass = [&](PrefixRow &out) {
            serve::PrefixCacheStats before = sched.prefixStats();
            auto t0 = std::chrono::steady_clock::now();
            auto responses = sched.run(shared);
            out.seconds = msSince(t0) / 1e3;
            serve::PrefixCacheStats after = sched.prefixStats();
            out.hits = after.hits - before.hits;
            out.misses = after.misses - before.misses;
            out.reusedTokens = after.reusedTokens - before.reusedTokens;
            int64_t lookups = out.hits + out.misses;
            out.hitRate = lookups > 0 ? static_cast<double>(out.hits) /
                                            static_cast<double>(lookups)
                                      : 0.0;
            out.tokensPerSec =
                static_cast<double>(shared.size()) * 8 / out.seconds;
            for (size_t i = 0; i < responses.size(); ++i) {
                prefix_identical = prefix_identical &&
                                   responses[i].tokens == shared_ref[i];
            }
        };
        pass(cold);
        pass(warm);
    }

    // --- Checksum verification overhead: the same checksummed file,
    //     cold-started (open + engine + first logits) under each
    //     payload verify mode.
    struct VerifyRow
    {
        const char *mode = nullptr;
        double coldStartMs = 0.0;
        int64_t sectionsVerified = 0;
    };
    std::vector<VerifyRow> verify_rows;
    bool verify_identical = true;
    {
        struct
        {
            const char *name;
            serve::VerifyMode mode;
        } modes[] = {{"eager", serve::VerifyMode::kEager},
                     {"lazy", serve::VerifyMode::kLazy},
                     {"off", serve::VerifyMode::kOff}};
        std::vector<float> ref;
        for (const auto &m : modes) {
            auto t0 = std::chrono::steady_clock::now();
            auto vr = serve::ArtifactReader::open(path, m.mode);
            serve::InferenceEngine engine(vr);
            std::vector<float> logits = engine.forward(toks).toVector();
            verify_rows.push_back(
                {m.name, msSince(t0), vr->sectionsVerified()});
            if (ref.empty()) {
                ref = std::move(logits);
            } else {
                verify_identical = verify_identical && logits == ref;
            }
        }
    }

    // --- Hot-swap cutover under load: a batched server mid-stream
    //     swaps to a second artifact (same geometry, different
    //     weights). Tickets before the swap must serve artifact A,
    //     tickets after it artifact B, with nothing dropped.
    double swap_ms = 0.0;
    bool swap_zero_dropped = true;
    bool swap_identical = true;
    {
        nn::LlamaConfig cfg_b = cfg;
        cfg_b.seed = 1234; // different weights, same geometry
        nn::MiniLlama model_b(cfg_b);
        api::CompressionPlan plan_b = plan;
        api::CalibData calib_b;
        calib_b.trainConfig.steps = 0;
        api::Session session_b;
        api::SessionResult res_b =
            session_b.run(model_b, plan_b, std::move(calib_b));
        std::string path_b = path + ".swap";
        res_b.artifact.save(path_b);
        auto reader_b = serve::ArtifactReader::open(path_b);

        std::vector<std::vector<int64_t>> swap_ref[2];
        {
            serve::InferenceEngine ea(reader);
            serve::InferenceEngine eb(reader_b);
            for (const auto &r : cb_batch) {
                swap_ref[0].push_back(ea.generate(r).tokens);
                swap_ref[1].push_back(eb.generate(r).tokens);
            }
        }

        serve::ServerConfig scfg;
        scfg.batched = true;
        scfg.scheduler.maxBatch = 8;
        serve::Server server(reader, scfg);
        std::vector<serve::Server::RequestId> ids;
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto &id : server.submit(cb_batch)) {
                ids.push_back(id);
            }
        }
        auto t0 = std::chrono::steady_clock::now();
        server.swap(reader_b); // blocks until the loop cut over
        swap_ms = msSince(t0);
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto &id : server.submit(cb_batch)) {
                ids.push_back(id);
            }
        }
        for (size_t i = 0; i < ids.size(); ++i) {
            try {
                serve::Server::Response got = server.wait(ids[i]);
                int64_t gen = server.requestStats(ids[i]).generation;
                swap_identical =
                    swap_identical &&
                    got.tokens == swap_ref[gen][i % cb_batch.size()];
            } catch (const std::exception &) {
                swap_zero_dropped = false;
            }
        }
        std::remove(path_b.c_str());
    }
    std::remove(path.c_str());

    bool exact = eager_logits == stream_logits;
    double ratio =
        eager.residentBytes > 0
            ? static_cast<double>(streaming.residentBytes) /
                  static_cast<double>(eager.residentBytes)
            : 0.0;

    std::cout << std::left << std::setw(12) << "path" << std::right
              << std::setw(16) << "cold-start ms" << std::setw(16)
              << "resident KiB" << "\n";
    auto row = [](const std::string &label, const ColdStart &c) {
        std::cout << std::left << std::setw(12) << label << std::right
                  << std::fixed << std::setprecision(2) << std::setw(16)
                  << c.coldStartMs << std::setw(16)
                  << c.residentBytes / 1024.0 << "\n";
    };
    row("eager", eager);
    row("streaming", streaming);
    std::cout << "\nmapped: " << (mapped ? "yes" : "no (read fallback)")
              << ", streamed matmuls: " << stats.streamedMatmuls
              << ", lazy decodes: " << stats.decodes
              << ", resident ratio: " << std::setprecision(3) << ratio
              << "\nfirst logits bit-identical: "
              << (exact ? "yes" : "NO") << "\n";

    std::cout << "\ndecode (" << kPromptLen << " prompt + " << kNewTokens
              << " new tokens):\n"
              << std::left << std::setw(16) << "  kv-cache"
              << std::right << std::fixed << std::setprecision(1)
              << std::setw(12) << kv_tps << " tok/s\n"
              << std::left << std::setw(16) << "  full-prefix"
              << std::right << std::setw(12) << full_tps << " tok/s\n"
              << "  speedup " << std::setprecision(2)
              << kv_tps / full_tps << "x, tokens bit-identical: "
              << (kv_identical ? "yes" : "NO") << "\n";

    std::cout << "\nfused palettized decode (same request, kv-cache on):\n"
              << std::left << std::setw(16) << "  fused"
              << std::right << std::fixed << std::setprecision(1)
              << std::setw(12) << fused_tps << " tok/s ("
              << fused_decodes << " fused matmuls)\n"
              << std::left << std::setw(16) << "  staged"
              << std::right << std::setw(12) << staged_tps
              << " tok/s\n"
              << "  speedup " << std::setprecision(2)
              << fused_tps / staged_tps
              << "x, tokens+logits bit-identical: "
              << (fusedpath_identical ? "yes" : "NO") << "\n";

    std::cout << "\nserver scaling (" << batch.size()
              << " requests, shared reader):\n";
    for (const ScaleRow &r : scaling) {
        std::cout << "  " << r.threads << " thread(s): " << std::fixed
                  << std::setprecision(2) << r.requestsPerSec
                  << " req/s\n";
    }
    std::cout << "  outputs bit-identical across thread counts: "
              << (scaling_identical ? "yes" : "NO") << "\n";

    bool cb_identical = true;
    std::cout << "\ncontinuous batching (" << cb_batch.size()
              << " requests x " << kCbNewTokens << " new tokens):\n";
    for (const CbRow &r : cb_rows) {
        cb_identical = cb_identical && r.identical;
        std::cout << "  concurrency " << std::setw(2) << r.concurrency
                  << ": batched " << std::fixed << std::setprecision(1)
                  << std::setw(8) << r.batchedTps << " tok/s vs "
                  << r.baselineThreads << "-thread baseline "
                  << std::setw(8) << r.baselineTps << " tok/s ("
                  << std::setprecision(2)
                  << r.batchedTps / r.baselineTps
                  << "x), bit-identical: "
                  << (r.identical ? "yes" : "NO") << "\n";
    }

    std::cout << "\nprefix cache (16 requests, shared 12-token head):\n"
              << std::fixed << std::setprecision(1) << "  cold: "
              << cold.tokensPerSec << " tok/s, hit rate "
              << std::setprecision(2) << cold.hitRate << " ("
              << cold.hits << "/" << cold.hits + cold.misses
              << "), reused " << cold.reusedTokens << " tokens\n"
              << std::setprecision(1) << "  warm: " << warm.tokensPerSec
              << " tok/s, hit rate " << std::setprecision(2)
              << warm.hitRate << " (" << warm.hits << "/"
              << warm.hits + warm.misses << "), reused "
              << warm.reusedTokens << " tokens\n"
              << "  outputs bit-identical to serial: "
              << (prefix_identical ? "yes" : "NO") << "\n";

    std::cout << "\nchecksum verification (cold start to first logits):\n";
    for (const VerifyRow &r : verify_rows) {
        std::cout << "  " << std::left << std::setw(8) << r.mode
                  << std::right << std::fixed << std::setprecision(2)
                  << std::setw(10) << r.coldStartMs << " ms, "
                  << r.sectionsVerified << " section(s) verified\n";
    }
    std::cout << "  logits identical across modes: "
              << (verify_identical ? "yes" : "NO") << "\n";

    std::cout << "\nhot swap under load (batched, " << cb_batch.size()
              << "-ticket stream x2 each side):\n"
              << "  cutover " << std::fixed << std::setprecision(2)
              << swap_ms << " ms, dropped tickets: "
              << (swap_zero_dropped ? "none" : "SOME")
              << ", per-generation bit-identical: "
              << (swap_identical ? "yes" : "NO") << "\n";

    std::ofstream json("BENCH_serving.json");
    json << std::setprecision(6) << "{\n  \"bench\": \"serving\",\n"
         << "  \"scheme\": \"edkm\",\n"
         << "  \"mapped\": " << (mapped ? "true" : "false") << ",\n"
         << "  \"bit_identical\": " << (exact ? "true" : "false")
         << ",\n"
         << "  \"eager\": {\"cold_start_ms\": " << eager.coldStartMs
         << ", \"resident_bytes\": " << eager.residentBytes << "},\n"
         << "  \"streaming\": {\"cold_start_ms\": "
         << streaming.coldStartMs
         << ", \"resident_bytes\": " << streaming.residentBytes
         << ", \"streamed_matmuls\": " << stats.streamedMatmuls
         << ", \"lazy_decodes\": " << stats.decodes << "},\n"
         << "  \"resident_ratio\": " << ratio << ",\n"
         << "  \"decode\": {\"prompt_tokens\": " << kPromptLen
         << ", \"new_tokens\": " << kNewTokens
         << ", \"kv_tokens_per_sec\": " << kv_tps
         << ", \"full_prefix_tokens_per_sec\": " << full_tps
         << ", \"speedup\": " << kv_tps / full_tps
         << ", \"bit_identical\": "
         << (kv_identical ? "true" : "false") << "},\n"
         << "  \"fused_decode\": {\"fused_tokens_per_sec\": " << fused_tps
         << ", \"staged_tokens_per_sec\": " << staged_tps
         << ", \"speedup\": " << fused_tps / staged_tps
         << ", \"fused_matmuls\": " << fused_decodes
         << ", \"bit_identical\": "
         << (fusedpath_identical ? "true" : "false") << "},\n"
         << "  \"scaling\": [";
    for (size_t i = 0; i < scaling.size(); ++i) {
        json << (i == 0 ? "" : ", ") << "{\"threads\": "
             << scaling[i].threads
             << ", \"seconds\": " << scaling[i].seconds
             << ", \"requests_per_sec\": " << scaling[i].requestsPerSec
             << "}";
    }
    json << "],\n"
         << "  \"scaling_bit_identical\": "
         << (scaling_identical ? "true" : "false") << ",\n"
         << "  \"continuous_batching\": [";
    for (size_t i = 0; i < cb_rows.size(); ++i) {
        const CbRow &r = cb_rows[i];
        json << (i == 0 ? "" : ", ")
             << "{\"concurrency\": " << r.concurrency
             << ", \"baseline_threads\": " << r.baselineThreads
             << ", \"baseline_tokens_per_sec\": " << r.baselineTps
             << ", \"batched_tokens_per_sec\": " << r.batchedTps
             << ", \"speedup\": " << r.batchedTps / r.baselineTps
             << ", \"bit_identical\": "
             << (r.identical ? "true" : "false") << "}";
    }
    json << "],\n  \"prefix_cache\": {";
    auto prefix_json = [&json](const char *label, const PrefixRow &r) {
        json << "\"" << label << "\": {\"seconds\": " << r.seconds
             << ", \"tokens_per_sec\": " << r.tokensPerSec
             << ", \"hits\": " << r.hits
             << ", \"misses\": " << r.misses
             << ", \"reused_tokens\": " << r.reusedTokens
             << ", \"hit_rate\": " << r.hitRate << "}";
    };
    prefix_json("cold", cold);
    json << ", ";
    prefix_json("warm", warm);
    json << ", \"bit_identical\": "
         << (prefix_identical ? "true" : "false") << "},\n"
         << "  \"verify\": [";
    for (size_t i = 0; i < verify_rows.size(); ++i) {
        const VerifyRow &r = verify_rows[i];
        json << (i == 0 ? "" : ", ") << "{\"mode\": \"" << r.mode
             << "\", \"cold_start_ms\": " << r.coldStartMs
             << ", \"sections_verified\": " << r.sectionsVerified
             << "}";
    }
    json << "],\n"
         << "  \"verify_bit_identical\": "
         << (verify_identical ? "true" : "false") << ",\n"
         << "  \"hot_swap\": {\"cutover_ms\": " << swap_ms
         << ", \"zero_dropped\": "
         << (swap_zero_dropped ? "true" : "false")
         << ", \"bit_identical\": "
         << (swap_identical ? "true" : "false") << "}\n}\n";
    std::cout << "\nwrote BENCH_serving.json\n";

    // Acceptance gates: identical logits, streaming footprint under
    // half of the eager dense decode, bit-identical KV decode that
    // beats the full-prefix recompute on tokens/sec, thread-count-
    // independent server output, batched decode bit-identical to
    // serial AND faster than the per-thread baseline once there is
    // real concurrency, and a warm prefix cache that actually hits.
    bool batched_wins = true;
    for (const CbRow &r : cb_rows) {
        if (r.concurrency >= 4) {
            batched_wins = batched_wins && r.batchedTps > r.baselineTps;
        }
    }
    // New gates: the clean checksummed artifact must cold-start under
    // eager verification with every section checked (and identical
    // logits under every mode), and the mid-stream hot swap must drop
    // nothing while staying per-generation bit-identical.
    bool verify_pass = verify_identical && !verify_rows.empty() &&
                       verify_rows.front().sectionsVerified > 0;
    // Fused-decode gates: the fused m==1 path must actually run and stay
    // bit-identical to the staged path (tokens and single-step logits).
    // The speedup itself is reported, not gated — it is
    // hardware-dependent.
    bool fused_pass = fusedpath_identical && fused_decodes > 0;
    bool pass = exact && ratio < 0.5 && kv_identical &&
                kv_tps > full_tps && scaling_identical && cb_identical &&
                batched_wins && prefix_identical && warm.hitRate > 0.0 &&
                warm.reusedTokens > 0 && verify_pass &&
                swap_zero_dropped && swap_identical && fused_pass;
    return pass ? 0 : 1;
}
