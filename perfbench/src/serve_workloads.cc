/**
 * @file
 * serve_decode and serve_chat: the two serving workloads.
 *
 * serve_decode is closed loop over the default threaded Server, with
 * unshared short prompts and long outputs, so nearly all time is m==1
 * palettized decode (the fused kernel, engine decode steps, KV append).
 * It bypasses the scheduler, the prefix cache and runtime::parallelFor
 * fan-out (engine loops run serially inside pool workers).
 *
 * serve_chat keeps the batched Server full (closed loop; the traced run
 * adds an open-loop phase at a frozen rate), with long prompts
 * whose heads come from a few shared system prompts and short outputs,
 * so time goes to the scheduler, prefix-cache restores, chunked prefill
 * and batched (m>1, staged) palette matmuls. It bypasses the fused m==1
 * kernel and, on its one-lane runtime pool, parallelFor fan-out.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "api/plan.h"
#include "api/session.h"
#include "core/palettize.h"
#include "device/device_manager.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using edkm::Device;
using edkm::PaletteView;
using edkm::Tensor;
using ReaderPtr = std::shared_ptr<const edkm::serve::ArtifactReader>;
using Request = edkm::serve::Server::Request;

constexpr int kSetupReps = 3;
constexpr int kProbeRounds = 6; ///< alternately traced and untraced

// serve_decode, frozen.
constexpr int64_t kDecodeDim = 256, kDecodeLayers = 4, kDecodeHeads = 4;
constexpr int kDecodeEngines = 4, kDecodeClients = 4;
constexpr int64_t kDecodePrompt = 16, kDecodeNew = 32;

// serve_chat, frozen. The arrival rate is two thirds of the capacity
// the batched server reached at the commit that introduced this
// benchmark: the highest of the swept rates (9, 12, 15, 18 req/s) at
// which every seed kept latency p90 within 200 ms without a backlog,
// 12 req/s (see perfbench/README.md). It must not follow the code.
constexpr int64_t kChatDim = 128, kChatLayers = 4, kChatHeads = 4;
constexpr int64_t kChatPrompt = 128, kChatShared = 96, kChatNew = 8;
constexpr int kChatSystemPrompts = 4;
constexpr int kChatMaxBatch = 8;
constexpr int64_t kChatChunk = 64;
constexpr double kChatRate = 8.0; ///< requests per second
constexpr int kChatClients = kChatMaxBatch; ///< closed-loop outstanding
/** Prefix-cache budget in banked prompt heads: far more than the 4
 *  shared system prompts, so LRU eviction never drops a live one. */
constexpr int64_t kChatPrefixHeads = 64;
/**
 * serve_chat runs its batched server with a one-lane runtime pool. With
 * the default four lanes every parallelFor waits for its slowest lane,
 * and on a shared 4-vCPU host that turned host contention into a 0.4-0.6
 * run-to-run spread of every timing; one lane keeps it near 0.03.
 */
constexpr int kChatRuntimeThreads = 1;
/** Generator lateness (p90) beyond which a run is flagged. */
constexpr double kLagFlagMs = 5.0;

edkm::nn::LlamaConfig
llama(int64_t dim, int64_t layers, int64_t heads)
{
    edkm::nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = dim;
    cfg.layers = layers;
    cfg.heads = heads;
    return cfg;
}

std::vector<int64_t>
randomTokens(uint64_t stream, int64_t n, int64_t vocab)
{
    std::vector<int64_t> out(static_cast<size_t>(n));
    for (int64_t &t : out) {
        t = static_cast<int64_t>(splitmix64(stream) %
                                 static_cast<uint64_t>(vocab));
    }
    return out;
}

/** Independent input stream @p i of workload seed @p seed. */
uint64_t
streamOf(uint64_t seed, uint64_t i)
{
    uint64_t s = seed * 0x9e3779b97f4a7c15ull + i;
    return splitmix64(s);
}

/**
 * Set-up as a deployment pays it: build the model, compress it with
 * eDKM to 3 bits through api::Session (steps = 0: freeze only), save
 * the artifact and open it. Repeated kSetupReps times; setup_s is the
 * median.
 */
ReaderPtr
setUp(const edkm::nn::LlamaConfig &cfg, const std::string &path,
      double &setup_s)
{
    std::vector<double> reps;
    ReaderPtr reader;
    for (int r = 0; r < kSetupReps; ++r) {
        reader.reset();
        auto t0 = Clock::now();
        edkm::nn::MiniLlama model(cfg);
        edkm::api::CompressionPlan plan;
        plan.scheme = "edkm";
        plan.bits = 3;
        edkm::api::CalibData calib;
        calib.trainConfig.steps = 0;
        edkm::api::Session session;
        edkm::api::SessionResult res =
            session.run(model, plan, std::move(calib));
        res.artifact.save(path);
        reader = edkm::serve::ArtifactReader::open(path);
        reps.push_back(msSince(t0) / 1e3);
    }
    setup_s = median(reps);
    return reader;
}

/** One served request as the client saw it. */
struct Served
{
    int64_t index = 0;
    bool ok = false;
    double latencyMs = 0.0; ///< from submit (closed) or due (open) time
    double queueMs = 0.0;
    double execMs = 0.0;
    int64_t newTokens = 0;
    std::vector<int64_t> tokens;
};

/**
 * Correctness: every successful response must be bit-identical to
 * serial InferenceEngine::generate of the same request. Runs outside
 * every timed phase, on one engine per thread. Marks mismatches failed.
 */
void
checkAgainstSerial(const ReaderPtr &reader, std::vector<Served> &served,
                   const std::function<Request(int64_t)> &make)
{
    const int threads = 4;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            edkm::serve::InferenceEngine engine(reader);
            for (size_t i = t; i < served.size(); i += threads) {
                Served &s = served[i];
                if (!s.ok) {
                    continue;
                }
                s.ok = engine.generate(make(s.index)).tokens == s.tokens;
            }
        });
    }
    for (std::thread &th : pool) {
        th.join();
    }
}

/** Palettized Linear weights of the artifact (the embedding table is
 *  gathered, not multiplied, so it is left out). */
std::vector<PaletteView>
linearPalettes(const edkm::serve::ArtifactReader &reader)
{
    std::vector<PaletteView> out;
    for (const auto &s : reader.sections()) {
        if (s.codec == edkm::api::Codec::kPalettized &&
            s.name != "embed.weight") {
            out.push_back(reader.paletteView(s.name));
        }
    }
    return out;
}

/** Random f32 activations [m, k] for each weight's input width. */
std::vector<Tensor>
activations(const std::vector<PaletteView> &views, int64_t m, uint64_t seed)
{
    std::vector<Tensor> out;
    for (const PaletteView &v : views) {
        int64_t k = v.shape[1];
        std::vector<float> x(static_cast<size_t>(m * k));
        for (float &f : x) {
            f = static_cast<float>(splitmix64(seed) >> 40) / 16777216.0f -
                0.5f;
        }
        out.push_back(Tensor::fromVector(x, {m, k}));
    }
    return out;
}

/** Bytes one m==1 call moves: indices, LUT, activation row and output
 *  row, computed from tensor sizes (no hardware counter). */
double
m1BytesPerCall(const std::vector<PaletteView> &views)
{
    double total = 0.0;
    for (const PaletteView &v : views) {
        total += static_cast<double>(v.packedBytes) +
                 static_cast<double>(v.lut.size()) * 4.0 +
                 static_cast<double>(v.shape[1] + v.shape[0]) * 4.0;
    }
    return views.empty() ? 0.0 : total / static_cast<double>(views.size());
}

/** Per-layer palette-matmul probes on the workload's own artifact. */
struct PaletteProbe
{
    std::vector<PaletteView> views;
    std::vector<Tensor> x1, x8, x64;

    PaletteProbe(const edkm::serve::ArtifactReader &reader, uint64_t seed)
        : views(linearPalettes(reader)), x1(activations(views, 1, seed)),
          x8(activations(views, 8, seed + 1)),
          x64(activations(views, 64, seed + 2))
    {
    }

    /** One pass over every weight at each m; @p pass tags the spans. */
    void
    run(Tracer &tracer, int64_t pass) const
    {
        const std::pair<const char *, const std::vector<Tensor> *> shapes[] =
            {{"core.palettize.matmul_m1", &x1},
             {"core.palettize.matmul_m8", &x8},
             {"core.palettize.matmul_m64", &x64}};
        for (const auto &[name, xs] : shapes) {
            for (size_t i = 0; i < views.size(); ++i) {
                Span s(tracer, name, pass);
                Tensor y = edkm::paletteMatmulT((*xs)[i], views[i]);
                if (y.numel() == 0) {
                    throw std::runtime_error("empty palette matmul");
                }
            }
        }
    }
};

/** Median per-pass total of span @p name, in microseconds. */
double
passUs(const Tracer &tracer, const char *name)
{
    return median(totalsPerRequestMs(tracer.spans(), name)) * 1e3;
}

/** ArtifactReader::open with eager verification, spanned. */
void
probeOpen(Tracer &tracer, const std::string &path, int64_t pass)
{
    Span s(tracer, "serve.reader.open", pass);
    auto r = edkm::serve::ArtifactReader::open(
        path, edkm::serve::VerifyMode::kEager);
    if (r->sectionsVerified() == 0) {
        throw std::runtime_error("eager open verified no section");
    }
}

/** Alternate traced and untraced probe rounds, after one untraced
 *  warm-up round; returns the tracing overhead. */
double
probeRounds(Tracer &tracer, const std::function<void(int64_t)> &round)
{
    tracer.setEnabled(false);
    round(-1);
    std::vector<double> on, off;
    for (int r = 0; r < kProbeRounds; ++r) {
        bool traced = r % 2 == 0;
        tracer.setEnabled(traced);
        auto t0 = Clock::now();
        round(r);
        (traced ? on : off).push_back(msSince(t0));
    }
    tracer.setEnabled(true);
    return overheadPct(on, off);
}

Metric
ms(const std::string &name, double v)
{
    return {name, v, "ms"};
}

std::string
artifactPath(const Options &opt)
{
    return opt.outDir + "/" + opt.workload + "-" +
           std::to_string(::getpid()) + ".edkm";
}

/** Latency, throughput and per-token metrics shared by both serving
 *  workloads. @p wall_s spans the measured phase. */
void
addServingMetrics(Outcome &out, const std::vector<Served> &served,
                  double wall_s, double setup_s, int64_t peak_bytes,
                  int64_t saved_bytes)
{
    std::vector<double> lat, per_token;
    int64_t tokens = 0;
    for (const Served &s : served) {
        if (s.newTokens == 0) {
            continue; // wait() threw: no completion to time
        }
        lat.push_back(s.latencyMs);
        per_token.push_back(s.execMs / static_cast<double>(s.newTokens));
        tokens += s.newTokens;
    }
    std::optional<double> p90 = tailPercentile(lat, 90.0);
    if (!p90) {
        throw std::runtime_error("fewer than 100 completed requests: "
                                 "latency p90 has no support");
    }
    out.metrics.push_back({"setup_s", setup_s, "s"});
    out.metrics.push_back(
        {"tokens_per_s", static_cast<double>(tokens) / wall_s, "1/s"});
    out.metrics.push_back(ms("latency_ms_p50", median(lat)));
    out.metrics.push_back(ms("latency_ms_p90", *p90));
    out.metrics.push_back(ms("step_ms_p50", median(per_token)));
    out.metrics.push_back(
        {"peak_accel_mb", static_cast<double>(peak_bytes) / kMiB, "MiB"});
    out.metrics.push_back(
        {"saved_mb", static_cast<double>(saved_bytes) / kMiB, "MiB"});
}

void
addServerMetrics(Outcome &out, const std::vector<Served> &served)
{
    std::vector<double> queue, exec;
    for (const Served &s : served) {
        if (s.ok) {
            queue.push_back(s.queueMs);
            exec.push_back(s.execMs);
        }
    }
    out.metrics.push_back(ms("serve.server.queue_ms_p50", median(queue)));
    out.metrics.push_back(ms("serve.server.exec_ms_p50", median(exec)));
}

void
addPaletteMetrics(Outcome &out, const Tracer &tracer,
                  const PaletteProbe &probe)
{
    out.metrics.push_back({"core.palettize.matmul_m1_us",
                           passUs(tracer, "core.palettize.matmul_m1"),
                           "us"});
    out.metrics.push_back({"core.palettize.m1_bytes_per_call",
                           m1BytesPerCall(probe.views), "bytes"});
    out.metrics.push_back({"core.palettize.matmul_mB_us",
                           passUs(tracer, "core.palettize.matmul_m8"),
                           "us"});
    out.metrics.push_back({"core.palettize.matmul_m64_us",
                           passUs(tracer, "core.palettize.matmul_m64"),
                           "us"});
}

/**
 * Share of streamed palette matmuls that took the fused m==1 kernel, from
 * a replay engine that ran alone: EngineStats::fusedDecodes diffs a
 * process-wide kernel counter, so engines running concurrently in one
 * Server count each other's calls.
 */
Metric
fusedShare(const edkm::serve::EngineStats &st)
{
    return {"serve.engine.fused_share",
            st.streamedMatmuls > 0
                ? static_cast<double>(st.fusedDecodes) / st.streamedMatmuls
                : 0.0,
            "ratio"};
}

/** A traced replay whose output differs from the served response is a
 *  failed operation of the run. */
void
diverged(Outcome &out, const char *what)
{
    ++out.attempted;
    ++out.failed;
    out.correct = false;
    out.flags.push_back(std::string(what) +
                        " diverged from the served response");
}

/** Count what failed and whether the run stayed correct. */
void
tally(Outcome &out, const std::vector<Served> &served, int64_t attempted)
{
    out.attempted = attempted;
    out.failed = attempted - static_cast<int64_t>(served.size());
    for (const Served &s : served) {
        out.failed += s.ok ? 0 : 1;
    }
    out.correct = out.failed == 0;
}

/** Bytes of the "bytes" field inside the "prefix_cache" block of the
 *  server's metrics JSON (0 when absent). */
int64_t
prefixCacheBytes(const std::string &json)
{
    size_t at = json.find("\"prefix_cache\"");
    if (at == std::string::npos) {
        return 0;
    }
    at = json.find("\"bytes\": ", at);
    return at == std::string::npos ? 0 : std::stoll(json.substr(at + 9));
}

/** Host bytes DeviceManager tracked at peak since its last reset. */
int64_t
hostPeakBytes()
{
    return edkm::DeviceManager::instance().stats(Device::cpu()).peakBytes;
}

/** One measured serving phase. */
struct Phase
{
    std::vector<Served> served; ///< in request-index order
    int64_t attempted = 0;
    double wallS = 0.0;
    int64_t peakBytes = 0; ///< host bytes DeviceManager tracked at peak
};

/** Fill @p s from a completed (or failed) ticket, then release it. */
void
collect(edkm::serve::Server &server, edkm::serve::Server::RequestId id,
        int64_t new_tokens, Served &s)
{
    try {
        auto resp = server.wait(id);
        auto st = server.requestStats(id);
        s.queueMs = st.queueMillis;
        s.execMs = st.millis;
        s.newTokens = st.newTokens;
        s.tokens = std::move(resp.tokens);
        s.ok = s.newTokens == new_tokens;
    } catch (const std::exception &) {
        s.ok = false;
    }
    server.release(id);
}

/**
 * Closed loop: @p clients threads each submit a request, wait for it and
 * submit the next, for @p seconds and at least kMinRequests requests.
 * Latency runs from submit to completion.
 */
Phase
closedLoop(edkm::serve::Server &server, int clients, int seconds,
           int64_t new_tokens, const std::function<Request(int64_t)> &make,
           Tracer &tracer)
{
    Phase ph;
    std::mutex mu;
    std::atomic<int64_t> next{0};
    edkm::DeviceManager::instance().resetStats();
    const auto t0 = Clock::now();
    auto client = [&] {
        std::vector<Served> mine;
        for (;;) {
            int64_t i = next.fetch_add(1);
            if (i >= kMinRequests && msSince(t0) >= seconds * 1e3) {
                next.fetch_sub(1);
                break;
            }
            Request req = make(i);
            Served s;
            s.index = i;
            Span span(tracer, "serve.server.request", i);
            auto ts = Clock::now();
            collect(server, server.submit(std::move(req)), new_tokens, s);
            s.latencyMs = msSince(ts);
            mine.push_back(std::move(s));
        }
        std::lock_guard<std::mutex> lock(mu);
        for (Served &s : mine) {
            ph.served.push_back(std::move(s));
        }
    };
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
        pool.emplace_back(client);
    }
    for (std::thread &th : pool) {
        th.join();
    }
    ph.wallS = msSince(t0) / 1e3;
    ph.peakBytes = hostPeakBytes();
    ph.attempted = next.load();
    std::sort(ph.served.begin(), ph.served.end(),
              [](const Served &a, const Served &b) {
                  return a.index < b.index;
              });
    return ph;
}

/**
 * Open loop: request i is sent at t0 + @p due_s[i] whatever the server
 * is doing. Latency runs from the due time to completion, reconstructed
 * from the server's own submit-relative queue and execution times; the
 * generator's lateness goes to @p lag_ms. Spans are recorded when the
 * tracer is on.
 */
Phase
openLoop(edkm::serve::Server &server, const std::vector<double> &due_s,
         int64_t new_tokens, const std::function<Request(int64_t)> &make,
         Tracer &tracer, std::vector<double> &lag_ms)
{
    const int64_t n = static_cast<int64_t>(due_s.size());
    Phase ph;
    ph.served.resize(static_cast<size_t>(n));
    ph.attempted = n;
    std::vector<edkm::serve::Server::RequestId> ids;
    std::vector<double> submit_ms;
    edkm::DeviceManager::instance().resetStats();
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < n; ++i) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        Request req = make(i);
        const auto ts = Clock::now();
        ids.push_back(server.submit(std::move(req)));
        submit_ms.push_back(msBetween(t0, ts));
        lag_ms.push_back(msBetween(due, ts));
    }
    double last_done_ms = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        Served &s = ph.served[static_cast<size_t>(i)];
        s.index = i;
        collect(server, ids[i], new_tokens, s);
        const double done_ms = submit_ms[i] + s.queueMs + s.execMs;
        s.latencyMs = done_ms - due_s[i] * 1e3;
        last_done_ms = std::max(last_done_ms, done_ms);
        if (tracer.enabled() && s.ok) {
            SpanRecord rec;
            rec.name = "serve.server.request";
            rec.id = 2 * i;
            rec.request = i;
            rec.startUs = tracer.toUs(t0) + due_s[i] * 1e6;
            rec.endUs = tracer.toUs(t0) + done_ms * 1e3;
            SpanRecord q = rec;
            q.name = "serve.server.queue";
            q.id = 2 * i + 1;
            q.parent = rec.id;
            q.startUs = tracer.toUs(t0) + submit_ms[i] * 1e3;
            q.endUs = q.startUs + s.queueMs * 1e3;
            tracer.record(rec);
            tracer.record(q);
        }
    }
    ph.wallS = last_done_ms / 1e3;
    ph.peakBytes = hostPeakBytes();
    return ph;
}

} // namespace

// ---------------------------------------------------------------------
// serve_decode
// ---------------------------------------------------------------------

Outcome
runServeDecode(const Options &opt, Tracer &tracer)
{
    Outcome out;
    out.params.add("model", "MiniLlama dim 256, 4 layers, 4 heads, "
                            "eDKM 3-bit (api::Session, steps 0)")
        .add("server", "threaded, 4 engines")
        .add("load", "closed loop, 4 outstanding")
        .add("prompt_tokens", kDecodePrompt)
        .add("new_tokens", kDecodeNew)
        .add("min_requests", kMinRequests);

    const edkm::nn::LlamaConfig cfg =
        llama(kDecodeDim, kDecodeLayers, kDecodeHeads);
    const std::string path = artifactPath(opt);
    double setup_s = 0.0;
    ReaderPtr reader = setUp(cfg, path, setup_s);

    auto make = [&](int64_t i) {
        return Request(randomTokens(streamOf(opt.seed, i), kDecodePrompt,
                                    cfg.vocab),
                       kDecodeNew);
    };

    edkm::serve::ServerConfig sc;
    sc.threads = kDecodeEngines;
    Phase ph;
    int64_t kv_bytes = 0, saved_bytes = 0;
    {
        edkm::serve::Server server(reader, sc);
        // Warm-up outside the measured phase, one request per engine at
        // once: fault in the mapping and size every engine's KV cache.
        std::vector<Request> warm;
        for (int w = 0; w < kDecodeEngines; ++w) {
            warm.emplace_back(randomTokens(streamOf(opt.seed ^ 0x5eedull, w),
                                           kDecodePrompt, cfg.vocab),
                              kDecodeNew);
        }
        auto warm_ids = server.submit(std::move(warm));
        server.wait(warm_ids);
        server.release(warm_ids);

        tracer.setEnabled(opt.trace);
        ph = closedLoop(server, kDecodeClients, opt.seconds, kDecodeNew,
                        make, tracer);
        tracer.setEnabled(false);
        for (int e = 0; e < kDecodeEngines; ++e) {
            const int64_t kv = server.engineStats(e).kvCacheBytes;
            kv_bytes = std::max(kv_bytes, kv);
            saved_bytes += kv;
        }
    }
    checkAgainstSerial(reader, ph.served, make);
    tally(out, ph.served, ph.attempted);

    if (!opt.trace) {
        addServingMetrics(out, ph.served, ph.wallS, setup_s, ph.peakBytes,
                          saved_bytes);
    } else {
        // Engine replay: prefill + single-position decode steps of the
        // first requests, as the threaded server's engines run them.
        PaletteProbe probe(*reader, streamOf(opt.seed, 1u << 20));
        edkm::serve::InferenceEngine engine(reader);
        const int64_t hd = cfg.dim / cfg.heads;
        auto replay = [&](int64_t pass) {
            edkm::NoGradGuard ng;
            for (int64_t j = 0; j < 4; ++j) {
                const Served &s = ph.served[static_cast<size_t>(j)];
                Request req = make(s.index);
                edkm::serve::KvCache kv(cfg.layers, cfg.heads, hd,
                                        kDecodePrompt + kDecodeNew);
                std::vector<int64_t> tokens = req.prompt;
                Tensor logits;
                {
                    Span sp(tracer, "serve.engine.prefill", pass);
                    logits = engine.prefill(
                        Tensor::fromIndices(req.prompt, {1, kDecodePrompt}),
                        kv);
                }
                int64_t tok = edkm::argmaxLastDim(
                                  logits.slice(0, kDecodePrompt - 1,
                                               kDecodePrompt))
                                  .flatAtInt(0);
                tokens.push_back(tok);
                for (int64_t t = 1; t < kDecodeNew; ++t) {
                    Span sp(tracer, "serve.engine.decode_step", pass);
                    tok = edkm::argmaxLastDim(engine.decodeStep(tok, kv))
                              .flatAtInt(0);
                    tokens.push_back(tok);
                }
                if (s.ok && tokens != s.tokens) {
                    diverged(out, "engine replay");
                }
            }
        };
        double overhead = probeRounds(tracer, [&](int64_t r) {
            probe.run(tracer, r);
            replay(r);
            probeOpen(tracer, path, r);
        });
        addPaletteMetrics(out, tracer, probe);
        out.metrics.push_back(ms("serve.engine.prefill_ms",
                                 median(tracer.durationsMs(
                                     "serve.engine.prefill"))));
        out.metrics.push_back(ms("serve.engine.decode_step_ms",
                                 median(tracer.durationsMs(
                                     "serve.engine.decode_step"))));
        out.metrics.push_back(fusedShare(engine.stats()));
        addServerMetrics(out, ph.served);
        out.metrics.push_back({"serve.kv_cache.bytes",
                               static_cast<double>(kv_bytes), "bytes"});
        out.metrics.push_back(ms("serve.reader.open_ms",
                                 median(tracer.durationsMs(
                                     "serve.reader.open"))));
        out.metrics.push_back({"trace.overhead_pct", overhead, "%"});
    }
    reader.reset();
    ::unlink(path.c_str());
    return out;
}

// ---------------------------------------------------------------------
// serve_chat
// ---------------------------------------------------------------------

Outcome
runServeChat(const Options &opt, Tracer &tracer)
{
    const int64_t n_open = std::max<int64_t>(
        kMinRequests, static_cast<int64_t>(kChatRate * opt.seconds + 0.5));
    Outcome out;
    out.params.add("model", "MiniLlama dim 128, 4 layers, 4 heads, "
                            "eDKM 3-bit (api::Session, steps 0)")
        .add("server", "batched, maxBatch 8, prefillChunkTokens 64, "
                       "prefix cache of 64 prompt heads")
        .add("load", opt.trace ? "open loop, Poisson arrivals (count "
                                 "fixed per run)"
                               : "closed loop, 8 outstanding")
        .add("runtime_threads", kChatRuntimeThreads)
        .add("open_loop_rate_per_s", kChatRate)
        .add("open_loop_requests", n_open)
        .add("prompt_tokens", kChatPrompt)
        .add("shared_prefix_tokens", kChatShared)
        .add("system_prompts", kChatSystemPrompts)
        .add("new_tokens", kChatNew);

    edkm::runtime::Runtime::instance().setThreadCount(kChatRuntimeThreads);
    const edkm::nn::LlamaConfig cfg =
        llama(kChatDim, kChatLayers, kChatHeads);
    const std::string path = artifactPath(opt);
    double setup_s = 0.0;
    ReaderPtr reader = setUp(cfg, path, setup_s);

    std::vector<std::vector<int64_t>> systems;
    for (int h = 0; h < kChatSystemPrompts; ++h) {
        systems.push_back(randomTokens(streamOf(opt.seed, 1000 + h),
                                       kChatShared, cfg.vocab));
    }
    auto make = [&](int64_t i) {
        uint64_t st = streamOf(opt.seed, static_cast<uint64_t>(i));
        std::vector<int64_t> prompt =
            systems[splitmix64(st) % kChatSystemPrompts];
        std::vector<int64_t> tail =
            randomTokens(st, kChatPrompt - kChatShared, cfg.vocab);
        prompt.insert(prompt.end(), tail.begin(), tail.end());
        return Request(std::move(prompt), kChatNew);
    };

    // Every banked prompt head costs layers x (K + V) x prompt x dim.
    const int64_t head_bytes = cfg.layers * 2 * kChatPrompt * cfg.dim *
                               static_cast<int64_t>(sizeof(float));
    edkm::serve::ServerConfig sc;
    sc.batched = true;
    sc.scheduler.maxBatch = kChatMaxBatch;
    sc.scheduler.prefillChunkTokens = kChatChunk;
    sc.scheduler.prefixCacheBytes = kChatPrefixHeads * head_bytes;

    Phase ph;
    std::vector<double> lag_ms;
    int64_t kv_bytes = 0, saved_bytes = 0;
    {
        edkm::serve::Server server(reader, sc);
        std::vector<Request> warm;
        for (int w = 0; w < kChatMaxBatch; ++w) {
            warm.push_back(make(-1 - w));
        }
        auto warm_ids = server.submit(std::move(warm));
        server.wait(warm_ids);
        server.release(warm_ids);

        if (opt.trace) {
            ph = openLoop(server,
                          poissonSchedule(streamOf(opt.seed, 0xa881a1ull),
                                          n_open, kChatRate),
                          kChatNew, make, tracer, lag_ms);
        } else {
            ph = closedLoop(server, kChatClients, opt.seconds, kChatNew,
                            make, tracer);
        }
        kv_bytes = server.engineStats(0).kvCacheBytes;
        saved_bytes = kv_bytes + prefixCacheBytes(server.metricsJson());
    }
    checkAgainstSerial(reader, ph.served, make);
    tally(out, ph.served, ph.attempted);

    if (!opt.trace) {
        addServingMetrics(out, ph.served, ph.wallS, setup_s, ph.peakBytes,
                          saved_bytes);
        reader.reset();
        ::unlink(path.c_str());
        return out;
    }

    const double lag_p90 = tailPercentile(lag_ms, 90.0).value_or(0.0);
    if (lag_p90 > kLagFlagMs) {
        out.flags.push_back("load generator behind schedule: lag p90 " +
                            std::to_string(lag_p90) + " ms");
    }
    std::vector<double> open_lat;
    for (const Served &s : ph.served) {
        if (s.ok) {
            open_lat.push_back(s.latencyMs);
        }
    }

    tracer.setEnabled(true);
    PaletteProbe probe(*reader, streamOf(opt.seed, 1u << 20));
    edkm::serve::InferenceEngine engine(reader);
    const int64_t hd = cfg.dim / cfg.heads;
    // Engine replay at the scheduler's shapes: 64-token prefill chunks,
    // then batched decode over kChatMaxBatch requests.
    auto replay = [&](int64_t pass) {
        edkm::NoGradGuard ng;
        std::vector<std::unique_ptr<edkm::serve::KvCache>> kvs;
        std::vector<edkm::serve::KvCache *> kv_ptrs;
        std::vector<int64_t> next;
        std::vector<std::vector<int64_t>> tokens;
        for (int64_t j = 0; j < kChatMaxBatch; ++j) {
            Request req = make(j);
            kvs.push_back(std::make_unique<edkm::serve::KvCache>(
                cfg.layers, cfg.heads, hd, kChatPrompt + kChatNew));
            Tensor logits;
            for (int64_t c = 0; c < kChatPrompt; c += kChatChunk) {
                std::vector<int64_t> chunk(req.prompt.begin() + c,
                                           req.prompt.begin() + c +
                                               kChatChunk);
                Span sp(tracer, "serve.engine.prefill_chunk", pass);
                logits = engine.prefillChunk(
                    Tensor::fromIndices(chunk, {1, kChatChunk}),
                    *kvs.back());
            }
            next.push_back(
                edkm::argmaxLastDim(
                    logits.slice(0, kChatChunk - 1, kChatChunk))
                    .flatAtInt(0));
            tokens.push_back(req.prompt);
            tokens.back().push_back(next.back());
            kv_ptrs.push_back(kvs.back().get());
        }
        for (int64_t t = 1; t < kChatNew; ++t) {
            Tensor logits;
            {
                Span sp(tracer, "serve.engine.decode_batch", pass);
                logits = engine.decodeStepBatch(next, kv_ptrs);
            }
            Tensor am = edkm::argmaxLastDim(logits);
            for (int64_t j = 0; j < kChatMaxBatch; ++j) {
                next[j] = am.flatAtInt(j);
                tokens[j].push_back(next[j]);
            }
        }
        for (int64_t j = 0; j < kChatMaxBatch; ++j) {
            const Served &s = ph.served[static_cast<size_t>(j)];
            if (s.ok && tokens[j] != s.tokens) {
                diverged(out, "engine replay");
            }
        }
    };
    const double overhead = probeRounds(tracer, [&](int64_t r) {
        probe.run(tracer, r);
        replay(r);
        probeOpen(tracer, path, r);
    });

    // The scheduler step loop, driven directly: admit in request order
    // whenever a slot frees, one spanned step() at a time.
    edkm::serve::InferenceEngine sched_engine(reader);
    edkm::serve::BatchScheduler sched(sched_engine, sc.scheduler);
    const int64_t driven = std::min<int64_t>(ph.attempted, 64);
    int64_t admitted = 0, done = 0, prompt_tokens = 0;
    while (done < driven) {
        while (admitted < driven && sched.hasCapacity()) {
            Request req = make(admitted);
            prompt_tokens += static_cast<int64_t>(req.prompt.size());
            const int64_t idx = admitted++;
            sched.admit(
                std::move(req),
                [&, idx](edkm::serve::BatchScheduler::Response &&res,
                         std::exception_ptr err,
                         const edkm::serve::SchedulerRequestStats &) {
                    ++done;
                    const Served &s = ph.served[static_cast<size_t>(idx)];
                    if (err != nullptr || (s.ok && res.tokens != s.tokens)) {
                        diverged(out, "scheduler drive");
                    }
                });
        }
        Span sp(tracer, "serve.scheduler.step");
        sched.step();
    }
    const auto &ss = sched.stats();
    const auto px = sched.prefixStats();

    addPaletteMetrics(out, tracer, probe);
    out.metrics.push_back(ms("serve.engine.prefill_chunk_ms",
                             median(tracer.durationsMs(
                                 "serve.engine.prefill_chunk"))));
    out.metrics.push_back(ms("serve.engine.decode_batch_ms",
                             median(tracer.durationsMs(
                                 "serve.engine.decode_batch"))));
    out.metrics.push_back(fusedShare(engine.stats()));
    out.metrics.push_back(ms("serve.scheduler.step_ms",
                             median(tracer.durationsMs(
                                 "serve.scheduler.step"))));
    out.metrics.push_back(
        {"serve.scheduler.batch_mean",
         ss.steps > 0 ? static_cast<double>(ss.decodedTokens) / ss.steps
                      : 0.0,
         "requests"});
    out.metrics.push_back({"serve.scheduler.steps",
                           static_cast<double>(ss.steps), "count"});
    out.metrics.push_back(
        {"serve.prefix_cache.hit_ratio",
         px.hits + px.misses > 0
             ? static_cast<double>(px.hits) / (px.hits + px.misses)
             : 0.0,
         "ratio"});
    out.metrics.push_back(
        {"serve.prefix_cache.reused_token_share",
         prompt_tokens > 0
             ? static_cast<double>(px.reusedTokens) / prompt_tokens
             : 0.0,
         "ratio"});
    addServerMetrics(out, ph.served);
    out.metrics.push_back({"serve.kv_cache.bytes",
                           static_cast<double>(kv_bytes), "bytes"});
    out.metrics.push_back(ms("serve.reader.open_ms",
                             median(tracer.durationsMs(
                                 "serve.reader.open"))));
    out.metrics.push_back(ms("serve.open_loop.latency_ms_p50",
                             median(open_lat)));
    out.metrics.push_back(
        ms("serve.open_loop.latency_ms_p90",
           tailPercentile(open_lat, 90.0).value_or(0.0)));
    out.metrics.push_back(ms("loadgen.lag_ms_p90", lag_p90));
    out.metrics.push_back({"trace.overhead_pct", overhead, "%"});
    reader.reset();
    ::unlink(path.c_str());
    return out;
}

} // namespace perfbench
