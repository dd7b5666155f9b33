/**
 * @file
 * train_step: the paper's own job, whole-model eDKM fine-tune steps.
 *
 * A MiniLlama with its parameters on the simulated accelerator gets one
 * EdkmLayer per Linear (3 bits, uniquification on, sharded over a
 * functional LearnerGroup), and each step runs forward under a
 * graph-walk MarshalContext, cross-entropy, backward, gradient clipping
 * and AdamW. It is the only workload that exercises core/edkm,
 * core/uniquify, marshal, dist, autograd and nn/adamw; it bypasses
 * every serving module.
 */

#include <cstring>
#include <optional>
#include <stdexcept>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/edkm.h"
#include "data/synthetic.h"
#include "data/tokenizer.h"
#include "device/device_manager.h"
#include "marshal/marshal.h"
#include "nn/adamw.h"
#include "nn/transformer.h"
#include "runtime/runtime.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using edkm::Device;
using edkm::Tensor;
using edkm::Variable;

constexpr int64_t kDim = 128, kLayers = 2, kHeads = 4;
constexpr int64_t kBatch = 4, kSeq = 64;
constexpr int kBits = 3;
constexpr int kWorld = 4;
/** One runtime lane: with four, every parallelFor waits for its slowest
 *  lane, and host contention on a shared 4-vCPU machine spread step
 *  times by 0.3-0.4 between runs (see perfbench/README.md). */
constexpr int kRuntimeThreads = 1;
constexpr int kSetupReps = 21;
/** Timed steps at least: 6 MLP projections per step must give the
 *  clustering-call latency p90 its 100 samples. */
constexpr int kMinSteps = 17;
constexpr int kCorpusExamples = 400;

const Device kAccel = Device::gpu(0);

/** Latency, in ms, of each EdkmLayer::forward call on an MLP
 *  projection (the largest weights, all 128 x 344 or 344 x 128). */
using CallLog = std::vector<double>;

/** One fine-tuning job: model on the accelerator, its clustering
 *  layers, and the optimizer. */
struct Job
{
    edkm::nn::MiniLlama model;
    std::shared_ptr<edkm::LearnerGroup> group;
    std::vector<std::shared_ptr<edkm::EdkmLayer>> layers;
    std::vector<int64_t> weightNumel;
    std::unique_ptr<edkm::nn::AdamW> opt;

    Job(int world, Tracer &tracer, CallLog *log)
        : model(config()), group(std::make_shared<edkm::LearnerGroup>(world))
    {
        for (Variable p : model.parameters()) {
            p.mutableData() = p.data().to(kAccel);
        }
        for (auto &[path, linear] : model.allLinears()) {
            edkm::EdkmConfig ec;
            ec.dkm.bits = kBits;
            ec.uniquify = true;
            ec.shard = true;
            auto layer = std::make_shared<edkm::EdkmLayer>(ec, group);
            layers.push_back(layer);
            weightNumel.push_back(linear->weight().data().numel());
            // Benchmark-owned weight transform: times the clustering
            // call it wraps, as a span and, for MLP projections, in
            // @p log.
            CallLog *mlp_log =
                path.find(".mlp.") != std::string::npos ? log : nullptr;
            linear->setWeightTransform(
                [layer, &tracer, mlp_log](const Variable &w) {
                    Span span(tracer, "core.edkm.forward");
                    auto t0 = Clock::now();
                    Variable out = layer->forward(w);
                    if (mlp_log != nullptr) {
                        mlp_log->push_back(msSince(t0));
                    }
                    return out;
                });
        }
        opt = std::make_unique<edkm::nn::AdamW>(model.parameters());
    }

    static edkm::nn::LlamaConfig
    config()
    {
        edkm::nn::LlamaConfig c;
        c.vocab = 256;
        c.dim = kDim;
        c.layers = kLayers;
        c.heads = kHeads;
        return c;
    }
};

/** The benchmark's own saved-tensor hooks: spans around the marshaling
 *  context it delegates to. */
class TimedHooks : public edkm::SavedTensorHooks
{
  public:
    TimedHooks(edkm::MarshalContext &ctx, Tracer &tracer)
        : ctx_(ctx), tracer_(tracer)
    {
    }

    std::shared_ptr<void>
    pack(const edkm::SavedSource &src) override
    {
        Span s(tracer_, "marshal.pack");
        return ctx_.pack(src);
    }

    Tensor
    unpack(const std::shared_ptr<void> &handle) override
    {
        Span s(tracer_, "marshal.unpack");
        return ctx_.unpack(handle);
    }

  private:
    edkm::MarshalContext &ctx_;
    Tracer &tracer_;
};

/** What one step reports. */
struct StepResult
{
    float loss = 0.0f;
    double wallMs = 0.0;
    int64_t peakBytes = 0;  ///< accelerator peak within the step
    int64_t savedBytes = 0; ///< held for backward at end of forward
    edkm::MarshalStats marshal;
    edkm::DistStats dist;
    int64_t d2hBytes = 0;
};

/**
 * One fine-tune step. @p marshal installs a graph-walk MarshalContext
 * around the forward (through TimedHooks when the tracer is on).
 */
StepResult
step(Job &job, const edkm::data::LmBatch &batch, bool marshal,
     Tracer &tracer, int64_t index)
{
    edkm::DeviceManager &mgr = edkm::DeviceManager::instance();
    mgr.resetStats();
    job.group->resetStats();
    StepResult r;
    Span step_span(tracer, "train.step", index);
    auto t0 = Clock::now();
    edkm::MarshalContext ctx;
    TimedHooks timed(ctx, tracer);
    const int64_t accel_before = mgr.stats(kAccel).currentBytes;
    Variable loss;
    {
        Span s(tracer, "nn.forward");
        std::optional<edkm::SavedTensorHooksGuard> guard;
        if (marshal) {
            guard.emplace(tracer.enabled()
                              ? static_cast<edkm::SavedTensorHooks *>(&timed)
                              : &ctx);
        }
        Variable logits = job.model.forward(batch.tokens);
        loss = edkm::af::crossEntropy(logits, batch.targets);
    }
    r.savedBytes = mgr.stats(kAccel).currentBytes - accel_before +
                   ctx.residentBytes();
    r.loss = loss.data().item();
    {
        Span s(tracer, "autograd.backward");
        job.opt->zeroGrad();
        edkm::backward(loss);
    }
    {
        Span s(tracer, "nn.adamw.step");
        edkm::nn::AdamW::clipGradNorm(job.model.parameters(), 1.0f);
        job.opt->step();
    }
    r.wallMs = msSince(t0);
    r.peakBytes = mgr.stats(kAccel).peakBytes;
    r.marshal = ctx.stats();
    r.dist = job.group->stats();
    r.d2hBytes = mgr.ledger().d2hBytes;
    return r;
}

bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** Final parameters of @p job, copied to the host. */
std::vector<std::vector<float>>
weights(Job &job)
{
    std::vector<std::vector<float>> out;
    for (const Variable &p : job.model.parameters()) {
        out.push_back(p.data().to(Device::cpu()).toVector());
    }
    return out;
}

} // namespace

Outcome
runTrainStep(const Options &opt, Tracer &tracer)
{
    Outcome out;
    out.params.add("model", "MiniLlama dim 128, 2 layers, 4 heads, "
                            "parameters on gpu(0)")
        .add("clustering", "EdkmLayer per Linear, 3 bits, uniquify, "
                           "sharded over LearnerGroup world 4")
        .add("marshal", "graph-walk MarshalContext around forward")
        .add("batch", kBatch)
        .add("seq", kSeq)
        .add("runtime_threads", kRuntimeThreads)
        .add("reference", "same steps, marshaling off, world 1");

    edkm::runtime::Runtime::instance().setThreadCount(kRuntimeThreads);

    // Inputs: a seeded synthetic instruction corpus.
    edkm::data::SyntheticCorpus corpus(opt.seed);
    const std::vector<int64_t> stream = corpus.buildStream(
        corpus.generate(kCorpusExamples, opt.seed),
        edkm::data::ByteTokenizer());
    std::vector<edkm::data::LmBatch> batches;
    edkm::Rng rng(opt.seed);
    auto batchAt = [&](size_t i) -> const edkm::data::LmBatch & {
        while (batches.size() <= i) {
            batches.push_back(edkm::data::SyntheticCorpus::sampleBatch(
                stream, kBatch, kSeq, rng));
        }
        return batches[i];
    };

    CallLog calls;
    std::vector<double> setup_reps;
    std::unique_ptr<Job> job;
    for (int r = 0; r < kSetupReps; ++r) {
        job.reset();
        auto t0 = Clock::now();
        job = std::make_unique<Job>(kWorld, tracer, &calls);
        setup_reps.push_back(msSince(t0) / 1e3);
    }

    // Step 0 warms allocations and is checked but not timed.
    std::vector<StepResult> results;
    results.push_back(step(*job, batchAt(0), true, tracer, 0));
    calls.clear();
    std::vector<double> traced_ms, untraced_ms;
    const auto t0 = Clock::now();
    for (size_t i = 1;; ++i) {
        if (static_cast<int>(i) > kMinSteps &&
            msSince(t0) >= opt.seconds * 1e3) {
            break;
        }
        const bool traced = opt.trace && i % 2 == 0;
        tracer.setEnabled(traced);
        results.push_back(step(*job, batchAt(i), true, tracer,
                               static_cast<int64_t>(i)));
        (traced ? traced_ms : untraced_ms).push_back(results.back().wallMs);
    }
    const double timed_s = msSince(t0) / 1e3;
    tracer.setEnabled(false);
    const std::vector<std::vector<float>> final_weights = weights(*job);

    // Reference, outside the timed phase and setup: the same steps with
    // marshaling off and one learner must give bit-identical losses at
    // every step and bit-identical final weights.
    {
        Job ref(1, tracer, nullptr);
        for (size_t i = 0; i < results.size(); ++i) {
            StepResult rr = step(ref, batchAt(i), false, tracer,
                                 static_cast<int64_t>(i));
            if (!sameBits(&rr.loss, &results[i].loss, 1)) {
                ++out.failed;
            }
        }
        const std::vector<std::vector<float>> ref_weights = weights(ref);
        bool same = ref_weights.size() == final_weights.size();
        for (size_t p = 0; same && p < ref_weights.size(); ++p) {
            same = ref_weights[p].size() == final_weights[p].size() &&
                   sameBits(ref_weights[p].data(), final_weights[p].data(),
                            ref_weights[p].size());
        }
        if (!same) {
            ++out.failed;
        }
    }
    out.attempted = static_cast<int64_t>(results.size());
    out.failed = std::min(out.failed, out.attempted);
    out.correct = out.failed == 0;

    std::vector<double> peak, saved;
    for (size_t i = 1; i < results.size(); ++i) {
        peak.push_back(static_cast<double>(results[i].peakBytes));
        saved.push_back(static_cast<double>(results[i].savedBytes));
    }
    const int64_t timed_steps = static_cast<int64_t>(results.size()) - 1;
    if (!opt.trace) {
        std::optional<double> p90 = tailPercentile(calls, 90.0);
        if (!p90) {
            throw std::runtime_error("too few clustering calls for p90");
        }
        out.metrics.push_back({"setup_s", median(setup_reps), "s"});
        out.metrics.push_back(
            {"tokens_per_s",
             static_cast<double>(timed_steps * kBatch * kSeq) / timed_s,
             "1/s"});
        out.metrics.push_back({"latency_ms_p50", median(calls), "ms"});
        out.metrics.push_back({"latency_ms_p90", *p90, "ms"});
        out.metrics.push_back({"step_ms_p50", median(untraced_ms), "ms"});
        out.metrics.push_back({"peak_accel_mb", median(peak) / kMiB, "MiB"});
        out.metrics.push_back({"saved_mb", median(saved) / kMiB, "MiB"});
        return out;
    }

    const std::vector<SpanRecord> spans = tracer.spans();
    auto perStep = [&](const char *name) {
        return median(totalsPerRequestMs(spans, name));
    };
    int64_t unique = 0, numel = 0, saved_b = 0, dense_b = 0;
    for (size_t l = 0; l < job->layers.size(); ++l) {
        const edkm::EdkmReport &rep = job->layers[l]->report();
        unique += rep.uniqueCount;
        numel += job->weightNumel[l];
        saved_b += rep.savedBytes;
        dense_b += rep.denseMapBytes;
    }
    const StepResult &last = results.back();
    const edkm::MarshalStats &ms = last.marshal;
    out.metrics.push_back({"nn.forward_ms", perStep("nn.forward"), "ms"});
    out.metrics.push_back(
        {"autograd.backward_ms", perStep("autograd.backward"), "ms"});
    out.metrics.push_back(
        {"nn.adamw.step_ms", perStep("nn.adamw.step"), "ms"});
    out.metrics.push_back(
        {"core.edkm.forward_ms", perStep("core.edkm.forward"), "ms"});
    out.metrics.push_back({"core.uniquify.unique_ratio",
                           static_cast<double>(unique) / numel, "ratio"});
    out.metrics.push_back({"core.edkm.saved_to_dense",
                           static_cast<double>(saved_b) / dense_b,
                           "ratio"});
    out.metrics.push_back({"marshal.pack_ms", perStep("marshal.pack"), "ms"});
    out.metrics.push_back(
        {"marshal.unpack_ms", perStep("marshal.unpack"), "ms"});
    out.metrics.push_back(
        {"marshal.copies", static_cast<double>(ms.copies), "count"});
    out.metrics.push_back(
        {"marshal.dedup_ratio",
         ms.packs > 0 ? static_cast<double>(ms.duplicatesAvoided) / ms.packs
                      : 0.0,
         "ratio"});
    out.metrics.push_back({"marshal.bytes_copied",
                           static_cast<double>(ms.bytesCopied), "bytes"});
    out.metrics.push_back(
        {"marshal.walk_steps", static_cast<double>(ms.walkSteps), "count"});
    out.metrics.push_back({"dist.allgathers",
                           static_cast<double>(last.dist.allGathers),
                           "count"});
    out.metrics.push_back({"dist.allgather_bytes",
                           static_cast<double>(last.dist.allGatherBytes),
                           "bytes"});
    out.metrics.push_back({"device.d2h_bytes",
                           static_cast<double>(last.d2hBytes), "bytes"});
    out.metrics.push_back({"trace.overhead_pct",
                           overheadPct(traced_ms, untraced_ms), "%"});
    return out;
}

} // namespace perfbench
