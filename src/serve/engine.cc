#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "autograd/functional.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace edkm {
namespace serve {

namespace {

/** Parameter names + shapes the manifest geometry requires. */
std::vector<std::pair<std::string, Shape>>
expectedParameters(const nn::LlamaConfig &cfg)
{
    int64_t d = cfg.dim, h = cfg.resolvedHidden(), v = cfg.vocab;
    std::vector<std::pair<std::string, Shape>> out;
    out.emplace_back("embed.weight", Shape{v, d});
    for (int64_t i = 0; i < cfg.layers; ++i) {
        std::string p = "blocks." + std::to_string(i) + ".";
        out.emplace_back(p + "norm1.weight", Shape{d});
        for (const char *w : {"wq", "wk", "wv", "wo"}) {
            out.emplace_back(p + "attn." + w + ".weight", Shape{d, d});
        }
        out.emplace_back(p + "norm2.weight", Shape{d});
        out.emplace_back(p + "mlp.w1.weight", Shape{h, d});
        out.emplace_back(p + "mlp.w2.weight", Shape{d, h});
        out.emplace_back(p + "mlp.w3.weight", Shape{h, d});
    }
    out.emplace_back("final_norm.weight", Shape{d});
    out.emplace_back("lm_head.weight", Shape{v, d});
    return out;
}

/** RMSNorm epsilon: nn::RMSNorm's default, which MiniLlama uses. */
constexpr float kRmsEps = 1e-5f;

} // namespace

InferenceEngine::InferenceEngine(
    std::shared_ptr<const ArtifactReader> reader, EngineConfig cfg)
    : reader_(std::move(reader)), config_(cfg)
{
    EDKM_CHECK(reader_ != nullptr, "InferenceEngine: null reader");
    EDKM_CHECK(config_.decodeCacheBytes >= 0,
               "InferenceEngine: negative decode-cache budget");
    for (const auto &[name, shape] : expectedParameters(config())) {
        EDKM_CHECK(reader_->contains(name),
                   "InferenceEngine: artifact has no section for "
                   "parameter '",
                   name, "' required by its own geometry");
        const api::TensorSection &s = reader_->section(name);
        EDKM_CHECK(s.shape == shape, "InferenceEngine: section '", name,
                   "' shape disagrees with the manifest geometry");
    }
}

Tensor
InferenceEngine::denseWeight(const std::string &name)
{
    const api::TensorSection &s = reader_->section(name);
    if (s.codec == api::Codec::kRawF32) {
        auto it = borrowed_.find(name);
        if (it != borrowed_.end()) {
            return it->second;
        }
        Tensor t = reader_->denseView(name);
        borrowed_.emplace(name, t);
        ++stats_.borrowedViews;
        return t;
    }
    // dense_f16 / affine: lazy decode into the LRU cache.
    auto it = cache_.find(name);
    if (it != cache_.end()) {
        ++stats_.cacheHits;
        it->second.lastUse = ++use_clock_;
        return it->second.tensor;
    }
    ++stats_.cacheMisses;
    ++stats_.decodes;
    CacheSlot slot;
    slot.tensor = reader_->decode(name);
    slot.bytes = slot.tensor.storageBytes();
    slot.lastUse = ++use_clock_;
    stats_.cacheBytes += slot.bytes;
    Tensor t = slot.tensor;
    cache_.emplace(name, std::move(slot));
    evictToBudget();
    return t;
}

void
InferenceEngine::evictToBudget()
{
    while (stats_.cacheBytes > config_.decodeCacheBytes &&
           cache_.size() > 1) {
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            if (victim == cache_.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        stats_.cacheBytes -= victim->second.bytes;
        ++stats_.evictions;
        cache_.erase(victim);
    }
}

const PaletteView &
InferenceEngine::palette(const std::string &name)
{
    auto it = palettes_.find(name);
    if (it != palettes_.end()) {
        return it->second;
    }
    auto [ins, ok] = palettes_.emplace(name, reader_->paletteView(name));
    (void)ok;
    ++stats_.borrowedViews;
    return ins->second;
}

Variable
InferenceEngine::linearForward(const std::string &path, const Variable &x)
{
    std::string name = path + ".weight";
    const api::TensorSection &s = reader_->section(name);
    if (s.codec == api::Codec::kPalettized) {
        ++stats_.streamedMatmuls;
        bool fused = false;
        Variable r =
            af::constant(paletteMatmulT(x.data(), palette(name), &fused));
        stats_.fusedDecodes += fused ? 1 : 0;
        return r;
    }
    Tensor w = denseWeight(name);
    return af::matmul(x, af::transpose(af::constant(w), 0, 1));
}

Variable
InferenceEngine::rmsNorm(const Variable &x, const std::string &name)
{
    Variable w = af::constant(denseWeight(name));
    Variable ms = af::meanDim(af::square(x), -1, /*keepdim=*/true);
    Variable inv = af::div(x, af::sqrt(af::addScalar(ms, kRmsEps)));
    return af::mul(inv, w);
}

Variable
InferenceEngine::embed(const Tensor &flat_tokens)
{
    const api::TensorSection &s = reader_->section("embed.weight");
    if (s.codec == api::Codec::kPalettized) {
        return af::constant(
            paletteGatherRows(palette("embed.weight"), flat_tokens));
    }
    Variable table = af::constant(denseWeight("embed.weight"));
    return af::gatherRows(table, flat_tokens);
}

void
InferenceEngine::ensureSeqCaches(int64_t s)
{
    if (cached_seq_ == s) {
        return;
    }
    // The same builders MultiHeadAttention::ensureCaches uses, so the
    // rope/mask values match the eager model's bit for bit.
    nn::buildRopeTables(s, config().dim / config().heads, rope_cos_,
                        rope_sin_);
    causal_mask_ = nn::buildCausalMask(s);
    cached_seq_ = s;
}

Variable
InferenceEngine::splitHeads(const std::string &proj, const Variable &x,
                            int64_t b, int64_t s)
{
    int64_t dim = config().dim, heads = config().heads;
    Variable flat = af::view(x, {b * s, dim});
    Variable y = linearForward(proj, flat);
    y = af::view(y, {b, s, heads, dim / heads});
    y = af::transpose(y, 1, 2);
    y = af::contiguous(y);
    return af::view(y, {b * heads, s, dim / heads});
}

Variable
InferenceEngine::attentionForward(int64_t layer, const Variable &x,
                                  KvCache *kv)
{
    int64_t dim = config().dim, heads = config().heads;
    int64_t head_dim = dim / heads;
    const Shape &shape = x.data().shape();
    int64_t b = shape[0], s = shape[1];
    ensureSeqCaches(s);
    std::string p = "blocks." + std::to_string(layer) + ".attn.";

    Variable q = splitHeads(p + "wq", x, b, s);
    Variable k = splitHeads(p + "wk", x, b, s);
    Variable v = splitHeads(p + "wv", x, b, s);

    q = af::rope(q, rope_cos_, rope_sin_);
    k = af::rope(k, rope_cos_, rope_sin_);

    if (kv != nullptr) {
        // Prefill: bank this layer's rope'd keys and raw values at the
        // cache position (the caller advances it after all layers).
        kv->write(layer, k.data(), v.data());
    }

    float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    Variable att = af::matmul(q, af::transpose(k, -2, -1));
    att = af::mulScalar(att, scale);
    att = af::add(att, af::constant(causal_mask_));
    att = af::softmaxLastDim(att);
    Variable ctx = af::matmul(att, v);

    ctx = af::view(ctx, {b, heads, s, head_dim});
    ctx = af::transpose(ctx, 1, 2);
    ctx = af::contiguous(ctx);
    ctx = af::view(ctx, {b * s, dim});
    Variable out = linearForward(p + "wo", ctx);
    return af::view(out, {b, s, dim});
}

Variable
InferenceEngine::blockForward(int64_t layer, const Variable &x,
                              KvCache *kv)
{
    const Shape &sh = x.data().shape();
    int64_t b = sh[0], seq = sh[1], d = sh[2];
    std::string p = "blocks." + std::to_string(layer) + ".";
    Variable h = af::add(
        x, attentionForward(layer, rmsNorm(x, p + "norm1.weight"), kv));
    Variable flat =
        af::view(rmsNorm(h, p + "norm2.weight"), {b * seq, d});
    Variable gate = af::silu(linearForward(p + "mlp.w1", flat));
    Variable up = linearForward(p + "mlp.w3", flat);
    Variable m = linearForward(p + "mlp.w2", af::mul(gate, up));
    return af::add(h, af::view(m, {b, seq, d}));
}

Tensor
InferenceEngine::forwardImpl(const Tensor &tokens, KvCache *kv)
{
    NoGradGuard ng;
    EDKM_CHECK(tokens.dim() == 2,
               "InferenceEngine: tokens must be [B,S]");
    int64_t b = tokens.size(0), s = tokens.size(1);
    Tensor flat_tokens =
        tokens.isContiguous() ? tokens.view({b * s})
                              : tokens.contiguous().view({b * s});
    Variable h = embed(flat_tokens);
    h = af::view(h, {b, s, config().dim});
    for (int64_t l = 0; l < config().layers; ++l) {
        h = blockForward(l, h, kv);
    }
    h = rmsNorm(h, "final_norm.weight");
    h = af::view(h, {b * s, config().dim});
    return linearForward("lm_head", h).data();
}

Tensor
InferenceEngine::forward(const Tensor &tokens)
{
    return forwardImpl(tokens, nullptr);
}

Tensor
InferenceEngine::prefill(const Tensor &tokens, KvCache &kv)
{
    EDKM_CHECK(tokens.dim() == 2 && tokens.size(0) == 1,
               "InferenceEngine: prefill takes a single [1,S] request");
    int64_t s = tokens.size(1);
    EDKM_CHECK(kv.position() == 0,
               "InferenceEngine: prefill needs an empty cache "
               "(reset() it first)");
    EDKM_CHECK(kv.layers() == config().layers &&
                   kv.groups() == config().heads &&
                   kv.headDim() == config().dim / config().heads,
               "InferenceEngine: KV cache geometry disagrees with the "
               "model");
    Tensor logits = forwardImpl(tokens, &kv);
    kv.advance(s);
    ++stats_.prefills;
    stats_.prefillTokens += s;
    return logits;
}

Variable
InferenceEngine::attentionChunkForward(int64_t layer, const Variable &x,
                                       KvCache &kv)
{
    int64_t dim = config().dim, heads = config().heads;
    int64_t c = x.data().shape()[1];
    int64_t p0 = kv.position();
    std::string p = "blocks." + std::to_string(layer) + ".attn.";

    Variable q = splitHeads(p + "wq", x, 1, c);
    Variable k = splitHeads(p + "wk", x, 1, c);
    Variable v = splitHeads(p + "wv", x, 1, c);

    // RoPE rows are position-pure: rows [p0, p0+c) of the decode table
    // match rows [p0, p0+c) of any full-forward table bit for bit.
    Tensor cos = dec_cos_.slice(0, p0, p0 + c);
    Tensor sin = dec_sin_.slice(0, p0, p0 + c);
    q = af::rope(q, cos, sin);
    k = af::rope(k, cos, sin);

    // Bank this chunk's rows at [p0, p0+c) (the caller advances the
    // position after all layers), then attend over prefix + chunk.
    kv.write(layer, k.data(), v.data());
    Tensor ctx =
        nn::attentionChunk(q.data(), kv.k(layer), kv.v(layer), p0);

    // [H, c, hd] -> [c, dim]: the same transpose+merge the full
    // forward applies to its context.
    Variable cv =
        af::view(af::constant(ctx), {1, heads, c, dim / heads});
    cv = af::transpose(cv, 1, 2);
    cv = af::contiguous(cv);
    cv = af::view(cv, {c, dim});
    Variable out = linearForward(p + "wo", cv);
    return af::view(out, {1, c, dim});
}

Variable
InferenceEngine::blockChunk(int64_t layer, const Variable &x, KvCache &kv)
{
    const Shape &sh = x.data().shape();
    int64_t seq = sh[1], d = sh[2];
    std::string p = "blocks." + std::to_string(layer) + ".";
    Variable h = af::add(
        x, attentionChunkForward(layer, rmsNorm(x, p + "norm1.weight"),
                                 kv));
    Variable flat = af::view(rmsNorm(h, p + "norm2.weight"), {seq, d});
    Variable gate = af::silu(linearForward(p + "mlp.w1", flat));
    Variable up = linearForward(p + "mlp.w3", flat);
    Variable m = linearForward(p + "mlp.w2", af::mul(gate, up));
    return af::add(h, af::view(m, {1, seq, d}));
}

Tensor
InferenceEngine::prefillChunk(const Tensor &tokens, KvCache &kv)
{
    NoGradGuard ng;
    EDKM_CHECK(tokens.dim() == 2 && tokens.size(0) == 1,
               "InferenceEngine: prefillChunk takes a [1,c] chunk");
    int64_t c = tokens.size(1);
    EDKM_CHECK(c >= 1, "InferenceEngine: empty prefill chunk");
    EDKM_CHECK(kv.layers() == config().layers &&
                   kv.groups() == config().heads &&
                   kv.headDim() == config().dim / config().heads,
               "InferenceEngine: KV cache geometry disagrees with the "
               "model");
    int64_t p0 = kv.position();
    EDKM_CHECK(p0 + c <= kv.capacity(), "InferenceEngine: chunk of ", c,
               " token(s) at position ", p0,
               " overflows the cache capacity ", kv.capacity());
    ensureDecodeRope(p0 + c);
    Tensor flat_tokens = tokens.isContiguous()
                             ? tokens.view({c})
                             : tokens.contiguous().view({c});
    Variable h = embed(flat_tokens);
    h = af::view(h, {1, c, config().dim});
    for (int64_t l = 0; l < config().layers; ++l) {
        h = blockChunk(l, h, kv);
    }
    h = rmsNorm(h, "final_norm.weight");
    h = af::view(h, {c, config().dim});
    Tensor logits = linearForward("lm_head", h).data();
    kv.advance(c);
    ++stats_.chunkPrefills;
    stats_.prefillTokens += c;
    return logits;
}

Variable
InferenceEngine::attentionStepBatch(int64_t layer, const Variable &x,
                                    const std::vector<KvCache *> &kvs)
{
    int64_t dim = config().dim, heads = config().heads;
    int64_t hd = dim / heads;
    int64_t bsz = static_cast<int64_t>(kvs.size());
    std::string p = "blocks." + std::to_string(layer) + ".attn.";

    // One [B, D] x [D, D] pass per projection serves every request:
    // row i is bit-identical to the [1, D] projection of request i
    // alone (ops::matmul / matmulStreamed row-shape invariance).
    Variable flat = af::view(x, {bsz, dim});
    Variable qf = linearForward(p + "wq", flat);
    Variable kf = linearForward(p + "wk", flat);
    Variable vf = linearForward(p + "wv", flat);

    // Attention core per request: each slot ropes at its own position
    // and attends over its own cache — literally the single-request
    // decode step's computation on its row of the batched projections.
    Tensor ctx = Tensor::empty({bsz, dim});
    float *pc = ctx.rawData<float>();
    for (int64_t i = 0; i < bsz; ++i) {
        int64_t pos = kvs[i]->position();
        Tensor cos_row = dec_cos_.slice(0, pos, pos + 1);
        Tensor sin_row = dec_sin_.slice(0, pos, pos + 1);
        // A contiguous [1, dim] row reinterprets as [heads, 1, hd] in
        // exactly the (h, hd)-major order splitHeads produces for one
        // position.
        Variable q = af::rope(
            af::constant(
                qf.data().slice(0, i, i + 1).view({heads, 1, hd})),
            cos_row, sin_row);
        Variable k = af::rope(
            af::constant(
                kf.data().slice(0, i, i + 1).view({heads, 1, hd})),
            cos_row, sin_row);
        kvs[i]->write(layer, k.data(),
                      vf.data().slice(0, i, i + 1).view({heads, 1, hd}));
        Tensor c_i = nn::attentionStep(q.data(), kvs[i]->k(layer),
                                       kvs[i]->v(layer), pos);
        std::memcpy(pc + i * dim, c_i.rawData<float>(),
                    static_cast<size_t>(dim) * sizeof(float));
    }
    Variable out = linearForward(p + "wo", af::constant(ctx));
    return af::view(out, {bsz, 1, dim});
}

Variable
InferenceEngine::blockStepBatch(int64_t layer, const Variable &x,
                                const std::vector<KvCache *> &kvs)
{
    int64_t bsz = static_cast<int64_t>(kvs.size());
    int64_t d = config().dim;
    std::string p = "blocks." + std::to_string(layer) + ".";
    Variable h = af::add(
        x, attentionStepBatch(layer, rmsNorm(x, p + "norm1.weight"),
                              kvs));
    Variable flat = af::view(rmsNorm(h, p + "norm2.weight"), {bsz, d});
    Variable gate = af::silu(linearForward(p + "mlp.w1", flat));
    Variable up = linearForward(p + "mlp.w3", flat);
    Variable m = linearForward(p + "mlp.w2", af::mul(gate, up));
    return af::add(h, af::view(m, {bsz, 1, d}));
}

Tensor
InferenceEngine::decodeStep(int64_t token, KvCache &kv)
{
    Tensor logits = decodeRows({token}, {&kv});
    ++stats_.decodeSteps;
    return logits;
}

Tensor
InferenceEngine::decodeStepBatch(const std::vector<int64_t> &tokens,
                                 const std::vector<KvCache *> &kvs)
{
    Tensor logits = decodeRows(tokens, kvs);
    ++stats_.batchedSteps;
    stats_.batchedTokens += static_cast<int64_t>(tokens.size());
    return logits;
}

Tensor
InferenceEngine::decodeRows(const std::vector<int64_t> &tokens,
                            const std::vector<KvCache *> &kvs)
{
    NoGradGuard ng;
    int64_t bsz = static_cast<int64_t>(tokens.size());
    EDKM_CHECK(bsz >= 1, "InferenceEngine: empty decode batch");
    EDKM_CHECK(kvs.size() == tokens.size(),
               "InferenceEngine: decode batch has ", tokens.size(),
               " token(s) but ", kvs.size(), " cache(s)");
    int64_t max_needed = 0;
    for (size_t i = 0; i < kvs.size(); ++i) {
        EDKM_CHECK(kvs[i] != nullptr,
                   "InferenceEngine: null KV cache in decode batch");
        EDKM_CHECK(kvs[i]->position() >= 1,
                   "InferenceEngine: a decode step needs a prefilled "
                   "cache");
        EDKM_CHECK(tokens[i] >= 0 && tokens[i] < config().vocab,
                   "InferenceEngine: token ", tokens[i],
                   " outside the vocab");
        for (size_t j = 0; j < i; ++j) {
            EDKM_CHECK(kvs[j] != kvs[i],
                       "InferenceEngine: the same KV cache appears "
                       "twice in one decode batch");
        }
        max_needed = std::max(max_needed, kvs[i]->position() + 1);
    }
    ensureDecodeRope(max_needed);
    Tensor tok = Tensor::fromIndices(tokens, {bsz});
    Variable h = af::view(embed(tok), {bsz, 1, config().dim});
    for (int64_t l = 0; l < config().layers; ++l) {
        h = blockStepBatch(l, h, kvs);
    }
    h = rmsNorm(h, "final_norm.weight");
    h = af::view(h, {bsz, config().dim});
    Tensor logits = linearForward("lm_head", h).data();
    for (KvCache *kv : kvs) {
        kv->advance(1);
    }
    return logits;
}

void
InferenceEngine::ensureDecodeRope(int64_t len)
{
    if (dec_rope_len_ >= len) {
        return;
    }
    // Rows are position-pure, so growing the table never changes an
    // existing row; grow geometrically to amortise rebuilds.
    dec_rope_len_ = std::max(len, 2 * dec_rope_len_);
    nn::buildRopeTables(dec_rope_len_, config().dim / config().heads,
                        dec_cos_, dec_sin_);
}

void
InferenceEngine::ensureKv(int64_t needed)
{
    EDKM_CHECK(config_.kvCapacity == 0 || needed <= config_.kvCapacity,
               "InferenceEngine: request needs ", needed,
               " KV positions, over the configured capacity ",
               config_.kvCapacity);
    int64_t cap =
        config_.kvCapacity > 0 ? config_.kvCapacity : needed;
    if (kv_ == nullptr || kv_->capacity() < cap) {
        kv_ = std::make_unique<KvCache>(config().layers, config().heads,
                                        config().dim / config().heads,
                                        cap);
    } else {
        kv_->reset();
    }
    stats_.kvCacheBytes = kv_->bytes();
}

namespace {

/**
 * Cooperative between-steps interruption point: cancellation first
 * (release() should win over a racing deadline), then the deadline.
 * Tokens already decoded are untouched, so an undisturbed rerun of the
 * same request reproduces them bit-identically up to the throw.
 */
void
throwIfInterrupted(const InferenceEngine::Request &request)
{
    if (request.cancel != nullptr && request.cancel->cancelled()) {
        throw Cancelled("InferenceEngine: request cancelled");
    }
    if (request.deadline !=
            std::chrono::steady_clock::time_point::max() &&
        request.expired(std::chrono::steady_clock::now())) {
        throw DeadlineExceeded(
            "InferenceEngine: request deadline exceeded");
    }
}

} // namespace

InferenceEngine::Response
InferenceEngine::generateCached(const Request &request)
{
    Response res;
    res.tokens = request.prompt;
    if (request.maxNewTokens == 0) {
        return res;
    }
    int64_t s = static_cast<int64_t>(request.prompt.size());
    // Positions cached: the prompt plus every generated token except
    // the last (which is never fed back).
    ensureKv(s + request.maxNewTokens - 1);
    Tensor prompt = Tensor::fromIndices(request.prompt, {1, s});
    Tensor logits = prefill(prompt, *kv_);
    Tensor last = logits.slice(0, logits.size(0) - 1, logits.size(0));
    int64_t next = argmaxLastDim(last).flatAtInt(0);
    res.tokens.push_back(next);
    for (int64_t step = 1; step < request.maxNewTokens; ++step) {
        throwIfInterrupted(request);
        next = argmaxLastDim(decodeStep(next, *kv_)).flatAtInt(0);
        res.tokens.push_back(next);
    }
    return res;
}

InferenceEngine::Response
InferenceEngine::generateRecompute(const Request &request)
{
    Response res;
    res.tokens = request.prompt;
    for (int64_t step = 0; step < request.maxNewTokens; ++step) {
        if (step > 0) {
            throwIfInterrupted(request);
        }
        Tensor tokens = Tensor::fromIndices(
            res.tokens, {1, static_cast<int64_t>(res.tokens.size())});
        Tensor logits = forward(tokens);
        Tensor last = logits.slice(0, logits.size(0) - 1,
                                   logits.size(0));
        res.tokens.push_back(argmaxLastDim(last).flatAtInt(0));
    }
    return res;
}

InferenceEngine::Response
InferenceEngine::generate(const Request &request)
{
    EDKM_CHECK(!request.prompt.empty(),
               "InferenceEngine: empty prompt in request");
    EDKM_CHECK(request.maxNewTokens >= 0,
               "InferenceEngine: negative maxNewTokens");
    throwIfInterrupted(request);
    return config_.kvCacheDecode ? generateCached(request)
                                 : generateRecompute(request);
}

std::vector<InferenceEngine::Response>
InferenceEngine::generate(const std::vector<Request> &batch)
{
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request &r : batch) {
        out.push_back(generate(r));
    }
    return out;
}

} // namespace serve
} // namespace edkm
