/**
 * @file
 * Zero-copy serving engine over a saved model artifact.
 *
 * InferenceEngine runs the MiniLlama transformer forward directly from
 * an ArtifactReader, without ever calling ModelArtifact::reconstruct:
 *
 *   - raw_f32 sections are consumed through borrowed tensor views of
 *     the file mapping (zero heap bytes);
 *   - palettized sections run through the streamed LUT+index matmul
 *     (paletteMatmulT) and palette row gather — the dense weight is
 *     never materialised;
 *   - dense_f16 / affine sections decode to dense f32 lazily on first
 *     touch, into an LRU cache bounded by a byte budget.
 *
 * The forward mirrors nn::MiniLlama's op sequence exactly (the same
 * tensor kernels in the same order under NoGrad), so logits are
 * bit-identical to forward on the eagerly reconstructed model — the
 * contract test_serve.cc enforces per codec.
 *
 * generate() decodes incrementally through a KvCache: the prompt runs
 * one prefill forward that banks every layer's rope'd keys and values,
 * then each new token costs a single-position decode step attending
 * over the cache — O(1) forwards per token instead of O(t). The cached
 * path produces logits bit-identical to the full-prefix forward (the
 * matmul layer's row-shape invariance plus exact exp-flush of masked
 * softmax columns; see nn::attentionStep), which test_serve.cc pins for
 * every codec.
 *
 * The engine is not thread-safe; give each serving thread its own
 * engine (they can share one ArtifactReader — see serve::Server).
 */

#ifndef EDKM_SERVE_ENGINE_H_
#define EDKM_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "core/palettize.h"
#include "nn/transformer.h"
#include "serve/kv_cache.h"
#include "serve/reader.h"
#include "tensor/tensor.h"

namespace edkm {
namespace serve {

/**
 * Cooperative cancellation flag shared between a caller and the
 * serving loops (the same shape as api::CancelToken, kept serve-local
 * so the serving layer does not pull in the compression headers).
 * Checked between decode steps, never mid-forward.
 */
class CancelToken
{
  public:
    void requestCancel() { cancelled_.store(true); }
    bool cancelled() const { return cancelled_.load(); }

  private:
    std::atomic<bool> cancelled_{false};
};

/** A request ran past its deadline (queued or mid-decode). */
class DeadlineExceeded : public FatalError
{
  public:
    explicit DeadlineExceeded(const std::string &msg) : FatalError(msg)
    {
    }
};

/** A request's cancel token fired (e.g. Server::release in flight). */
class Cancelled : public FatalError
{
  public:
    explicit Cancelled(const std::string &msg) : FatalError(msg) {}
};

/** Engine knobs. */
struct EngineConfig
{
    /**
     * Byte budget of the lazy decode cache (dense_f16 / affine
     * sections decoded to f32). The least-recently-used entry is
     * evicted first; a single weight larger than the budget still
     * loads (the cache never refuses the tensor being requested).
     */
    int64_t decodeCacheBytes = 64ll << 20;

    /**
     * Serve generate() through the KV cache: the prompt runs one
     * prefill forward, then every new token costs a single-position
     * decode step instead of a full-prefix recompute. Logits — and so
     * the sampled tokens — are bit-identical either way; turn this off
     * only to measure the O(t)-per-token baseline. Read by generate()
     * only: serve::Server's step loops always decode through the cache.
     */
    bool kvCacheDecode = true;

    /**
     * Fixed KV-cache capacity in token positions; requests needing
     * more (prompt + new tokens) throw a FatalError naming it.
     * 0 sizes the cache per request (and reuses a grown cache).
     */
    int64_t kvCapacity = 0;
};

/** Counters exposed for benches and tests. */
struct EngineStats
{
    int64_t decodes = 0;         ///< lazy dense decodes performed
    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    int64_t evictions = 0;
    int64_t cacheBytes = 0;      ///< dense f32 bytes currently cached
    int64_t streamedMatmuls = 0; ///< palettized LUT+index matmuls run
    int64_t fusedDecodes = 0;    ///< of those, m==1 fused-kernel decodes
    int64_t borrowedViews = 0;   ///< zero-copy sections in use
    int64_t prefills = 0;        ///< KV-cache prompt prefills run
    int64_t prefillTokens = 0;   ///< tokens cached by prefills
    int64_t decodeSteps = 0;     ///< single-position decode steps run
    int64_t kvCacheBytes = 0;    ///< K/V bytes of the live cache
    int64_t chunkPrefills = 0;   ///< prefillChunk calls run
    int64_t batchedSteps = 0;    ///< decodeStepBatch forwards run
    int64_t batchedTokens = 0;   ///< tokens decoded by batched steps
};

/** Batched request API over the artifact-backed forward. */
class InferenceEngine
{
  public:
    /**
     * Wire the engine to @p reader. Validates that every parameter the
     * manifest geometry requires has a payload section of the right
     * shape; throws FatalError naming the first missing/mismatched one.
     */
    explicit InferenceEngine(std::shared_ptr<const ArtifactReader> reader,
                             EngineConfig config = EngineConfig{});

    const nn::LlamaConfig &config() const { return reader_->config(); }
    const EngineConfig &engineConfig() const { return config_; }

    /**
     * @p tokens [B, S] integer tensor.
     * @return logits [B*S, vocab] — bit-identical to
     *         reconstruct().forward(tokens).
     */
    Tensor forward(const Tensor &tokens);

    /** One generation request (greedy decode). */
    struct Request
    {
        Request() = default;
        /** Deadline and cancel stay at their defaults (none): the
         *  {prompt, n} shape callers were built on keeps compiling
         *  without -Wmissing-field-initializers noise. */
        Request(std::vector<int64_t> prompt_tokens, int64_t max_new)
            : prompt(std::move(prompt_tokens)), maxNewTokens(max_new)
        {
        }

        std::vector<int64_t> prompt;
        int64_t maxNewTokens = 0;
        /**
         * Absolute completion deadline; time_point::max() (the
         * default) means none. Checked cooperatively between decode
         * steps — never mid-forward, so tokens already produced are
         * bit-identical to an undisturbed run — and surfaced as
         * DeadlineExceeded.
         */
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();
        /** Optional cancel token; firing it surfaces Cancelled at the
         *  next between-steps check. */
        std::shared_ptr<CancelToken> cancel;

        /** True once the deadline has passed (never for the default). */
        bool
        expired(std::chrono::steady_clock::time_point now) const
        {
            return deadline != std::chrono::steady_clock::time_point::max() &&
                   now > deadline;
        }
    };

    /** Completed request: prompt followed by the generated tokens. */
    struct Response
    {
        std::vector<int64_t> tokens;
    };

    /**
     * Greedy-decode one request. With EngineConfig::kvCacheDecode the
     * prompt is prefilled once and each new token costs one decode
     * step; otherwise every step recomputes the full prefix. Both
     * produce bit-identical tokens.
     */
    Response generate(const Request &request);

    /** Serve a batch of requests. */
    std::vector<Response> generate(const std::vector<Request> &batch);

    /**
     * Run @p tokens [1, S] through the forward once, writing each
     * layer's rope'd keys and raw values into @p kv (which must be
     * empty — position 0 — and shaped for this engine's geometry).
     * Returns the [S, vocab] logits, bit-identical to forward().
     */
    Tensor prefill(const Tensor &tokens, KvCache &kv);

    /**
     * Incremental decode of one token at position kv.position():
     * appends its K/V rows to @p kv and returns the [1, vocab] logits —
     * bit-identical to the last row of forward() over the whole prefix.
     * @p kv must hold at least one position (prefill first). It is the
     * one-row decodeStepBatch (the same forward), counted in
     * EngineStats::decodeSteps rather than batchedSteps.
     */
    Tensor decodeStep(int64_t token, KvCache &kv);

    /**
     * Prefill continuation: run the @p tokens [1, c] chunk through the
     * forward at positions [kv.position(), kv.position() + c), banking
     * each layer's rope'd keys / raw values into @p kv (whose rows
     * [0, position()) must hold the prefix — banked by earlier chunks
     * of this request, or copied in from a shared PrefixCache).
     * Returns the chunk's [c, vocab] logits.
     *
     * Bit-identity: row i equals row position() + i of forward() over
     * the whole prefix (see nn::attentionChunk). A single whole-prompt
     * chunk from an empty cache is therefore bit-identical to
     * prefill(); splitting the prompt into chunks of any sizes never
     * changes a banked row or a logit.
     */
    Tensor prefillChunk(const Tensor &tokens, KvCache &kv);

    /**
     * One batched decode step: token @p i of @p tokens advances the
     * request backed by @p kvs[i], all merged into a single [B, ...]
     * forward per layer. Appends each request's K/V rows to its own
     * cache and returns the [B, vocab] logits.
     *
     * Bit-identity: row i is bit-identical to
     * `decodeStep(tokens[i], *kvs[i])` — the linear/MLP/norm layers are
     * row-shape-invariant (ops::matmul contract) and the attention core
     * runs per request over its own cache, so batch composition,
     * ordering, and size never change a logit. Requests may sit at
     * different positions. The scheduler's step loop is built on this.
     */
    Tensor decodeStepBatch(const std::vector<int64_t> &tokens,
                           const std::vector<KvCache *> &kvs);

    /** The engine-owned KV cache of the last generate() (may be null;
     *  exposed for tests and benches). */
    const KvCache *kvCache() const { return kv_.get(); }

    const EngineStats &stats() const { return stats_; }

    /** Cached zero-copy palette view of a palettized section; its tiles
     *  are the reader's, shared by every engine on it. */
    const PaletteView &palette(const std::string &name);

    /** Heap bytes currently pinned by decoded weights (cache only —
     *  borrowed views cost no heap). */
    int64_t residentWeightBytes() const { return stats_.cacheBytes; }

  private:
    struct CacheSlot
    {
        Tensor tensor;
        int64_t bytes = 0;
        uint64_t lastUse = 0;
    };

    /** Dense f32 weight: borrowed view (raw_f32) or lazy LRU decode. */
    Tensor denseWeight(const std::string &name);

    Variable linearForward(const std::string &path, const Variable &x);
    Variable rmsNorm(const Variable &x, const std::string &name);
    Variable embed(const Tensor &flat_tokens);
    /** Project [B,S,D] @p x through @p proj and split into
     *  [B*heads, S, head_dim] — one definition for prefill and decode. */
    Variable splitHeads(const std::string &proj, const Variable &x,
                        int64_t b, int64_t s);
    Variable attentionForward(int64_t layer, const Variable &x,
                              KvCache *kv);
    Variable blockForward(int64_t layer, const Variable &x, KvCache *kv);
    Variable attentionChunkForward(int64_t layer, const Variable &x,
                                   KvCache &kv);
    Variable blockChunk(int64_t layer, const Variable &x, KvCache &kv);
    Variable attentionStepBatch(int64_t layer, const Variable &x,
                                const std::vector<KvCache *> &kvs);
    Variable blockStepBatch(int64_t layer, const Variable &x,
                            const std::vector<KvCache *> &kvs);
    /** decodeStep/decodeStepBatch's shared forward (no stats). */
    Tensor decodeRows(const std::vector<int64_t> &tokens,
                      const std::vector<KvCache *> &kvs);
    Tensor forwardImpl(const Tensor &tokens, KvCache *kv);
    Response generateCached(const Request &request);
    Response generateRecompute(const Request &request);
    void ensureKv(int64_t needed);
    void ensureSeqCaches(int64_t s);
    void ensureDecodeRope(int64_t len);
    void evictToBudget();

    std::shared_ptr<const ArtifactReader> reader_;
    EngineConfig config_;
    EngineStats stats_;

    std::unordered_map<std::string, Tensor> borrowed_;
    std::unordered_map<std::string, PaletteView> palettes_;
    std::unordered_map<std::string, CacheSlot> cache_;
    uint64_t use_clock_ = 0;

    // Per-sequence-length RoPE and causal-mask caches (same values
    // nn::MultiHeadAttention computes per layer).
    Tensor rope_cos_, rope_sin_, causal_mask_;
    int64_t cached_seq_ = -1;

    // Decode-path RoPE rows (no mask; grown geometrically) and the
    // engine-owned per-request KV cache generate() reuses.
    Tensor dec_cos_, dec_sin_;
    int64_t dec_rope_len_ = 0;
    std::unique_ptr<KvCache> kv_;
};

} // namespace serve

namespace api {
/** The serving surface is re-exported under api:: alongside Session. */
using InferenceEngine = serve::InferenceEngine;
} // namespace api

} // namespace edkm

#endif // EDKM_SERVE_ENGINE_H_
