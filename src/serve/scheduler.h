/**
 * @file
 * Step-level continuous-batching scheduler over one InferenceEngine.
 *
 * Instead of running each request start-to-finish on its own engine
 * thread, the scheduler interleaves all in-flight requests at *step*
 * granularity:
 *
 *   step():
 *     1. prefill — requests still working through their prompt run
 *        prefillChunk() continuations, bounded per step by
 *        SchedulerConfig::prefillChunkTokens so a long prompt can
 *        never stall the decode latency of requests already decoding;
 *     2. decode — every decode-ready request contributes its next
 *        token to ONE batched [B, ...] forward
 *        (InferenceEngine::decodeStepBatch), so the weight matrices
 *        are read once per step instead of once per request.
 *
 * Admission happens between steps: the caller (one of serve::Server's
 * step loops, or the synchronous run() helper) admits new requests
 * whenever hasCapacity() — slots are capped at SchedulerConfig::maxBatch.
 * On admission, the shared PrefixCache is probed: a request whose
 * prompt head was banked by an earlier request restores those KV rows
 * and prefills only the divergent tail; completed prefills bank their
 * prompt head back into the cache (byte-budgeted LRU).
 *
 * Bit-identity contract (the gate tests/test_scheduler.cc enforces for
 * every codec): each request's response is bit-identical to serving it
 * alone through InferenceEngine::generate — for any batch size, any
 * admission order, any prefill chunking, and any prefix-cache state.
 * This holds because every per-request computation is position-pure:
 * batched linears are row-shape-invariant (ops::matmul contract), the
 * attention core runs per request over its own cache, and restored
 * prefix rows are exact copies of rows the engine itself produced.
 *
 * Failure policy: a request whose prefill throws fails alone; a throw
 * inside the shared batched decode forward fails every request in that
 * step's batch (their caches may be inconsistent mid-layer). Both
 * deliver the exception through the request's completion callback —
 * the step loop itself never wedges.
 *
 * Not thread-safe: one thread per scheduler; the Server runs K of them.
 */

#ifndef EDKM_SERVE_SCHEDULER_H_
#define EDKM_SERVE_SCHEDULER_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/prefix_cache.h"

namespace edkm {
namespace serve {

/** Scheduler knobs. */
struct SchedulerConfig
{
    /** Max requests decoding concurrently (slots per step). */
    int maxBatch = 8;

    /**
     * Per-step prefill token budget: at most this many prompt tokens
     * are prefilled between two decode steps, chunking long prompts so
     * in-flight decode latency stays bounded. 0 = unbounded (each
     * request's whole remaining prompt prefills in one chunk).
     */
    int64_t prefillChunkTokens = 0;

    /**
     * Byte budget of the shared prefix cache (banked prompt-head KV
     * rows, LRU-evicted). 0 disables prefix sharing.
     */
    int64_t prefixCacheBytes = 0;

    /**
     * Fixed per-request KV capacity in token positions; requests
     * needing more (prompt + new tokens - 1) fail at admission naming
     * it. 0 sizes each request's cache exactly.
     */
    int64_t kvCapacity = 0;
};

/** Per-request accounting, delivered with the completion callback. */
struct SchedulerRequestStats
{
    int64_t promptTokens = 0;
    int64_t newTokens = 0;
    int64_t prefillChunks = 0;       ///< prefill continuations run
    int64_t decodeSteps = 0;         ///< batched steps participated in
    int64_t reusedPrefixTokens = 0;  ///< positions restored, not prefilled
};

/**
 * Aggregate counters, exposed as JSON via statsJson(). Every admitted
 * request ends in exactly one bucket:
 *   admitted == completed + failed + deadlineEvicted + released.
 */
struct SchedulerStats
{
    int64_t admitted = 0;
    int64_t completed = 0;        ///< finished successfully
    int64_t failed = 0;           ///< validation / forward errors
    int64_t deadlineEvicted = 0;  ///< deadline passed (queued or in flight)
    int64_t released = 0;         ///< cancel token fired (release())
    int64_t steps = 0;            ///< batched decode forwards run
    int64_t decodedTokens = 0;
    int64_t prefillChunks = 0;
    int64_t prefillTokens = 0;    ///< tokens actually prefilled
    int64_t peakBatch = 0;
    /** batchHistogram[b] = decode steps run at batch size b
     *  (index 0 unused). */
    std::vector<int64_t> batchHistogram;
};

/**
 * One scheduler's counters at an instant — what statsJson() prints.
 * serve::Server keeps one per step loop and merges them into the one
 * "scheduler" block of its metrics.
 */
struct SchedulerSnapshot
{
    SchedulerStats stats;
    PrefixCacheStats prefix; ///< zeros when the cache is disabled
    bool prefixEnabled = false;
    int64_t active = 0; ///< requests in flight

    /** Fold @p other in: counters, batch histogram and prefix-cache
     *  counts add; peakBatch and the prefix generation take the max. */
    void merge(const SchedulerSnapshot &other);

    /** The counters as a JSON object string, the shape benches emit. */
    std::string json() const;
};

class BatchScheduler
{
  public:
    using Request = InferenceEngine::Request;
    using Response = InferenceEngine::Response;
    /** Completion callback: exactly one of response / error is
     *  meaningful (error == nullptr on success). */
    using DoneFn = std::function<void(Response &&, std::exception_ptr,
                                      const SchedulerRequestStats &)>;

    /** The engine must outlive the scheduler and is used exclusively
     *  by it (single-threaded step loop). */
    BatchScheduler(InferenceEngine &engine, SchedulerConfig config);

    const SchedulerConfig &config() const { return config_; }

    /** True while fewer than maxBatch requests are in flight. */
    bool hasCapacity() const;

    /** Any request still prefilling or decoding? */
    bool busy() const { return !slots_.empty(); }

    /** Requests currently in flight. */
    int64_t active() const
    {
        return static_cast<int64_t>(slots_.size());
    }

    /**
     * Take ownership of @p request; @p done fires exactly once, from
     * inside admit() (validation failure / zero-token request) or a
     * later step(). Requires hasCapacity().
     */
    void admit(Request request, DoneFn done);

    /**
     * One scheduler step: evict interrupted slots (cancel token fired
     * or deadline passed — their KvCache and batch row free right
     * here, before any forward, so surviving rows stay bit-identical
     * to an undisturbed run), then bounded prefill, then one batched
     * decode forward. No-op when idle.
     */
    void step();

    /**
     * Hot-swap support: retarget the step loop at @p next (which must
     * outlive the scheduler, like the constructor engine). Requires
     * !busy() — the server drains in-flight slots first. The prefix
     * cache advances its generation (same geometry) or is rebuilt
     * (geometry changed), so no banked KV row ever crosses artifacts;
     * aggregate counters carry across the swap.
     */
    void swapEngine(InferenceEngine &next);

    /**
     * Synchronous convenience for benches and tests: admit-as-capacity
     * -frees + step until every request completed; responses in request
     * order. Rethrows the first failed request's exception.
     */
    std::vector<Response> run(std::vector<Request> requests);

    const SchedulerStats &stats() const { return stats_; }

    /** Prefix-cache counters (zeros when disabled). */
    PrefixCacheStats prefixStats() const;

    /** All counters, prefix cache included. */
    SchedulerSnapshot snapshot() const;

    /** snapshot() as a JSON object string. */
    std::string statsJson() const { return snapshot().json(); }

  private:
    struct Slot
    {
        Request request;
        DoneFn done;
        std::vector<int64_t> tokens;   ///< prompt + generated so far
        int64_t prefilled = 0;         ///< prompt positions banked
        int64_t generated = 0;
        int64_t next = -1;             ///< last sampled, to feed back
        bool decoding = false;         ///< prompt fully prefilled
        std::unique_ptr<KvCache> kv;
        SchedulerRequestStats stats;
    };

    void finish(Slot &slot);
    void fail(Slot &slot, std::exception_ptr err);
    /** Complete cancelled / past-deadline slots between steps. */
    void evictInterrupted();
    /** Run prefill continuations under the per-step token budget. */
    void prefillPhase();
    /** One batched decode forward over every decode-ready slot. */
    void decodePhase();
    void reapFinished();

    InferenceEngine *engine_;
    SchedulerConfig config_;
    SchedulerStats stats_;
    std::unique_ptr<PrefixCache> prefix_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<std::unique_ptr<Slot>> finished_; ///< reaped after phases
};

} // namespace serve
} // namespace edkm

#endif // EDKM_SERVE_SCHEDULER_H_
