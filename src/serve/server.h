/**
 * @file
 * Multi-threaded request serving over one shared ArtifactReader.
 *
 * The Server runs every request through K step loops. Each loop owns an
 * InferenceEngine and a BatchScheduler and runs as a long-lived job on
 * the server's runtime::ThreadPool; all K engines are wired to the
 * *same* ArtifactReader, which is immutable after open() (an mmap'd
 * file plus parsed metadata), so sharing it across loops is free while
 * every engine keeps its own mutable state (LRU decode cache, stats)
 * private. Because the loops are pool workers, engine-internal
 * parallelFor runs inline in them (runtime::ThreadPool nested-call
 * rule): throughput scales by request-level parallelism.
 *
 * submit() appends the ticket to one shared FIFO queue. A loop admits
 * the queue head into a scheduler slot whenever it has one free, and
 * every in-flight request's next token rides its loop's batched
 * forward per step. ServerConfig picks only the loop shape:
 *   - threaded (the default): `threads` loops of maxBatch 1, with no
 *     prefill chunking and no prefix cache — one request per engine at
 *     a time;
 *   - batched: one loop with ServerConfig::scheduler as given.
 * release() of a ticket still waiting in the queue cancels it on the
 * spot (the wait() throws); the destructor drains the queue and every
 * in-flight slot before the loops stop.
 *
 * Either way the response depends only on the request and the artifact
 * — never on scheduling: every loop shape is bit-identical to serial
 * InferenceEngine::generate, which tests/test_server.cc enforces under
 * an 8-loop interleaving stress and in both shapes.
 *
 * *Hot model swap* (swap()): load artifact N+1 while N keeps serving.
 * Every ticket is stamped with the server generation current at
 * submit() and pins its own ArtifactReader, so a swap never drops or
 * re-targets a ticket: requests submitted before the swap complete
 * against artifact N, requests submitted after run against N+1, and
 * no request ever mixes weights from both. swap() probe-builds one
 * engine per loop up front; each loop drains its in-flight slots, then
 * cuts over to its new engine between its own steps
 * (BatchScheduler::swapEngine). The old mapping is released once the
 * last old-generation record completes (records drop their reader pin
 * at completion).
 *
 * *Deadlines and cancellation*: Request::deadline and Request::cancel
 * are checked at admission and between steps. Expiry / release() of an
 * in-flight ticket interrupts it at the next between-steps check (never
 * mid-forward — surviving requests stay bit-identical), and wait()
 * rethrows the typed DeadlineExceeded / Cancelled error.
 */

#ifndef EDKM_SERVE_SERVER_H_
#define EDKM_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "util/histogram.h"
#include "util/thread_annotations.h"

namespace edkm {
namespace serve {

/** Server knobs. */
struct ServerConfig
{
    /** Step loops (>= 1) when not batched, each with its own engine
     *  and one request in flight. Ignored when batched. */
    int threads = 2;
    /**
     * Per-engine configuration (decode-cache budget; kvCapacity caps
     * each request's KV cache in the threaded shape). kvCacheDecode is
     * not read: every loop decodes through per-request KV caches, which
     * gives the same output bits as the full-prefix recompute.
     */
    EngineConfig engine;
    /** Loop shape: one loop running `scheduler` instead of `threads`
     *  loops of maxBatch 1. */
    bool batched = false;
    /** Step-loop knobs (batch width, prefill chunking, prefix cache);
     *  only read when batched. */
    SchedulerConfig scheduler;
};

/** Concurrent request server over one shared artifact reader. */
class Server
{
  public:
    using Request = InferenceEngine::Request;
    using Response = InferenceEngine::Response;
    using RequestId = int64_t;

    /** Per-request accounting, available once the request completed. */
    struct RequestStats
    {
        RequestId id = 0;
        int engine = -1; ///< index of the step loop that served it
        int64_t generation = 0; ///< artifact generation served against
        int64_t promptTokens = 0;
        int64_t newTokens = 0;
        double millis = 0.0; ///< execution time (excluding queue wait)
        double queueMillis = 0.0; ///< submit-to-admission wait
        int64_t prefillChunks = 0;      ///< prefill continuations run
        int64_t decodeSteps = 0;        ///< loop steps decoded in
        int64_t reusedPrefixTokens = 0; ///< restored from the prefix cache
    };

    Server(std::shared_ptr<const ArtifactReader> reader,
           ServerConfig config = ServerConfig{});

    /** Blocks until every in-flight request has drained. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    int threads() const { return config_.threads; }
    const ServerConfig &config() const { return config_; }

    /** Enqueue one request; returns the ticket for wait(). */
    RequestId submit(Request request);

    /** Enqueue a batch; tickets are returned in request order. */
    std::vector<RequestId> submit(std::vector<Request> batch);

    /**
     * Block until request @p id completes and return its response.
     * Rethrows the request's exception if it failed. Callable more
     * than once per ticket.
     */
    Response wait(RequestId id);

    /** wait() for each ticket, in order. */
    std::vector<Response> wait(const std::vector<RequestId> &ids);

    /** Stats of a completed request (wait() it first). */
    RequestStats requestStats(RequestId id) const;

    /**
     * Forget request @p id: blocks until it completes, then frees its
     * record (response, stats, prompt). Completed requests are
     * otherwise retained so wait()/requestStats() stay answerable —
     * long-lived servers should release tickets they are done with, or
     * memory grows by one record per request served. Idempotent;
     * racing a release against a wait() of the same ticket makes the
     * wait throw (never read freed memory).
     */
    void release(RequestId id);

    /** release() each ticket. */
    void release(const std::vector<RequestId> &ids);

    /**
     * Hot-swap the served artifact: tickets submitted after swap()
     * returns run against @p next, tickets already submitted complete
     * against the artifact they were stamped with at submit() — none
     * are dropped, none mix generations (the prefix cache flushes at
     * the generation boundary). Blocks until every step loop has
     * drained its old-generation slots and cut over to its new engine.
     * Concurrent submit()/wait()/release() are safe throughout. Throws
     * (and leaves the server untouched) if @p next cannot back an
     * engine.
     */
    void swap(std::shared_ptr<const ArtifactReader> next);

    /** Artifact generation new submissions are stamped with (starts at
     *  0, +1 per swap()). */
    int64_t generation() const;

    /**
     * Stats of step loop @p i's engine, i in [0, K) (K = threads, or 1
     * batched). Only meaningful while no request is in flight (engines
     * are otherwise mutating their own counters); a swap() starts the
     * counters afresh with the new engine.
     */
    const EngineStats &engineStats(int i) const;

    /** Requests completed (successfully or not) so far, including
     *  queued tickets cancelled by release(). */
    int64_t completed() const;

    /** Queued tickets cancelled by release() before admission. */
    int64_t cancelled() const;

    /**
     * Serving metrics as a JSON object string: queue depth / peak /
     * cancellations, latency histograms, plus the scheduler counters —
     * step batch-size histogram, per-phase token counts and the prefix
     * cache's hit/miss/eviction accounting — merged over the K loops
     * (counts add, peak_batch is the max). Each loop publishes its
     * snapshot after each of its steps, so the block is exact as of
     * every loop's most recent step (and fully exact once idle).
     */
    std::string metricsJson() const;

  private:
    struct Record
    {
        Request request;
        Response response;
        RequestStats stats;
        /** Fulfilled by the scheduler's completion callback, or by
         *  release() for a ticket cancelled while queued. */
        std::promise<void> promise;
        std::shared_future<void> done;
        bool queued = true; ///< still awaiting admission
        /** Server generation at submit(): the artifact this ticket is
         *  served against, swap or no swap. */
        int64_t generation = 0;
        /** Pins the ticket's artifact mapping until completion (reset
         *  then, so a swapped-out mapping can unmap). */
        std::shared_ptr<const ArtifactReader> reader;
        /** Always non-null once submitted (created here if the caller
         *  passed none): release() of an admitted ticket fires it. */
        std::shared_ptr<CancelToken> cancel;
        std::chrono::steady_clock::time_point submitted;
    };

    /** One step loop's engine and scheduler: built by the constructor,
     *  then touched only by the loop's own job. */
    struct Loop
    {
        std::unique_ptr<InferenceEngine> engine;
        std::unique_ptr<BatchScheduler> scheduler;
    };

    /** What other threads read from or hand to a loop (under mutex_). */
    struct LoopState
    {
        int64_t gen = 0;   ///< generation the loop is serving
        bool done = false; ///< loop exited (unblocks waiting swaps)
        /** Engines probe-built by swap(), installed by the loop at its
         *  generation cutover (keyed by target generation). */
        std::map<int64_t, std::unique_ptr<InferenceEngine>> pending;
        /** Scheduler counters, published after each step. */
        SchedulerSnapshot stats;
    };

    /** Step loop @p i (a pool job): admit, step, cut over, until
     *  stopped and drained. */
    void loop(size_t i) noexcept EDKM_EXCLUDES(mutex_);
    /** Every loop has cut over to @p target or exited. */
    bool loopsSettled(int64_t target) const EDKM_REQUIRES(mutex_);
    /** Completion future of @p id (copied out under the lock; safe to
     *  block on while release() erases the record). */
    std::shared_future<void> ticket(RequestId id) const
        EDKM_EXCLUDES(mutex_);

    ServerConfig config_;
    const char *mode_ = ""; ///< "threaded" / "batched", for metrics
    /** NOT guarded by mutex_ on purpose: each index is owned by its
     *  loop's job (the engine is replaced only at that loop's own
     *  cutover). engineStats() reads are documented as only
     *  meaningful while idle. */
    std::vector<Loop> loops_;

    mutable util::Mutex mutex_;
    /** Artifact new submissions pin (swap() repoints it). */
    std::shared_ptr<const ArtifactReader> reader_ EDKM_GUARDED_BY(mutex_);
    std::unordered_map<RequestId, std::unique_ptr<Record>> records_
        EDKM_GUARDED_BY(mutex_);
    /** Submitted, not yet admitted (FIFO, shared by every loop). */
    std::deque<RequestId> queue_ EDKM_GUARDED_BY(mutex_);
    std::vector<LoopState> states_ EDKM_GUARDED_BY(mutex_); ///< per loop
    util::CondVar cv_; ///< wakes the loops and swaps: submit/swap/stop
    bool stop_ EDKM_GUARDED_BY(mutex_) = false;
    RequestId next_id_ EDKM_GUARDED_BY(mutex_) = 1;
    /** Generation new submissions are stamped with. */
    int64_t gen_ EDKM_GUARDED_BY(mutex_) = 0;
    int64_t completed_ EDKM_GUARDED_BY(mutex_) = 0;
    int64_t cancelled_ EDKM_GUARDED_BY(mutex_) = 0;
    int64_t peak_queue_ EDKM_GUARDED_BY(mutex_) = 0;
    /** Submit-to-admission and submit-to-completion latencies (ms). */
    LatencyHistogram queue_wait_hist_ EDKM_GUARDED_BY(mutex_);
    LatencyHistogram e2e_hist_ EDKM_GUARDED_BY(mutex_);

    std::vector<std::future<void>> jobs_; ///< the loop jobs
    /** One worker per loop; declared last, so it is destroyed (its
     *  idle workers joined) before the members the loops touch. The
     *  destructor body stops and awaits the loop jobs first. */
    std::unique_ptr<runtime::ThreadPool> pool_;
};

} // namespace serve

namespace api {
/** Re-exported beside InferenceEngine as the api:: serving surface. */
using Server = serve::Server;
} // namespace api

} // namespace edkm

#endif // EDKM_SERVE_SERVER_H_
