#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace edkm {
namespace serve {

namespace {

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Server::Server(std::shared_ptr<const ArtifactReader> reader,
               ServerConfig config)
    : config_(config), reader_(std::move(reader))
{
    EDKM_CHECK(reader_ != nullptr, "Server: null reader");
    // The loop shape: the only place `batched` is read.
    int loops = 1;
    SchedulerConfig sched = config_.scheduler;
    mode_ = "batched";
    if (!config_.batched) {
        EDKM_CHECK(config_.threads >= 1, "Server: need at least one "
                                         "thread, got ",
                   config_.threads);
        loops = config_.threads;
        sched = SchedulerConfig{};
        sched.maxBatch = 1;
        sched.kvCapacity = config_.engine.kvCapacity;
        mode_ = "threaded";
    }
    states_.resize(static_cast<size_t>(loops));
    for (int i = 0; i < loops; ++i) {
        Loop l;
        l.engine = std::make_unique<InferenceEngine>(reader_, config_.engine);
        l.scheduler = std::make_unique<BatchScheduler>(*l.engine, sched);
        states_[static_cast<size_t>(i)].stats = l.scheduler->snapshot();
        loops_.push_back(std::move(l));
    }
    // One worker per loop plus the constructing thread's lane; the
    // loops are long-lived jobs, so each holds its worker until the
    // destructor stops it.
    pool_ = std::make_unique<runtime::ThreadPool>(loops + 1);
    for (size_t i = 0; i < loops_.size(); ++i) {
        jobs_.push_back(pool_->submit([this, i] { loop(i); }));
    }
}

Server::~Server()
{
    // Drain: a loop exits only once the queue is empty and none of its
    // slots is in flight, so every submitted ticket completes (or was
    // cancelled by release()) before the members die.
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::future<void> &job : jobs_) {
        job.wait();
    }
}

void
Server::loop(size_t i) noexcept
{
    BatchScheduler &sched = *loops_[i].scheduler;
    util::MutexLock lock(mutex_);
    // states_ is sized once by the constructor: the reference is stable
    // and only used under mutex_.
    LoopState &me = states_[i];
    for (;;) {
        // Sleep only when idle: while a slot is in flight (or a swap
        // awaits this loop's cutover) the predicate stays true and the
        // loop keeps stepping without waiting. Spelled as an explicit
        // predicate loop so the guarded reads are checked under the
        // lock the analysis sees held.
        while (!(stop_ || !queue_.empty() || sched.busy() ||
                 me.gen < gen_)) {
            cv_.wait(mutex_);
        }
        if (stop_ && queue_.empty() && !sched.busy()) {
            break;
        }
        // Generation cutover: every slot of this loop has drained and
        // the queue head (if any) no longer belongs to its generation —
        // retarget the scheduler between steps. One generation per
        // pass; stacked swaps cut over one at a time. FIFO order means
        // nothing behind a newer head belongs to an older generation.
        if (me.gen < gen_ && !sched.busy()) {
            // Queued ids always have a record: release() of a queued
            // ticket erases both under one hold.
            bool head_blocks =
                !queue_.empty() &&
                records_.at(queue_.front())->generation == me.gen;
            if (!head_blocks) {
                auto pit = me.pending.begin();
                EDKM_CHECK(pit != me.pending.end(), "Server: loop ", i,
                           " cut over from generation ", me.gen,
                           " with no pending engine");
                int64_t g = pit->first;
                std::unique_ptr<InferenceEngine> next =
                    std::move(pit->second);
                me.pending.erase(pit);
                sched.swapEngine(*next);
                // The old engine dies here, dropping its pin on the
                // old mapping; not-yet-released old records hold the
                // only remaining pins.
                loops_[i].engine = std::move(next);
                me.gen = g;
                me.stats = sched.snapshot();
                cv_.notify_all(); // swap() waits on the loops' gen
                continue;
            }
        }
        while (!queue_.empty() && sched.hasCapacity()) {
            Record *raw = records_.at(queue_.front()).get();
            if (raw->generation != me.gen) {
                // Newer artifact: drain this loop's slots, cut over,
                // then admit.
                break;
            }
            queue_.pop_front();
            raw->queued = false;
            raw->stats.queueMillis = millisSince(raw->submitted);
            queue_wait_hist_.record(raw->stats.queueMillis);
            Request req = raw->request;
            // Admit unlocked: the completion callback (which may fire
            // synchronously on validation failure) takes mutex_. The
            // record outlives the callback because release() waits on
            // its future once `queued` is cleared.
            lock.unlock();
            auto t0 = std::chrono::steady_clock::now();
            sched.admit(
                std::move(req),
                [this, raw, i, t0](Response &&res, std::exception_ptr err,
                                   const SchedulerRequestStats &st) {
                    raw->stats.promptTokens = st.promptTokens;
                    raw->stats.newTokens = st.newTokens;
                    raw->stats.prefillChunks = st.prefillChunks;
                    raw->stats.decodeSteps = st.decodeSteps;
                    raw->stats.reusedPrefixTokens = st.reusedPrefixTokens;
                    raw->stats.engine = static_cast<int>(i);
                    raw->stats.millis = millisSince(t0);
                    if (err == nullptr) {
                        raw->response = std::move(res);
                    }
                    raw->reader.reset(); // drop the mapping pin
                    {
                        util::MutexLock inner(mutex_);
                        ++completed_;
                        e2e_hist_.record(millisSince(raw->submitted));
                    }
                    // Fulfil last: waiters read the fields above after
                    // get(), which synchronises with set_value.
                    if (err != nullptr) {
                        raw->promise.set_exception(err);
                    } else {
                        raw->promise.set_value();
                    }
                });
            lock.lock();
        }
        if (sched.busy()) {
            lock.unlock();
            sched.step();
            lock.lock();
        }
        // Publish the counters under the lock — the only place scheduler
        // state crosses to other threads (metricsJson()).
        me.stats = sched.snapshot();
    }
    // Unblock swap() calls racing the destructor: they check the loops'
    // generations and fail loudly instead of waiting forever.
    me.done = true;
    cv_.notify_all();
}

Server::RequestId
Server::submit(Request request)
{
    auto rec = std::make_unique<Record>();
    // Every ticket carries a live cancel token (creating one here if
    // the caller passed none), so release() can interrupt it in flight.
    if (request.cancel == nullptr) {
        request.cancel = std::make_shared<CancelToken>();
    }
    rec->cancel = request.cancel;
    rec->request = std::move(request);
    rec->submitted = std::chrono::steady_clock::now();
    // Wired up BEFORE the record is visible: wait()/release() must
    // always find a valid future.
    rec->done = rec->promise.get_future().share();
    RequestId id;
    {
        util::MutexLock lock(mutex_);
        id = next_id_++;
        rec->stats.id = id;
        rec->generation = gen_;
        rec->stats.generation = gen_;
        rec->reader = reader_;
        records_.emplace(id, std::move(rec));
        queue_.push_back(id);
        peak_queue_ =
            std::max(peak_queue_, static_cast<int64_t>(queue_.size()));
    }
    cv_.notify_all();
    return id;
}

std::vector<Server::RequestId>
Server::submit(std::vector<Request> batch)
{
    std::vector<RequestId> ids;
    ids.reserve(batch.size());
    for (Request &r : batch) {
        ids.push_back(submit(std::move(r)));
    }
    return ids;
}

std::shared_future<void>
Server::ticket(RequestId id) const
{
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: unknown request id ", id);
    return it->second->done;
}

Server::Response
Server::wait(RequestId id)
{
    // Copy the future out under the lock, block outside it, then
    // re-look the record up: a concurrent release() of the same ticket
    // erases the Record, and reading it unlocked after done.get()
    // would be a use-after-free.
    ticket(id).get(); // blocks; rethrows the request's exception
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: request ", id,
               " was released while being waited on");
    return it->second->response;
}

std::vector<Server::Response>
Server::wait(const std::vector<RequestId> &ids)
{
    std::vector<Response> out;
    out.reserve(ids.size());
    for (RequestId id : ids) {
        out.push_back(wait(id));
    }
    return out;
}

Server::RequestStats
Server::requestStats(RequestId id) const
{
    ticket(id).wait();
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: request ", id,
               " was released while its stats were being read");
    return it->second->stats;
}

void
Server::release(RequestId id)
{
    // Wait for the completion callback (which holds a raw pointer to
    // the record) outside the lock, erase under it. Releasing an
    // already-released ticket is a no-op, so concurrent reapers need no
    // coordination.
    std::shared_future<void> done;
    {
        util::MutexLock lock(mutex_);
        auto it = records_.find(id);
        if (it == records_.end()) {
            return;
        }
        // A ticket still waiting in the queue is cancelled right here —
        // no scheduler slot was ever taken, so no loop needs notice.
        // Concurrent wait()ers of the same ticket get the cancellation
        // exception.
        if (it->second->queued) {
            queue_.erase(std::find(queue_.begin(), queue_.end(), id));
            it->second->promise.set_exception(
                std::make_exception_ptr(Cancelled(
                    "Server: request " + std::to_string(id) +
                    " released before admission")));
            ++completed_;
            ++cancelled_;
            records_.erase(it);
            return;
        }
        // Admitted (or already completed — then the token fires into
        // the void): request cancellation, so an in-flight ticket is
        // evicted at its next between-steps check instead of running
        // to completion nobody will read.
        it->second->cancel->requestCancel();
        done = it->second->done;
    }
    cv_.notify_all(); // wake the loops to run the eviction
    done.wait();
    util::MutexLock lock(mutex_);
    records_.erase(id);
}

void
Server::release(const std::vector<RequestId> &ids)
{
    for (RequestId id : ids) {
        release(id);
    }
}

bool
Server::loopsSettled(int64_t target) const
{
    for (const LoopState &st : states_) {
        if (st.gen < target && !st.done) {
            return false;
        }
    }
    return true;
}

void
Server::swap(std::shared_ptr<const ArtifactReader> next)
{
    EDKM_CHECK(next != nullptr, "Server: swap to a null reader");
    // Probe-build every loop's next engine first: an artifact that
    // cannot back an engine (missing sections, bad geometry, failed
    // checksum under eager verify) fails the swap() call right here,
    // before any server state changes — and the cutover itself never
    // needs a throwing construction.
    std::vector<std::unique_ptr<InferenceEngine>> probes;
    for (size_t i = 0; i < loops_.size(); ++i) {
        probes.push_back(
            std::make_unique<InferenceEngine>(next, config_.engine));
    }
    util::MutexLock lock(mutex_);
    reader_ = next;
    int64_t target = ++gen_;
    for (size_t i = 0; i < probes.size(); ++i) {
        states_[i].pending.emplace(target, std::move(probes[i]));
    }
    cv_.notify_all();
    while (!loopsSettled(target)) {
        cv_.wait(mutex_);
    }
    for (const LoopState &st : states_) {
        EDKM_CHECK(st.gen >= target, "Server: a step loop stopped "
                                     "before the swap to generation ",
                   target, " cut over");
    }
}

int64_t
Server::generation() const
{
    util::MutexLock lock(mutex_);
    return gen_;
}

const EngineStats &
Server::engineStats(int i) const
{
    int count = static_cast<int>(loops_.size());
    EDKM_CHECK(i >= 0 && i < count, "Server: engine index ", i,
               " out of range [0,", count, ")");
    return loops_[static_cast<size_t>(i)].engine->stats();
}

int64_t
Server::completed() const
{
    util::MutexLock lock(mutex_);
    return completed_;
}

int64_t
Server::cancelled() const
{
    util::MutexLock lock(mutex_);
    return cancelled_;
}

std::string
Server::metricsJson() const
{
    int64_t depth, peak, cancelled, completed, generation;
    std::string queue_wait, e2e;
    SchedulerSnapshot sched;
    {
        // Snapshot everything under one hold — counters, histograms
        // and the scheduler block are mutually consistent.
        util::MutexLock lock(mutex_);
        depth = static_cast<int64_t>(queue_.size());
        peak = peak_queue_;
        cancelled = cancelled_;
        completed = completed_;
        generation = gen_;
        queue_wait = queue_wait_hist_.json();
        e2e = e2e_hist_.json();
        for (const LoopState &st : states_) {
            sched.merge(st.stats);
        }
    }
    std::ostringstream os;
    os << "{\"mode\": \"" << mode_ << "\", \"generation\": " << generation
       << ", \"completed\": " << completed
       << ", \"queue_depth\": " << depth
       << ", \"peak_queue_depth\": " << peak
       << ", \"cancelled\": " << cancelled
       << ", \"latency\": {\"queue_wait\": " << queue_wait
       << ", \"e2e\": " << e2e << "}"
       << ", \"scheduler\": " << sched.json() << "}";
    return os.str();
}

} // namespace serve
} // namespace edkm
