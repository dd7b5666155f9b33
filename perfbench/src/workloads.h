/**
 * @file
 * The benchmark's workloads. Each drives the eDKM library from outside,
 * through its public API, and returns its metrics: the end-to-end set
 * when untraced, the per-layer set (spans and counters around its own
 * calls into each module) when traced.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string outDir; ///< scratch files, results and traces
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    JsonObject params;              ///< the workload's frozen parameters
    std::vector<std::string> flags; ///< conditions a reader must see
};

/** Closed-loop decode-heavy serving over the threaded Server. */
Outcome runServeDecode(const Options &opt, Tracer &tracer);

/** Open-loop shared-prefix serving over the batched Server. */
Outcome runServeChat(const Options &opt, Tracer &tracer);

/** Whole-model eDKM fine-tune steps on the simulated accelerator. */
Outcome runTrainStep(const Options &opt, Tracer &tracer);

/** A serve_chat / serve_decode request count floor: p90 needs 100. */
constexpr int64_t kMinRequests = 100;

/** Bytes per MiB, the unit of the memory metrics. */
constexpr double kMiB = 1024.0 * 1024.0;

/** Wall-time overhead of tracing, in percent of the untraced rounds. */
double overheadPct(const std::vector<double> &traced_ms,
                   const std::vector<double> &untraced_ms);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
