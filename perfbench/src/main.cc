/**
 * @file
 * edkm_perfbench: one benchmark command over the three workloads.
 *
 *   edkm_perfbench --workload serve_decode|serve_chat|train_step
 *                  --seed N --seconds S --trace 0|1
 *                  [--out DIR] [--git-sha SHA]
 *
 * Prints the result envelope (machine, build and workload parameters),
 * then, as its last line, one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics untraced, the
 * per-layer metrics traced. A traced run also writes a Chrome trace and
 * a per-span table under --out. Exits 1 when any output was wrong.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "workloads.h"

namespace perfbench {

double
overheadPct(const std::vector<double> &traced_ms,
            const std::vector<double> &untraced_ms)
{
    const double base = median(untraced_ms);
    return base > 0.0 ? 100.0 * (median(traced_ms) - base) / base : 0.0;
}

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, reported by every workload untraced. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"tokens_per_s", "1/s"},
    {"latency_ms_p50", "ms"},  {"latency_ms_p90", "ms"},
    {"step_ms_p50", "ms"},     {"peak_accel_mb", "MiB"},
    {"saved_mb", "MiB"},
};

/** The per-layer metrics, reported by every workload traced; a layer
 *  the workload does not exercise reads 0. */
const MetricSpec kPerLayer[] = {
    {"core.palettize.matmul_m1_us", "us"},
    {"core.palettize.m1_bytes_per_call", "bytes"},
    {"core.palettize.matmul_mB_us", "us"},
    {"core.palettize.matmul_m64_us", "us"},
    {"serve.engine.prefill_ms", "ms"},
    {"serve.engine.decode_step_ms", "ms"},
    {"serve.engine.fused_share", "ratio"},
    {"serve.engine.prefill_chunk_ms", "ms"},
    {"serve.engine.decode_batch_ms", "ms"},
    {"serve.scheduler.step_ms", "ms"},
    {"serve.scheduler.batch_mean", "requests"},
    {"serve.scheduler.steps", "count"},
    {"serve.prefix_cache.hit_ratio", "ratio"},
    {"serve.prefix_cache.reused_token_share", "ratio"},
    {"serve.server.queue_ms_p50", "ms"},
    {"serve.server.exec_ms_p50", "ms"},
    {"serve.kv_cache.bytes", "bytes"},
    {"serve.reader.open_ms", "ms"},
    {"serve.open_loop.latency_ms_p50", "ms"},
    {"serve.open_loop.latency_ms_p90", "ms"},
    {"nn.forward_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"nn.adamw.step_ms", "ms"},
    {"core.edkm.forward_ms", "ms"},
    {"core.uniquify.unique_ratio", "ratio"},
    {"core.edkm.saved_to_dense", "ratio"},
    {"marshal.pack_ms", "ms"},
    {"marshal.unpack_ms", "ms"},
    {"marshal.copies", "count"},
    {"marshal.dedup_ratio", "ratio"},
    {"marshal.bytes_copied", "bytes"},
    {"marshal.walk_steps", "count"},
    {"dist.allgathers", "count"},
    {"dist.allgather_bytes", "bytes"},
    {"device.d2h_bytes", "bytes"},
    {"loadgen.lag_ms_p90", "ms"},
    {"trace.overhead_pct", "%"},
};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "edkm_perfbench: " << why
              << "\nusage: edkm_perfbench --workload serve_decode|"
                 "serve_chat|train_step --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--git-sha SHA]\n";
    std::exit(2);
}

/** Order @p got as @p specs, filling absent per-layer metrics with 0;
 *  throws on a name or unit the spec table does not list. */
std::vector<Metric>
conform(const std::vector<Metric> &got, const MetricSpec *begin,
        const MetricSpec *end, bool fill_zero)
{
    std::vector<Metric> out;
    std::set<std::string> known;
    for (const MetricSpec *s = begin; s != end; ++s) {
        known.insert(s->name);
        const Metric *m = nullptr;
        for (const Metric &g : got) {
            if (g.name == s->name) {
                m = &g;
            }
        }
        if (m == nullptr && !fill_zero) {
            throw std::logic_error(std::string("metric not measured: ") +
                                   s->name);
        }
        if (m != nullptr && m->unit != s->unit) {
            throw std::logic_error("unit mismatch for " + m->name);
        }
        if (m != nullptr && !std::isfinite(m->value)) {
            throw std::logic_error("non-finite metric " + m->name);
        }
        out.push_back({s->name, m != nullptr ? m->value : 0.0, s->unit});
    }
    for (const Metric &g : got) {
        if (known.count(g.name) == 0) {
            throw std::logic_error("metric outside the table: " + g.name);
        }
    }
    return out;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    opt.outDir = ".bench_out";
    std::string git_sha = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + a);
        }
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stoi(v);
                have_seconds = true;
            } else if (a == "--trace") {
                if (v != "0" && v != "1") {
                    usage("--trace takes 0 or 1");
                }
                opt.trace = v == "1";
                have_trace = true;
            } else if (a == "--out") {
                opt.outDir = v;
            } else if (a == "--git-sha") {
                git_sha = v;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || opt.seconds < 1) {
        usage("--seed, --seconds (>= 1) and --trace are required");
    }
    Outcome (*run)(const Options &, Tracer &) = nullptr;
    if (opt.workload == "serve_decode") {
        run = runServeDecode;
    } else if (opt.workload == "serve_chat") {
        run = runServeChat;
    } else if (opt.workload == "train_step") {
        run = runTrainStep;
    } else {
        usage("unknown workload '" + opt.workload + "'");
    }

    Tracer tracer;
    Outcome outcome;
    std::vector<Metric> metrics;
    try {
        outcome = run(opt, tracer);
        metrics = opt.trace
                      ? conform(outcome.metrics, std::begin(kPerLayer),
                                std::end(kPerLayer), true)
                      : conform(outcome.metrics, std::begin(kEndToEnd),
                                std::end(kEndToEnd), false);
    } catch (const std::exception &e) {
        std::cerr << "edkm_perfbench: " << opt.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    JsonObject envelope;
    envelope.add("cpu", cpuModel())
        .add("nproc", static_cast<int64_t>(
                          std::thread::hardware_concurrency()))
        .add("simd_backend",
             edkm::kernels::backendName(edkm::kernels::active().backend))
        .add("runtime_threads",
             edkm::runtime::Runtime::instance().threadCount())
        .add("git_sha", git_sha)
        .add("workload", opt.workload)
        .add("seed", static_cast<int64_t>(opt.seed))
        .add("seconds", opt.seconds)
        .add("trace", opt.trace)
        .addRaw("params", outcome.params.str());
    std::string flags = "[";
    for (size_t i = 0; i < outcome.flags.size(); ++i) {
        flags += (i ? ", " : "") + jsonQuote(outcome.flags[i]);
        std::cout << "FLAG " << outcome.flags[i] << "\n";
    }
    envelope.addRaw("flags", flags + "]");

    JsonObject metric_json;
    for (const Metric &m : metrics) {
        metric_json.addRaw(m.name, JsonObject()
                                       .add("value", m.value)
                                       .add("unit", m.unit)
                                       .str());
    }
    JsonObject result;
    result.add("correct", outcome.correct)
        .add("attempted", outcome.attempted)
        .add("failed", outcome.failed)
        .addRaw("metrics", metric_json.str());

    const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-traced" : "");
    if (opt.trace) {
        tracer.writeFiles(stem);
        std::cout << tracer.tableText();
        std::cout << "trace written to " << stem << ".trace.json and "
                  << stem << ".spans.txt\n";
    }
    std::ofstream(stem + ".result.json")
        << JsonObject()
               .addRaw("envelope", envelope.str())
               .addRaw("result", result.str())
               .str()
        << "\n";
    std::cout << "envelope " << envelope.str() << "\n";
    std::cout << result.str() << std::endl;
    return outcome.correct ? 0 : 1;
}
