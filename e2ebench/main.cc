/**
 * @file
 * qra_e2e: the end-to-end assertion-job benchmark.
 *
 *   qra_e2e --workload NAME --seed N --seconds S --trace 0|1
 *           [--trace-out FILE]
 *
 * Builds the program side (models, engine, job queue) and warms it up
 * several times, reporting the median as setup_s; then C closed-loop
 * clients each parse a generated OpenQASM program, submit it to the
 * JobQueue, wait for the Result, decode the assertion report and
 * check it, for S seconds. With --trace 0 it prints the end-to-end
 * metrics; with --trace 1 it runs S/2 untraced and S/2 traced, splits
 * the traced jobs' wall time over layers, probes single public calls,
 * and prints the per-layer metrics. The last stdout line is always
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Exit status: 0 = every check passed, 1 = a check failed, 2 = usage
 * error, 3 = not a Release build.
 */

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "layers.hh"
#include "qra.hh"
#include "workloads.hh"

using namespace qra;
using namespace e2e;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Jobs per loop kept (lowest indices) for final checks and probes. */
constexpr std::size_t kKeep = 48;
/** Input indices of the traced loop start here (fresh inputs). */
constexpr std::size_t kTracedBase = 1000000;
/** Equal windows a loop is cut into for the throughput medians. */
constexpr int kWindows = 10;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "qra_e2e: %s\nusage: qra_e2e --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || o.seconds <= 0.0 ||
        !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

std::size_t
engineThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/** Host/build fingerprint, as a JSON object. */
std::string
fingerprint(std::size_t threads)
{
    Json j;
    j.open()
        .key("nproc")
        .integer(std::thread::hardware_concurrency())
        .key("engine_threads")
        .integer(static_cast<long long>(threads))
        .key("simd_detected")
        .str(kernels::simd::tierName(kernels::simd::detectedTier()))
        .key("simd_active")
        .str(kernels::simd::tierName(kernels::simd::currentTier()))
        .key("compiler")
        .str(QRA_E2E_COMPILER)
        .key("build_type")
        .str(QRA_E2E_BUILD_TYPE)
        .close();
    return j.text();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** One finished (or failed) job as the client saw it. */
struct JobRecord
{
    std::size_t index = 0;
    bool failed = false;
    std::string why;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double latencyMs = 0.0;
    double parseUs = 0.0;
    double submitUs = 0.0;
    double decodeUs = 0.0;
    double prepareUs = 0.0;
    std::size_t shots = 0;
    std::size_t waves = 0;
};

/** What one closed-loop phase produced. */
struct LoopResult
{
    std::vector<JobRecord> jobs;
    std::map<std::size_t, KeptJob> kept;
    std::int64_t startNs = 0;
    /** The closed loop's length (clients stop starting jobs then). */
    double seconds = 0.0;
    /** Until the last job finished. */
    double wallS = 0.0;
    std::size_t prepareHits = 0, prepareMisses = 0;
    std::size_t planHits = 0, planMisses = 0;

    std::size_t failed() const
    {
        std::size_t n = 0;
        for (const JobRecord &r : jobs)
            n += r.failed ? 1 : 0;
        return n;
    }

    std::vector<double> okValues(double JobRecord::*field) const
    {
        std::vector<double> v;
        for (const JobRecord &r : jobs)
            if (!r.failed)
                v.push_back(r.*field);
        return v;
    }

    std::vector<const KeptJob *> keptJobs() const
    {
        std::vector<const KeptJob *> v;
        for (const auto &[index, job] : kept)
            v.push_back(&job);
        return v;
    }
};

/** The program side of one run: models, engine, job queue. */
class Harness
{
  public:
    Harness(const Workload &wl, std::size_t threads,
            runtime::BackendRegistry *registry)
        : wl_(wl), models_(wl.buildModels()),
          engine_(wl.engineOptions(threads), registry), queue_(engine_),
          backend_(engine_.registry().create(wl.backend()))
    {
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Run the workload's fixed warm-up jobs; throws on failure. */
    void warmUp()
    {
        for (const JobInput &in : wl_.warmups()) {
            const JobRecord r = runJob(in, nullptr, nullptr);
            if (r.failed)
                throw std::runtime_error("warm-up job failed: " + r.why);
        }
    }

    /**
     * Closed loop: clients() clients each run one job at a time until
     * @p seconds have passed; inputs are taken in index order from
     * @p first_index. Spans go to @p recorder when it is non-null.
     */
    LoopResult loop(double seconds, SpanRecorder *recorder,
                    std::size_t first_index)
    {
        LoopResult out;
        const std::size_t hits0 = queue_.cacheHits();
        const std::size_t misses0 = queue_.cacheMisses();
        const std::size_t plan_hits0 = queue_.samplingCacheHits();
        const std::size_t plan_misses0 = queue_.samplingCacheMisses();

        std::atomic<std::size_t> next{first_index};
        std::mutex mutex; // guards out.jobs and out.kept
        const auto start = Clock::now();
        out.startNs = nowNs();
        out.seconds = seconds;
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        auto client = [&] {
            std::vector<JobRecord> mine;
            while (Clock::now() < deadline) {
                const std::size_t i = next.fetch_add(1);
                const JobInput in = wl_.input(i);
                const bool keep = i < first_index + kKeep;
                KeptJob kept;
                mine.push_back(
                    runJob(in, recorder, keep ? &kept : nullptr));
                if (keep && !mine.back().failed) {
                    std::lock_guard<std::mutex> lock(mutex);
                    out.kept.emplace(i, std::move(kept));
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            out.jobs.insert(out.jobs.end(), mine.begin(), mine.end());
        };
        {
            // jthreads join on every path, exceptions included.
            std::vector<std::jthread> clients;
            for (std::size_t c = 0; c < wl_.clients(); ++c)
                clients.emplace_back(client);
        }
        out.wallS =
            std::chrono::duration<double>(Clock::now() - start).count();

        out.prepareHits = queue_.cacheHits() - hits0;
        out.prepareMisses = queue_.cacheMisses() - misses0;
        out.planHits = queue_.samplingCacheHits() - plan_hits0;
        out.planMisses = queue_.samplingCacheMisses() - plan_misses0;
        return out;
    }

    const Models &models() const { return models_; }
    runtime::ExecutionEngine &engine() { return engine_; }
    runtime::JobQueue &queue() { return queue_; }

  private:
    /** One job, from QASM text to a checked assertion report. */
    JobRecord runJob(const JobInput &in, SpanRecorder *recorder,
                     KeptJob *keep)
    {
        JobRecord r;
        r.index = in.index;
        try {
            const std::int64_t t0 = nowNs();
            AnnotatedProgram program = parseAnnotatedQasm(in.qasm);
            const std::int64_t t1 = nowNs();
            runtime::JobSpec spec =
                wl_.spec(std::move(program), in, models_);
            const auto job_id = static_cast<std::uint32_t>(in.index + 1);
            std::uint32_t root = 0;
            if (recorder != nullptr) {
                root = recorder->reserve(7);
                const std::size_t budget = spec.stopping.maxShots != 0
                                               ? spec.stopping.maxShots
                                               : spec.shots;
                recorder->expectShards(
                    engine_.shardPlan(budget, spec.seed, *backend_),
                    job_id, root);
            }
            const std::int64_t t2 = nowNs();
            std::future<Result> future = queue_.submit(spec);
            const std::int64_t t3 = nowNs();
            Result result = future.get();
            const std::int64_t t4 = nowNs();
            const auto inst = queue_.instrumented(spec);
            const std::int64_t t5 = nowNs();
            const AssertionReport report = analyze(*inst, result);
            const std::int64_t t6 = nowNs();

            const ExecStats &stats = result.execStats();
            r.startNs = t0;
            r.endNs = t6;
            r.latencyMs = static_cast<double>(t6 - t0) / 1e6;
            r.parseUs = static_cast<double>(t1 - t0) / 1e3;
            r.submitUs = static_cast<double>(t3 - t2) / 1e3;
            r.decodeUs = static_cast<double>(t6 - t5) / 1e3;
            r.prepareUs = stats.prepareSeconds * 1e6;
            r.shots = result.shots();
            r.waves = stats.waves;
            if (recorder != nullptr) {
                const auto prep_end =
                    t2 + static_cast<std::int64_t>(stats.prepareSeconds *
                                                   1e9);
                const std::uint32_t submit = root + 2;
                recorder->add({
                    {root, 0, job_id, "job", t0, t6},
                    {root + 1, root, job_id, "circuit.parse", t0, t1},
                    {submit, root, job_id, "runtime.submit", t2, t3},
                    {root + 3, submit, job_id, "compile.prepare", t2,
                     std::min(prep_end, t3)},
                    {root + 4, root, job_id, "runtime.wait", t3, t4},
                    {root + 5, root, job_id, "runtime.instrumented", t4,
                     t5},
                    {root + 6, root, job_id, "assertions.decode", t5, t6},
                });
            }
            r.why = wl_.check(in, result, *inst, report);
            r.failed = !r.why.empty();
            if (keep != nullptr) {
                keep->input = in;
                keep->spec = std::move(spec);
                keep->result = std::move(result);
                keep->latencyMs = r.latencyMs;
            }
        } catch (const std::exception &e) {
            r.failed = true;
            r.why = e.what();
        }
        return r;
    }

    const Workload &wl_;
    Models models_;
    runtime::ExecutionEngine engine_;
    runtime::JobQueue queue_;
    runtime::BackendPtr backend_;
};

/** Build, warm up and time the harness kSetupReps times. */
std::unique_ptr<Harness>
setUp(const Workload &wl, std::size_t threads,
      runtime::BackendRegistry *registry, std::vector<double> *times)
{
    std::unique_ptr<Harness> harness;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        harness.reset();
        const std::int64_t t0 = nowNs();
        harness = std::make_unique<Harness>(wl, threads, registry);
        harness->warmUp();
        times->push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return harness;
}

/** Mean two-qubit gate count of the compiled circuits of @p loop. */
double
twoQubitGatesPerJob(const Workload &wl, const Models &models,
                    const LoopResult &loop)
{
    std::map<std::string, std::size_t> memo;
    std::vector<double> counts;
    for (const JobRecord &r : loop.jobs) {
        if (r.failed)
            continue;
        const JobInput in = wl.input(r.index);
        auto it = memo.find(in.qasm);
        if (it == memo.end()) {
            runtime::JobSpec spec =
                wl.spec(parseAnnotatedQasm(in.qasm), in, models);
            const compile::CompileContext ctx =
                compile::prepare(spec.circuit, runtime::prepareSpec(spec));
            it = memo.emplace(in.qasm, twoQubitGates(ctx.circuit)).first;
        }
        counts.push_back(static_cast<double>(it->second));
    }
    return mean(counts);
}

/** A named metric with its unit, in output order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    Json j;
    j.open();
    for (const Metric &m : metrics)
        j.key(m.name).open().key("value").num(m.value).key("unit").str(
            m.unit).close();
    j.close();
    return j.text();
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

double
ratio(std::size_t a, std::size_t b)
{
    return a + b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(a + b);
}

/**
 * Throughput as the median over kWindows equal windows of the closed
 * loop of jobs (and shots) completed per second, each job counted in
 * proportion to the part of its run inside the window. Medians keep a
 * short stall of the host from moving the figure.
 */
struct Rates
{
    double jobsPerS = 0.0;
    double shotsPerS = 0.0;
    /** Jobs per second in each window, in time order. */
    std::vector<double> windows;
};

Rates
windowedRates(const LoopResult &loop)
{
    const double width = loop.seconds * 1e9 / kWindows;
    std::vector<double> jobs(kWindows, 0.0), shots(kWindows, 0.0);
    for (const JobRecord &r : loop.jobs) {
        if (r.failed || r.endNs <= r.startNs)
            continue;
        const double a = static_cast<double>(r.startNs - loop.startNs);
        const double b = static_cast<double>(r.endNs - loop.startNs);
        for (int w = 0; w < kWindows; ++w) {
            const double lo = std::max(a, w * width);
            const double hi = std::min(b, (w + 1) * width);
            if (hi <= lo)
                continue;
            const double part = (hi - lo) / (b - a);
            jobs[w] += part;
            shots[w] += part * static_cast<double>(r.shots);
        }
    }
    const double per_s = 1e9 / width;
    Rates rates;
    rates.jobsPerS = median(jobs) * per_s;
    rates.shotsPerS = median(shots) * per_s;
    for (double j : jobs)
        rates.windows.push_back(j * per_s);
    return rates;
}

/** The end-to-end metrics of one untraced loop (BENCHMARK.json). */
std::vector<Metric>
endToEnd(const Workload &wl, const Models &models, const LoopResult &loop,
         double setup_s)
{
    const std::vector<double> lat = loop.okValues(&JobRecord::latencyMs);
    double shots = 0.0;
    for (const JobRecord &r : loop.jobs)
        shots += r.failed ? 0.0 : static_cast<double>(r.shots);
    const double ok = static_cast<double>(lat.size());
    const Rates rates = windowedRates(loop);
    return {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", rates.jobsPerS, "1/s"},
        {"shots_per_s", rates.shotsPerS, "1/s"},
        {"latency_p50_ms", median(lat), "ms"},
        {"shots_to_verdict", ok > 0 ? shots / ok : 0.0, "count"},
        {"twoq_gates_per_job", twoQubitGatesPerJob(wl, models, loop),
         "count"},
    };
}

/**
 * End-to-end figures printed but not gated: the latency tail and peak
 * memory grow with stalls of the host and with jobs completed (the
 * prepare cache keeps every distinct circuit), so they are too noisy,
 * or too coupled to throughput, to bound.
 */
std::vector<Metric>
reportedOnly(const LoopResult &loop, double rss_mb)
{
    const std::vector<double> lat = loop.okValues(&JobRecord::latencyMs);
    const double level = tailLevel(lat.size());
    const double error_frac =
        loop.jobs.empty() ? 1.0
                          : static_cast<double>(loop.failed()) /
                                static_cast<double>(loop.jobs.size());
    // Fewer than 20 jobs leave no tail percentile: report the maximum.
    char name[32];
    std::snprintf(name, sizeof name, "latency_p%g_ms", level * 100.0);
    const bool tail = level > 0.5;
    return {
        {tail ? name : "latency_max_ms", quantile(lat, tail ? level : 1.0),
         "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"error_frac", error_frac, "ratio"},
        {"jobs_total", static_cast<double>(loop.jobs.size()), "count"},
        {"jobs_per_s_overall", static_cast<double>(lat.size()) / loop.wallS,
         "1/s"},
    };
}

void
printFailures(const LoopResult &loop)
{
    std::size_t shown = 0;
    for (const JobRecord &r : loop.jobs)
        if (r.failed && shown++ < 5)
            std::printf("  FAILED job %zu: %s\n", r.index, r.why.c_str());
}

/** Jobs attempted and failed across a run's loops and checks. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/**
 * The traced half of a --trace 1 run: a second harness whose backends
 * record shard spans, a closed loop that records client spans, the
 * per-layer split, the isolation probes, and the per-layer metrics.
 */
std::vector<Metric>
tracedRun(const Options &opt, const Workload &wl, std::size_t threads,
          Harness &harness, const LoopResult &untraced,
          const std::string &host, Tally *tally)
{
    SpanRecorder recorder;
    const auto registry = tracedRegistry(recorder);
    Harness traced_harness(wl, threads, registry.get());
    traced_harness.warmUp();
    recorder.clear();
    const LoopResult traced =
        traced_harness.loop(opt.seconds / 2, &recorder,
                            kTracedBase);
    tally->attempted += traced.jobs.size();
    tally->failed += traced.failed();
    printFailures(traced);

    const std::vector<Span> spans = recorder.spans();
    const Attribution attr = attribute(spans);
    const double traced_jps = windowedRates(traced).jobsPerS;
    const double untraced_jps = windowedRates(untraced).jobsPerS;
    const bool warm_cache =
        ratio(traced.planHits, traced.planMisses) >= 0.5;
    const ProbeReport probes = probe(
        {&wl, &harness.models(), &harness.engine(),
         warm_cache ? harness.queue().artifactCache() : nullptr},
        traced.keptJobs(), std::max(2.0, opt.seconds / 4));

    double waves = 0.0;
    for (const JobRecord &r : traced.jobs)
        waves += static_cast<double>(r.waves);
    const auto &pm = probes.metrics;
    std::vector<Metric> layers = {
        {"circuit.parse_us",
         median(traced.okValues(&JobRecord::parseUs)), "us"},
        {"compile.analyze_us", pm.at("compile.analyze_us"), "us"},
        {"compile.inject_us", pm.at("compile.inject_us"), "us"},
        {"compile.decompose_us", pm.at("compile.decompose_us"),
         "us"},
        {"compile.layout_us", pm.at("compile.layout_us"), "us"},
        {"compile.route_us", pm.at("compile.route_us"), "us"},
        {"compile.direction-fix_us",
         pm.at("compile.direction-fix_us"), "us"},
        {"compile.optimize_us", pm.at("compile.optimize_us"), "us"},
        {"compile.swaps_inserted", pm.at("compile.swaps_inserted"),
         "count"},
        {"runtime.submit_us",
         median(traced.okValues(&JobRecord::submitUs)), "us"},
        {"runtime.wait_ms", pm.at("runtime.wait_ms"), "ms"},
        {"runtime.prepare_hit_ratio",
         ratio(traced.prepareHits, traced.prepareMisses), "ratio"},
        {"runtime.plan_cache_hit_ratio",
         ratio(traced.planHits, traced.planMisses), "ratio"},
        {"runtime.stopping_eval_us",
         pm.at("runtime.stopping_eval_us"), "us"},
        {"runtime.waves_per_job",
         traced.jobs.empty()
             ? 0.0
             : waves / static_cast<double>(traced.jobs.size()),
         "count"},
        {"sim.lower_us", pm.at("sim.lower_us"), "us"},
        {"sim.backend_ms", pm.at("sim.backend_ms"), "ms"},
        {"sim.shard_ms",
         attr.jobs == 0 ? 0.0
                        : attr.shardBusyMs /
                              static_cast<double>(attr.jobs),
         "ms"},
        {"sim.per_shot_frac", pm.at("sim.per_shot_frac"), "ratio"},
        {"assertions.decode_us",
         median(traced.okValues(&JobRecord::decodeUs)), "us"},
    };
    for (const LayerRow &row : attr.rows)
        layers.push_back(
            {"share." + row.layer, row.share, "ratio"});
    layers.push_back({"trace.overhead_frac",
                      untraced_jps / traced_jps - 1.0, "ratio"});

    std::printf("per-layer split of traced job wall time (base: "
                "%zu jobs, %.3f ms summed wall time):\n",
                attr.jobs, attr.baseMs);
    std::printf("  %-14s %12s %8s %8s\n", "layer", "self_ms",
                "share", "spans");
    for (const LayerRow &row : attr.rows)
        std::printf("  %-14s %12.3f %7.2f%% %8zu\n",
                    row.layer.c_str(), row.selfMs,
                    row.share * 100.0, row.calls);
    std::printf("  shard busy time %.3f ms over %zu shards "
                "(%zu unclaimed); traced %.3f jobs/s vs "
                "untraced %.3f jobs/s\n",
                attr.shardBusyMs, attr.shards,
                recorder.orphanShards(), traced_jps, untraced_jps);
    std::printf("  in-situ compile (ExecStats prepare) %.3f us per "
                "job; prepare cache %zu hits / %zu misses, "
                "artifact cache %zu hits / %zu misses\n",
                mean(traced.okValues(&JobRecord::prepareUs)),
                traced.prepareHits, traced.prepareMisses,
                traced.planHits, traced.planMisses);
    std::printf("  compile passes (median us per job):");
    for (const auto &[pass, us] : probes.passUs)
        std::printf(" %s %.2f", pass.c_str(), us);
    std::printf("\n");
    for (const std::string &note : probes.notes)
        std::printf("  %s\n", note.c_str());
    printMetrics("per-layer:", layers);

    Json rec;
    rec.open()
        .key("record")
        .str("layers")
        .key("workload")
        .str(wl.name())
        .key("seed")
        .integer(static_cast<long long>(opt.seed))
        .key("host")
        .raw(host)
        .key("base_ms")
        .num(attr.baseMs)
        .key("jobs")
        .integer(static_cast<long long>(attr.jobs))
        .key("layers")
        .open();
    for (const LayerRow &row : attr.rows)
        rec.key(row.layer)
            .open()
            .key("self_ms")
            .num(row.selfMs)
            .key("share")
            .num(row.share)
            .key("spans")
            .integer(static_cast<long long>(row.calls))
            .close();
    rec.close().key("passes_us").open();
    for (const auto &[pass, us] : probes.passUs)
        rec.key(pass).num(us);
    rec.close().key("extra").open();
    for (const auto &[name, value] : pm)
        rec.key(name).num(value);
    rec.close().key("metrics").raw(metricsJson(layers)).close();
    std::printf("%s\n", rec.text().c_str());

    if (!opt.traceOut.empty()) {
        if (writeTrace(opt.traceOut, spans))
            std::printf("  trace: %zu spans -> %s\n",
                        spans.size(), opt.traceOut.c_str());
        else
            std::printf("  trace: could not write %s\n",
                        opt.traceOut.c_str());
    }
    return layers;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::size_t threads = engineThreads();
    const std::string host = fingerprint(threads);
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::strcmp(QRA_E2E_BUILD_TYPE, "Release") == 0;
#endif
    if (!release) {
        std::fprintf(stderr,
                     "qra_e2e: refusing to report numbers from a non-"
                     "Release build (%s)\n",
                     host.c_str());
        return 3;
    }
    const std::unique_ptr<Workload> wl =
        makeWorkload(opt.workload, opt.seed);
    if (!wl) {
        std::string known;
        for (const std::string &name : workloadNames())
            known += " " + name;
        usage(("unknown workload " + opt.workload + "; known:" + known)
                  .c_str());
    }

    std::printf("== qra_e2e %s, seed %llu, %g s, trace %d\n",
                wl->name(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("   %s\n   host %s\n", wl->describe().c_str(),
                host.c_str());

    Tally tally;
    std::vector<Metric> result_metrics;
    try {
        std::vector<double> setup_times;
        const std::unique_ptr<Harness> harness =
            setUp(*wl, threads, nullptr, &setup_times);
        const double setup_s = median(setup_times);

        const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
        const LoopResult loop = harness->loop(untraced_s, nullptr, 0);
        const double rss_mb = peakRssMb();
        tally.attempted += loop.jobs.size();
        tally.failed += loop.failed();
        printFailures(loop);

        const std::vector<Metric> e2e =
            endToEnd(*wl, harness->models(), loop, setup_s);
        const std::vector<Metric> extra = reportedOnly(loop, rss_mb);
        printMetrics(opt.trace ? "end-to-end (untraced half):"
                               : "end-to-end:",
                     e2e);
        printMetrics("reported, not gated:", extra);
        std::printf("  setup reps:");
        for (double t : setup_times)
            std::printf(" %.4f", t);
        std::printf(" s\n  jobs/s in each of %d windows of %.3g s:", kWindows,
                    loop.seconds / kWindows);
        for (double rate : windowedRates(loop).windows)
            std::printf(" %.4g", rate);
        std::printf("\n");

        result_metrics = opt.trace ? tracedRun(opt, *wl, threads, *harness,
                                               loop, host, &tally)
                                   : e2e;

        Json rec;
        rec.open()
            .key("record")
            .str("e2e")
            .key("workload")
            .str(wl->name())
            .key("seed")
            .integer(static_cast<long long>(opt.seed))
            .key("host")
            .raw(host)
            .key("metrics")
            .raw(metricsJson(e2e))
            .key("reported")
            .raw(metricsJson(extra))
            .close();
        std::printf("%s\n", rec.text().c_str());

        const std::vector<std::string> final_failures =
            wl->finalChecks(loop.keptJobs(), harness->engine(),
                            harness->models());
        for (const std::string &why : final_failures)
            std::printf("  FAILED run-level check: %s\n", why.c_str());
        tally.attempted += 1;
        tally.failed += final_failures.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::printf("  FAILED: %s\n", e.what());
        ++tally.attempted;
        ++tally.failed;
    }

    Json out;
    out.open()
        .key("correct")
        .boolean(tally.failed == 0)
        .key("attempted")
        .integer(static_cast<long long>(tally.attempted))
        .key("failed")
        .integer(static_cast<long long>(tally.failed))
        .key("metrics")
        .raw(metricsJson(result_metrics))
        .close();
    std::printf("%s\n", out.text().c_str());
    std::fflush(stdout);
    return tally.failed == 0 ? 0 : 1;
}
