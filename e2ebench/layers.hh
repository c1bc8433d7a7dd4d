/**
 * @file
 * The traced run's machinery. Spans are recorded by the benchmark's
 * own code around calls into the library's public API (the library's
 * obs::Tracer stays off): client-side spans around parse, submit,
 * wait, lookup and decode, and one span per shard from a registry
 * whose backends wrap the builtin ones. Spans stay in memory and are
 * written out at the end. Isolation probes then time single public
 * calls (one pass at a time, plan lowering, evaluateStopping, an
 * isolated engine run, a single-threaded backend run) on the jobs the
 * traced loop ran.
 */

#ifndef QRA_E2EBENCH_LAYERS_HH
#define QRA_E2EBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qra.hh"
#include "workloads.hh"

namespace e2e {

/** One timed interval. Layer = the name's prefix before the dot. */
struct Span
{
    std::uint32_t id = 0;
    /** 0 = none (a job's root span). */
    std::uint32_t parent = 0;
    std::uint32_t job = 0;
    /** Static string: "job", "circuit.parse", "sim.density", ... */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    /** The first of @p count fresh span ids (ids start at 1). */
    std::uint32_t reserve(std::uint32_t count);

    void add(const std::vector<Span> &spans);

    /**
     * Announce that shards with these seeds belong to @p job, whose
     * root span is @p root; call before submitting the job.
     */
    void expectShards(const std::vector<qra::runtime::Shard> &plan,
                      std::uint32_t job, std::uint32_t root);

    /** Record one shard execution (called on pool threads). */
    void shard(std::uint64_t seed, const char *name,
               std::int64_t start_ns, std::int64_t end_ns);

    std::vector<Span> spans() const;

    /** Drop everything recorded so far (e.g. warm-up shards). */
    void clear();

    /** Shard spans no announced job claimed. */
    std::size_t orphanShards() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::unordered_map<std::uint64_t,
                       std::pair<std::uint32_t, std::uint32_t>>
        owners_;
    std::uint32_t nextId_ = 1;
    std::size_t orphans_ = 0;
};

/**
 * A backend registry holding the builtin backends, each wrapped so
 * every run() call (one shard) records a "sim.<backend>" span.
 */
std::unique_ptr<qra::runtime::BackendRegistry>
tracedRegistry(SpanRecorder &recorder);

/** One row of the per-layer table. */
struct LayerRow
{
    std::string layer;
    /** Self time summed over jobs. */
    double selfMs = 0.0;
    /** selfMs over the base (sum of job wall times). */
    double share = 0.0;
    /** Spans of this layer. */
    std::size_t calls = 0;
};

/** Per-layer split of the traced jobs' wall time. */
struct Attribution
{
    std::vector<LayerRow> rows;
    /** The base: summed wall time of the attributed jobs. */
    double baseMs = 0.0;
    std::size_t jobs = 0;
    /** Summed shard busy time (may exceed sim self time: shards of
        one job overlap). */
    double shardBusyMs = 0.0;
    std::size_t shards = 0;
};

/**
 * Split every job's wall time over layers. A span's self time is its
 * duration minus the part its children cover; shards count as
 * children of whichever client span they overlap, and the time the
 * job's shards cover (their union) is the sim layer's. What no child
 * of the job's root covers is "unattributed".
 */
Attribution attribute(const std::vector<Span> &spans);

/** Write @p spans as a Chrome trace (one row per job). */
bool writeTrace(const std::string &path, const std::vector<Span> &spans);

/** Isolation-probe results: medians per metric, plus detail lines. */
struct ProbeReport
{
    /** Per-layer metric name -> value (see main.cc for units). */
    std::map<std::string, double> metrics;
    /** Per-pass median microseconds, by pass name. */
    std::map<std::string, double> passUs;
    std::vector<std::string> notes;
};

/** What the probes need from the harness that ran the jobs. */
struct ProbeTarget
{
    const Workload *workload = nullptr;
    const Models *models = nullptr;
    /** An idle engine with the workload's options. */
    qra::runtime::ExecutionEngine *engine = nullptr;
    /** Artifact cache for isolated runs; null = cold. */
    std::shared_ptr<qra::kernels::PlanCache> artifacts;
};

/**
 * Probe the kept jobs: cheap probes (analysis, each pass, lowering,
 * stopping evaluation) on all of them, expensive ones (isolated
 * engine run, single-threaded backend run) on the first few until
 * @p expensive_budget_s is spent.
 */
ProbeReport probe(const ProbeTarget &target,
                  const std::vector<const KeptJob *> &jobs,
                  double expensive_budget_s);

} // namespace e2e

#endif // QRA_E2EBENCH_LAYERS_HH
