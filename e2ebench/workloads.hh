/**
 * @file
 * The benchmark's three workloads. Each one generates its inputs
 * from the seed (OpenQASM text with qra:assert-* directives plus a
 * shot count and a job seed), builds the program-side models during
 * set-up, turns a parsed program into a runtime::JobSpec, and checks
 * every job's output against an expectation the benchmark derives on
 * its own.
 */

#ifndef QRA_E2EBENCH_WORKLOADS_HH
#define QRA_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qra.hh"

namespace e2e {

/** One generated job: everything the program is handed. */
struct JobInput
{
    std::size_t index = 0;
    std::string qasm;
    std::size_t shots = 0;
    std::uint64_t seed = 0;
    /** Workload-specific job class (paper_ibmqx4: which circuit). */
    int kind = 0;
    /** routed_debug_12q: the prefix CX onto q4 was dropped. */
    bool plantedBug = false;
};

/** Program-side state built during (timed) set-up. */
struct Models
{
    std::optional<qra::NoiseModel> noise;
    std::optional<qra::CouplingMap> coupling;
};

/** A finished job the final checks and probes may revisit. */
struct KeptJob
{
    JobInput input;
    qra::runtime::JobSpec spec;
    qra::Result result;
    double latencyMs = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    virtual const char *name() const = 0;

    /** Closed-loop clients (jobs outstanding at once). */
    virtual std::size_t clients() const = 0;

    /** Registry name every job of this workload executes on. */
    virtual const char *backend() const = 0;

    /** Engine knobs for @p threads pool threads. */
    virtual qra::runtime::EngineOptions
    engineOptions(std::size_t threads) const;

    /** Input @p index: a pure function of (seed, index). */
    virtual JobInput input(std::size_t index) const = 0;

    /** Fixed, seed-independent jobs that warm the caches in set-up. */
    virtual std::vector<JobInput> warmups() const = 0;

    /** Construct noise model and coupling map (part of set-up). */
    virtual Models buildModels() const = 0;

    /** The job spec for a parsed program. */
    virtual qra::runtime::JobSpec
    spec(qra::AnnotatedProgram program, const JobInput &input,
         const Models &models) const = 0;

    /**
     * Check one job's output; returns the reason it is wrong, or
     * the empty string when it is right.
     */
    virtual std::string check(const JobInput &input,
                              const qra::Result &result,
                              const qra::InstrumentedCircuit &inst,
                              const qra::AssertionReport &report) const = 0;

    /**
     * Run-level checks over the lowest-index finished jobs (the
     * routed chi-square test, the adaptive full-budget reference).
     * Returns failure reasons, one per failed check.
     */
    virtual std::vector<std::string>
    finalChecks(const std::vector<const KeptJob *> &kept,
                qra::runtime::ExecutionEngine &engine,
                const Models &models) const;

    /** Human-readable input sizes for the report. */
    virtual std::string describe() const = 0;
};

/** The workload called @p name, generating from @p seed; null if
    the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Names accepted by makeWorkload, in report order. */
std::vector<std::string> workloadNames();

/** Number of two-qubit gates in @p circuit. */
std::size_t twoQubitGates(const qra::Circuit &circuit);

/**
 * True when the state-vector simulator must run @p circuit shot by
 * shot: a Reset, or a gate on an already-measured qubit (the rule in
 * statevector_simulator.hh, re-derived here).
 */
bool needsPerShot(const qra::Circuit &circuit);

} // namespace e2e

#endif // QRA_E2EBENCH_WORKLOADS_HH
