#include "workloads.hh"

#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "common.hh"

using namespace qra;

namespace e2e {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string
qasmHeader(std::size_t qubits)
{
    const std::string n = std::to_string(qubits);
    return "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" + n +
           "];\ncreg c[" + n + "];\n";
}

std::string
measureAll(std::size_t qubits)
{
    std::string s;
    for (std::size_t q = 0; q < qubits; ++q)
        s += "measure q[" + std::to_string(q) + "] -> c[" +
             std::to_string(q) + "];\n";
    return s;
}

std::string
angle(double theta)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12f", theta);
    return buf;
}

/** Rows x cols grid device, one native direction per edge. */
CouplingMap
gridMap(std::size_t rows, std::size_t cols)
{
    CouplingMap map(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const Qubit q = static_cast<Qubit>(r * cols + c);
            if (c + 1 < cols)
                map.addEdge(q, q + 1);
            if (r + 1 < rows)
                map.addEdge(q, static_cast<Qubit>(q + cols));
        }
    }
    return map;
}

/** Shape of a generated debugging payload. */
struct PayloadShape
{
    std::size_t qubits = 8;
    std::size_t gates = 40;
    /** Hand entanglement check on (q0, q4) after the prefix. */
    bool handCheck = false;
    /** Drop the prefix CX onto q4. */
    bool plantedBug = false;
    /**
     * Low-variance mode: exactly gates/4 of each gate kind, CX only
     * between neighbours on the logical line q0 - q1 - ... (so the
     * routed size varies little from payload to payload).
     */
    bool balanced = false;
};

/** All-to-all device: a native CX in both directions on every pair. */
CouplingMap
completeMap(std::size_t qubits)
{
    CouplingMap map(qubits);
    for (std::size_t a = 0; a < qubits; ++a)
        for (std::size_t b = 0; b < qubits; ++b)
            if (a != b)
                map.addEdge(static_cast<Qubit>(a), static_cast<Qubit>(b));
    return map;
}

/**
 * A debugging payload: a GHZ prefix on q0..q4 (optionally missing its
 * last CX, the planted bug), an optional hand entanglement check on
 * (q0, q4) right after the prefix, a T on q0, then random H/T/RY/CX
 * gates and a full measurement.
 */
std::string
debugPayload(InputRng &rng, const PayloadShape &shape)
{
    const std::size_t n = shape.qubits;
    std::string s = qasmHeader(n);
    s += "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n";
    if (!shape.plantedBug)
        s += "cx q[3],q[4];\n";
    if (shape.handCheck)
        s += "// qra:assert-entangled q[0], q[4]\n";
    // A T right after the prefix ends the GHZ group's Clifford part:
    // the analysis always finds the GHZ fact there, and no later
    // random gate can make a prefix qubit a known basis state, so
    // auto checks never need more ancillas than the device has left.
    s += "t q[0];\n";
    std::vector<std::size_t> kinds;
    for (std::size_t g = 0; g < shape.gates; ++g)
        kinds.push_back(shape.balanced ? g % 4 : rng.below(4));
    if (shape.balanced)
        for (std::size_t g = kinds.size(); g > 1; --g)
            std::swap(kinds[g - 1], kinds[rng.below(g)]);
    for (const std::size_t kind : kinds) {
        const std::size_t q = rng.below(n);
        const std::string a = std::to_string(q);
        switch (kind) {
          case 0:
            s += "h q[" + a + "];\n";
            break;
          case 1:
            s += "t q[" + a + "];\n";
            break;
          case 2:
            s += "ry(" + angle(2.0 * kPi * rng.uniform()) + ") q[" + a +
                 "];\n";
            break;
          default: {
            std::size_t c = q, t = 0;
            if (shape.balanced) {
                c = std::min(q, n - 2);
                t = c + 1;
                if (rng.below(2) != 0)
                    std::swap(c, t);
            } else {
                t = rng.below(n - 1);
                if (t >= c)
                    ++t;
            }
            s += "cx q[" + std::to_string(c) + "],q[" +
                 std::to_string(t) + "];\n";
          }
        }
    }
    return s + measureAll(n);
}

/** Independently decoded any-error count of @p result. */
std::size_t
anyErrorShots(const InstrumentedCircuit &inst, const Result &result)
{
    std::size_t errors = 0;
    for (const auto &[reg, n] : result.rawCounts())
        if (!inst.passed(reg))
            errors += n;
    return errors;
}

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

// ------------------------------------------------------------------
// paper_ibmqx4
// ------------------------------------------------------------------

/**
 * The paper's ibmqx4 jobs: Table 1 (classical), Table 2
 * (entanglement) and Sec. 4.3 (superposition) with hand directives,
 * plus Bell / GHZ3 / GHZ4 / W3 with auto-generated checks.
 */
class PaperIbmqx4 final : public Workload
{
  public:
    explicit PaperIbmqx4(std::uint64_t seed) : seed_(seed) {}

    enum Kind
    {
        Table1,
        Table2,
        Sec43,
        AutoBell,
        AutoGhz3,
        AutoGhz4,
        AutoW3,
        kKinds
    };

    static constexpr std::size_t kShots = 8192;

    const char *name() const override { return "paper_ibmqx4"; }
    std::size_t clients() const override { return 1; }
    const char *backend() const override { return "density"; }

    JobInput input(std::size_t index) const override
    {
        JobInput in;
        in.index = index;
        in.kind = static_cast<int>(index % kKinds);
        in.qasm = text(in.kind);
        in.shots = kShots;
        in.seed = streamSeed(seed_, index);
        return in;
    }

    std::vector<JobInput> warmups() const override
    {
        std::vector<JobInput> jobs;
        for (int k = 0; k < kKinds; ++k) {
            JobInput in;
            in.index = static_cast<std::size_t>(k);
            in.kind = k;
            in.qasm = text(k);
            in.shots = kShots;
            in.seed = 1000 + static_cast<std::uint64_t>(k);
            jobs.push_back(std::move(in));
        }
        return jobs;
    }

    Models buildModels() const override
    {
        const DeviceModel device = DeviceModel::ibmqx4();
        Models m;
        m.noise = device.noiseModel();
        m.coupling = device.couplingMap();
        return m;
    }

    runtime::JobSpec spec(AnnotatedProgram program, const JobInput &in,
                          const Models &models) const override
    {
        runtime::JobSpec spec;
        spec.circuit = std::move(program.payload);
        spec.assertions = std::move(program.specs);
        spec.shots = in.shots;
        spec.seed = in.seed;
        spec.backend = backend();
        spec.noise = &*models.noise;
        spec.coupling = &*models.coupling;
        if (in.kind >= AutoBell)
            spec.injection = compile::InjectionStrategy::AutoGenerate;
        return spec;
    }

    std::string check(const JobInput &in, const Result &result,
                      const InstrumentedCircuit &inst,
                      const AssertionReport &report) const override
    {
        if (result.shots() != kShots)
            return "shot count " + std::to_string(result.shots());
        if (inst.checks().empty())
            return "no assertion checks were injected";

        // Bounds of bench/table1_classical_ibmq, table2_entanglement_
        // ibmq and sec43_superposition_ibmq; the auto-asserted
        // circuits must at least filter (filtered < raw).
        std::function<bool(std::uint64_t)> payload_error;
        double raw_lo = 0.0, raw_hi = 1.0, red_lo = 0.0, red_hi = 1.0;
        switch (in.kind) {
          case Sec43:
            if (report.anyErrorRate <= 0.02 ||
                report.anyErrorRate >= 0.30)
                return fmt("sec43 assertion error rate %.4f outside "
                           "(0.02, 0.30)",
                           report.anyErrorRate);
            return "";
          case Table1:
            payload_error = [](std::uint64_t p) { return p != 0; };
            raw_lo = 0.01, raw_hi = 0.08, red_lo = 0.10, red_hi = 0.60;
            break;
          case Table2:
            payload_error = [](std::uint64_t p) {
                return p == 0b01 || p == 0b10;
            };
            raw_lo = 0.04, raw_hi = 0.35, red_lo = 0.10, red_hi = 0.60;
            break;
          case AutoBell:
          case AutoGhz3:
          case AutoGhz4: {
            const std::uint64_t all =
                (std::uint64_t{1} << inst.payloadClbits()) - 1;
            payload_error = [all](std::uint64_t p) {
                return p != 0 && p != all;
            };
            break;
          }
          default: // AutoW3: exactly one qubit reads 1
            payload_error = [](std::uint64_t p) {
                return std::popcount(p) != 1;
            };
        }
        const stats::ErrorRateReport er =
            errorRates(inst, result, payload_error);
        if (!er.hasFiltered)
            return "filter kept no shots";
        if (!(er.filteredErrorRate < er.rawErrorRate))
            return fmt("filtered error %.4f not below raw %.4f",
                       er.filteredErrorRate, er.rawErrorRate);
        if (er.rawErrorRate <= raw_lo || er.rawErrorRate >= raw_hi)
            return fmt("raw error %.4f outside (%.2f, %.2f)",
                       er.rawErrorRate, raw_lo, raw_hi);
        if (er.reduction() <= red_lo || er.reduction() >= red_hi)
            return fmt("reduction %.4f outside (%.2f, %.2f)",
                       er.reduction(), red_lo, red_hi);
        return "";
    }

    std::string describe() const override
    {
        return "1 client; 7 programs (Table 1, Table 2, Sec. 4.3 with "
               "hand checks; Bell, GHZ3, GHZ4, W3 auto-asserted) on "
               "the ibmqx4 model (5q), 8192 shots, fresh seed per job";
    }

  private:
    static std::string text(int kind)
    {
        switch (kind) {
          case Table1:
            return qasmHeader(1) +
                   "// qra:assert-classical q[0] == 0\n" +
                   measureAll(1);
          case Table2:
            return qasmHeader(2) + "h q[0];\ncx q[0],q[1];\n" +
                   "// qra:assert-entangled q[0], q[1]\n" +
                   measureAll(2);
          case Sec43:
            return qasmHeader(1) + "h q[0];\n" +
                   "// qra:assert-superposition q[0] +\n" +
                   measureAll(1);
          case AutoBell:
            return qasmHeader(2) + "h q[0];\ncx q[0],q[1];\n" +
                   measureAll(2);
          case AutoGhz3:
            return qasmHeader(3) +
                   "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n" +
                   measureAll(3);
          case AutoGhz4:
            return qasmHeader(4) +
                   "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                   "cx q[2],q[3];\n" +
                   measureAll(4);
          default: {
            // W3 = (|100> + |010> + |001>)/sqrt3: x, then two
            // controlled-RY splits (each as ry/cx/ry/cx) moved along
            // by a CX.
            const double t1 = 2.0 * std::acos(std::sqrt(1.0 / 3.0));
            const double t2 = 2.0 * std::acos(std::sqrt(1.0 / 2.0));
            std::string s = qasmHeader(3) + "x q[0];\n";
            s += "ry(" + angle(t1 / 2) + ") q[1];\ncx q[0],q[1];\n";
            s += "ry(" + angle(-t1 / 2) + ") q[1];\ncx q[0],q[1];\n";
            s += "cx q[1],q[0];\n";
            s += "ry(" + angle(t2 / 2) + ") q[2];\ncx q[1],q[2];\n";
            s += "ry(" + angle(-t2 / 2) + ") q[2];\ncx q[1],q[2];\n";
            s += "cx q[2],q[1];\n";
            return s + measureAll(3);
          }
        }
    }

    std::uint64_t seed_;
};

// ------------------------------------------------------------------
// routed_debug_12q
// ------------------------------------------------------------------

/**
 * Debugging mode on a device: every job is a fresh 7-qubit payload
 * (GHZ5 prefix, T, 40 random gates) with one hand entanglement check
 * and <= 2 auto checks, compiled to a 3x4 grid and run ideal. One job
 * in four has the planted bug.
 */
class RoutedDebug12q final : public Workload
{
  public:
    explicit RoutedDebug12q(std::uint64_t seed) : seed_(seed) {}

    static constexpr std::size_t kQubits = 7;
    static constexpr std::size_t kGates = 40;
    static constexpr std::size_t kShots = 256;

    const char *name() const override { return "routed_debug_12q"; }
    std::size_t clients() const override { return 4; }
    const char *backend() const override { return "statevector"; }

    JobInput input(std::size_t index) const override
    {
        return make(streamSeed(seed_, index), index, index % 4 == 3);
    }

    std::vector<JobInput> warmups() const override
    {
        std::vector<JobInput> jobs;
        for (std::size_t k = 0; k < 4; ++k)
            jobs.push_back(make(0x5eedULL + k, k, k == 3));
        return jobs;
    }

    Models buildModels() const override
    {
        Models m;
        m.coupling = gridMap(3, 4);
        return m;
    }

    runtime::JobSpec spec(AnnotatedProgram program, const JobInput &in,
                          const Models &models) const override
    {
        runtime::JobSpec spec;
        spec.circuit = std::move(program.payload);
        spec.assertions = std::move(program.specs);
        spec.shots = in.shots;
        spec.seed = in.seed;
        spec.backend = backend();
        spec.coupling = &*models.coupling;
        spec.injection = compile::InjectionStrategy::AutoGenerate;
        spec.autoAssert.maxChecks = 2;
        return spec;
    }

    std::string check(const JobInput &in, const Result &result,
                      const InstrumentedCircuit &inst,
                      const AssertionReport &report) const override
    {
        if (result.shots() != kShots)
            return "shot count " + std::to_string(result.shots());
        const std::size_t hand = handCheck(inst);
        if (hand == inst.checks().size())
            return "hand check missing";
        if (!in.plantedBug) {
            for (std::size_t j = 0; j < report.checkErrorRates.size();
                 ++j)
                if (report.checkErrorRates[j] != 0.0)
                    return fmt("bug-free job: check %.0f fired at %.4f",
                               static_cast<double>(j),
                               report.checkErrorRates[j]);
            return "";
        }
        // Planted bug: q4 stays |0>, so the (q0, q4) parity check
        // fires on half the shots. Five binomial standard deviations
        // (false alarm ~6e-7 per job).
        const double n = static_cast<double>(result.shots());
        const double rate = report.checkErrorRates[hand];
        const double bound = 5.0 * std::sqrt(0.25 / n) + 1.0 / n;
        if (std::fabs(rate - 0.5) > bound)
            return fmt("planted bug: hand check fired at %.4f, "
                       "expected 0.5 +- %.4f",
                       rate, bound);
        return "";
    }

    std::vector<std::string>
    finalChecks(const std::vector<const KeptJob *> &kept,
                runtime::ExecutionEngine &, const Models &) const override
    {
        // Chi-square test of the first bug-free job's payload
        // counts against the exact distribution of its unrouted,
        // uninstrumented circuit on the state-vector simulator.
        for (const KeptJob *job : kept) {
            if (job->input.plantedBug)
                continue;
            const AnnotatedProgram program =
                parseAnnotatedQasm(job->input.qasm);
            const auto ctx = compile::prepare(
                program.payload, runtime::prepareSpec(job->spec));
            return chiSquare(program.payload, *ctx.instrumented,
                             job->result);
        }
        return {"no bug-free job finished"};
    }

    std::string describe() const override
    {
        return "4 clients; fresh 7q payload per job (GHZ5 prefix, T, 40 "
               "random H/T/RY/CX), 1 hand + <=2 auto checks, 3x4 grid "
               "(12q), ideal, 256 shots, 1 in 4 with a planted bug";
    }

  private:
    JobInput make(std::uint64_t stream, std::size_t index,
                  bool bug) const
    {
        InputRng rng(stream);
        JobInput in;
        in.index = index;
        in.plantedBug = bug;
        PayloadShape shape;
        shape.qubits = kQubits;
        shape.gates = kGates;
        shape.handCheck = true;
        shape.plantedBug = bug;
        in.qasm = debugPayload(rng, shape);
        in.shots = kShots;
        in.seed = rng.next();
        return in;
    }

    /** Index of the (single) user-written check. */
    static std::size_t handCheck(const InstrumentedCircuit &inst)
    {
        for (std::size_t j = 0; j < inst.checks().size(); ++j)
            if (inst.checks()[j].spec.label.rfind("auto:", 0) != 0)
                return j;
        return inst.checks().size();
    }

    static std::vector<std::string>
    chiSquare(const Circuit &payload, const InstrumentedCircuit &inst,
              const Result &result)
    {
        StatevectorSimulator sim;
        const StateVector state = sim.finalState(payload);
        std::vector<std::pair<Qubit, Clbit>> wiring;
        for (const Operation &op : payload.ops())
            if (op.kind == OpKind::Measure)
                wiring.emplace_back(op.qubits[0], *op.clbit);
        stats::Distribution exact;
        const auto &amps = state.amplitudes();
        for (std::size_t i = 0; i < amps.size(); ++i) {
            std::uint64_t reg = 0;
            for (const auto &[q, c] : wiring)
                if ((i >> q) & 1)
                    reg |= std::uint64_t{1} << c;
            exact[reg] += std::norm(amps[i]);
        }
        stats::Counts observed;
        for (const auto &[reg, n] : result.rawCounts())
            observed[inst.payloadBits(reg)] += n;

        // Pool outcomes expected fewer than 5 times into one bin.
        const double shots = static_cast<double>(result.shots());
        constexpr std::uint64_t kPool = ~std::uint64_t{0};
        stats::Distribution expected;
        stats::Counts pooled;
        for (const auto &[reg, p] : exact) {
            const std::uint64_t bin = p * shots >= 5.0 ? reg : kPool;
            expected[bin] += p;
            const auto it = observed.find(reg);
            if (it != observed.end())
                pooled[bin] += it->second;
        }
        for (const auto &[reg, n] : observed)
            if (!exact.count(reg))
                pooled[kPool] += n;
        const stats::ChiSquareResult chi =
            stats::chiSquareTest(pooled, expected);
        // A routing or sampling defect rejects at p ~ 1e-30 here; the
        // tiny alpha keeps false alarms out of a 20-run campaign.
        if (chi.pValue < 1e-6)
            return {fmt("chi-square vs exact: statistic %.1f, dof %.0f, "
                        "p %.3g",
                        chi.statistic,
                        static_cast<double>(chi.degreesOfFreedom),
                        chi.pValue)};
        return {};
    }

    std::uint64_t seed_;
};

// ------------------------------------------------------------------
// adaptive_verdict_12q
// ------------------------------------------------------------------

/**
 * One user waiting for one verdict at a time: a fresh 8-qubit
 * payload (GHZ5 prefix, a T that cuts the GHZ group, 24 random gates
 * of balanced kinds) with <= 2 auto checks, compiled for a 12-qubit
 * all-to-all device (so routing adds no SWAPs and every verdict costs
 * about the same), uniform noise, trajectory backend, stopping on the
 * any-error rate at Wilson half-width 0.01 within a 16384-shot
 * budget.
 */
class AdaptiveVerdict12q final : public Workload
{
  public:
    explicit AdaptiveVerdict12q(std::uint64_t seed) : seed_(seed) {}

    static constexpr std::size_t kQubits = 8;
    static constexpr std::size_t kDeviceQubits = 12;
    static constexpr std::size_t kGates = 24;
    static constexpr std::size_t kBudget = 16384;
    static constexpr std::size_t kWave = 256;
    static constexpr std::size_t kShardsPerWave = 4;
    static constexpr double kHalfWidth = 0.01;

    const char *name() const override { return "adaptive_verdict_12q"; }
    std::size_t clients() const override { return 1; }
    const char *backend() const override { return "trajectory"; }

    runtime::EngineOptions
    engineOptions(std::size_t threads) const override
    {
        // Four shards per wave, so one verdict spreads over the pool
        // instead of running each wave on one thread; the budget's
        // shard plan must stay uniform (kBudget / shardShots shards).
        runtime::EngineOptions options = Workload::engineOptions(threads);
        options.shardShots = kWave / kShardsPerWave;
        options.maxShards = kBudget / options.shardShots;
        return options;
    }

    JobInput input(std::size_t index) const override
    {
        return make(streamSeed(seed_, index), index);
    }

    std::vector<JobInput> warmups() const override
    {
        return {make(0x5eedULL, 0)};
    }

    Models buildModels() const override
    {
        Models m;
        NoiseModel noise;
        noise.setGateError(OpKind::CX, 0.01);
        noise.setGateError(OpKind::H, 0.001);
        for (Qubit q = 0; q < kDeviceQubits; ++q)
            noise.setReadoutError(q, ReadoutError(0.02, 0.03));
        m.noise = std::move(noise);
        m.coupling = completeMap(kDeviceQubits);
        return m;
    }

    runtime::JobSpec spec(AnnotatedProgram program, const JobInput &in,
                          const Models &models) const override
    {
        runtime::JobSpec spec;
        spec.circuit = std::move(program.payload);
        spec.assertions = std::move(program.specs);
        spec.shots = kBudget;
        spec.seed = in.seed;
        spec.backend = backend();
        spec.noise = &*models.noise;
        spec.coupling = &*models.coupling;
        spec.injection = compile::InjectionStrategy::AutoGenerate;
        spec.autoAssert.maxChecks = 2;
        spec.stopping.statistic =
            runtime::StoppingRule::Statistic::AnyError;
        spec.stopping.targetHalfWidth = kHalfWidth;
        spec.stopping.maxShots = kBudget;
        spec.stopping.waveShots = kWave;
        return spec;
    }

    std::string check(const JobInput &, const Result &result,
                      const InstrumentedCircuit &inst,
                      const AssertionReport &report) const override
    {
        const std::size_t n = result.shots();
        if (inst.checks().empty())
            return "no auto checks were generated";
        if (n == 0 || n > kBudget || n % kWave != 0)
            return "verdict after " + std::to_string(n) + " shots";
        const double errors =
            static_cast<double>(anyErrorShots(inst, result));
        const double estimate = errors / static_cast<double>(n);
        if (std::fabs(estimate - report.anyErrorRate) > 1e-12)
            return fmt("decoded any-error %.6f != reported %.6f",
                       estimate, report.anyErrorRate);
        // Re-derive the stopping decision: an early verdict must have
        // met the half-width target.
        const double hw =
            wilsonHalfWidth(errors, static_cast<double>(n), 1.959964);
        if (n < kBudget && hw > kHalfWidth * (1.0 + 1e-6))
            return fmt("stopped at half-width %.5f > %.3f", hw,
                       kHalfWidth);
        return "";
    }

    std::vector<std::string>
    finalChecks(const std::vector<const KeptJob *> &kept,
                runtime::ExecutionEngine &engine,
                const Models &models) const override
    {
        if (kept.empty())
            return {"no verdict finished"};
        // The first verdict against a full-budget run of the same job
        // (same seed, so the same shard streams).
        const KeptJob &job = *kept.front();
        const AnnotatedProgram program =
            parseAnnotatedQasm(job.input.qasm);
        const auto ctx = compile::prepare(
            program.payload, runtime::prepareSpec(job.spec));
        runtime::Job full(ctx.circuit, kBudget, backend(), job.spec.seed,
                          &*models.noise);
        const Result reference = engine.run(full);
        const double p_ref =
            static_cast<double>(
                anyErrorShots(*ctx.instrumented, reference)) /
            static_cast<double>(reference.shots());
        const double n = static_cast<double>(job.result.shots());
        const double k = static_cast<double>(
            anyErrorShots(*ctx.instrumented, job.result));
        // The verdict's own Wilson interval, widened from 95% to
        // z = 5: at 95% one verdict in twenty misses by construction.
        const double centre = wilsonCentre(k, n, 5.0);
        const double hw = wilsonHalfWidth(k, n, 5.0);
        if (std::fabs(p_ref - centre) > hw)
            return {fmt("verdict %.4f (+-%.4f at z=5) misses the "
                        "full-budget rate %.4f",
                        k / n, hw, p_ref)};
        return {};
    }

    std::string describe() const override
    {
        return "1 client; fresh 8q payload per verdict (GHZ5 prefix, "
               "T, 24 random H/T/RY/CX), <=2 auto checks, all-to-all "
               "12q device, uniform noise, trajectory, AnyError "
               "half-width 0.01, budget 16384, 256-shot waves of 4 "
               "shards";
    }

  private:
    JobInput make(std::uint64_t stream, std::size_t index) const
    {
        InputRng rng(stream);
        JobInput in;
        in.index = index;
        PayloadShape shape;
        shape.qubits = kQubits;
        shape.gates = kGates;
        shape.balanced = true;
        in.qasm = debugPayload(rng, shape);
        in.shots = kBudget;
        in.seed = rng.next();
        return in;
    }

    std::uint64_t seed_;
};

} // namespace

runtime::EngineOptions
Workload::engineOptions(std::size_t threads) const
{
    runtime::EngineOptions options;
    options.threads = threads;
    return options;
}

std::vector<std::string>
Workload::finalChecks(const std::vector<const KeptJob *> &,
                      runtime::ExecutionEngine &, const Models &) const
{
    return {};
}

std::vector<std::string>
workloadNames()
{
    return {"paper_ibmqx4", "routed_debug_12q", "adaptive_verdict_12q"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper_ibmqx4")
        return std::make_unique<PaperIbmqx4>(seed);
    if (name == "routed_debug_12q")
        return std::make_unique<RoutedDebug12q>(seed);
    if (name == "adaptive_verdict_12q")
        return std::make_unique<AdaptiveVerdict12q>(seed);
    return nullptr;
}

std::size_t
twoQubitGates(const Circuit &circuit)
{
    std::size_t n = 0;
    for (const Operation &op : circuit.ops())
        if (opIsUnitary(op.kind) && op.qubits.size() == 2)
            ++n;
    return n;
}

bool
needsPerShot(const Circuit &circuit)
{
    std::set<Qubit> measured;
    for (const Operation &op : circuit.ops()) {
        if (op.kind == OpKind::Reset)
            return true;
        if (op.kind == OpKind::Measure) {
            measured.insert(op.qubits[0]);
            continue;
        }
        if (op.kind == OpKind::Barrier)
            continue;
        for (Qubit q : op.qubits)
            if (measured.count(q))
                return true;
    }
    return false;
}

} // namespace e2e
