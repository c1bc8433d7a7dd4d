#include "sim/density_simulator.hh"

#include <map>
#include <set>

#include "circuit/schedule.hh"
#include "common/error.hh"

namespace qra {

DensityMatrixSimulator::DensityMatrixSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

DensityMatrixSimulator::Execution
DensityMatrixSimulator::execute(const Circuit &circuit)
{
    Execution exec(circuit.numQubits());
    std::set<Qubit> measured;

    const bool noisy = noise_ != nullptr && noise_->enabled();

    auto duration = [&](const Operation &op) {
        return noisy ? noise_->opDuration(op) : 0.0;
    };
    const std::vector<TimedMoment> moments =
        computeTimedMoments(circuit, duration);

    auto apply_op = [&](const Operation &op) {
        for (Qubit q : op.qubits) {
            if (measured.count(q))
                throw SimulationError(
                    "density backend: qubit " + std::to_string(q) +
                    " is used after measurement; use the trajectory "
                    "backend for ancilla reuse");
        }

        switch (op.kind) {
          case OpKind::Measure:
            exec.state.dephase(op.qubits[0]);
            exec.wiring.emplace_back(op.qubits[0], *op.clbit);
            measured.insert(op.qubits[0]);
            return;
          case OpKind::Barrier:
            return;
          case OpKind::Reset:
            exec.state.resetQubit(op.qubits[0]);
            break;
          case OpKind::PostSelect:
            exec.retained *= exec.state.postSelect(op.qubits[0],
                                                   op.postselectValue);
            return;
          default:
            exec.state.applyUnitary(op);
            break;
        }

        if (noisy) {
            for (const auto &site : noise_->depolarizingFor(op))
                exec.state.depolarize(site.p, site.qubits);
        }
    };

    // Relaxation superoperators, built once per (qubit, moment
    // duration) of this run; an empty matrix means no T1/T2 is set.
    std::map<std::pair<Qubit, double>, Matrix> relaxation;
    auto relaxation_for = [&](Qubit q, double ns) -> const Matrix & {
        auto [it, fresh] = relaxation.try_emplace({q, ns});
        if (fresh)
            if (auto channel = noise_->relaxationFor(q, ns))
                it->second = DensityMatrix::superoperator(*channel);
        return it->second;
    };

    for (const TimedMoment &moment : moments) {
        for (std::size_t idx : moment.opIndices)
            apply_op(circuit.ops()[idx]);

        if (noisy && moment.durationNs > 0.0) {
            for (Qubit q = 0; q < circuit.numQubits(); ++q) {
                // Measured qubits are classical records; freezing them
                // preserves the recorded outcome statistics.
                if (measured.count(q))
                    continue;
                const Matrix &relax =
                    relaxation_for(q, moment.durationNs);
                if (relax.rows() != 0)
                    exec.state.applySuperoperator(relax, {q});
            }
        }
    }
    return exec;
}

std::map<std::uint64_t, double>
DensityMatrixSimulator::exactDistribution(const Circuit &circuit)
{
    Execution exec = execute(circuit);

    // Joint distribution over the classical register from the final
    // diagonal: unmeasured qubits are marginalised away.
    const std::vector<double> probs = exec.state.probabilities();
    std::map<std::uint64_t, double> dist;
    for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        std::uint64_t reg = 0;
        for (const auto &[q, c] : exec.wiring) {
            if ((basis >> q) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        dist[reg] += probs[basis];
    }

    // Fold per-qubit readout confusion into the register distribution.
    if (noise_ != nullptr && noise_->enabled()) {
        for (const auto &[q, c] : exec.wiring) {
            const ReadoutError *ro = noise_->readoutFor(q);
            if (ro == nullptr)
                continue;
            std::map<std::uint64_t, double> flipped;
            const std::uint64_t bit = std::uint64_t{1} << c;
            for (const auto &[reg, p] : dist) {
                const int true_bit = (reg & bit) ? 1 : 0;
                for (int read = 0; read < 2; ++read) {
                    const double weight = ro->confusion(true_bit, read);
                    if (weight <= 0.0)
                        continue;
                    const std::uint64_t out =
                        read ? (reg | bit) : (reg & ~bit);
                    flipped[out] += p * weight;
                }
            }
            dist = std::move(flipped);
        }
    }
    return dist;
}

Result
DensityMatrixSimulator::run(const Circuit &circuit, std::size_t shots)
{
    const std::map<std::uint64_t, double> dist =
        exactDistribution(circuit);

    Result result(circuit.numClbits());
    result.setExactDistribution(dist);

    // Sample counts from the exact distribution.
    std::vector<std::uint64_t> keys;
    std::vector<double> probs;
    keys.reserve(dist.size());
    probs.reserve(dist.size());
    for (const auto &[reg, p] : dist) {
        keys.push_back(reg);
        probs.push_back(p);
    }
    // Tally per outcome, then record each once: the same draws as a
    // per-shot record loop, so the counts are identical.
    std::vector<std::size_t> tally(keys.size(), 0);
    for (std::size_t s = 0; s < shots; ++s)
        ++tally[sampleDiscrete(probs, rng_)];
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (tally[i] != 0)
            result.record(keys[i], tally[i]);
    return result;
}

DensityMatrix
DensityMatrixSimulator::finalState(const Circuit &circuit)
{
    return execute(circuit).state;
}

} // namespace qra
