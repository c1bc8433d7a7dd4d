/**
 * @file
 * NoiseModel: the error description the noisy simulators consume.
 *
 * A model contains
 *  - per-gate-kind (optionally per-operand) depolarising strengths,
 *  - per-gate-kind durations,
 *  - per-qubit T1/T2 relaxation constants,
 *  - per-qubit readout confusion matrices.
 *
 * Simulators query channelsFor(op) after executing each instruction,
 * relaxationFor(q, dt) once per scheduled moment for every qubit, and
 * readoutFor(q) when recording measurement outcomes.
 */

#ifndef QRA_NOISE_NOISE_MODEL_HH
#define QRA_NOISE_NOISE_MODEL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/gate.hh"
#include "noise/kraus.hh"
#include "noise/readout_error.hh"

namespace qra {

/** Complete error description of a (simulated) quantum device. */
class NoiseModel
{
  public:
    /** A channel plus the circuit qubits it must be applied to. */
    struct AppliedChannel
    {
        KrausChannel channel;
        std::vector<Qubit> qubits;
    };

    /** A depolarising error of total strength p on some qubits. */
    struct DepolarizingSite
    {
        double p;
        std::vector<Qubit> qubits;
    };

    NoiseModel() = default;

    /** True when any error source is configured. */
    bool enabled() const;

    // --- Configuration -----------------------------------------------

    /**
     * Depolarising error of strength @p p after every instance of
     * gate @p kind (fallback used when no per-operand entry exists).
     */
    void setGateError(OpKind kind, double p);

    /**
     * Depolarising error for a specific operand tuple, e.g. the CX
     * between qubits 1 and 0 on ibmqx4. Operand order matters.
     */
    void setGateError(OpKind kind, const std::vector<Qubit> &qubits,
                      double p);

    /** Wall-clock duration of gate @p kind in nanoseconds. */
    void setGateDuration(OpKind kind, double ns);

    /** T1/T2 relaxation constants of one qubit, in nanoseconds. */
    void setQubitRelaxation(Qubit q, double t1_ns, double t2_ns);

    /** Readout confusion of one qubit. */
    void setReadoutError(Qubit q, ReadoutError error);

    /**
     * Scale every configured error source by @p factor: depolarising
     * strengths and readout flips multiply by it (clamped to [0,1]),
     * T1/T2 divide by it. factor 0 disables all noise; 1 is identity.
     * Used by the noise-sweep ablation bench.
     */
    NoiseModel scaled(double factor) const;

    // --- Queries (simulator interface) --------------------------------

    /** Channels to apply after executing @p op (may be empty). */
    std::vector<AppliedChannel> channelsFor(const Operation &op) const;

    /**
     * The same errors as channelsFor(@p op), as depolarising strengths
     * and operands (channels::depolarizing1 / 2 of each site): one site
     * over a 1q/2q gate's operands, pairwise 2q sites across a
     * three-qubit gate's. The density backend applies these in closed
     * form instead of building Kraus channels.
     */
    std::vector<DepolarizingSite>
    depolarizingFor(const Operation &op) const;

    /**
     * Thermal-relaxation channel for qubit @p q idling or executing
     * for @p duration_ns; nullopt when no T1/T2 is configured or the
     * window is empty.
     */
    std::optional<KrausChannel> relaxationFor(Qubit q,
                                              double duration_ns) const;

    /** Duration of @p op in nanoseconds (0 when unconfigured). */
    double opDuration(const Operation &op) const;

    /** Readout model for @p q; nullptr when perfect. */
    const ReadoutError *readoutFor(Qubit q) const;

    /** Summary for logs/benches. */
    std::string str() const;

    /**
     * Semantic 64-bit hash over every configured error source. Two
     * models that produce identical channels hash identically, so
     * cached per-(circuit, noise) artifacts (trajectory plans in the
     * runtime's sampling cache) are keyed by content, not by object
     * identity — a freed-and-reallocated model can never alias a
     * stale cache entry.
     */
    std::uint64_t fingerprint() const;

  private:
    struct Relaxation
    {
        double t1Ns;
        double t2Ns;
    };

    std::map<OpKind, double> gateError_;
    std::map<std::pair<OpKind, std::vector<Qubit>>, double>
        operandGateError_;
    std::map<OpKind, double> gateDurationNs_;
    std::map<Qubit, Relaxation> relaxation_;
    std::map<Qubit, ReadoutError> readout_;
};

} // namespace qra

#endif // QRA_NOISE_NOISE_MODEL_HH
