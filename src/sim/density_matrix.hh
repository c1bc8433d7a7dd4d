/**
 * @file
 * n-qubit density matrix with unitary evolution, Kraus channels, and
 * computational-basis measurement primitives.
 *
 * Intended for small registers (the experiments use 3-6 qubits); the
 * representation is a dense 2^n x 2^n matrix, practical up to ~10
 * qubits.
 *
 * Evolution runs in place on vec(rho): the row-major storage read as
 * a 2n-qubit amplitude array. Entry (r, c) sits at flat index
 * r * 2^n + c, so column qubit q is bit q of the index and row qubit
 * q is bit q + n. Every step is then an ordinary gate kernel call on
 * that array (kernels.hh, with its SIMD tiers and deterministic
 * lanes):
 *  - U rho U^dagger: conj(U) on the column bits Q, then U on the row
 *    bits Q + n;
 *  - a Kraus channel {K_k}: its superoperator sum_k K_k (x) conj(K_k)
 *    on (Q, Q + n) — a 4x4 two-"qubit" kernel for a 1q channel;
 *  - depolarising noise: a closed-form pass (depolarize());
 *  - measurement back-action: zero the entries whose bit q differs
 *    from bit q + n.
 */

#ifndef QRA_SIM_DENSITY_MATRIX_HH
#define QRA_SIM_DENSITY_MATRIX_HH

#include <array>
#include <vector>

#include "circuit/gate.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {

class KrausChannel;

/** Mixed quantum state over a register of qubits. */
class DensityMatrix
{
  public:
    /** Initialise to the pure state |0...0><0...0|. */
    explicit DensityMatrix(std::size_t num_qubits);

    /** Initialise from a pure state's amplitudes. */
    static DensityMatrix fromPureState(const std::vector<Complex> &amps);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dim() const { return rho_.rows(); }

    const Matrix &matrix() const { return rho_; }

    /**
     * rho <- U rho U^dagger with U acting on @p qubits.
     * @throws SimulationError if U is not 2^k x 2^k for k operands or
     *         an operand repeats; IndexError if one is out of range.
     */
    void applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits);

    /** Apply one unitary circuit operation. */
    void applyUnitary(const Operation &op);

    /**
     * rho <- sum_k K_k rho K_k^dagger over @p qubits (one pass of the
     * channel's superoperator). Throws as applyMatrix does.
     */
    void applyKraus(const KrausChannel &channel,
                    const std::vector<Qubit> &qubits);

    /**
     * The channel's superoperator S = sum_k K_k (x) conj(K_k), a
     * 4^k x 4^k matrix whose index bits j < k are the column bits of
     * the channel's operands and bits k + j their row bits. Build it
     * once and replay it with applySuperoperator.
     */
    static Matrix superoperator(const KrausChannel &channel);

    /**
     * vec(rho) <- S vec(rho) on @p qubits, for S from superoperator().
     * Throws as applyMatrix does (S must be 4^k x 4^k).
     */
    void applySuperoperator(const Matrix &s,
                            const std::vector<Qubit> &qubits);

    /**
     * The depolarising channel of channels::depolarizing1 / 2 (total
     * Pauli-error probability @p p over @p qubits) in closed form:
     * rho <- (1 - l) rho + l (I / 2^k (x) Tr_Q rho) with
     * l = p 4^k / (4^k - 1), in one O(4^n) pass for any k.
     * @throws SimulationError if p lies outside [0, 1]; otherwise
     *         throws as applyMatrix does.
     */
    void depolarize(double p, const std::vector<Qubit> &qubits);

    /** Non-destructive P(qubit q == 1). */
    double probabilityOfOne(Qubit q) const;

    /**
     * Destroy coherence between the |0> and |1> subspaces of @p q
     * (the back-action of an unread computational-basis measurement).
     */
    void dephase(Qubit q);

    /**
     * Project qubit @p q onto @p outcome and renormalise.
     * @return Probability of the selected branch.
     * @throws SimulationError if the branch has (near-)zero weight.
     */
    double postSelect(Qubit q, int outcome);

    /** Reset channel on one qubit: rho -> |0><0| (x) tr_q contents. */
    void resetQubit(Qubit q);

    /** Diagonal of rho: probability of each basis state. */
    std::vector<double> probabilities() const;

    /** Tr(rho^2). */
    double purity() const;

    /** <psi| rho |psi>. */
    double fidelityWithPure(const std::vector<Complex> &psi) const;

    /** 2x2 reduced state of one qubit. */
    Matrix reducedQubitDensity(Qubit q) const;

    /** Tr(rho); should be 1 up to numerical error. */
    double trace() const;

  private:
    void checkQubit(Qubit q) const;

    /**
     * Validate an operator of dimension @p dim over @p qubits: dim
     * must be 2^(bits_per_qubit * k) for k distinct in-range operands.
     */
    void checkOperands(std::size_t dim, const std::vector<Qubit> &qubits,
                       std::size_t bits_per_qubit) const;

    /** Column bits Q followed by row bits Q + n of vec(rho). */
    std::vector<Qubit> vecBits(const std::vector<Qubit> &qubits) const;

    /**
     * Multiply each (row bit, column bit) block of qubit @p q by
     * w[(row << 1) | col] (dephasing and post-selection).
     */
    void weighQubitBlocks(Qubit q, const std::array<double, 4> &w);

    std::size_t numQubits_;
    Matrix rho_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_MATRIX_HH
