#include "sim/density_matrix.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hh"
#include "math/linalg.hh"
#include "noise/kraus.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/parallel.hh"

namespace qra {

namespace {

/** 2^n, validated before anything is allocated. */
std::size_t
checkedDim(std::size_t num_qubits)
{
    if (num_qubits == 0 || num_qubits > 12)
        throw SimulationError("density matrix supports 1..12 qubits");
    return std::size_t{1} << num_qubits;
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : numQubits_(num_qubits),
      rho_(checkedDim(num_qubits), checkedDim(num_qubits))
{
    rho_(0, 0) = 1.0;
}

DensityMatrix
DensityMatrix::fromPureState(const std::vector<Complex> &amps)
{
    const std::size_t dim = amps.size();
    if (dim < 2 || (dim & (dim - 1)) != 0)
        throw SimulationError("amplitude count must be a power of two");
    std::size_t num_qubits = 0;
    while ((std::size_t{1} << num_qubits) < dim)
        ++num_qubits;

    DensityMatrix dm(num_qubits);
    dm.rho_ = linalg::outer(amps);
    return dm;
}

void
DensityMatrix::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
}

void
DensityMatrix::checkOperands(std::size_t dim,
                             const std::vector<Qubit> &qubits,
                             std::size_t bits_per_qubit) const
{
    const std::size_t bits = bits_per_qubit * qubits.size();
    if (bits >= 64 || dim != (std::size_t{1} << bits))
        throw SimulationError("operator size does not match qubit "
                              "operand count");
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        checkQubit(qubits[i]);
        for (std::size_t j = 0; j < i; ++j)
            if (qubits[j] == qubits[i])
                throw SimulationError("duplicate qubit operand q" +
                                      std::to_string(qubits[i]));
    }
}

std::vector<Qubit>
DensityMatrix::vecBits(const std::vector<Qubit> &qubits) const
{
    std::vector<Qubit> bits = qubits;
    for (Qubit q : qubits)
        bits.push_back(static_cast<Qubit>(q + numQubits_));
    return bits;
}

void
DensityMatrix::applyMatrix(const Matrix &u,
                           const std::vector<Qubit> &qubits)
{
    if (!u.isSquare())
        throw SimulationError("gate matrix must be square");
    checkOperands(u.rows(), qubits, 1);
    // (U rho U^dagger)_{rc} = sum U_{rr'} rho_{r'c'} conj(U_{cc'}):
    // conj(U) on the column bits, U on the row bits.
    const std::vector<Qubit> bits = vecBits(qubits);
    kernels::applyMatrix(rho_.data(), u.conjugate(), qubits);
    kernels::applyMatrix(rho_.data(), u,
                         {bits.begin() + qubits.size(), bits.end()});
}

void
DensityMatrix::applyUnitary(const Operation &op)
{
    if (!opIsUnitary(op.kind))
        throw SimulationError(std::string("applyUnitary on '") +
                              opName(op.kind) + "'");
    if (op.kind == OpKind::I)
        return;
    applyMatrix(op.matrix(), op.qubits);
}

Matrix
DensityMatrix::superoperator(const KrausChannel &channel)
{
    Matrix s(channel.dim() * channel.dim(), channel.dim() * channel.dim());
    // kron puts K's (row-side) index in the high bits and conj(K)'s
    // (column-side) index in the low bits, matching vecBits order.
    for (const Matrix &k : channel.operators())
        s += k.kron(k.conjugate());
    return s;
}

void
DensityMatrix::applySuperoperator(const Matrix &s,
                                  const std::vector<Qubit> &qubits)
{
    if (!s.isSquare())
        throw SimulationError("superoperator must be square");
    checkOperands(s.rows(), qubits, 2);
    kernels::applyMatrix(rho_.data(), s, vecBits(qubits));
}

void
DensityMatrix::applyKraus(const KrausChannel &channel,
                          const std::vector<Qubit> &qubits)
{
    checkOperands(channel.dim(), qubits, 1);
    kernels::applyMatrix(rho_.data(), superoperator(channel),
                         vecBits(qubits));
}

void
DensityMatrix::depolarize(double p, const std::vector<Qubit> &qubits)
{
    if (!(p >= 0.0 && p <= 1.0))
        throw SimulationError("depolarizing probability must lie in "
                              "[0, 1]");
    const std::size_t k = qubits.size();
    if (k == 0)
        throw SimulationError("depolarizing channel needs an operand");
    checkOperands(std::size_t{1} << k, qubits, 1);

    // Sum over all 4^k Paulis of P rho P = 4^k (I/2^k (x) Tr_Q rho),
    // so uniform non-identity errors with total weight p give
    // (1 - l) rho + l (I/2^k (x) Tr_Q rho), l = p 4^k / (4^k - 1).
    const double paulis = static_cast<double>(std::uint64_t{1} << (2 * k));
    const double lambda = p * paulis / (paulis - 1.0);
    const double keep = 1.0 - lambda;
    const double mix = lambda / static_cast<double>(std::uint64_t{1} << k);

    // Group = the 4^k entries sharing every bit outside (Q, Q + n).
    // offsets[(a << k) | b] addresses row-local a, column-local b; the
    // diagonal a == b carries the partial trace.
    std::vector<std::uint64_t> masks;
    for (Qubit b : vecBits(qubits))
        masks.push_back(std::uint64_t{1} << b);
    std::vector<std::uint64_t> offsets(std::size_t{1} << (2 * k), 0);
    for (std::size_t local = 0; local < offsets.size(); ++local)
        for (std::size_t j = 0; j < 2 * k; ++j)
            if ((local >> j) & 1)
                offsets[local] |= masks[j];
    std::vector<std::uint64_t> sorted = masks;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t diag_step = (std::uint64_t{1} << k) + 1;

    Complex *amps = rho_.data().data();
    const std::uint64_t groups = rho_.data().size() >> (2 * k);
    kernels::parallelFor(
        groups,
        std::max<std::uint64_t>(1, kernels::kParallelGrain >> (2 * k)),
        [&](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t base =
                    kernels::expandIndex(h, sorted.data(), 2 * k);
                Complex trace{0.0, 0.0};
                for (std::uint64_t d = 0; d < offsets.size();
                     d += diag_step)
                    trace += amps[base | offsets[d]];
                for (std::uint64_t off : offsets)
                    amps[base | off] *= keep;
                for (std::uint64_t d = 0; d < offsets.size();
                     d += diag_step)
                    amps[base | offsets[d]] += mix * trace;
            }
        });
}

double
DensityMatrix::probabilityOfOne(Qubit q) const
{
    checkQubit(q);
    const std::uint64_t bit = std::uint64_t{1} << q;
    double p1 = 0.0;
    for (std::uint64_t i = 0; i < dim(); ++i)
        if (i & bit)
            p1 += rho_(i, i).real();
    return std::clamp(p1, 0.0, 1.0);
}

void
DensityMatrix::weighQubitBlocks(Qubit q, const std::array<double, 4> &w)
{
    const std::uint64_t col = std::uint64_t{1} << q;
    const std::uint64_t row = std::uint64_t{1} << (q + numQubits_);
    const std::uint64_t sorted[2] = {col, row};
    const std::uint64_t offsets[4] = {0, col, row, col | row};
    Complex *amps = rho_.data().data();
    kernels::parallelFor(
        rho_.data().size() >> 2,
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t base =
                    kernels::expandIndex(h, sorted, 2);
                for (int j = 0; j < 4; ++j)
                    amps[base | offsets[j]] *= w[j];
            }
        });
}

void
DensityMatrix::dephase(Qubit q)
{
    checkQubit(q);
    // Zero the coherences: the blocks whose row and column bits differ.
    weighQubitBlocks(q, {1.0, 0.0, 0.0, 1.0});
}

double
DensityMatrix::postSelect(Qubit q, int outcome)
{
    checkQubit(q);
    const double p1 = probabilityOfOne(q);
    const double p = outcome ? p1 : 1.0 - p1;
    if (p < 1e-12)
        throw SimulationError(
            "post-selection onto a zero-probability branch (qubit " +
            std::to_string(q) + " == " + std::to_string(outcome) + ")");
    // Keep the block where both bits read @p outcome, renormalised.
    if (outcome)
        weighQubitBlocks(q, {0.0, 0.0, 0.0, 1.0 / p});
    else
        weighQubitBlocks(q, {1.0 / p, 0.0, 0.0, 0.0});
    return p;
}

void
DensityMatrix::resetQubit(Qubit q)
{
    checkQubit(q);
    // Reset = Kraus channel {|0><0|, |0><1|}.
    static const Matrix kReset = [] {
        const Matrix k0{{Complex{1.0, 0.0}, Complex{0.0, 0.0}},
                        {Complex{0.0, 0.0}, Complex{0.0, 0.0}}};
        const Matrix k1{{Complex{0.0, 0.0}, Complex{1.0, 0.0}},
                        {Complex{0.0, 0.0}, Complex{0.0, 0.0}}};
        return superoperator(KrausChannel({k0, k1}, "reset"));
    }();
    applySuperoperator(kReset, {q});
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> probs(dim());
    for (std::size_t i = 0; i < dim(); ++i)
        probs[i] = std::max(0.0, rho_(i, i).real());
    return probs;
}

double
DensityMatrix::purity() const
{
    return linalg::purity(rho_);
}

double
DensityMatrix::fidelityWithPure(const std::vector<Complex> &psi) const
{
    return linalg::mixedStateFidelity(rho_, psi);
}

Matrix
DensityMatrix::reducedQubitDensity(Qubit q) const
{
    checkQubit(q);
    std::vector<std::size_t> traced;
    for (std::size_t i = 0; i < numQubits_; ++i)
        if (i != q)
            traced.push_back(i);
    return linalg::partialTrace(rho_, numQubits_, traced);
}

double
DensityMatrix::trace() const
{
    return rho_.trace().real();
}

} // namespace qra
