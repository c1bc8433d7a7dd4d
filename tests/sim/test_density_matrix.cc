/** @file Tests for the DensityMatrix backend. */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "math/gates.hh"
#include "noise/channels.hh"
#include "runtime/thread_pool.hh"
#include "sim/density_matrix.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/state_vector.hh"

namespace qra {
namespace {

/** Evolve the same ops on a StateVector for cross-checking. */
StateVector
statevectorReference(std::size_t nq, const std::vector<Operation> &ops)
{
    StateVector sv(nq);
    for (const Operation &op : ops)
        sv.applyUnitary(op);
    return sv;
}

TEST(DensityMatrixTest, InitialStateIsPureZero)
{
    DensityMatrix dm(2);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, SizeLimits)
{
    EXPECT_THROW(DensityMatrix(0), SimulationError);
    EXPECT_THROW(DensityMatrix(13), SimulationError);
}

TEST(DensityMatrixTest, UnitaryEvolutionMatchesStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
        {.kind = OpKind::T, .qubits = {1}},
        {.kind = OpKind::RY, .qubits = {2}, .params = {0.7}},
        {.kind = OpKind::CZ, .qubits = {1, 2}},
    };
    DensityMatrix dm(3);
    for (const Operation &op : ops)
        dm.applyUnitary(op);

    const StateVector sv = statevectorReference(3, ops);
    EXPECT_NEAR(dm.fidelityWithPure(sv.amplitudes()), 1.0, 1e-10);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-10);
}

TEST(DensityMatrixTest, ProbabilitiesMatchStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
    };
    DensityMatrix dm(2);
    for (const Operation &op : ops)
        dm.applyUnitary(op);
    const StateVector sv = statevectorReference(2, ops);

    const auto dm_probs = dm.probabilities();
    const auto sv_probs = sv.probabilities();
    for (std::size_t i = 0; i < dm_probs.size(); ++i)
        EXPECT_NEAR(dm_probs[i], sv_probs[i], 1e-12) << i;
}

TEST(DensityMatrixTest, FromPureState)
{
    DensityMatrix dm = DensityMatrix::fromPureState(
        {kInvSqrt2, 0.0, 0.0, kInvSqrt2});
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseKillsCoherence)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.5, 1e-12);
    dm.dephase(0);
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.0, 1e-12);
    // Populations survive.
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseOnlyTargetsQubit)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.dephase(0);
    // Qubit 1 keeps its coherence: rho(0,2) couples q1's 0 and 1
    // with q0 fixed at 0.
    EXPECT_NEAR(std::abs(dm.matrix()(0, 2)), 0.25, 1e-12);
}

TEST(DensityMatrixTest, PostSelectProjects)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    const double p = dm.postSelect(0, 1);
    EXPECT_NEAR(p, 0.5, 1e-12);
    // Bell pair projected on q0=1 leaves |11>.
    EXPECT_NEAR(dm.probabilityOfOne(1), 1.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, PostSelectImpossibleThrows)
{
    DensityMatrix dm(1);
    EXPECT_THROW(dm.postSelect(0, 1), SimulationError);
}

TEST(DensityMatrixTest, ResetChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    // Qubit 1 untouched.
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ResetOfSuperposedQubit)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DepolarizingDrivesToMaximallyMixed)
{
    DensityMatrix dm(1);
    dm.applyKraus(channels::depolarizing1(1.0), {0});
    // p=1 depolarising leaves I/2... with our parameterisation
    // p=1 means uniform Paulis: (rho + X rho X + Y rho Y + Z rho Z)/3
    // applied to |0><0| = (|0><0| + 2|1><1| + ... ) — compute:
    // result diag = (1/3)(0,?) -> direct check: trace stays 1.
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.matrix()(0, 0).real() + dm.matrix()(1, 1).real(),
                1.0, 1e-12);
    // With p = 3/4 the channel is exactly the replace-by-I/2 map.
    DensityMatrix dm2(1);
    dm2.applyKraus(channels::depolarizing1(0.75), {0});
    EXPECT_NEAR(dm2.matrix()(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(dm2.matrix()(1, 1).real(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyKraus(channels::amplitudeDamping(0.3), {0});
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.7, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, KrausOnSpecificQubitOfRegister)
{
    DensityMatrix dm(3);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {1}});
    dm.applyKraus(channels::amplitudeDamping(1.0), {1});
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ReducedQubitDensity)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    const Matrix reduced = dm.reducedQubitDensity(0);
    EXPECT_NEAR(reduced(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrixTest, TwoQubitKrausChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    dm.applyKraus(channels::depolarizing2(0.1), {0, 1});
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_LT(dm.purity(), 1.0);
    EXPECT_GT(dm.purity(), 0.8);
}

// ---- Operand validation ----------------------------------------------

TEST(DensityMatrixTest, DuplicateKrausOperandsRejected)
{
    // Used to return a state with trace 0.9467 instead of failing.
    DensityMatrix dm(3);
    EXPECT_THROW(dm.applyKraus(channels::depolarizing2(0.1), {2, 2}),
                 SimulationError);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-15);
}

TEST(DensityMatrixTest, DuplicateMatrixOperandsRejected)
{
    DensityMatrix dm(2);
    EXPECT_THROW(dm.applyMatrix(gates::cx(), {1, 1}), SimulationError);
    EXPECT_THROW(dm.depolarize(0.1, {0, 0}), SimulationError);
    EXPECT_THROW(
        dm.applySuperoperator(DensityMatrix::superoperator(
                                  channels::depolarizing2(0.1)),
                              {1, 1}),
        SimulationError);
}

TEST(DensityMatrixTest, OperandCountMismatchRejected)
{
    DensityMatrix dm(3);
    // A clean error, not the kernel's internal assertion.
    EXPECT_THROW(dm.applyMatrix(gates::cx(), {0}), SimulationError);
    EXPECT_THROW(dm.applyMatrix(gates::h(), {0, 1}), SimulationError);
    EXPECT_THROW(dm.applyKraus(channels::depolarizing2(0.1), {0}),
                 SimulationError);
    EXPECT_THROW(dm.applyKraus(channels::amplitudeDamping(0.1), {0, 1}),
                 SimulationError);
    // A 1q superoperator is 4x4; the Kraus operator itself is not one.
    EXPECT_THROW(dm.applySuperoperator(gates::h(), {0}), SimulationError);
    EXPECT_THROW(dm.applySuperoperator(gates::cx(), {0, 1}),
                 SimulationError);
    EXPECT_THROW(dm.depolarize(0.1, {}), SimulationError);
    EXPECT_THROW(dm.depolarize(1.5, {0}), SimulationError);
    EXPECT_THROW(dm.applyMatrix(gates::h(), {3}), IndexError);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-15);
}

// ---- Brute-force oracle ----------------------------------------------

/**
 * Embed local operator @p k (matrix bit j = qubits[j]) into an
 * n-qubit operator: sum_ij k_ij (x)_m E_m, with E_m = |i_b><j_b| on
 * operand b's qubit and I elsewhere (kron puts its left factor in the
 * high bits, so the chain starts at qubit n - 1).
 */
Matrix
embed(const Matrix &k, const std::vector<Qubit> &qubits, std::size_t n)
{
    const std::size_t dim = std::size_t{1} << n;
    Matrix full(dim, dim);
    for (std::size_t i = 0; i < k.rows(); ++i) {
        for (std::size_t j = 0; j < k.cols(); ++j) {
            if (k(i, j) == Complex{0.0, 0.0})
                continue;
            Matrix term = Matrix::identity(1);
            for (std::size_t m = n; m-- > 0;) {
                Matrix factor = Matrix::identity(2);
                for (std::size_t b = 0; b < qubits.size(); ++b) {
                    if (qubits[b] != m)
                        continue;
                    factor = Matrix(2, 2);
                    factor((i >> b) & 1, (j >> b) & 1) = 1.0;
                }
                term = term.kron(factor);
            }
            full += term * k(i, j);
        }
    }
    return full;
}

/** Dense rho evolved by explicit sum_k K rho K^dagger products. */
struct DenseReference
{
    std::size_t n;
    Matrix rho;

    explicit DenseReference(std::size_t num_qubits)
        : n(num_qubits),
          rho(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits)
    {
        rho(0, 0) = 1.0;
    }

    void apply(const std::vector<Matrix> &kraus,
               const std::vector<Qubit> &qubits)
    {
        Matrix out(rho.rows(), rho.cols());
        for (const Matrix &k : kraus) {
            const Matrix full = embed(k, qubits, n);
            out += full * rho * full.adjoint();
        }
        rho = std::move(out);
    }
};

Matrix
projector(int outcome)
{
    Matrix p(2, 2);
    p(outcome, outcome) = 1.0;
    return p;
}

/** @p count distinct random qubits of an n-qubit register. */
std::vector<Qubit>
randomOperands(Rng &rng, std::size_t n, std::size_t count)
{
    std::vector<Qubit> pool(n);
    for (std::size_t q = 0; q < n; ++q)
        pool[q] = static_cast<Qubit>(q);
    for (std::size_t i = 0; i < count; ++i)
        std::swap(pool[i], pool[i + rng.below(n - i)]);
    pool.resize(count);
    return pool;
}

/**
 * One random step — a gate, a noise channel, reset, measure or
 * post-select — applied to @p dm and, when given, to @p ref.
 */
void
randomStep(Rng &rng, DensityMatrix &dm, DenseReference *ref)
{
    const std::size_t n = dm.numQubits();
    const auto channel = [&](const KrausChannel &c,
                             const std::vector<Qubit> &qubits) {
        dm.applyKraus(c, qubits);
        if (ref != nullptr)
            ref->apply(c.operators(), qubits);
    };
    const double p = 0.3 * rng.uniform();
    std::size_t kind = rng.below(11);
    if (n < 2 && (kind == 1 || kind == 2 || kind == 5))
        kind = 0;
    if (n < 3 && kind == 2)
        kind = 1;
    switch (kind) {
      case 0: {
        static const OpKind kinds[] = {OpKind::H, OpKind::T, OpKind::SX,
                                       OpKind::RX, OpKind::RY,
                                       OpKind::U};
        Operation op{.kind = kinds[rng.below(6)],
                     .qubits = randomOperands(rng, n, 1)};
        for (std::size_t i = 0; i < opNumParams(op.kind); ++i)
            op.params.push_back(6.0 * rng.uniform() - 3.0);
        dm.applyUnitary(op);
        if (ref != nullptr)
            ref->apply({op.matrix()}, op.qubits);
        return;
      }
      case 1:
      case 2: {
        static const OpKind kinds[] = {OpKind::CX, OpKind::CY,
                                       OpKind::CZ, OpKind::Swap};
        const Operation op{.kind = kind == 2 ? OpKind::CCX
                                             : kinds[rng.below(4)],
                           .qubits = randomOperands(rng, n,
                                                    kind == 2 ? 3 : 2)};
        dm.applyUnitary(op);
        if (ref != nullptr)
            ref->apply({op.matrix()}, op.qubits);
        return;
      }
      case 3:
        channel(channels::depolarizing1(p), randomOperands(rng, n, 1));
        return;
      case 4: {
        const std::vector<Qubit> qubits =
            randomOperands(rng, n, n >= 2 ? 1 + rng.below(2) : 1);
        dm.depolarize(p, qubits);
        if (ref != nullptr)
            ref->apply(qubits.size() == 1
                           ? channels::depolarizing1(p).operators()
                           : channels::depolarizing2(p).operators(),
                       qubits);
        return;
      }
      case 5:
        channel(channels::depolarizing2(p), randomOperands(rng, n, 2));
        return;
      case 6: {
        const double t1 = 20e3 + 60e3 * rng.uniform();
        const double t2 = t1 * (0.2 + 1.8 * rng.uniform());
        const KrausChannel relax =
            channels::thermalRelaxation(t1, t2, 5e3 * rng.uniform());
        const std::vector<Qubit> q = randomOperands(rng, n, 1);
        // Half through the cached-superoperator entry point.
        if (rng.below(2) == 0)
            dm.applySuperoperator(DensityMatrix::superoperator(relax), q);
        else
            dm.applyKraus(relax, q);
        if (ref != nullptr)
            ref->apply(relax.operators(), q);
        return;
      }
      case 7:
        channel(channels::amplitudeDamping(p), randomOperands(rng, n, 1));
        return;
      case 8: {
        const Qubit q = randomOperands(rng, n, 1)[0];
        dm.resetQubit(q);
        if (ref != nullptr) {
            Matrix k1(2, 2);
            k1(0, 1) = 1.0;
            ref->apply({projector(0), k1}, {q});
        }
        return;
      }
      case 9: {
        const Qubit q = randomOperands(rng, n, 1)[0];
        dm.dephase(q);
        if (ref != nullptr)
            ref->apply({projector(0), projector(1)}, {q});
        return;
      }
      default: {
        const Qubit q = randomOperands(rng, n, 1)[0];
        const int outcome = static_cast<int>(rng.below(2));
        const double p1 = dm.probabilityOfOne(q);
        if ((outcome ? p1 : 1.0 - p1) < 0.05)
            return; // keep the renormalisation well-conditioned
        const double kept = dm.postSelect(q, outcome);
        if (ref != nullptr) {
            ref->apply({projector(outcome)}, {q});
            EXPECT_NEAR(ref->rho.trace().real(), kept, 1e-12);
            ref->rho *= Complex{1.0 / kept, 0.0};
        }
        return;
      }
    }
}

TEST(DensityMatrixOracleTest, RandomNoisyCircuitsMatchDenseKrausSums)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Rng rng(seed);
        const std::size_t n = 1 + rng.below(6);
        const std::size_t steps = 20 + rng.below(20);
        DensityMatrix dm(n);
        DenseReference ref(n);
        for (std::size_t s = 0; s < steps; ++s)
            randomStep(rng, dm, &ref);

        double worst = 0.0;
        for (std::size_t r = 0; r < dm.dim(); ++r)
            for (std::size_t c = 0; c < dm.dim(); ++c)
                worst = std::max(worst, std::abs(dm.matrix()(r, c) -
                                                 ref.rho(r, c)));
        EXPECT_LE(worst, 1e-12) << "seed " << seed << ", " << n << "q";
        EXPECT_NEAR(dm.trace(), 1.0, 1e-12) << "seed " << seed;
    }
}

TEST(DensityMatrixOracleTest, NineQubitsBitIdenticalAcrossLanesAndTiers)
{
    // 9 qubits = 2^18 vec(rho) amplitudes: large enough that the
    // kernels split across lanes and take their vector paths.
    const auto evolve = [](bool parallel, kernels::simd::Tier tier) {
        runtime::ThreadPool pool(4);
        kernels::ParallelScope lanes(&pool, parallel ? 4 : 1);
        kernels::simd::TierScope scope(static_cast<int>(tier));
        Rng rng(99);
        DensityMatrix dm(9);
        dm.applyUnitary({.kind = OpKind::H, .qubits = {8}});
        for (int s = 0; s < 30; ++s)
            randomStep(rng, dm, nullptr);
        return dm;
    };
    const DensityMatrix oracle = evolve(false, kernels::simd::Tier::Scalar);
    EXPECT_NEAR(oracle.trace(), 1.0, 1e-12);
    const std::vector<Complex> &want = oracle.matrix().data();
    for (const bool parallel : {false, true}) {
        for (const kernels::simd::Tier tier :
             {kernels::simd::Tier::Scalar, kernels::simd::detectedTier()}) {
            const DensityMatrix dm = evolve(parallel, tier);
            const std::vector<Complex> &got = dm.matrix().data();
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(Complex)),
                      0)
                << "lanes " << (parallel ? 4 : 1) << ", tier "
                << kernels::simd::tierName(tier);
        }
    }
}

} // namespace
} // namespace qra
