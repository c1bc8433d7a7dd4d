#include "noise/noise_model.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hh"
#include "common/hash.hh"
#include "noise/channels.hh"

namespace qra {

bool
NoiseModel::enabled() const
{
    return !gateError_.empty() || !operandGateError_.empty() ||
           !relaxation_.empty() || !readout_.empty();
}

void
NoiseModel::setGateError(OpKind kind, double p)
{
    if (!opIsUnitary(kind))
        throw NoiseError("gate errors apply to unitary gates only");
    if (p < 0.0 || p > 1.0)
        throw NoiseError("gate error probability must lie in [0, 1]");
    gateError_[kind] = p;
}

void
NoiseModel::setGateError(OpKind kind, const std::vector<Qubit> &qubits,
                         double p)
{
    if (!opIsUnitary(kind))
        throw NoiseError("gate errors apply to unitary gates only");
    if (qubits.size() != opNumQubits(kind))
        throw NoiseError("operand count does not match gate arity");
    if (p < 0.0 || p > 1.0)
        throw NoiseError("gate error probability must lie in [0, 1]");
    operandGateError_[{kind, qubits}] = p;
}

void
NoiseModel::setGateDuration(OpKind kind, double ns)
{
    if (ns < 0.0)
        throw NoiseError("gate duration must be non-negative");
    gateDurationNs_[kind] = ns;
}

void
NoiseModel::setQubitRelaxation(Qubit q, double t1_ns, double t2_ns)
{
    if (t1_ns <= 0.0 || t2_ns <= 0.0)
        throw NoiseError("T1/T2 must be positive");
    if (t2_ns > 2.0 * t1_ns)
        throw NoiseError("unphysical relaxation times: T2 > 2*T1");
    relaxation_[q] = {t1_ns, t2_ns};
}

void
NoiseModel::setReadoutError(Qubit q, ReadoutError error)
{
    readout_[q] = error;
}

NoiseModel
NoiseModel::scaled(double factor) const
{
    if (factor < 0.0)
        throw NoiseError("noise scale factor must be non-negative");

    NoiseModel out;
    auto clamp01 = [](double p) { return std::clamp(p, 0.0, 1.0); };

    for (const auto &[kind, p] : gateError_)
        out.gateError_[kind] = clamp01(p * factor);
    for (const auto &[key, p] : operandGateError_)
        out.operandGateError_[key] = clamp01(p * factor);
    out.gateDurationNs_ = gateDurationNs_;
    for (const auto &[q, relax] : relaxation_) {
        if (factor == 0.0)
            continue; // infinite T1/T2: drop the entry entirely
        out.relaxation_[q] = {relax.t1Ns / factor, relax.t2Ns / factor};
    }
    for (const auto &[q, ro] : readout_) {
        out.readout_[q] = ReadoutError(clamp01(ro.pRead1Given0() * factor),
                                       clamp01(ro.pRead0Given1() * factor));
    }
    return out;
}

std::vector<NoiseModel::DepolarizingSite>
NoiseModel::depolarizingFor(const Operation &op) const
{
    std::vector<DepolarizingSite> out;
    if (!opIsUnitary(op.kind) || op.kind == OpKind::Barrier)
        return out;

    double p = 0.0;
    const auto operand_it = operandGateError_.find({op.kind, op.qubits});
    if (operand_it != operandGateError_.end()) {
        p = operand_it->second;
    } else {
        const auto kind_it = gateError_.find(op.kind);
        if (kind_it != gateError_.end())
            p = kind_it->second;
    }
    if (p <= 0.0)
        return out;

    if (op.qubits.size() == 1 || op.qubits.size() == 2) {
        out.push_back({p, op.qubits});
    } else {
        // Three-qubit gates: apply pairwise two-qubit depolarising
        // noise across the operands (CCX is decomposed on hardware
        // anyway; this is the aggregate model).
        for (std::size_t i = 0; i + 1 < op.qubits.size(); ++i)
            out.push_back({p, {op.qubits[i], op.qubits[i + 1]}});
    }
    return out;
}

std::vector<NoiseModel::AppliedChannel>
NoiseModel::channelsFor(const Operation &op) const
{
    std::vector<AppliedChannel> out;
    for (DepolarizingSite &site : depolarizingFor(op)) {
        KrausChannel channel = site.qubits.size() == 1
                                   ? channels::depolarizing1(site.p)
                                   : channels::depolarizing2(site.p);
        out.push_back({std::move(channel), std::move(site.qubits)});
    }
    return out;
}

std::optional<KrausChannel>
NoiseModel::relaxationFor(Qubit q, double duration_ns) const
{
    if (duration_ns <= 0.0)
        return std::nullopt;
    const auto it = relaxation_.find(q);
    if (it == relaxation_.end())
        return std::nullopt;
    return channels::thermalRelaxation(it->second.t1Ns, it->second.t2Ns,
                                       duration_ns);
}

double
NoiseModel::opDuration(const Operation &op) const
{
    const auto it = gateDurationNs_.find(op.kind);
    return it == gateDurationNs_.end() ? 0.0 : it->second;
}

const ReadoutError *
NoiseModel::readoutFor(Qubit q) const
{
    const auto it = readout_.find(q);
    if (it == readout_.end() || it->second.isPerfect())
        return nullptr;
    return &it->second;
}

std::uint64_t
NoiseModel::fingerprint() const
{
    std::uint64_t h = kFnv1aOffset;
    const auto mix_double = [&](double v) {
        h = fnv1aMix64(h, std::bit_cast<std::uint64_t>(v));
    };
    h = fnv1aMix64(h, gateError_.size());
    for (const auto &[kind, p] : gateError_) {
        h = fnv1aMix64(h, static_cast<std::uint64_t>(kind));
        mix_double(p);
    }
    h = fnv1aMix64(h, operandGateError_.size());
    for (const auto &[key, p] : operandGateError_) {
        h = fnv1aMix64(h, static_cast<std::uint64_t>(key.first));
        // Length prefix keeps the qubit list unambiguous against the
        // probability bits that follow (as Circuit::hash does).
        h = fnv1aMix64(h, key.second.size());
        for (const Qubit q : key.second)
            h = fnv1aMix64(h, static_cast<std::uint64_t>(q));
        mix_double(p);
    }
    h = fnv1aMix64(h, gateDurationNs_.size());
    for (const auto &[kind, ns] : gateDurationNs_) {
        h = fnv1aMix64(h, static_cast<std::uint64_t>(kind));
        mix_double(ns);
    }
    h = fnv1aMix64(h, relaxation_.size());
    for (const auto &[q, relax] : relaxation_) {
        h = fnv1aMix64(h, static_cast<std::uint64_t>(q));
        mix_double(relax.t1Ns);
        mix_double(relax.t2Ns);
    }
    h = fnv1aMix64(h, readout_.size());
    for (const auto &[q, ro] : readout_) {
        h = fnv1aMix64(h, static_cast<std::uint64_t>(q));
        mix_double(ro.pRead1Given0());
        mix_double(ro.pRead0Given1());
    }
    return h;
}

std::string
NoiseModel::str() const
{
    std::ostringstream os;
    os << "NoiseModel{";
    os << "gate errors: " << gateError_.size() + operandGateError_.size();
    os << ", relaxed qubits: " << relaxation_.size();
    os << ", readout qubits: " << readout_.size();
    os << "}";
    return os.str();
}

} // namespace qra
