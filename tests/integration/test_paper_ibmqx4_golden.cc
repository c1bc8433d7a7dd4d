/**
 * @file
 * Golden exact distributions of the paper's seven ibmqx4 jobs.
 *
 * Table 1 (classical), Table 2 (entanglement) and Sec. 4.3
 * (superposition) with hand checks, plus Bell / GHZ3 / GHZ4 / W3 with
 * auto-generated checks, each compiled to the ibmqx4 coupling map
 * (the pipeline JobQueue runs) and evaluated exactly by the density
 * backend under DeviceModel::ibmqx4()'s noise. The values were
 * recorded from the row/column-copy density backend that the vec(rho)
 * kernels replaced; agreement to 1e-12 pins the paper's numbers to
 * what that implementation produced.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "runtime/job_queue.hh"
#include "sim/density_simulator.hh"

namespace qra {
namespace {

std::string
header(std::size_t qubits)
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

/** W3 as the benchmark writes it: x, two controlled-RY splits. */
std::string
w3Program()
{
    const double t1 = 2.0 * std::acos(std::sqrt(1.0 / 3.0));
    const double t2 = 2.0 * std::acos(std::sqrt(1.0 / 2.0));
    std::string s = header(3) + "x q[0];\n";
    s += "ry(" + angle(t1 / 2) + ") q[1];\ncx q[0],q[1];\n";
    s += "ry(" + angle(-t1 / 2) + ") q[1];\ncx q[0],q[1];\n";
    s += "cx q[1],q[0];\n";
    s += "ry(" + angle(t2 / 2) + ") q[2];\ncx q[1],q[2];\n";
    s += "ry(" + angle(-t2 / 2) + ") q[2];\ncx q[1],q[2];\n";
    s += "cx q[2],q[1];\n";
    return s + measureAll(3);
}

struct Golden
{
    const char *name;
    std::size_t qubits;
    std::size_t clbits;
    std::uint64_t circuitHash;
    std::map<std::uint64_t, double> distribution;
};

const std::vector<Golden> &
goldens()
{
    static const std::vector<Golden> table = {
        {"table1", 5, 2, 0x1a62acc423a1638cULL,
         {
             {0, 0.92986368839165412},
             {1, 0.03267506191319143},
             {2, 0.029150562286551954},
             {3, 0.0083106874086024372},
         }},
        {"table2", 5, 3, 0x68429d4ed76a75ffULL,
         {
             {0, 0.42009693966027367},
             {1, 0.046904888195736585},
             {2, 0.051938905679513238},
             {3, 0.37555577819740982},
             {4, 0.03141053027119943},
             {5, 0.022932920572249698},
             {6, 0.023832580666881539},
             {7, 0.027327456756737454},
         }},
        {"sec43", 5, 2, 0x2fdcd04cd404fb80ULL,
         {
             {0, 0.48678235351118609},
             {1, 0.44647810328905263},
             {2, 0.034797934363461742},
             {3, 0.03194160883629979},
         }},
        {"bell", 5, 3, 0x68429d4ed76a75ffULL,
         {
             {0, 0.42009693966027367},
             {1, 0.046904888195736585},
             {2, 0.051938905679513238},
             {3, 0.37555577819740982},
             {4, 0.03141053027119943},
             {5, 0.022932920572249698},
             {6, 0.023832580666881539},
             {7, 0.027327456756737454},
         }},
        {"ghz3", 5, 4, 0x5649425f64314de3ULL,
         {
             {0, 0.34395290640712051},
             {1, 0.041112315657591908},
             {2, 0.028657481358578873},
             {3, 0.040597275066172819},
             {4, 0.038281172007331332},
             {5, 0.02865447683968942},
             {6, 0.052748465938396882},
             {7, 0.26532300058455327},
             {8, 0.032675415970486177},
             {9, 0.026195598726242067},
             {10, 0.013689743989529938},
             {11, 0.0059708090361025867},
             {12, 0.0076388899845344855},
             {13, 0.012598243947992414},
             {14, 0.036109456339908558},
             {15, 0.025794748145770291},
         }},
        {"ghz4", 5, 5, 0xf0650a80d6dc95fbULL,
         {
             {0, 0.25987173278445974},
             {1, 0.015549796509954191},
             {2, 0.02254753801005252},
             {3, 0.011643917270608503},
             {4, 0.024148767063560114},
             {5, 0.0063444575133568314},
             {6, 0.008488570960270397},
             {7, 0.01870226608235474},
             {8, 0.018474822702558881},
             {9, 0.0085229542729855137},
             {10, 0.0081942158766883984},
             {11, 0.025666159008115596},
             {12, 0.015240802869019424},
             {13, 0.031889478254377587},
             {14, 0.035230940946923209},
             {15, 0.17604322714918377},
             {16, 0.047162902287599021},
             {17, 0.014049944589792206},
             {18, 0.012931166491907243},
             {19, 0.014042127514968406},
             {20, 0.025108383174667268},
             {21, 0.0067526875888475838},
             {22, 0.014714852402766399},
             {23, 0.024091439826543996},
             {24, 0.033155105406578116},
             {25, 0.014485361305629446},
             {26, 0.0078889442825584577},
             {27, 0.019695693780590811},
             {28, 0.015802598942647079},
             {29, 0.014506684331674832},
             {30, 0.018667680446532445},
             {31, 0.030384780352233784},
         }},
        {"w3", 5, 4, 0x30a84d4bc3f901bcULL,
         {
             {0, 0.07087638352654782},
             {1, 0.2469659166609513},
             {2, 0.24647308611922364},
             {3, 0.036108373480212667},
             {4, 0.21499051313485334},
             {5, 0.033023224452444926},
             {6, 0.032156901562452572},
             {7, 0.01745740505524759},
             {8, 0.026435741702074276},
             {9, 0.015969321372340209},
             {10, 0.014760526826016085},
             {11, 0.013941566776767974},
             {12, 0.013018367006827144},
             {13, 0.012237977646377244},
             {14, 0.0031213782342641881},
             {15, 0.0024633164434003864},
         }},
    };
    return table;
}

std::string
programText(const std::string &name)
{
    if (name == "table1")
        return header(1) + "// qra:assert-classical q[0] == 0\n" +
               measureAll(1);
    if (name == "table2")
        return header(2) + "h q[0];\ncx q[0],q[1];\n" +
               "// qra:assert-entangled q[0], q[1]\n" + measureAll(2);
    if (name == "sec43")
        return header(1) + "h q[0];\n" +
               "// qra:assert-superposition q[0] +\n" + measureAll(1);
    if (name == "bell")
        return header(2) + "h q[0];\ncx q[0],q[1];\n" + measureAll(2);
    if (name == "ghz3")
        return header(3) + "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n" +
               measureAll(3);
    if (name == "ghz4")
        return header(4) +
               "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n" +
               measureAll(4);
    return w3Program();
}

TEST(PaperIbmqx4GoldenTest, ExactDistributionsUnchanged)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel noise = device.noiseModel();
    const CouplingMap coupling = device.couplingMap();

    for (const Golden &golden : goldens()) {
        SCOPED_TRACE(golden.name);
        const AnnotatedProgram program =
            parseAnnotatedQasm(programText(golden.name));
        runtime::JobSpec spec;
        spec.circuit = program.payload;
        spec.assertions = program.specs;
        spec.coupling = &coupling;
        if (program.specs.empty())
            spec.injection = compile::InjectionStrategy::AutoGenerate;
        const compile::CompileContext ctx = compile::prepare(
            program.payload, runtime::prepareSpec(spec));

        // A different compiled circuit would make the comparison
        // below meaningless: say so separately.
        ASSERT_EQ(ctx.circuit.numQubits(), golden.qubits);
        ASSERT_EQ(ctx.circuit.numClbits(), golden.clbits);
        EXPECT_EQ(ctx.circuit.hash(), golden.circuitHash)
            << "the compiled circuit changed; the golden no longer "
               "applies";

        DensityMatrixSimulator sim;
        sim.setNoiseModel(&noise);
        const std::map<std::uint64_t, double> dist =
            sim.exactDistribution(ctx.circuit);
        ASSERT_EQ(dist.size(), golden.distribution.size());
        for (const auto &[reg, p] : golden.distribution) {
            ASSERT_EQ(dist.count(reg), 1u) << "outcome " << reg;
            EXPECT_NEAR(dist.at(reg), p, 1e-12) << "outcome " << reg;
        }
    }
}

} // namespace
} // namespace qra
