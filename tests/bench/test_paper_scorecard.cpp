/**
 * @file
 * The paper scorecard, pinned exactly. The comparison sweep behind the
 * figure benches (bench/comparison_sweep.hpp) runs Figs. 6, 7 and 9 at
 * full mode and the default budgets, and every per-network and overall
 * geomean speedup over Random must repeat to the last bit, with the
 * number of layers it covers. CoSA's budget is in work units and
 * Random and Hybrid are seeded, so the figures repeat on any host and
 * at any load; the sweep reads no environment, so COSA_BENCH_QUICK and
 * COSA_TIME_LIMIT do not reach it.
 *
 * docs/paper-scorecard.md sets these figures beside the paper's. The
 * rule: a change that moves them pastes the table this test prints on
 * failure over the golden below, updates that page, and says why in
 * CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comparison_sweep.hpp"

namespace cosa {
namespace {

using bench::Speedup;

// {network, layers compared, Random/TLH geomean, Random/CoSA geomean};
// the last row is the geomean over every compared layer.
const std::vector<Speedup> kFig6Latency = {
    {"AlexNet", 8, 2.3994340256225675, 0.83140103267574506},
    {"ResNet-50", 23, 3.5229244269541775, 2.6404828455272265},
    {"ResNeXt-50", 25, 3.1474944703018783, 2.6784770042772164},
    {"DeepBench", 9, 3.5402356848936729, 1.796367758257466},
    {"overall", 65, 3.2199349070454573, 2.1834225823162838},
};

const std::vector<Speedup> kFig7Energy = {
    {"AlexNet", 8, 1.5667054081889094, 0.76755610281643205},
    {"ResNet-50", 23, 2.0916756798741369, 1.8760987567219973},
    {"ResNeXt-50", 25, 1.8994027637265898, 1.7851592433112669},
    {"DeepBench", 9, 2.0499491410498996, 1.2955609285558471},
    {"overall", 65, 1.9396750134019038, 1.5664628614909837},
};

const std::vector<Speedup> kFig9Simba8x8 = {
    {"AlexNet", 8, 2.7056679467957419, 3.6616448628578344},
    {"ResNet-50", 23, 3.9862606508432226, 3.5672185619823087},
    {"ResNeXt-50", 25, 4.1129340292488035, 4.4680692969813256},
    {"DeepBench", 9, 3.6114989795422474, 4.0655673483597718},
    {"overall", 65, 3.7943846371371146, 3.973756487520578},
};

const std::vector<Speedup> kFig9BigBuffers = {
    {"AlexNet", 8, 2.5386825845797323, 1.2859534953380922},
    {"ResNet-50", 23, 3.8910999512522837, 2.2397311331136471},
    {"ResNeXt-50", 25, 3.7363652504177636, 2.5848831124655431},
    {"DeepBench", 9, 3.2751175660282108, 1.7233531751576683},
    {"overall", 65, 3.5489896059848984, 2.1316624920791152},
};

/** The sweep's per-network geomeans, then the overall one. */
std::vector<Speedup>
runSweep(const ArchSpec& arch, SearchObjective objective)
{
    const bench::Comparison comparison = bench::compareSchedulers(
        workloads::allSuites(), arch, {.objective = objective});
    std::vector<Speedup> rows;
    for (const bench::NetworkSpeedups& net : comparison.networks)
        rows.push_back(net.geomean);
    rows.push_back(comparison.overall);
    return rows;
}

std::string show(const std::string& v) { return "\"" + v + "\""; }
std::string show(int v) { return std::to_string(v); }

/** Round-trip exact, and always a floating literal. */
std::string
show(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::string out = buf;
    if (!std::strpbrk(buf, ".e"))
        out += ".0";
    return out;
}

/** @p rows as a C++ initializer, ready to paste over @p table. */
std::string
pasteReady(const char* table, const std::vector<Speedup>& rows)
{
    std::string out = "const std::vector<Speedup> ";
    out += table;
    out += " = {\n";
    for (const Speedup& r : rows) {
        out += "    {" + show(r.name) + ", " + show(r.layers) + ", " +
               show(r.tlh_x) + ", " + show(r.cosa_x) + "},\n";
    }
    return out + "};\n";
}

/** Run the sweep and compare every field of every row with @p golden;
 *  on any difference, name each moved field and print the new table. */
void
expectScores(const char* table, const ArchSpec& arch,
             SearchObjective objective, const std::vector<Speedup>& golden)
{
    const std::vector<Speedup> got = runSweep(arch, objective);
    std::string diffs;
    if (got.size() != golden.size()) {
        diffs += "  row count: pinned " + std::to_string(golden.size()) +
                 ", got " + std::to_string(got.size()) + "\n";
    }
    for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
        const Speedup& want = golden[i];
        const Speedup& have = got[i];
        auto field = [&](const char* name, const auto& w, const auto& h) {
            if (w != h)
                diffs += "  " + have.name + " " + name + ": pinned " +
                         show(w) + ", got " + show(h) + "\n";
        };
        field("network", want.name, have.name);
        field("layers", want.layers, have.layers);
        field("tlh_x", want.tlh_x, have.tlh_x);
        field("cosa_x", want.cosa_x, have.cosa_x);
    }
    if (!diffs.empty()) {
        ADD_FAILURE() << "the scorecard " << table << " on " << arch.name
                      << " moved:\n"
                      << diffs << "If the move is intended, paste this over "
                      << table
                      << ", update docs/paper-scorecard.md and say why in "
                         "CHANGES.md:\n"
                      << pasteReady(table, got);
    }
}

TEST(PaperScorecard, Fig6LatencyOnSimba)
{
    expectScores("kFig6Latency", ArchSpec::simbaBaseline(),
                 SearchObjective::Latency, kFig6Latency);
}

TEST(PaperScorecard, Fig7EnergyOnSimba)
{
    expectScores("kFig7Energy", ArchSpec::simbaBaseline(),
                 SearchObjective::Energy, kFig7Energy);
}

TEST(PaperScorecard, Fig9LatencyOnSimba8x8)
{
    expectScores("kFig9Simba8x8", ArchSpec::simba8x8(),
                 SearchObjective::Latency, kFig9Simba8x8);
}

TEST(PaperScorecard, Fig9LatencyOnBigBuffers)
{
    expectScores("kFig9BigBuffers", ArchSpec::simbaBigBuffers(),
                 SearchObjective::Latency, kFig9BigBuffers);
}

} // namespace
} // namespace cosa
