/**
 * @file
 * The solver's trajectory, pinned exactly. CoSA solves the 23 unique
 * ResNet-50 layers on the Simba baseline one after another, one
 * single-layer request per layer on a shared ScheduleCache, so every
 * later layer warm-starts from its nearest solved neighbor. Under a
 * work budget each counter below follows from the pivot sequence alone,
 * so it must repeat to the last bit on any host and at any load.
 *
 * The rule: a change that moves a pivot sequence pastes the table this
 * test prints on failure over the golden below, and says why in
 * CHANGES.md. Timings are not pinned; perfbench's traced run reports
 * them per layer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/scheduler_service.hpp"
#include "problem/workloads.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

/** One layer's solve: the deterministic counters and the schedule's
 *  evaluation. */
struct LayerTrajectory
{
    std::string layer;
    bool found;
    std::int64_t lp_iterations;
    std::int64_t mip_nodes;
    std::int64_t warm_starts_installed;
    std::int64_t warm_start_hits;
    std::int64_t lu_factorizations;
    std::int64_t lu_eta_updates;
    double cycles;
    double energy_pj;
};

// {layer, found, lp_iterations, mip_nodes, warm_starts_installed,
//  warm_start_hits, lu_factorizations, lu_eta_updates, cycles, energy_pj}
const std::vector<LayerTrajectory> kHalfSecondBudget = {
    {"7_112_3_64_2", true, 4329, 1, 0, 0, 196, 4317,
     1737558.375, 2438674059.6000004},
    {"1_56_64_64_1", true, 2520, 107, 1, 0, 76, 2405,
     124600.0, 479568198.39999998},
    {"3_56_64_64_1", true, 3539, 1, 1, 1, 122, 3522,
     827064.0, 2418087033.5999999},
    {"1_56_64_256_1", true, 2517, 76, 1, 1, 77, 2434,
     501440.0, 1931778784.0},
    {"1_56_256_64_1", true, 2851, 98, 1, 1, 79, 2746,
     354408.0, 604986822.39999998},
    {"1_56_256_128_1", true, 3115, 75, 1, 1, 100, 3033,
     709224.0, 1219390918.4000001},
    {"3_28_128_128_2", true, 3811, 1, 1, 0, 154, 3797,
     1943424.0, 6446071766.3999996},
    {"1_28_128_512_1", true, 2507, 95, 1, 1, 74, 2405,
     516096.0, 1945629552.0},
    {"1_28_256_512_2", true, 2507, 108, 1, 0, 79, 2392,
     248192.0, 1253904563.2},
    {"1_28_512_128_1", true, 2513, 54, 1, 1, 100, 2452,
     603134.6875, 661383395.20000005},
    {"1_28_512_256_1", true, 2505, 51, 1, 1, 94, 2447,
     1206270.6875, 1332462204.8},
    {"3_14_256_256_2", true, 4047, 1, 1, 0, 185, 4031,
     1838592.0, 6107658244.8000002},
    {"1_14_256_1024_1", true, 2505, 48, 1, 1, 96, 2449,
     526847.25, 1989181444.8},
    {"1_14_512_1024_2", true, 2503, 47, 1, 0, 98, 2448,
     602111.625, 1709120011.2},
    {"1_14_1024_256_1", true, 2517, 68, 1, 1, 91, 2441,
     232960.0, 686479897.60000002},
    {"3_14_256_256_1", true, 3846, 1, 1, 1, 161, 3829,
     1219856.0, 2509960908.8000002},
    {"1_14_1024_512_1", true, 7158, 1, 1, 1, 457, 7148,
     465920.0, 1377539609.5999999},
    {"3_7_512_512_2", true, 5390, 1, 1, 0, 262, 5373,
     1697472.0, 4503604684.8000002},
    {"1_7_512_2048_1", true, 2503, 55, 1, 1, 79, 2439,
     404544.0, 591320723.20000005},
    {"1_7_1024_2048_2", true, 6729, 2, 1, 0, 409, 6717,
     1502592.0, 1312291884.8000002},
    {"1_7_2048_512_1", true, 2502, 65, 1, 1, 80, 2426,
     802816.0, 1072604211.2},
    {"3_7_512_512_1", true, 4531, 1, 1, 0, 177, 4520,
     1069056.0, 1748910950.4000001},
    {"1_1_2048_1000_1", true, 2511, 531, 1, 1, 80, 1972,
     128315.5, 436003249.19999999},
};

const std::vector<LayerTrajectory> kDefaultBudget = {
    {"7_112_3_64_2", true, 11430, 32, 0, 0, 480, 11385,
     1737558.375, 2438674059.6000004},
    {"1_56_64_64_1", true, 25015, 2022, 1, 0, 714, 22985,
     98336.0, 388948729.60000002},
    {"3_56_64_64_1", true, 12443, 43, 1, 1, 474, 12382,
     600096.0, 1639614816.0},
    {"1_56_64_256_1", true, 25005, 1558, 1, 1, 792, 23440,
     399744.0, 1583214534.4000001},
    {"1_56_256_64_1", true, 25093, 917, 1, 1, 733, 24168,
     354408.0, 604986822.39999998},
    {"1_56_256_128_1", true, 28034, 740, 1, 1, 910, 27287,
     473088.0, 1242147168.0},
    {"3_28_128_128_2", true, 13142, 610, 1, 0, 504, 12519,
     615104.0, 1213443419.1999998},
    {"1_28_128_512_1", true, 25004, 1062, 1, 1, 757, 23934,
     487424.0, 1600491696.0},
    {"1_28_256_512_2", true, 27836, 1351, 1, 0, 953, 26471,
     248192.0, 1253904563.2},
    {"1_28_512_128_1", true, 25001, 2650, 1, 1, 662, 22344,
     473088.0, 631565897.60000002},
    {"1_28_512_256_1", true, 25006, 749, 1, 1, 834, 24249,
     946176.0, 1267701731.2},
    {"3_14_256_256_2", true, 10167, 46, 1, 1, 485, 10105,
     348880.0, 1064075520.0},
    {"1_14_256_1024_1", true, 25031, 1035, 1, 1, 888, 23988,
     526847.25, 1637093272.0},
    {"1_14_512_1024_2", true, 26851, 597, 1, 0, 1145, 26244,
     602111.625, 1709120011.2},
    {"1_14_1024_256_1", true, 25174, 816, 1, 1, 769, 24350,
     232960.0, 686479897.60000002},
    {"3_14_256_256_1", true, 10371, 108, 1, 1, 419, 10249,
     339808.0, 1032113049.5999999},
    {"1_14_1024_512_1", true, 25553, 1255, 1, 1, 1070, 24289,
     465920.0, 1377539609.5999999},
    {"3_7_512_512_2", true, 10979, 11, 1, 1, 596, 10952,
     921600.0, 1447389312.0},
    {"1_7_512_2048_1", true, 25004, 2808, 1, 1, 514, 22187,
     404544.0, 591320723.20000005},
    {"1_7_1024_2048_2", true, 27382, 426, 1, 0, 1499, 26936,
     203616.0, 1023298150.4000001},
    {"1_7_2048_512_1", true, 25014, 1412, 1, 1, 656, 23591,
     802816.0, 1072604211.2},
    {"3_7_512_512_1", true, 9097, 231, 1, 1, 302, 8855,
     921600.0, 1418978227.2},
    {"1_1_2048_1000_1", true, 3075, 664, 1, 1, 107, 2403,
     128315.5, 436003249.19999999},
};

std::vector<LayerTrajectory>
runSweep(std::int64_t work_limit)
{
    ScheduleRequest request;
    request.scheduler = SchedulerKind::Cosa;
    request.cosa.mip.work_limit = work_limit;
    // Only the work budget may end a solve: under a sanitizer on a slow
    // host the default 30 s safety net could bind first, and the counts
    // would then depend on the host.
    request.cosa.mip.time_limit_sec = 600.0;
    request.max_parallelism = 1;
    request.cache = std::make_shared<ScheduleCache>();

    std::vector<LayerTrajectory> rows;
    for (const LayerSpec& layer : workloads::resNet50().layers) {
        const SearchResult r = test::scheduleLayer(request, layer,
                                                   ArchSpec::simbaBaseline());
        const SearchStats& s = r.stats;
        rows.push_back({layer.name, r.found, s.lp_iterations, s.mip_nodes,
                        s.warm_starts_installed, s.warm_start_hits,
                        s.lu_factorizations, s.lu_eta_updates,
                        r.eval.cycles, r.eval.energy_pj});
    }
    return rows;
}

std::string show(const std::string& v) { return "\"" + v + "\""; }
std::string show(bool v) { return v ? "true" : "false"; }
std::string show(std::int64_t v) { return std::to_string(v); }

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
pasteReady(const char* table, const std::vector<LayerTrajectory>& rows)
{
    std::string out = "const std::vector<LayerTrajectory> ";
    out += table;
    out += " = {\n";
    for (const LayerTrajectory& r : rows) {
        out += "    {" + show(r.layer) + ", " + show(r.found) + ", " +
               show(r.lp_iterations) + ", " + show(r.mip_nodes) + ", " +
               show(r.warm_starts_installed) + ", " +
               show(r.warm_start_hits) + ", " +
               show(r.lu_factorizations) + ", " + show(r.lu_eta_updates) +
               ",\n     " + show(r.cycles) + ", " + show(r.energy_pj) +
               "},\n";
    }
    return out + "};\n";
}

/** Run the sweep at @p work_limit and compare every field of every
 *  layer with @p golden; on any difference, name each moved field and
 *  print the whole new table. */
void
expectSweep(const char* table, std::int64_t work_limit,
            const std::vector<LayerTrajectory>& golden)
{
    const std::vector<LayerTrajectory> got = runSweep(work_limit);
    std::string diffs;
    if (got.size() != golden.size()) {
        diffs += "  layer count: pinned " + std::to_string(golden.size()) +
                 ", got " + std::to_string(got.size()) + "\n";
    }
    for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
        const LayerTrajectory& want = golden[i];
        const LayerTrajectory& have = got[i];
        auto field = [&](const char* name, const auto& w, const auto& h) {
            if (w != h)
                diffs += "  " + have.layer + " " + name + ": pinned " +
                         show(w) + ", got " + show(h) + "\n";
        };
        field("layer", want.layer, have.layer);
        field("found", want.found, have.found);
        field("lp_iterations", want.lp_iterations, have.lp_iterations);
        field("mip_nodes", want.mip_nodes, have.mip_nodes);
        field("warm_starts_installed", want.warm_starts_installed,
              have.warm_starts_installed);
        field("warm_start_hits", want.warm_start_hits, have.warm_start_hits);
        field("lu_factorizations", want.lu_factorizations,
              have.lu_factorizations);
        field("lu_eta_updates", want.lu_eta_updates, have.lu_eta_updates);
        field("cycles", want.cycles, have.cycles);
        field("energy_pj", want.energy_pj, have.energy_pj);
    }
    if (!diffs.empty()) {
        ADD_FAILURE() << "the solver trajectory at " << work_limit
                      << " work units moved:\n"
                      << diffs << "If the move is intended, paste this over "
                      << table << " and say why in CHANGES.md:\n"
                      << pasteReady(table, got);
    }
}

TEST(SolverTrajectory, ResNet50SweepAtHalfSecondBudget)
{
    expectSweep("kHalfSecondBudget", 2'500, kHalfSecondBudget);
}

TEST(SolverTrajectory, ResNet50SweepAtDefaultBudget)
{
    expectSweep("kDefaultBudget", 25'000, kDefaultBudget);
}

} // namespace
} // namespace cosa
