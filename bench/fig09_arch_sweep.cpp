/**
 * @file
 * Fig. 9 reproduction: geomean speedups over Random on the two
 * architecture variants — (a) an 8x8 PE array with doubled NoC/DRAM
 * bandwidth and (b) doubled local buffers with an 8x global buffer —
 * demonstrating that CoSA's advantage generalizes across hardware
 * (paper: 4.4x/1.1x over Random/TLH on 8x8; 5.7x/1.4x on big buffers).
 * Each scheduler is one request per arch batching all four suites.
 */

#include "comparison_sweep.hpp"

int
main()
{
    using namespace cosa;
    const bench::BenchSettings settings = bench::BenchSettings::fromEnv();
    for (const ArchSpec& arch :
         {ArchSpec::simba8x8(), ArchSpec::simbaBigBuffers()}) {
        const bench::Comparison comparison = bench::compareSchedulers(
            workloads::allSuites(), arch,
            {.settings = settings, .tag = "fig09/" + arch.name + "/"});
        bench::printNetworkTable(comparison,
                                 "Fig. 9 [" + arch.name +
                                     "]: geomean speedup over Random");
        std::cout << "\n";
    }
    std::cout << "(paper: 8x8 -> Random 4.4x CoSA, big buffers -> 5.7x)\n";
    return 0;
}
