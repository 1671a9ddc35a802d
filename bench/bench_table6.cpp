/**
 * @file
 * Regenerates Table 6: the configurable TRIPS processor (best mechanism
 * combination per application) against published specialized-hardware
 * results.
 *
 * The specialized-hardware column is the paper's published measurements
 * (MPC 7447 DSP, Imagine, Tarantula, CryptoManiac, QuadroFX / Pentium 4);
 * those systems cannot be re-run, so the comparison recomputes only the
 * TRIPS column from our simulation. Where the paper's metric is
 * ops/cycle or cycles/block we compare directly; for rate metrics we
 * report our records-per-kilocycle (clock normalization to each
 * reference's frequency is the paper's step we cannot reproduce without
 * its cycle-time model).
 *
 * `bench_table6 --help` lists the options.
 * --quick divides every kernel's scale by 8; --jobs (or DLP_JOBS) runs
 * the simulations concurrently on the sweep driver.
 */

#include <iostream>

#include "analysis/experiments.hh"
#include "analysis/report.hh"
#include "common/logging.hh"
#include "driver/cli.hh"

using namespace dlp;
using namespace dlp::analysis;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    uint64_t scaleDiv = 1;
    driver::SweepOptions opts;
    driver::Cli({
        {"--quick", nullptr, "divide every kernel's scale by 8",
         [&](auto, auto &) { scaleDiv = 8; }},
        driver::jobsOption(opts.jobs),
    }).parse(argc, argv);

    struct Row
    {
        const char *kernel;
        const char *paperTrips;
        const char *specialized;
        const char *reference;
        const char *units;
        bool cyclesPerRecord; ///< metric directly comparable to ours
    };
    static const Row rows[] = {
        {"convert", "19016", "960", "MPC 7447 1.3GHz (DSP)",
         "iterations/sec (paper)", false},
        {"highpassfilter", "2820", "907", "MPC 7447 1.3GHz (DSP)",
         "iterations/sec (paper)", false},
        {"dct", "33.9", "8.2", "Imagine (media processor)", "ops/cycle",
         false},
        {"fft", "14.4", "28", "Tarantula (vector core)", "ops/cycle",
         false},
        {"lu", "10.6", "15", "Tarantula (vector core)", "ops/cycle",
         false},
        {"md5", "14.6", "-", "CryptoManiac", "cycles/block", true},
        {"blowfish", "6", "80", "CryptoManiac", "cycles/block", true},
        {"rijndael", "12", "100", "CryptoManiac", "cycles/block", true},
        {"fragment-reflection", "86", "-", "QuadroFX 450MHz",
         "Mfragments/sec (paper)", false},
        {"fragment-simple", "193", "1500", "QuadroFX 450MHz",
         "Mfragments/sec (paper)", false},
        {"vertex-reflection", "434", "-", "Pentium4 2.4GHz",
         "Mtriangles/sec (paper)", false},
        {"vertex-simple", "418", "64", "Pentium4 2.4GHz",
         "Mtriangles/sec (paper)", false},
        {"vertex-skinning", "207", "-", "Pentium4 2.4GHz",
         "Mtriangles/sec (paper)", false},
    };

    std::cout << "Running best-configuration experiments...\n\n";
    Grid grid = runGrid(scaleDiv, 1234, opts);

    std::cout << "Table 6: configurable TRIPS vs. specialized hardware\n\n";
    TextTable t;
    t.header({"Benchmark", "best cfg", "ours ops/cyc", "ours cyc/rec",
              "paper TRIPS", "specialized", "reference", "paper units"});
    for (const auto &r : rows) {
        const auto &res = grid.at(r.kernel).at(bestConfig(grid, r.kernel));
        double cycPerRec = double(res.cycles) / double(res.records);
        t.row({r.kernel, res.config, fmt(res.opsPerCycle()),
               fmt(cycPerRec, 1), r.paperTrips,
               r.specialized, r.reference, r.units});
    }
    t.print(std::cout);

    std::cout
        << "\nDirectly comparable rows: dct/fft/lu (ops/cycle) and the\n"
           "crypto rows (our cycles/record vs the paper's cycles/block).\n"
           "The paper's qualitative claims: TRIPS beats the DSP and the\n"
           "Pentium4 vertex path, is ~2x behind Tarantula on the\n"
           "scientific codes, an order of magnitude ahead of serial\n"
           "packet processing, and ~8x behind dedicated fragment "
           "hardware.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
