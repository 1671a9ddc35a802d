/**
 * @file
 * The static performance oracle CLI: lower every kernel of the catalog
 * for every Table 5 machine configuration -- exactly the plans the
 * processor would execute -- and print the cost model's predictions
 * without simulating anything. With --validate it additionally runs
 * the simulator grid and cross-checks the model both ways: the sound
 * lower bound must hold on every run, and the throughput estimate must
 * rank each kernel's configurations like the simulator does.
 *
 *   ./build/examples/cost_report                    # catalog x configs
 *   ./build/examples/cost_report --kernels dct,fft --configs S,S-O
 *   ./build/examples/cost_report --json COST.json
 *   ./build/examples/cost_report --validate --scale-div 8 --jobs 4
 *
 * `cost_report --help` lists the options.
 *
 * Exit status: 0 on success; 1 when --validate finds a bound violation
 * or a kernel below the rank-correlation floor; 2 on a bad command
 * line.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "cost/cost.hh"
#include "driver/cli.hh"
#include "driver/sweep.hh"
#include "kernels/catalog.hh"
#include "verify/cost_invariants.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::vector<std::string> kernelNames = kernels::kernelNames();
    std::vector<std::string> configNames = arch::allConfigNames();
    std::string jsonPath;
    bool validate = false;
    double minSpearman = 0.9;
    uint64_t scaleDiv = 8;
    uint64_t seed = 1234;
    unsigned jobs = 0;

    driver::Cli({
        driver::kernelsOption(kernelNames, "all of Table 1"),
        driver::configsOption(configNames, "all of Table 5"),
        {"--json", "FILE", "write the report as a JSON document",
         driver::setString(jsonPath)},
        {"--validate", nullptr, "also simulate the grid and cross-check",
         driver::setFlag(validate)},
        {"--min-spearman", "X", "rank-correlation floor (default: 0.9)",
         driver::setReal(minSpearman, -1.0, 1.0)},
        {"--scale-div", "N", "shrink simulated problems (default: 8)",
         driver::setUint(scaleDiv)},
        {"--seed", "N", "dataset seed of the grid (default: 1234)",
         driver::setUint(seed)},
        driver::jobsOption(jobs),
    }).parse(argc, argv);

    std::vector<kernels::Kernel> kernelSet;
    for (const auto &n : kernelNames)
        kernelSet.push_back(kernels::kernelByName(n));

    // --- Static predictions (no simulation) -----------------------------
    using json::Value;
    Value jreports = Value::array();

    std::printf("%-20s %-9s %10s %8s %6s %6s  %s\n", "kernel", "config",
                "pred t/rec", "bound/act", "hops", "rsOcc", "bottleneck");
    for (const auto &k : kernelSet) {
        for (const auto &configName : configNames) {
            core::MachineParams m = arch::configByName(configName);
            cost::CostReport rep = arch::lowerFor(k, m).cost;
            std::printf("%-20s %-9s %10.1f %8" PRIu64 " %6" PRIu64
                        " %6.2f  %s\n",
                        k.name.c_str(), configName.c_str(),
                        rep.predictedTicksPerRecord,
                        rep.mimd ? rep.minCycleInsts * ticksPerCycle
                                 : rep.boundTicksPerActivation,
                        rep.hopMass, rep.rsOccupancy,
                        rep.bottleneck.empty() ? "-"
                                               : rep.bottleneck.c_str());

            if (!jsonPath.empty()) {
                Value jr = Value::object();
                jr.set("kernel", k.name);
                jr.set("config", configName);
                jr.set("mimd", rep.mimd);
                jr.set("unroll", uint64_t(rep.unroll));
                jr.set("segments", uint64_t(rep.segments.size()));
                jr.set("predictedTicksPerRecord",
                       rep.predictedTicksPerRecord);
                jr.set("boundTicksPerActivation",
                       rep.boundTicksPerActivation);
                jr.set("mapTicksMin", rep.mapTicksMin);
                jr.set("setupTicks", rep.setupTicks);
                jr.set("minCycleInsts", rep.minCycleInsts);
                jr.set("criticalPathTicks", rep.criticalPathTicks);
                jr.set("maxPressureTicks", rep.maxPressureTicks);
                jr.set("bottleneck", rep.bottleneck);
                jr.set("hopMass", rep.hopMass);
                jr.set("hopLowerBound", rep.hopLowerBound);
                jr.set("smcReadUnits", rep.smcReadUnits);
                jr.set("smcWriteUnits", rep.smcWriteUnits);
                jr.set("rsOccupancy", rep.rsOccupancy);
                Value jsegs = Value::array();
                for (const auto &sc : rep.segments) {
                    Value js = Value::object();
                    js.set("block", sc.block);
                    js.set("insts", sc.insts);
                    js.set("steadyInsts", sc.steadyInsts);
                    js.set("mapTicks", sc.mapTicks);
                    js.set("gapTicks", sc.gapTicks);
                    js.set("criticalPathTicks", sc.criticalPathTicks);
                    js.set("steadyWritePathTicks",
                           sc.steadyWritePathTicks);
                    js.set("writeDrainTicks", sc.writeDrainTicks);
                    js.set("maxPressureTicks", sc.maxPressureTicks);
                    js.set("bottleneck", sc.bottleneck);
                    js.set("boundTicks", sc.boundTicks);
                    js.set("hopMass", sc.hopMass);
                    js.set("maxLinkTicks", sc.maxLinkTicks);
                    jsegs.push(std::move(js));
                }
                jr.set("segments", std::move(jsegs));
                jreports.push(std::move(jr));
            }
        }
    }

    // --- Simulator cross-validation -------------------------------------
    int status = 0;
    Value jvalidation = Value::object();
    if (validate) {
        driver::SweepPlan plan;
        plan.addGrid(kernelNames, configNames, scaleDiv, seed);
        driver::SweepOptions opts;
        opts.jobs = jobs;
        std::vector<arch::ExperimentResult> results =
            driver::runSweep(plan, opts);

        std::printf("\n%-20s %-9s %12s %12s %8s\n", "kernel", "config",
                    "pred t/rec", "sim t/rec", "relErr");
        uint64_t boundViolations = 0;
        for (const auto &res : results) {
            double sim = res.records
                             ? double(cyclesToTicks(res.cycles)) /
                                   double(res.records)
                             : 0.0;
            double pred = res.cost.predictedTicksPerRecord;
            double rel = sim > 0.0 ? (pred - sim) / sim : 0.0;
            uint64_t bound = verify::costBoundTicks(res);
            uint64_t actual = cyclesToTicks(res.cycles);
            bool violated = bound > actual;
            boundViolations += violated;
            std::printf("%-20s %-9s %12.1f %12.1f %+7.0f%%%s\n",
                        res.kernel.c_str(), res.config.c_str(), pred, sim,
                        100.0 * rel,
                        violated ? "  BOUND VIOLATED" : "");
        }

        std::printf("\n%-20s %8s %10s\n", "kernel", "configs", "spearman");
        auto stats = verify::costRankStats(results);
        for (const auto &s : stats)
            std::printf("%-20s %8zu %10.3f%s\n", s.kernel.c_str(),
                        s.configs, s.spearman,
                        s.configs >= 3 && s.spearman < minSpearman
                            ? "  BELOW FLOOR" : "");

        auto findings = verify::costInvariants(results, minSpearman);
        std::printf("cost_report: %" PRIu64 " bound violation%s, "
                    "%zu finding%s (floor %.2f)\n",
                    boundViolations, boundViolations == 1 ? "" : "s",
                    findings.size(), findings.size() == 1 ? "" : "s",
                    minSpearman);
        for (const auto &f : findings)
            std::printf("  %s: %s\n", f.invariant.c_str(),
                        f.detail.c_str());
        status = findings.empty() ? 0 : 1;

        if (!jsonPath.empty()) {
            jvalidation.set("minSpearman", minSpearman);
            jvalidation.set("boundViolations", boundViolations);
            Value jranks = Value::array();
            for (const auto &s : stats) {
                Value jr = Value::object();
                jr.set("kernel", s.kernel);
                jr.set("configs", uint64_t(s.configs));
                jr.set("spearman", s.spearman);
                jranks.push(std::move(jr));
            }
            jvalidation.set("ranks", std::move(jranks));
            Value jruns = Value::array();
            for (const auto &res : results) {
                Value jr = Value::object();
                jr.set("kernel", res.kernel);
                jr.set("config", res.config);
                jr.set("records", res.records);
                jr.set("simTicks", cyclesToTicks(res.cycles));
                jr.set("boundTicks", verify::costBoundTicks(res));
                jr.set("predictedTicksPerRecord",
                       res.cost.predictedTicksPerRecord);
                jruns.push(std::move(jr));
            }
            jvalidation.set("runs", std::move(jruns));
            Value jfindings = Value::array();
            for (const auto &f : findings) {
                Value jf = Value::object();
                jf.set("invariant", f.invariant);
                jf.set("detail", f.detail);
                jfindings.push(std::move(jf));
            }
            jvalidation.set("findings", std::move(jfindings));
        }
    }

    if (!jsonPath.empty()) {
        Value doc = Value::object();
        doc.set("generator", "dlp-sim cost_report");
        doc.set("reports", std::move(jreports));
        if (validate)
            doc.set("validation", std::move(jvalidation));
        analysis::writeJsonFile(jsonPath, doc);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
