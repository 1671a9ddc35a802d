/**
 * @file
 * The differential IR fuzzer CLI: generate seeded random kernels, run
 * them through the interpreter oracle and every requested Table 5
 * machine configuration, diff the outputs element for element, and
 * evaluate the invariant auditor on every run. On a failure the fuzzer
 * greedily shrinks the generator knobs and prints a one-line replay
 * command; with --json it also writes the minimized counterexamples as
 * a machine-readable document (the CI fuzz-smoke step uploads it).
 *
 *   ./build/examples/fuzz_ir                      # seeds 1..20, all configs
 *   ./build/examples/fuzz_ir --seeds 1..200
 *   ./build/examples/fuzz_ir --seed 42 --configs S-O-D,M-D
 *
 * `fuzz_ir --help` lists the options: the seeds and configurations,
 * the generator knobs the shrinker turns (--records, --nodes, --loops,
 * --no-tables, ...), and the cross-checks. --static-check requires
 * every dynamically diverging case to trip a static rule (else it is
 * logged as a coverage gap) and fails static errors on clean cases
 * (kind "static"); --fast-forward runs every case with the
 * fast-forwarder off and on and requires bit-identical results (kind
 * "fastforward"); --cost requires the cost model's lower bound on
 * total ticks to hold on every run (kind "cost").
 *
 * Exit status: 0 when every (seed, config) run matches the oracle and
 * audits clean, 1 otherwise, 2 on a bad command line.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "verify/fuzz.hh"

using namespace dlp;

namespace {

json::Value
toJson(const verify::FuzzFailure &f)
{
    using json::Value;
    Value obj = Value::object();
    obj.set("seed", f.seed);
    obj.set("config", f.config);
    obj.set("kind", f.kind);
    obj.set("detail", f.detail);
    obj.set("replay", f.replay);
    obj.set("staticallyCaught", f.staticallyCaught);
    if (!f.staticRule.empty())
        obj.set("staticRule", f.staticRule);
    Value shrunk = Value::object();
    shrunk.set("records", uint64_t(f.shrunk.records));
    shrunk.set("nodes", uint64_t(f.shrunk.nodeBudget));
    shrunk.set("loops", uint64_t(f.shrunk.loops));
    shrunk.set("tables", f.shrunk.tables);
    shrunk.set("wideLoads", f.shrunk.wideLoads);
    shrunk.set("cachedLoads", f.shrunk.cachedLoads);
    shrunk.set("scratch", f.shrunk.scratch);
    obj.set("shrunk", std::move(shrunk));
    return obj;
}

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::vector<uint64_t> seeds;
    verify::FuzzOptions base;
    std::string jsonPath;
    bool dump = false;

    auto addSeeds = [&](const char *name, const std::string &v) {
        auto more = driver::parseUintListFlag(name, v, 100000);
        seeds.insert(seeds.end(), more.begin(), more.end());
    };
    driver::Cli({
        {"--seed", "N", "add a seed, like --seeds", addSeeds},
        {"--seeds", "a,b|a..b", "seeds (default: 1..20)", addSeeds},
        driver::configsOption(base.configs, "all"),
        {"--records", "N", "records per generated batch (default: 24)",
         driver::setUint(base.records)},
        {"--nodes", "N", "random compute-node budget (default: 24)",
         driver::setUint(base.nodeBudget)},
        {"--loops", "N", "loop constructs to attempt (default: 2)",
         driver::setUint(base.loops)},
        {"--no-tables", nullptr, "generate no lookup-table loads",
         driver::setFlag(base.tables, false)},
        {"--no-wide", nullptr, "generate no wide input fetches",
         driver::setFlag(base.wideLoads, false)},
        {"--no-cached", nullptr, "generate no irregular (cached) loads",
         driver::setFlag(base.cachedLoads, false)},
        {"--no-scratch", nullptr, "generate no scratch staging",
         driver::setFlag(base.scratch, false)},
        {"--no-audit", nullptr, "skip the invariant auditor",
         driver::setFlag(base.audit, false)},
        {"--static-check", nullptr, "cross-validate the static verifier",
         driver::setFlag(base.staticCheck)},
        {"--fast-forward", nullptr, "diff fast-forwarding off against on",
         driver::setFlag(base.ffDiff)},
        {"--cost", nullptr, "check the cost model's lower bound on ticks",
         driver::setFlag(base.cost)},
        {"--json", "FILE", "write the counterexamples as JSON",
         driver::setString(jsonPath)},
        {"--dump", nullptr, "print each seed's kernel and exit",
         driver::setFlag(dump)},
    }).parse(argc, argv);
    if (seeds.empty())
        seeds = driver::parseUintListFlag("--seeds", "1..20");

    if (dump) {
        for (uint64_t seed : seeds) {
            verify::FuzzOptions o = base;
            o.seed = seed;
            std::fputs(verify::describeKernel(
                           verify::buildFuzzKernel(o)).c_str(), stdout);
        }
        return 0;
    }

    size_t nConfigs =
        base.configs.empty() ? arch::allConfigNames().size()
                             : base.configs.size();
    std::printf("fuzz_ir: %zu seed%s x %zu config%s, oracle-diff%s%s%s\n",
                seeds.size(), seeds.size() == 1 ? "" : "s", nConfigs,
                nConfigs == 1 ? "" : "s",
                base.audit ? " + invariant audit" : "",
                base.ffDiff ? " + fast-forward diff" : "",
                base.cost ? " + cost-bound check" : "");

    verify::FuzzReport rep = verify::fuzzSeeds(seeds, base);

    for (const auto &f : rep.failures) {
        std::printf("FAIL seed %" PRIu64 " on %s [%s]: %s\n", f.seed,
                    f.config.c_str(), f.kind.c_str(), f.detail.c_str());
        if (base.staticCheck && f.kind != "static")
            std::printf("  static: %s\n",
                        f.staticallyCaught
                            ? f.staticRule.c_str()
                            : "COVERAGE GAP (no rule fires)");
        std::printf("  replay: %s\n", f.replay.c_str());
    }
    std::printf("fuzz_ir: %" PRIu64 " runs, %zu failure%s\n", rep.runs,
                rep.failures.size(),
                rep.failures.size() == 1 ? "" : "s");
    if (base.staticCheck)
        std::printf("fuzz_ir: static cross-check: %" PRIu64
                    " dynamic failure%s also caught statically, %" PRIu64
                    " coverage gap%s\n",
                    rep.staticallyCaught,
                    rep.staticallyCaught == 1 ? "" : "s", rep.staticGaps,
                    rep.staticGaps == 1 ? "" : "s");

    if (!jsonPath.empty() && !rep.failures.empty()) {
        using json::Value;
        Value doc = Value::object();
        doc.set("generator", "dlp-sim fuzz_ir");
        doc.set("runs", rep.runs);
        if (base.staticCheck) {
            doc.set("staticallyCaught", rep.staticallyCaught);
            doc.set("staticGaps", rep.staticGaps);
        }
        Value cases = Value::array();
        for (const auto &f : rep.failures)
            cases.push(toJson(f));
        doc.set("failures", std::move(cases));
        analysis::writeJsonFile(jsonPath, doc);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return rep.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
