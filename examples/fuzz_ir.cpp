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
 * Options:
 *   --seed N / --seeds a..b  seed or seed list/range (default 1..20)
 *   --configs a,b,...        Table 5 config names (default: all)
 *   --records N              records per generated batch (default 24)
 *   --nodes N                random compute-node budget (default 24)
 *   --loops N                loop constructs to attempt (default 2)
 *   --no-tables / --no-wide / --no-cached / --no-scratch
 *                            disable a generator feature (shrinker flags)
 *   --no-audit               skip the invariant auditor
 *   --static-check           cross-validate the static verifier: every
 *                            dynamically diverging case must trip a
 *                            static rule or is logged as a coverage
 *                            gap; static errors on dynamically clean
 *                            cases are failures (kind "static")
 *   --fast-forward           differential epoch fast-forwarding: run
 *                            every case with the fast-forwarder off and
 *                            on and require bit-identical results
 *                            (failures have kind "fastforward")
 *   --cost                   cross-validate the static cost model: the
 *                            model's lower bound on total ticks must
 *                            hold on every run (failures have kind
 *                            "cost" and shrink/replay as usual)
 *   --json FILE              write counterexamples as JSON
 *
 * Exit status: 0 when every (seed, config) run matches the oracle and
 * audits clean, 1 otherwise, 2 on a bad command line.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "driver/job_pool.hh"
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

    auto value = [&](int &i) -> const char * {
        usage_error_if(i + 1 >= argc, "%s needs an argument", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 ||
            std::strcmp(argv[i], "--seeds") == 0) {
            const char *flag = argv[i];
            auto more = driver::parseUintListFlag(flag, value(i), 100000);
            seeds.insert(seeds.end(), more.begin(), more.end());
        } else if (std::strcmp(argv[i], "--configs") == 0) {
            std::string v = value(i);
            if (v != "all")
                base.configs = driver::splitList(v);
        } else if (std::strcmp(argv[i], "--records") == 0) {
            base.records = unsigned(
                driver::parseUintFlag("--records", value(i), UINT_MAX));
        } else if (std::strcmp(argv[i], "--nodes") == 0) {
            base.nodeBudget = unsigned(
                driver::parseUintFlag("--nodes", value(i), UINT_MAX));
        } else if (std::strcmp(argv[i], "--loops") == 0) {
            base.loops = unsigned(
                driver::parseUintFlag("--loops", value(i), UINT_MAX));
        } else if (std::strcmp(argv[i], "--no-tables") == 0) {
            base.tables = false;
        } else if (std::strcmp(argv[i], "--no-wide") == 0) {
            base.wideLoads = false;
        } else if (std::strcmp(argv[i], "--no-cached") == 0) {
            base.cachedLoads = false;
        } else if (std::strcmp(argv[i], "--no-scratch") == 0) {
            base.scratch = false;
        } else if (std::strcmp(argv[i], "--no-audit") == 0) {
            base.audit = false;
        } else if (std::strcmp(argv[i], "--static-check") == 0) {
            base.staticCheck = true;
        } else if (std::strcmp(argv[i], "--fast-forward") == 0) {
            base.ffDiff = true;
        } else if (std::strcmp(argv[i], "--cost") == 0) {
            base.cost = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strcmp(argv[i], "--dump") == 0) {
            dump = true;
        } else {
            usage_error("unknown option '%s' (see the header of "
                        "examples/fuzz_ir.cpp)", argv[i]);
        }
    }
    if (seeds.empty())
        seeds = driver::parseUintListFlag("--seeds", "1..20");
    for (const auto &c : base.configs)
        (void)arch::configByName(c);

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
