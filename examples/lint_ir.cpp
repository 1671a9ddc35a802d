/**
 * @file
 * The static SPDI linter CLI: lower every kernel of the catalog for
 * every Table 5 machine configuration -- exactly the plans the
 * processor would execute -- and run the static verifier (src/check)
 * over each, without simulating anything. Prints every finding with its
 * rule ID and location, then a rule-by-rule summary table.
 *
 *   ./build/examples/lint_ir                     # whole catalog x configs
 *   ./build/examples/lint_ir --kernels dct,fft --configs S-O-D
 *   ./build/examples/lint_ir --json LINT.json
 *
 * Besides the correctness rules, the linter feeds every plan to the
 * static cost model and appends its PERF-* advisories (performance
 * hints, never correctness issues) to the same report.
 *
 * `lint_ir --help` lists the options.
 *
 * Exit status: 0 pass; 1 Error findings; 2 Warning findings when
 * --fail-on=warning or stricter; 3 Advisory findings when
 * --fail-on=advisory. Errors always dominate, then warnings: the
 * default gate is unchanged by the advisory rules. A bad command line
 * also exits 2, with its message on stderr.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/processor.hh"
#include "check/verify.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "cost/cost.hh"
#include "kernels/catalog.hh"

using namespace dlp;

namespace {

int
run(int argc, char **argv)
{
    setQuietLogging(true);
    std::vector<std::string> kernelNames = kernels::kernelNames();
    std::vector<std::string> configNames = arch::allConfigNames();
    std::string jsonPath;
    std::string failOn = "error";
    bool verbose = false;

    driver::Cli({
        driver::kernelsOption(kernelNames, "all of Table 1"),
        driver::configsOption(configNames, "all"),
        {"--json", "FILE", "write the findings as a JSON document",
         driver::setString(jsonPath)},
        {"--fail-on", "LEVEL", "error (default), warning or advisory",
         [&](auto name, auto &v) {
             driver::checkName(name, v, {"error", "warning", "advisory"});
             failOn = v;
         }},
        {"--verbose", nullptr, "also print per-program one-line status",
         driver::setFlag(verbose)},
    }).parse(argc, argv);

    std::vector<kernels::Kernel> kernelSet;
    for (const auto &n : kernelNames)
        kernelSet.push_back(kernels::kernelByName(n));

    size_t programs = 0, blocks = 0, insts = 0;
    size_t errors = 0, warnings = 0, advisories = 0;
    std::map<std::string, size_t> byRule;

    using json::Value;
    Value jprograms = Value::array();

    for (const auto &configName : configNames) {
        core::MachineParams m = arch::configByName(configName);
        for (const auto &k : kernelSet) {
            arch::LoweredKernel low = arch::lowerFor(k, m);
            check::Report rep = check::verify(low.program(), m);
            cost::perfRules(low.cost, m, rep);
            rep.sortFindings();

            ++programs;
            blocks += rep.blocks;
            insts += rep.insts;
            errors += rep.errors();
            warnings += rep.warnings();
            advisories += rep.advisories();
            for (const auto &d : rep.diags)
                ++byRule[d.rule];

            if (verbose || !rep.diags.empty())
                std::printf("%-18s %-9s %4zu insts  %zu error(s), "
                            "%zu warning(s), %zu advisory(ies)\n",
                            k.name.c_str(), configName.c_str(), rep.insts,
                            rep.errors(), rep.warnings(),
                            rep.advisories());
            if (!rep.diags.empty())
                std::fputs(rep.describe().c_str(), stdout);

            if (!jsonPath.empty()) {
                Value jp = Value::object();
                jp.set("kernel", k.name);
                jp.set("config", configName);
                jp.set("blocks", uint64_t(rep.blocks));
                jp.set("insts", uint64_t(rep.insts));
                jp.set("errors", uint64_t(rep.errors()));
                jp.set("warnings", uint64_t(rep.warnings()));
                jp.set("advisories", uint64_t(rep.advisories()));
                Value findings = Value::array();
                for (const auto &d : rep.diags) {
                    Value entry = Value::object();
                    entry.set("rule", d.rule);
                    entry.set("severity",
                              check::severityName(d.severity));
                    entry.set("location", d.location());
                    entry.set("detail", d.message);
                    findings.push(std::move(entry));
                }
                jp.set("findings", std::move(findings));
                jprograms.push(std::move(jp));
            }
        }
    }

    std::printf("lint_ir: %zu program%s (%zu block%s, %zu insts) across "
                "%zu config%s\n",
                programs, programs == 1 ? "" : "s", blocks,
                blocks == 1 ? "" : "s", insts, configNames.size(),
                configNames.size() == 1 ? "" : "s");
    std::printf("%-16s %-8s %9s  %s\n", "rule", "severity", "findings",
                "invariant");
    for (const auto &r : check::rules()) {
        auto it = byRule.find(r.id);
        size_t n = it == byRule.end() ? 0 : it->second;
        std::printf("%-16s %-8s %9zu  %s\n", r.id,
                    check::severityName(r.severity), n, r.invariant);
    }
    std::printf("lint_ir: %zu error%s, %zu warning%s, %zu advisor%s\n",
                errors, errors == 1 ? "" : "s", warnings,
                warnings == 1 ? "" : "s", advisories,
                advisories == 1 ? "y" : "ies");

    if (!jsonPath.empty()) {
        Value doc = Value::object();
        doc.set("generator", "dlp-sim lint_ir");
        doc.set("programs", uint64_t(programs));
        doc.set("blocks", uint64_t(blocks));
        doc.set("insts", uint64_t(insts));
        doc.set("errors", uint64_t(errors));
        doc.set("warnings", uint64_t(warnings));
        doc.set("advisories", uint64_t(advisories));
        Value jrules = Value::array();
        for (const auto &r : check::rules()) {
            auto it = byRule.find(r.id);
            Value jr = Value::object();
            jr.set("id", r.id);
            jr.set("severity", check::severityName(r.severity));
            jr.set("invariant", r.invariant);
            jr.set("findings",
                   uint64_t(it == byRule.end() ? 0 : it->second));
            jrules.push(std::move(jr));
        }
        doc.set("rules", std::move(jrules));
        doc.set("results", std::move(jprograms));
        analysis::writeJsonFile(jsonPath, doc);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (errors)
        return 1;
    if (failOn != "error" && warnings)
        return 2;
    if (failOn == "advisory" && advisories)
        return 3;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
