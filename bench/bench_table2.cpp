/**
 * @file
 * Regenerates Table 2 (benchmark attributes) from the kernel IR and
 * prints it next to the paper's published values.
 *
 * Instruction counts and ILP depend on exactly how each kernel was
 * hand-coded for TRIPS; ours are recomputed from our implementations, so
 * match is expected in magnitude and structure (records, tables, loop
 * bounds exact; #insts/ILP approximate).
 */

#include <iostream>
#include <map>

#include "analysis/attributes.hh"
#include "analysis/report.hh"
#include "common/logging.hh"
#include "driver/cli.hh"

using namespace dlp;
using namespace dlp::analysis;

namespace {

struct PaperRow
{
    const char *insts;
    const char *ilp;
    const char *record;
    const char *irregular;
    const char *constants;
    const char *indexed;
    const char *loop;
};

const std::map<std::string, PaperRow> &
paperTable2()
{
    static const std::map<std::string, PaperRow> rows = {
        {"convert", {"15", "5", "3/3", "-", "9", "-", "-"}},
        {"dct", {"1728", "6", "64/64", "-", "10", "-", "16"}},
        {"highpassfilter", {"17", "3.4", "9/1", "-", "9", "-", "-"}},
        {"fft", {"10", "3.3", "6/4", "-", "0", "-", "-"}},
        {"lu", {"2", "1", "2/1", "-", "0", "-", "-"}},
        {"md5", {"680", "1.63", "10/2", "-", "65", "-", "-"}},
        {"blowfish", {"364", "1.98", "1/1", "-", "2", "256", "16"}},
        {"rijndael", {"650", "11.8", "2/2", "-", "18", "1024", "10"}},
        {"vertex-simple", {"95", "4.3", "7/6", "-", "32", "-", "-"}},
        {"fragment-simple", {"64", "2.96", "8/4", "4", "16", "-", "-"}},
        {"vertex-reflection", {"94", "7.1", "9/2", "-", "35", "-", "-"}},
        {"fragment-reflection", {"98", "6.2", "5/3", "4", "7", "-", "-"}},
        {"vertex-skinning",
         {"112", "6.8", "16/9", "-", "32", "288", "Variable"}},
        {"anisotropic-filter",
         {"80", "2.1", "9/1", "<=50", "6", "128", "Variable"}},
    };
    return rows;
}

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);
    std::cout << "Table 2: benchmark attributes (ours vs. paper)\n\n";

    TextTable t;
    t.header({"Benchmark", "#Inst", "(paper)", "ILP", "(paper)", "Record",
              "(paper)", "Irreg", "(p)", "Const", "(p)", "Indexed", "(p)",
              "Loops", "(paper)"});
    for (const auto &a : extractAllAttributes()) {
        const auto &p = paperTable2().at(a.name);
        t.row({a.name, std::to_string(a.numInsts), p.insts, fmt(a.ilp, 1),
               p.ilp,
               std::to_string(a.recordRead) + "/" +
                   std::to_string(a.recordWrite),
               p.record,
               a.irregularAccesses ? std::to_string(a.irregularAccesses)
                                   : "-",
               p.irregular,
               a.numConstants ? std::to_string(a.numConstants) : "-",
               p.constants,
               a.indexedConstants ? std::to_string(a.indexedConstants)
                                  : "-",
               p.indexed, a.loopBounds, p.loop});
    }
    t.print(std::cout);

    std::cout << "\nNotes: instruction counts are fully-unrolled totals of "
                 "our kernels (variable\nloops at their bound); indexed "
                 "constants count table entries after power-of-two\n"
                 "padding (rijndael adds an S-box and a round-key table to "
                 "the four T-tables;\nlu carries the row multiplier in the "
                 "record, 3/1 vs the paper's 2/1).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
