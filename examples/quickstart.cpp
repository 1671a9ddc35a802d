/**
 * @file
 * Quickstart: define your own data-parallel kernel, run it on the
 * configurable processor, and inspect the result.
 *
 * The kernel here is saxpy on 4-word records: out = a*x + y, with the
 * scalar `a` as a named constant (so the operand-revitalization
 * mechanism applies to it).
 *
 * Build & run:   ./build/examples/quickstart
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "common/random.hh"
#include "isa/opcodes.hh"
#include "kernels/interp.hh"
#include "kernels/workload.hh"

using namespace dlp;
using namespace dlp::kernels;

namespace {

/** saxpy: read x[4], y[4]; write a*x + y. */
Kernel
makeSaxpy(double a)
{
    KernelBuilder b("saxpy", Domain::Scientific);
    b.setRecord(/*in=*/8, /*out=*/4);
    Value ac = b.constantF("a", a);
    for (unsigned i = 0; i < 4; ++i) {
        Value x = b.inWord(i);
        Value y = b.inWord(4 + i);
        b.outWord(i, b.fadd(b.fmul(ac, x), y));
    }
    return b.build();
}

/** A minimal one-batch workload for a custom kernel. */
class SaxpyWorkload : public Workload
{
  public:
    SaxpyWorkload(Kernel k, uint64_t n, double a)
        : Workload(std::move(k)), records(n), scalar(a)
    {
        Rng rng(7);
        input.reserve(n * 8);
        for (uint64_t r = 0; r < n * 8; ++r)
            input.push_back(isa::fpToWord(rng.uniform(-1, 1)));
    }

    bool
    nextBatch(std::vector<Word> &in, uint64_t &n) override
    {
        if (done)
            return false;
        done = true;
        in = input;
        n = records;
        return true;
    }

    void consumeOutput(const std::vector<Word> &out) override { got = out; }

    bool
    verify(std::string &err) const override
    {
        for (uint64_t r = 0; r < records; ++r) {
            for (unsigned i = 0; i < 4; ++i) {
                double x = isa::wordToFp(input[r * 8 + i]);
                double y = isa::wordToFp(input[r * 8 + 4 + i]);
                double want = scalar * x + y;
                double have = isa::wordToFp(got[r * 4 + i]);
                if (std::fabs(have - want) > 1e-12) {
                    err = "saxpy mismatch at record " + std::to_string(r);
                    return false;
                }
            }
        }
        return true;
    }

    uint64_t totalRecords() const override { return records; }

  private:
    uint64_t records;
    double scalar;
    std::vector<Word> input;
    std::vector<Word> got;
    bool done = false;
};

int
run(int argc, char **argv)
{
    driver::Cli().parse(argc, argv);
    setQuietLogging(true);
    const double a = 2.5;

    std::printf("quickstart: saxpy on the configurable DLP processor\n\n");

    for (const auto &config : arch::allConfigNames()) {
        SaxpyWorkload wl(makeSaxpy(a), 4096, a);
        arch::TripsProcessor cpu(arch::configByName(config));
        auto res = cpu.run(wl);
        std::printf("  %-9s %8" PRIu64 " cycles   %5.2f useful ops/cycle   %s\n",
                    config.c_str(), res.cycles,
                    res.opsPerCycle(),
                    res.verified ? "verified" : res.error.c_str());
    }

    std::printf("\nEvery configuration computed bit-identical results; the "
                "mechanisms only\nchange *when* things happen, never "
                "*what* is computed.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, run);
}
