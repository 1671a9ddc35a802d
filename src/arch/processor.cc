#include "arch/processor.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <type_traits>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "obs/timeline.hh"
#include "sched/linearize.hh"
#include "sched/simd_lowering.hh"

namespace dlp::arch {

using kernels::Kernel;
using kernels::Workload;

TripsProcessor::TripsProcessor(const core::MachineParams &params)
    : m(params)
{
}

sched::StreamLayout
makeStreamLayout(const Kernel &k, const core::MachineParams &m,
                 uint64_t &chunkRecords)
{
    // Partition the SMC between input, output and scratch streams; keep
    // slack for the unroll padding (at most 64 instances) so speculative
    // accesses of the last partial group stay in bounds.
    uint64_t capacity = m.memParams.rows * m.memParams.smcBankWords();
    uint64_t span = uint64_t(k.inWords) + k.outWords + k.scratchWords;
    uint64_t alloc = capacity / span;
    fatal_if(alloc < 96,
             "kernel %s: record span %" PRIu64 " words too large for the SMC",
             k.name.c_str(), span);
    chunkRecords = alloc - 80;

    sched::StreamLayout layout;
    layout.inBase = 0;
    layout.outBase = alloc * k.inWords;
    layout.scratchBase = layout.outBase + alloc * k.outWords;
    layout.chunkRecords = chunkRecords;
    return layout;
}

LoweredKernel
lowerFor(const Kernel &k, const core::MachineParams &m, uint64_t records,
         uint64_t batches)
{
    LoweredKernel low;
    low.kernel = &k;
    uint64_t chunkRecords = 0;
    low.layout = makeStreamLayout(k, m, chunkRecords);
    if (m.mech.localPC) {
        const auto &plan = low.plan.emplace<sched::MimdPlan>(
            sched::lowerMimd(k, m, low.layout));
        low.cost = cost::analyzeMimd(plan, m, records, batches);
    } else {
        const auto &plan = low.plan.emplace<sched::SimdPlan>(
            sched::lowerSimd(k, m, low.layout));
        low.cost = cost::analyzeSimd(plan, m, records, batches);
    }
    return low;
}

namespace {

/** Copy a chunk of records into the SMC, zero-padding to padRecords. */
void
loadChunk(mem::MemorySystem &mem, const sched::StreamLayout &layout,
          const Kernel &k, const std::vector<Word> &input, uint64_t first,
          uint64_t count, uint64_t padRecords)
{
    for (uint64_t r = 0; r < padRecords; ++r) {
        for (unsigned w = 0; w < k.inWords; ++w) {
            Word v = r < count ? input[(first + r) * k.inWords + w] : 0;
            mem.smc().poke(layout.inBase + r * k.inWords + w, v);
        }
    }
}

void
readChunk(mem::MemorySystem &mem, const sched::StreamLayout &layout,
          const Kernel &k, std::vector<Word> &out, uint64_t count)
{
    for (uint64_t r = 0; r < count; ++r)
        for (unsigned w = 0; w < k.outWords; ++w)
            out.push_back(mem.smc().peek(layout.outBase + r * k.outWords + w));
}

void
fill(ExperimentResult &res, const core::RunStats &stats)
{
    res.cycles += stats.cycles;
    res.usefulOps += stats.usefulOps;
    res.instsExecuted += stats.instsExecuted;
    res.activations += stats.activations;
    res.mappings += stats.mappings;
}

/**
 * Run the static verifier over the plan the engine is about to execute,
 * record the findings, and refuse to run a plan with Error findings: a
 * malformed block would deadlock or silently compute garbage thousands
 * of cycles in.
 */
void
gateOnCheck(ExperimentResult &res, const check::Report &rep)
{
    res.checked = true;
    res.checkErrors = rep.errors();
    res.checkWarnings = rep.warnings();
    for (const auto &d : rep.diags)
        res.checkFindings.push_back({d.rule,
                                     check::severityName(d.severity),
                                     d.location(), d.message});
    fatal_if(rep.errors() > 0,
             "static check rejected %s on %s (%zu error%s):\n%s",
             res.kernel.c_str(), res.config.c_str(), rep.errors(),
             rep.errors() == 1 ? "" : "s", rep.describe().c_str());
}

/** Wall-clock timer for the host-performance stats of one run. */
class HostTimer
{
  public:
    HostTimer() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * The engine-generic stages of one experiment: populate memory,
 * simulate chunks and snapshot stats. Engine is BlockEngine (running a
 * SimdPlan) or MimdEngine (running a MimdPlan); only the unroll padding
 * and the fast-forward counters depend on which.
 */
template <class Engine, class Plan>
void
simulate(const core::MachineParams &m, Workload &workload,
         const sched::StreamLayout &layout, const Plan &plan,
         ExperimentResult &res)
{
    constexpr bool simd = std::is_same_v<Engine, core::BlockEngine>;
    const Kernel &k = workload.kernel();

    // Populate memory.
    mem::MemorySystem memory(m.memParams, m.mech.smc, m.hopTicks);
    workload.populateIrregular([&memory](Addr a, Word w) {
        memory.mainMemory().writeWord(a, w);
    });

    Engine engine(m, memory);
    engine.setTables(&k.tables);

    // Periodic stat sampling (off when the interval is zero): the
    // engine polls the sampler at activation boundaries, and the
    // closing row at the final tick makes the delta columns sum to the
    // end-of-run aggregates exactly.
    obs::StatSampler sampler(obs::timeseriesInterval(),
                             {&engine.statsGroup(),
                              &engine.network().statsGroup(),
                              &memory.smc().statsGroup(),
                              &memory.statsGroup()});
    engine.setSampler(&sampler);

    // Simulate chunks.
    const uint64_t chunkRecords = layout.chunkRecords;
    std::vector<Word> input;
    uint64_t records;
    while (workload.nextBatch(input, records)) {
        std::vector<Word> output;
        output.reserve(records * k.outWords);
        bool multiChunk = records > chunkRecords;
        for (uint64_t first = 0; first < records; first += chunkRecords) {
            uint64_t count = std::min(chunkRecords, records - first);
            // SIMD pads the last partial group of `unroll` instances.
            uint64_t pad = count;
            if constexpr (simd)
                pad = divCeil(count, plan.unroll) * plan.unroll;
            loadChunk(memory, layout, k, input, first, count, pad);
            if (multiChunk) {
                // The dataset exceeds the SMC (the paper's lu case):
                // the DMA engines stage this chunk in and the previous
                // chunk's results out.
                uint64_t words =
                    count * (uint64_t(k.inWords) + k.outWords);
                Tick done = memory.dma(first == 0 ? 0u : 1u,
                                       static_cast<unsigned>(
                                           std::min<uint64_t>(words,
                                                              1u << 30)),
                                       engine.now());
                engine.advanceTo(done);
            }
            Tick chunkStart = engine.now();
            core::RunStats stats = engine.run(plan, count);
            OBS_SIM_SPAN(Engine, "chunk", chunkStart,
                         engine.now() - chunkStart, count);
            fill(res, stats);
            readChunk(memory, layout, k, output, count);
        }
        workload.consumeOutput(output);
        res.records += records;
    }

    // Snapshot stats.
    engine.setSampler(nullptr);
    res.timeseries = sampler.finalize(engine.now());

    res.statGroups.push_back(engine.statsGroup().snapshot());
    res.statGroups.push_back(engine.network().statsGroup().snapshot());
    res.statGroups.push_back(memory.smc().statsGroup().snapshot());
    res.statGroups.push_back(memory.statsGroup().snapshot());

    res.hostEvents = engine.hostEvents();
    if constexpr (simd) {
        res.ffEpochs = engine.ffEpochs();
        res.ffIterations = engine.ffIterations();
        res.ffEventsSaved = engine.ffEventsSaved();
        res.eventActivations = engine.eventActivations();
    } else {
        // MIMD never fast-forwards: every activation runs event-by-event.
        res.eventActivations = res.activations;
    }
}

} // namespace

ExperimentResult
TripsProcessor::run(Workload &workload)
{
    const Kernel &k = workload.kernel();
    ExperimentResult res;
    res.kernel = k.name;
    res.config = m.name;

    obs::HostSpan expSpan(obs::Cat::Driver, "experiment",
                          k.name + "/" + m.name);
    HostTimer timer;

    // Lower and cost.
    LoweredKernel low =
        lowerFor(k, m, workload.totalRecords(), workload.numBatches());
    res.cost = low.cost;

    // Check.
    if (check::checkEnabled()) {
        obs::HostSpan checkSpan(obs::Cat::Check, "staticCheck",
                                k.name + "/" + m.name);
        gateOnCheck(res, check::verify(low.program(), m));
    }

    // Populate memory, simulate chunks, snapshot stats.
    if (const auto *plan = std::get_if<sched::SimdPlan>(&low.plan))
        simulate<core::BlockEngine>(m, workload, low.layout, *plan, res);
    else
        simulate<core::MimdEngine>(m, workload, low.layout,
                                   std::get<sched::MimdPlan>(low.plan),
                                   res);
    res.hostSeconds = timer.seconds();

    // Verify.
    std::string err;
    res.verified = workload.verify(err);
    res.error = err;
    return res;
}

} // namespace dlp::arch
