#include "mem/smc.hh"

#include "common/bitutils.hh"
#include "obs/timeline.hh"

namespace dlp::mem {

SmcSubsystem::SmcSubsystem(const MemParams &params)
    : storage(params.rows * params.smcBankWords(), 0),
      bankLatency(cyclesToTicks(params.smcLatency)),
      wordsPerTick(smcWordsPerTick(params)),
      bankPorts(params.rows, sim::Resource(1)),
      storeBufPorts(params.rows, sim::Resource(1)),
      chanLanes(params.rows * 2, sim::Resource(1))
{
    panic_if(params.rows == 0, "SMC needs at least one row bank");
    initStats();
}

void
SmcSubsystem::initStats()
{
    bankConflicts = &statGroup.vector("bankConflicts", bankPorts.size());
    burstDist = &statGroup.distribution("readBurstWords", 0.0, 64.0, 16);
    statGroup.formula("avgWordsPerRead", [this] {
        return nReads ? double(nWordsRead) / double(nReads) : 0.0;
    });

    // Derived at dump time: how busy each row kept its bank port and
    // streaming-channel lanes over the active interval ("row-streaming
    // occupancy" -- the structure Section 4.2's channels are sized by).
    statGroup.setPreDump([this] {
        statGroup.scalar("reads").set(double(nReads));
        statGroup.scalar("writes").set(double(nWrites));
        statGroup.scalar("wordsRead").set(double(nWordsRead));

        Distribution &occ =
            statGroup.distribution("rowStreamOccupancy", 0.0, 1.0, 20);
        occ.reset();
        VectorStat &bankBusy =
            statGroup.vector("bankBusyTicks", bankPorts.size());
        bankBusy.reset();
        if (lastActivity == 0)
            return;
        for (size_t row = 0; row < bankPorts.size(); ++row) {
            double busy = double(bankPorts[row].grants()) *
                          double(bankPorts[row].interval());
            bankBusy.set(row, busy);
            double laneBusy = busy;
            for (unsigned lane = 0; lane < 2; ++lane) {
                const auto &ch = chanLanes[row * 2 + lane];
                laneBusy += double(ch.grants()) * double(ch.interval());
            }
            // Port plus both channel lanes could each be busy every tick.
            occ.sample(laneBusy / (3.0 * double(lastActivity)));
        }
    });
}

Tick
SmcSubsystem::read(unsigned row, Addr wordAddr, unsigned nwords, Tick start,
                   Word *out, unsigned stride)
{
    panic_if(nwords == 0, "zero-length SMC read");
    panic_if(stride == 0, "zero-stride SMC read");
    panic_if(wordAddr + Addr(nwords - 1) * stride >= storage.size(),
             "SMC read past capacity (%" PRIu64 " + %u*%u > %zu)", wordAddr,
             nwords, stride, storage.size());

    if (out) {
        for (unsigned i = 0; i < nwords; ++i)
            out[i] = storage[wordAddr + Addr(i) * stride];
    }

    ++nReads;
    nWordsRead += nwords;
    burstDist->sample(double(nwords));

    uint64_t units = smcBankTicks(wordsPerTick, nwords);
    Tick grant = bankPort(row).acquireMany(start, units);
    if (grant > start)
        bankConflicts->inc(row);
    Tick done = grant + units + bankLatency;
    lastActivity = std::max(lastActivity, done);
    OBS_SIM_SPAN(SMC, "burst", start, done - start, nwords);
    return done;
}

Tick
SmcSubsystem::write(unsigned row, Addr wordAddr, Word value, Tick start)
{
    panic_if(wordAddr >= storage.size(),
             "SMC write past capacity (%" PRIu64 " >= %zu)", wordAddr,
             storage.size());

    storage[wordAddr] = value;
    ++nWrites;

    // The coalescing store buffer accepts wordsPerTick words per tick;
    // acceptance is completion from the producer's point of view.
    panic_if(row >= storeBufPorts.size(), "bad store-buffer row %u", row);
    Tick grant = storeBufPorts[row].acquireMany(start, 1);
    if (grant > start)
        bankConflicts->inc(row);
    lastActivity = std::max(lastActivity, grant + 1);
    // Amortized drain cost: the buffer coalesces, so draining keeps up
    // with acceptance at the same width; no extra charge here.
    OBS_SIM_SPAN(SMC, "storeAccept", start, grant + 1 - start, row);
    return grant + 1;
}

Tick
SmcSubsystem::dmaTransfer(unsigned row, unsigned nwords, Tick start,
                          MainMemory &mainMem)
{
    panic_if(nwords == 0, "zero-length DMA transfer");
    // The DMA engine streams through both the bank port and the off-chip
    // interface; the slower of the two paces the transfer.
    uint64_t units = divCeil(nwords, wordsPerTick);
    Tick bankGrant = bankPort(row).acquireMany(start, units);
    if (bankGrant > start)
        bankConflicts->inc(row);
    Tick bankDone = bankGrant + units;
    Tick memDone = mainMem.access(start, nwords);
    Tick done = std::max(bankDone, memDone);
    lastActivity = std::max(lastActivity, done);
    OBS_SIM_SPAN(SMC, "dma", start, done - start, nwords);
    return done;
}

void
SmcSubsystem::resetTiming()
{
    for (auto &p : bankPorts)
        p.reset();
    for (auto &p : storeBufPorts)
        p.reset();
    for (auto &p : chanLanes)
        p.reset();
    nReads = 0;
    nWrites = 0;
    nWordsRead = 0;
    lastActivity = 0;
    statGroup.resetAll();
}

} // namespace dlp::mem
