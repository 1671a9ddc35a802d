#include "mem/memory_system.hh"

#include <cinttypes>
#include <cstdlib>

#include "obs/timeline.hh"

namespace dlp::mem {

MemorySystem::MemorySystem(const MemParams &params, bool smcOn, Tick hop)
    : cfg(params), useSmc(smcOn), hopTicks(hop),
      mainMem(std::make_unique<MainMemory>(params)),
      smcSub(std::make_unique<SmcSubsystem>(params)),
      l1Cache(std::make_unique<CacheModel>("l1", params.l1Bytes,
                                           params.l1Assoc, params.lineBytes,
                                           params.rows,
                                           params.l1HitLatency)),
      l2Cache(std::make_unique<CacheModel>("l2", params.l2Bytes,
                                           params.l2Assoc, params.lineBytes,
                                           params.rows, params.l2Latency))
{
    initStats();
}

void
MemorySystem::initStats()
{
    cachedLatency =
        &statGroup.distribution("cachedLatencyTicks", 0.0, 256.0, 32);
    cachedAccesses = &statGroup.scalar("cachedAccesses");
    streamReadsStat = &statGroup.scalar("streamReads");
    streamWritesStat = &statGroup.scalar("streamWrites");
    statGroup.formula("l1HitRate", [this] {
        uint64_t total = l1Cache->hits() + l1Cache->misses();
        return total ? double(l1Cache->hits()) / double(total) : 0.0;
    });
    statGroup.formula("l2HitRate", [this] {
        uint64_t total = l2Cache->hits() + l2Cache->misses();
        return total ? double(l2Cache->hits()) / double(total) : 0.0;
    });
    statGroup.setPreDump([this] {
        statGroup.scalar("l1Hits").set(double(l1Cache->hits()));
        statGroup.scalar("l1Misses").set(double(l1Cache->misses()));
        statGroup.scalar("l2Hits").set(double(l2Cache->hits()));
        statGroup.scalar("l2Misses").set(double(l2Cache->misses()));
        statGroup.scalar("mainMemAccesses")
            .set(double(mainMem->accesses()));
    });
}

Tick
MemorySystem::cachedTiming(unsigned row, Addr byteAddr, Tick start,
                           bool write)
{
    // Edge-to-bank distance: L1 banks are line-interleaved along the
    // array edge, one bank per row position.
    unsigned bank = l1Cache->bankOf(byteAddr);
    unsigned dist = bank > row ? bank - row : row - bank;
    Tick t = start + dist * hopTicks;

    t = l1Cache->acquirePort(byteAddr, t);
    bool l1Hit = l1Cache->probe(byteAddr, write);
    t += l1Cache->hitLatencyTicks();
    if (!l1Hit) {
        t = l2Cache->acquirePort(byteAddr, t);
        bool l2Hit = l2Cache->probe(byteAddr, write);
        t += l2Cache->hitLatencyTicks();
        if (!l2Hit)
            t = mainMem->access(t, cfg.lineBytes / wordBytes);
        // Two distinct call sites: the interned-name static in the
        // macro is per-site, so a ternary name would stick on whichever
        // branch ran first.
        if (l2Hit)
            OBS_SIM_SPAN(Cache, "l1Miss", start, t - start, byteAddr);
        else
            OBS_SIM_SPAN(Cache, "l2Miss", start, t - start, byteAddr);
    }
    // Response travels back across the same edge distance.
    Tick done = t + dist * hopTicks;
    ++*cachedAccesses;
    cachedLatency->sample(double(done - start));
    if (write)
        OBS_SIM_SPAN(Mem, "cachedWrite", start, done - start, byteAddr);
    else
        OBS_SIM_SPAN(Mem, "cachedRead", start, done - start, byteAddr);
    return done;
}

Tick
MemorySystem::streamRead(unsigned row, Addr wordAddr, unsigned nwords,
                         Tick start, Word *out, unsigned stride)
{
    ++*streamReadsStat;
    if (useSmc)
        return smcSub->read(row, wordAddr, nwords, start, out, stride);

    // Baseline machine: the record stream lives in ordinary cached
    // memory and each word is a separate L1 access.
    if (out) {
        for (unsigned i = 0; i < nwords; ++i)
            out[i] = smcSub->peek(wordAddr + Addr(i) * stride);
    }
    Tick done = start;
    for (unsigned i = 0; i < nwords; ++i) {
        Tick t = cachedTiming(row, streamByteAddr(wordAddr + Addr(i) * stride),
                              start, false);
        done = std::max(done, t);
    }
    return done;
}

Tick
MemorySystem::streamWrite(unsigned row, Addr wordAddr, Word value,
                          Tick start)
{
    ++*streamWritesStat;
    if (useSmc)
        return smcSub->write(row, wordAddr, value, start);

    smcSub->poke(wordAddr, value);
    return cachedTiming(row, streamByteAddr(wordAddr), start, true);
}

Tick
MemorySystem::cachedRead(unsigned row, Addr byteAddr, Tick start, Word &out)
{
    out = mainMem->readWord(roundDown(byteAddr, wordBytes));
    return cachedTiming(row, byteAddr, start, false);
}

Tick
MemorySystem::cachedWrite(unsigned row, Addr byteAddr, Word value,
                          Tick start)
{
    mainMem->writeWord(roundDown(byteAddr, wordBytes), value);
    return cachedTiming(row, byteAddr, start, true);
}

Tick
MemorySystem::dma(unsigned row, unsigned nwords, Tick start)
{
    return smcSub->dmaTransfer(row, nwords, start, *mainMem);
}

void
MemorySystem::resetTiming()
{
    mainMem->resetTiming();
    smcSub->resetTiming();
    l1Cache->reset();
    l2Cache->reset();
    statGroup.resetAll();
}

} // namespace dlp::mem
