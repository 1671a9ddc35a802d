/**
 * @file
 * Facade over the whole memory hierarchy as seen from the row edge ports.
 *
 * Two access classes mirror the paper's two memory mechanisms:
 *
 *  - *stream* accesses (regular records): served by the SMC banks with
 *    wide reads and the coalescing store buffer when the SMC mechanism is
 *    enabled; on the baseline machine the same accesses fall through to
 *    the hardware-managed cache hierarchy, which is exactly the "every
 *    memory reference must proceed through shared structures such as the
 *    L1 cache" inefficiency of Section 5.2.
 *
 *  - *cached* accesses (irregular): always served by the banked L1 backed
 *    by the L2 banks not reconfigured as SMC, backed by main memory.
 *
 * The network hops from a tile to its row edge are charged by the core;
 * this class charges the bank ports, tag latencies and the edge-to-bank
 * distance for line-interleaved L1 banks.
 */

#ifndef DLP_MEM_MEMORY_SYSTEM_HH
#define DLP_MEM_MEMORY_SYSTEM_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_model.hh"
#include "mem/main_memory.hh"
#include "mem/params.hh"
#include "mem/smc.hh"

namespace dlp::mem {

class MemorySystem
{
  public:
    /**
     * @param params     sizing/latency knobs
     * @param useSmc     software-managed-cache mechanism enabled?
     * @param hopTicks   tick cost of one mesh hop (edge-to-bank distance)
     */
    MemorySystem(const MemParams &params, bool useSmc, Tick hopTicks = 1);

    bool smcEnabled() const { return useSmc; }

    // --- Stream (regular) accesses, word-addressed ----------------------
    /** Read nwords contiguous words; completion tick of the last word. */
    Tick streamRead(unsigned row, Addr wordAddr, unsigned nwords,
                    Tick start, Word *out, unsigned stride = 1);

    /** Write one word of a record stream. */
    Tick streamWrite(unsigned row, Addr wordAddr, Word value, Tick start);

    // --- Cached (irregular) accesses, byte-addressed --------------------
    Tick cachedRead(unsigned row, Addr byteAddr, Tick start, Word &out);
    Tick cachedWrite(unsigned row, Addr byteAddr, Word value, Tick start);

    /** Timing-only cached access (lookup tables held in L1). */
    Tick cachedTiming(unsigned row, Addr byteAddr, Tick start, bool write);

    // --- Functional backdoors -------------------------------------------
    SmcSubsystem &smc() { return *smcSub; }
    MainMemory &mainMemory() { return *mainMem; }
    CacheModel &l1() { return *l1Cache; }
    CacheModel &l2() { return *l2Cache; }

    /** Program a DMA fill/drain of the row's SMC bank. */
    Tick dma(unsigned row, unsigned nwords, Tick start);

    const MemParams &params() const { return cfg; }

    /**
     * The memory-system statistics group ("mem.sys"): stream/cached
     * access counters, a cached-access latency histogram and L1/L2
     * hit-rate formulas.
     */
    StatGroup &statsGroup() { return statGroup; }

    void resetTiming();

  private:
    /** Register statistics and the L1/L2 hit-rate formulas. */
    void initStats();

    /** Byte address the stream region occupies when the SMC is disabled. */
    Addr
    streamByteAddr(Addr wordAddr) const
    {
        return streamRegionBase + wordAddr * wordBytes;
    }

    MemParams cfg;
    bool useSmc;
    Tick hopTicks;

    std::unique_ptr<MainMemory> mainMem;
    std::unique_ptr<SmcSubsystem> smcSub;
    std::unique_ptr<CacheModel> l1Cache;
    std::unique_ptr<CacheModel> l2Cache;

    StatGroup statGroup{"mem.sys"};
    Distribution *cachedLatency = nullptr; ///< cached round-trip ticks
    Stat *cachedAccesses = nullptr;
    Stat *streamReadsStat = nullptr;
    Stat *streamWritesStat = nullptr;

    /// Streams live in a dedicated region of the physical address space
    /// so baseline cached accesses don't alias workload textures.
    static constexpr Addr streamRegionBase = Addr(1) << 40;
};

} // namespace dlp::mem

#endif // DLP_MEM_MEMORY_SYSTEM_HH
