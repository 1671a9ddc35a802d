/**
 * @file
 * The software-managed cache (SMC): reconfigured L2 banks with DMA
 * engines, per-row streaming channels and a coalescing store buffer
 * (Section 4.2, Figure 4a).
 *
 * Functional storage is one flat word-addressed scratchpad shared by all
 * banks; timing is charged against the bank of the *accessing row*. This
 * reflects the paper's assumption that the compiler lays data out so each
 * row streams from its own bank ("the array based design provides a
 * natural partitioning of the cache banks to rows of ALUs") while keeping
 * functional correctness independent of placement.
 */

#ifndef DLP_MEM_SMC_HH
#define DLP_MEM_SMC_HH

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/main_memory.hh"
#include "mem/params.hh"
#include "sim/resource.hh"

namespace dlp::mem {

/** SMC bank and channel bandwidth in words per tick, at least one. */
inline unsigned
smcWordsPerTick(const MemParams &p)
{
    return std::max(1u, p.smcWordsPerCycle / unsigned(ticksPerCycle));
}

/**
 * Bank-port ticks of an nwords SMC read. The bank reads whole SRAM
 * lines (4 words): a scalar access occupies the port for a full line
 * slot, while a wide (LMW) read amortizes the port across its words --
 * the reason the LMW mechanism matters (Section 4.2). Strided vector
 * fetches are conflict-free across the interleaved sub-banks, so they
 * cost the same as contiguous ones (classic vector-memory design).
 */
inline uint64_t
smcBankTicks(unsigned wordsPerTick, unsigned nwords)
{
    constexpr unsigned lineWords = 4;
    return divCeil(divCeil(nwords, lineWords) * lineWords, wordsPerTick);
}

class SmcSubsystem
{
  public:
    explicit SmcSubsystem(const MemParams &params);

    /** Total words of SMC across all banks. */
    uint64_t capacityWords() const { return storage.size(); }

    // --- Functional backdoor (workload setup / result checking) --------
    Word
    peek(Addr wordAddr) const
    {
        panic_if(wordAddr >= storage.size(),
                 "SMC peek past capacity (%" PRIu64 " >= %zu)", wordAddr,
                 storage.size());
        return storage[wordAddr];
    }

    void
    poke(Addr wordAddr, Word value)
    {
        panic_if(wordAddr >= storage.size(),
                 "SMC poke past capacity (%" PRIu64 " >= %zu)", wordAddr,
                 storage.size());
        storage[wordAddr] = value;
    }

    // --- Timing + functional accesses -----------------------------------
    /**
     * Read nwords contiguous words starting at wordAddr through row's
     * bank and streaming channel.
     *
     * @param out  receives the words (may be null for timing-only).
     * @return the tick the last word arrives at the row edge.
     */
    Tick read(unsigned row, Addr wordAddr, unsigned nwords, Tick start,
              Word *out, unsigned stride = 1);

    /**
     * Write one word through the row's coalescing store buffer.
     * @return the tick the store buffer accepts the word (the block may
     *         commit then; draining to the bank is the buffer's problem).
     */
    Tick write(unsigned row, Addr wordAddr, Word value, Tick start);

    /**
     * Program the row's DMA engine to move nwords between main memory
     * and the bank (direction does not change the timing). Occupies both
     * the bank port and main-memory bandwidth.
     * @return completion tick.
     */
    Tick dmaTransfer(unsigned row, unsigned nwords, Tick start,
                     MainMemory &mainMem);

    uint64_t reads() const { return nReads; }
    uint64_t writes() const { return nWrites; }
    uint64_t wordsRead() const { return nWordsRead; }

    /** Latest bank-port grant end (occupancy reference point). */
    Tick lastBankActivity() const { return lastActivity; }

    /**
     * Advance the raw access counters by a replayed epoch's worth of
     * traffic without simulating it (epoch fast-forwarding). The
     * activity watermark moves by `lastAdvance` ticks; bank/channel
     * calendars are shifted separately through their Resources.
     */
    void
    fastForward(uint64_t readsDelta, uint64_t writesDelta,
                uint64_t wordsDelta, Tick lastAdvance)
    {
        nReads += readsDelta;
        nWrites += writesDelta;
        nWordsRead += wordsDelta;
        lastActivity += lastAdvance;
    }

    /**
     * The SMC statistics group ("mem.smc"): a per-row bank-conflict
     * counter vector, read-burst and row-streaming-occupancy
     * distributions, and derived bandwidth formulas.
     */
    StatGroup &statsGroup() { return statGroup; }

    /** Port resources, exposed for occupancy accounting. */
    std::vector<sim::Resource> &bankPortResources() { return bankPorts; }
    std::vector<sim::Resource> &storeBufResources()
    {
        return storeBufPorts;
    }
    std::vector<sim::Resource> &channelResources() { return chanLanes; }

    /**
     * One lane of the row's dedicated streaming channel (Section 4.2:
     * "dedicated channels are provided from the SMC banks to a
     * corresponding row of ALUs"). Two word lanes per row give the
     * 4-words-per-cycle stream bandwidth; delivery latency to a column
     * is added by the caller.
     */
    sim::Resource &
    channelLane(unsigned row, unsigned lane)
    {
        return chanLanes.at(row * 2 + (lane & 1));
    }

    void resetTiming();

  private:
    /** Register statistics and the pre-dump occupancy refresh. */
    void initStats();

    sim::Resource &
    bankPort(unsigned row)
    {
        panic_if(row >= bankPorts.size(), "bad SMC row %u", row);
        return bankPorts[row];
    }

    std::vector<Word> storage;
    Tick bankLatency;
    unsigned wordsPerTick;     ///< bank/channel bandwidth in words per tick
    std::vector<sim::Resource> bankPorts;
    std::vector<sim::Resource> storeBufPorts;
    std::vector<sim::Resource> chanLanes; ///< 2 word lanes per row

    uint64_t nReads = 0;
    uint64_t nWrites = 0;
    uint64_t nWordsRead = 0;
    Tick lastActivity = 0; ///< latest bank-port grant end

    StatGroup statGroup{"mem.smc"};
    VectorStat *bankConflicts = nullptr; ///< per-row waited accesses
    Distribution *burstDist = nullptr;   ///< words per stream read
};

} // namespace dlp::mem

#endif // DLP_MEM_SMC_HH
