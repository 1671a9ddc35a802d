/**
 * @file
 * The block-dataflow execution engine: statically placed, dynamically
 * issued execution of SimdPlans on the grid core.
 *
 * Each activation fires every mapped instruction exactly once when its
 * operands arrive, routes results over the mesh with per-link contention,
 * and touches the memory system through the row-edge ports. Between
 * activations the engine models either a revitalize broadcast
 * (instruction-revitalization machines) or a full block re-map (the
 * baseline ILP machine). Operand revitalization keeps persistent operands
 * across activations so constant reads fire only once per mapping.
 *
 * Register writes are buffered and commit with the block (TRIPS
 * block-atomic semantics), so induction registers read the previous
 * activation's value by construction.
 */

#ifndef DLP_CORE_BLOCK_ENGINE_HH
#define DLP_CORE_BLOCK_ENGINE_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "core/machine.hh"
#include "epoch/ir.hh"
#include "kernels/ir.hh"
#include "mem/memory_system.hh"
#include "noc/mesh.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "sched/plan.hh"
#include "sim/eventq.hh"
#include "sim/resource.hh"

namespace dlp::core {

/** Aggregate results of one plan execution. */
struct RunStats
{
    Cycles cycles = 0;          ///< total execution time
    uint64_t usefulOps = 0;     ///< non-overhead computation executed
    uint64_t instsExecuted = 0; ///< all dynamic instructions
    uint64_t activations = 0;
    uint64_t mappings = 0;      ///< block map events
    uint64_t groups = 0;

    double
    opsPerCycle() const
    {
        return cycles ? double(usefulOps) / double(cycles) : 0.0;
    }
};

class BlockEngine
{
  public:
    BlockEngine(const MachineParams &params, mem::MemorySystem &memory);

    /**
     * Point the engine at the kernel's lookup tables. Word addresses for
     * the non-L0 (cached) fallback are assigned contiguously from a
     * dedicated table region.
     */
    void setTables(const std::vector<kernels::Table> *tables);

    /**
     * Execute a plan over numRecords records (inputs already resident in
     * the SMC at plan.layout). Continues from the engine's current
     * simulated time, so successive batches accumulate.
     */
    RunStats run(const sched::SimdPlan &plan, uint64_t numRecords);

    /** Current simulated tick (end of the last run). */
    Tick now() const { return curTick; }

    /**
     * Advance simulated time (DMA transfers staging the next chunk of a
     * dataset that does not fit the SMC -- the paper notes lu is the one
     * benchmark whose data exceeds it).
     */
    void advanceTo(Tick t) { curTick = std::max(curTick, t); }

    /** Direct register-file access (tests). */
    Word reg(unsigned r) const { return rf.at(r); }

    /**
     * The engine statistics group ("core.simd"): per-activation
     * issue-width and operand-wait distributions, activation and
     * revitalization counters.
     */
    StatGroup &statsGroup() { return engStats; }

    /** The operand network (per-link statistics live on it). */
    noc::MeshNetwork &network() { return mesh; }

    /** Host-side count of discrete events executed across all runs. */
    uint64_t hostEvents() const { return eq.executedEvents(); }

    /// @name Epoch fast-forwarding counters (cumulative across runs).
    /// The core.simd eventsScheduled/eventsExecuted formulas report
    /// *simulated-machine* totals (host events plus the events replayed
    /// epochs did not fire); hostEvents() above stays the true host
    /// count, so ffEventsSaved() is exactly their difference.
    /// @{

    /** Epochs entered (record + validate + replay sequences). */
    uint64_t ffEpochs() const { return ffEpochsN; }

    /** Activations replayed arithmetically instead of simulated. */
    uint64_t ffIterations() const { return ffIterationsN; }

    /** Events those activations would have executed. */
    uint64_t ffEventsSaved() const { return ffEventsSavedN; }

    /** Activations actually simulated through the event queue. */
    uint64_t eventActivations() const { return eventActivationsN; }

    /// @}

    /**
     * Attach (or detach, with nullptr) a periodic stat sampler. The
     * engine polls it at activation boundaries, so sampling never
     * perturbs the event queue. The sampler must outlive the run.
     */
    void setSampler(obs::StatSampler *s) { sampler = s; }

    /// @name Occupancy signature (the epoch fast-forwarding hook).
    /// Every activation folds its fired instructions' (index, tick
    /// offset) pairs and its occupancy envelope into a 64-bit digest;
    /// equal digests mean the iteration replayed the same schedule.
    /// ROADMAP item 1 consumes this to detect steady state.
    /// @{

    /** Digest of the most recently completed activation. */
    uint64_t activationSignature() const { return lastSignature; }

    /** Consecutive activations (so far) with identical signatures. */
    uint64_t steadySignatureStreak() const { return signatureStreak; }

    /// @}

  private:
    struct InstState
    {
        Word operand[isa::maxSrcs] = {0, 0, 0};
        Tick firstOperand = 0;    ///< arrival tick of the first operand
        bool present[isa::maxSrcs] = {false, false, false};
        bool fired = false;
        bool sawOperand = false;  ///< firstOperand is valid
    };
    static_assert(sizeof(InstState) == 40, "InstState packs into 40 bytes");

    /** Where one operand goes: the consumer's tile and its XY path. */
    struct TargetRoute
    {
        uint32_t path; ///< offset of the path's first link in links
        noc::Coord to;
    };

    /**
     * The mesh routes of one plan block's operands, built once per run()
     * (placement is static): instruction i's k-th target routes as
     * routes[first[i] + k].
     */
    struct BlockPaths
    {
        const isa::MappedBlock *block = nullptr;
        std::vector<uint32_t> first;
        std::vector<TargetRoute> routes;
        std::vector<noc::LinkId> links;
    };

    /** Build paths for block: every instruction's targets' XY paths. */
    void buildPaths(const isa::MappedBlock &block, BlockPaths &paths) const;

    void runActivation(const BlockPaths &paths, Tick startTick,
                       bool firstActivation, RunStats &stats);

    /// @name Epoch fast-forwarding internals.
    /// @{

    /** Capture everything the epoch passes diff between iterations. */
    void captureEpochSnapshot(epoch::Snapshot &s, const RunStats &stats);

    /** Capture every tracked resource's calendar tail relative to origin. */
    void captureEpochTails(std::vector<epoch::ResourceTail> &out,
                           Tick origin);

    /**
     * Execute one unit's worth of fires functionally (no events),
     * committing register writes and sampling issue width at each
     * recorded activation boundary. unitBlocks names the block each
     * activation of the unit ran (one entry per fireCounts element).
     */
    void replayEpochFires(
        const std::vector<const isa::MappedBlock *> &unitBlocks,
        const epoch::EpochPlan &plan);

    /** Bulk-apply `iters` iterations of the plan's counter advances. */
    void applyEpochCounters(const epoch::EpochPlan &plan, uint64_t iters);

    /** Shift every periodic resource calendar by `iters` periods. */
    void shiftEpochCalendars(const epoch::EpochPlan &plan, uint64_t iters);

    /// @}

    /**
     * Fired by the reusable seed event at an activation's start tick:
     * count the instructions expected to fire and execute every one
     * whose operands are already present (zero-source ops,
     * persistent-only operands), in index order.
     */
    void seedActivation();

    /** Execute one instruction once its operands are ready. */
    void execute(const isa::MappedBlock &block, uint32_t idx, Tick ready,
                 RunStats &stats);

    /** Completion tick of a word delivered over the row's streaming
     *  channel to tile dst. */
    Tick channelDeliver(unsigned row, uint8_t wordIdx, noc::Coord dst,
                        Tick ready);

    /** Deliver one result word to a consumer operand slot at when. */
    void deliver(const isa::Target &target, Word value, Tick when);

    noc::Coord tileOf(const isa::MappedInst &mi) const
    {
        return noc::Coord{mi.row, mi.col};
    }

    sim::Resource &issuePort(unsigned row, unsigned col)
    {
        return issuePorts[row * m.cols + col];
    }

    const MachineParams m;
    mem::MemorySystem &mem;
    noc::MeshNetwork mesh;
    sim::EventQueue eq;

    std::vector<Word> rf;
    std::vector<std::pair<unsigned, Word>> pendingWrites;

    std::vector<sim::Resource> issuePorts;  ///< 1 issue per cycle per tile
    std::vector<sim::Resource> divPorts;    ///< unpipelined divide/sqrt
    std::vector<sim::Resource> injectPorts; ///< operand injection per tile
    std::vector<sim::Resource> l0Ports;     ///< L0 data-store port per tile
    std::vector<sim::Resource> regRead;     ///< RF bank read ports
    std::vector<sim::Resource> regWrite;    ///< RF bank write ports

    const std::vector<kernels::Table> *tables = nullptr;
    std::vector<Addr> tableByteBase; ///< cached-space fallback addresses

    /** Resources whose occupancy bounds the activation pipeline. */
    std::vector<sim::Resource *> tracked;
    std::vector<uint64_t> grantSnapshot;

    /** Snapshot grant counts of all tracked resources. */
    void snapshotGrants();
    /** Max busy time any tracked resource accumulated since snapshot. */
    Tick busySinceSnapshot() const;

    /**
     * Fold the operand waits counted since the last call into the
     * operandWaitTicks distribution (the group's pre-dump does this).
     * The sums are integers below 2^53, so the result is bit-identical
     * to sampling every wait as it happens.
     */
    void foldWaits();

    StatGroup engStats{"core.simd"};
    Distribution *operandWait = nullptr; ///< first-operand-to-fire ticks
    /// Fires that waited v ticks, for v in the distribution's range,
    /// not yet in operandWait.
    std::array<uint64_t, 128> smallWaits{};
    Distribution *issueWidth = nullptr;  ///< insts/cycle per activation
    Stat *activationsStat = nullptr;
    Stat *revitalizesStat = nullptr;
    Stat *signatureRepeatsStat = nullptr; ///< steady-state activations

    obs::StatSampler *sampler = nullptr;
    obs::SignatureHash sigHash;   ///< running digest of this activation
    uint64_t lastSignature = 0;   ///< digest of the previous activation
    uint64_t signatureStreak = 0; ///< consecutive identical digests

    /// When non-null, the engine is recording an epoch unit: execute()
    /// appends every fire and runActivation() appends each activation's
    /// fire count, issue-width sample and fresh flag.
    epoch::RecordedIteration *epochRec = nullptr;

    uint64_t ffEpochsN = 0;
    uint64_t ffIterationsN = 0;
    uint64_t ffEventsSavedN = 0;
    uint64_t eventActivationsN = 0;

    /// Simulated-machine event totals the replayed epochs would have
    /// added to the queue's lifetime counters; folded into the
    /// eventsScheduled/eventsExecuted formulas.
    uint64_t ffScheduledOffset = 0;
    uint64_t ffExecutedOffset = 0;

    std::vector<InstState> state;
    std::vector<Word> lmwWords;        ///< the words an Lmw reads
    std::vector<BlockPaths> planPaths; ///< one per segment of the plan

    /**
     * Activation context for event callbacks. Events capture only
     * `this` plus a few payload words (they must fit an InlineFn), so
     * the per-activation invariants -- which block is running, where
     * run stats accumulate -- live here instead of in every capture.
     */
    const isa::MappedBlock *curBlock = nullptr;
    const BlockPaths *curPaths = nullptr;
    RunStats *curStats = nullptr;
    Tick seedTick = 0;          ///< start tick of the current activation
    bool seedFresh = false;     ///< current activation is a fresh mapping
    sim::MemberEvent seedEvent; ///< bound once; rescheduled per activation

    uint64_t firedCount = 0;
    uint64_t expectedCount = 0;
    Tick actMaxTick = 0;   ///< full drain (deliveries, stores)
    Tick actMaxIssue = 0;  ///< last reservation-station issue
    Tick actMaxWrite = 0;  ///< last register-write commit

    Tick curTick = 0;
    /// The tracked resources' floor: the current activation's start.
    /// Activation starts never decrease, even across run() calls.
    Tick floorTick = 0;

    /// Byte address region where lookup tables live when the L0 data
    /// store is disabled (they sit in cached memory).
    static constexpr Addr tableRegionBase = Addr(1) << 41;
};

} // namespace dlp::core

#endif // DLP_CORE_BLOCK_ENGINE_HH
