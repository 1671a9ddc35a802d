/**
 * @file
 * The MIMD execution engine: each ALU tile independently runs the
 * kernel's sequential program from its L0 instruction store with a local
 * program counter (Section 4.3, Figure 4c).
 *
 * Tiles are simple in-order pipelines; mimd::step (core/mimd_step.hh)
 * is their timing rule, which the cost oracle walks too, and the
 * engine's policy for it acquires the contended calendars. Every load
 * and store is routed individually through the mesh to the row's edge
 * port -- the routing traffic that makes the plain M configuration lose
 * to the SIMD-style configurations on regular kernels (Section 5.3) --
 * while table lookups hit the tile-local L0 data store when that
 * mechanism is enabled.
 *
 * The tiles interleave in global simulated-time order: a sim::ReadySet
 * (sim/ready_set.hh) holds every running tile at the tick it may issue
 * next and pops the lowest tile at the lowest tick, which steps one
 * instruction and goes back in at its next issue cycle. A tile whose
 * operands are not ready before the next tile's turn steps nothing: it
 * goes back in at the tick its operands arrive. The popped tick is the
 * floor of every shared calendar.
 */

#ifndef DLP_CORE_MIMD_ENGINE_HH
#define DLP_CORE_MIMD_ENGINE_HH

#include <vector>

#include "core/block_engine.hh" // RunStats
#include "core/mimd_step.hh"
#include "kernels/ir.hh"
#include "mem/memory_system.hh"
#include "noc/mesh.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "sched/plan.hh"
#include "sim/ready_set.hh"

namespace dlp::core {

class MimdEngine
{
  public:
    MimdEngine(const MachineParams &params, mem::MemorySystem &memory);

    void setTables(const std::vector<kernels::Table> *tables);

    /**
     * Run the per-tile program over numRecords records. Tile t starts at
     * record t and strides by the tile count. Continues from the current
     * simulated time.
     */
    RunStats run(const sched::MimdPlan &plan, uint64_t numRecords);

    Tick now() const { return curTick; }

    /** Advance simulated time (inter-chunk DMA staging). */
    void advanceTo(Tick t) { curTick = std::max(curTick, t); }

    /**
     * The engine statistics group ("core.mimd"): per-tile issue-width
     * and operand/scoreboard-wait distributions.
     */
    StatGroup &statsGroup() { return engStats; }

    /** The operand network (per-link statistics live on it). */
    noc::MeshNetwork &network() { return mesh; }

    /**
     * Host-side count of simulation-kernel events across all runs. The
     * MIMD engine is a static-scheduled stepper rather than a
     * discrete-event client, so its unit of kernel work -- one tile
     * instruction step -- is what gets counted.
     */
    uint64_t hostEvents() const { return hostSteps; }

    /**
     * Attach (or detach, with nullptr) a periodic stat sampler, polled
     * as tiles step forward in global simulated-time order. The sampler
     * must outlive the run.
     */
    void setSampler(obs::StatSampler *s) { sampler = s; }

  private:
    /** Per-tile architectural state around its pipeline. */
    struct TileState : mimd::Pipeline
    {
        noc::Coord here{0, 0};
        std::vector<Word> regs;
        Tick lastEffect = 0;
        uint64_t executed = 0;
    };

    struct Contended; ///< mimd::step's policy

    const MachineParams m;
    mem::MemorySystem &mem;
    noc::MeshNetwork mesh;

    const std::vector<kernels::Table> *tables = nullptr;
    std::vector<Addr> tableByteBase;
    std::vector<sim::Resource> l0Ports;
    sim::ReadySet readySet; ///< tiles waiting to step, by tick

    StatGroup engStats{"core.mimd"};
    Distribution *operandWait = nullptr; ///< scoreboard stall per inst
    Distribution *issueWidth = nullptr;  ///< insts/cycle per tile per run

    Tick curTick = 0;
    Tick floorTick = 0; ///< the resources' floor: the last popped tick
    uint64_t hostSteps = 0; ///< instruction steps executed (host metric)
    obs::StatSampler *sampler = nullptr;

    static constexpr Addr tableRegionBase = Addr(1) << 41;
    static constexpr uint64_t instLimit = 400'000'000;
};

} // namespace dlp::core

#endif // DLP_CORE_MIMD_ENGINE_HH
