/**
 * @file
 * Static performance oracle: a pure whole-plan cost model.
 *
 * Takes a scheduled plan (SIMD mapped blocks or a MIMD sequential
 * program) plus the machine parameters and, without simulating,
 * computes per-segment and whole-plan predictions:
 *
 *  - dataflow critical-path length (latency-weighted longest path over
 *    the operand graph `check::buildGraph` builds, using the engine's
 *    uncontended per-op timing),
 *  - NoC hop mass and per-link pressure from the placements,
 *  - SMC bank / store-buffer / channel-lane bandwidth demand per
 *    activation,
 *  - reservation-station occupancy,
 *  - a closed-form steady-state throughput bound
 *        ticks/activation >= max(gap + steadyWritePath, maxPressure).
 *
 * The bound side is *sound*: recomputed from the report's CostSummary
 * by `verify::costBoundTicks`, it never exceeds the ticks the
 * event-kernel simulation reports for the same run (audited by
 * `verify::costInvariants` on every experiment and fuzzed via
 * `fuzz_ir --cost`). The estimate side (`predictedTicksPerRecord`) is a
 * throughput model used for ranking placements and configurations; it
 * carries no soundness guarantee, only a rank-correlation contract
 * checked against the simulator grid (see DESIGN.md section 14).
 */

#ifndef DLP_COST_COST_HH
#define DLP_COST_COST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "sched/plan.hh"

namespace dlp::check {
struct Report;
}

namespace dlp::cost {

/** Static cost of one mapped block (one plan segment). */
struct SegmentCost
{
    std::string block;        ///< block name
    uint64_t weight = 1;      ///< plan segment activations per group
    uint64_t insts = 0;       ///< total instructions
    uint64_t steadyInsts = 0; ///< instructions that re-fire every
                              ///< activation (non-onceOnly)

    uint64_t mapTicks = 0; ///< ticks to map this block onto the grid
    uint64_t gapTicks = 0; ///< engine pacing gap (revitalize delay, or
                           ///< the remap time without the mechanism)

    /// Latency-weighted longest path over the full operand graph,
    /// uncontended (activation latency estimate; NOT a throughput
    /// bound -- frame pipelining overlaps consecutive activations).
    uint64_t criticalPathTicks = 0;

    /// Longest uncontended path through re-firing instructions to a
    /// register-file write (the value the engine paces activations on).
    uint64_t steadyWritePathTicks = 0;

    /// Longest uncontended path to a register-file write over the FULL
    /// graph (onceOnly ops included): what a first activation's writes
    /// cost, and what a following segment's map must wait out.
    uint64_t writeDrainTicks = 0;

    /// Busiest structural resource, in exclusive busy ticks demanded
    /// per steady activation, and its name.
    uint64_t maxPressureTicks = 0;
    std::string bottleneck;

    /// Sound per-steady-activation pacing bound:
    /// max(maxPressureTicks, gapTicks + steadyWritePathTicks).
    uint64_t boundTicks = 0;

    uint64_t hopMass = 0;       ///< operand-network hops per activation
    uint64_t hopLowerBound = 0; ///< unavoidable hops (edge/reg crossings)
    uint64_t maxLinkTicks = 0;  ///< busiest single mesh link / lane

    uint64_t smcReadUnits = 0;  ///< SMC bank-port ticks per activation
    uint64_t smcWriteUnits = 0; ///< store-buffer ticks per activation

    double rsOccupancy = 0.0; ///< placed insts / reservation stations
};

/**
 * The whole-plan figures of a cost report: what an ExperimentResult
 * carries and exports as its "cost" JSON object, and everything
 * verify::costBoundTicks needs to recompute the sound bound.
 */
struct CostSummary
{
    bool analyzed = false; ///< false when lowering failed before analysis
    bool mimd = false;
    unsigned unroll = 1;
    /// SIMD without instruction revitalization: the engine re-maps the
    /// block for every activation (the pacing gap is the map time).
    bool perActivationRemap = false;
    uint64_t segmentCount = 0; ///< plan segments analyzed (SIMD)

    /// @name Sound-bound ingredients (see verify::costBoundTicks).
    /// @{
    uint64_t mapTicksMin = 0;              ///< min over segments
    uint64_t boundTicksPerActivation = 0;  ///< min over segments boundTicks
    uint64_t setupTicks = 0;          ///< MIMD broadcast + preload per mapping
    uint64_t minCycleInsts = 0;       ///< MIMD min CFG-cycle instructions
    uint64_t minCycleLoadUnits = 0;   ///< MIMD min CFG-cycle SMC bank ticks
    uint64_t minCycleStoreUnits = 0;  ///< MIMD min CFG-cycle store ticks
    uint64_t tiles = 0;               ///< record-loop stride (grid tiles)
    uint64_t gridCols = 0;            ///< tiles sharing one row's bank
    /// @}

    /// @name Descriptive predictions (estimates, not bounds).
    /// @{
    uint64_t criticalPathTicks = 0;        ///< max over segments
    uint64_t maxPressureTicks = 0;         ///< binding segment's pressure
    std::string bottleneck;                ///< binding segment's resource
    uint64_t hopMass = 0;                  ///< sum over segments
    uint64_t hopLowerBound = 0;            ///< sum over segments
    uint64_t smcReadUnits = 0;             ///< sum over segments
    uint64_t smcWriteUnits = 0;            ///< sum over segments
    double rsOccupancy = 0.0;              ///< max over segments
    /// Throughput estimate for ranking; not a sound bound.
    double predictedTicksPerRecord = 0.0;
    /// @}
};

/**
 * The summary's one field table: calls v(key, member) for every field,
 * keyed and ordered as the exported "cost" JSON object. The exporter,
 * the store codec (both directions) and the tests all walk it, so a new
 * field is added here and nowhere else. `Summary` is CostSummary or
 * const CostSummary.
 */
template <class Summary, class Visitor>
void
visitFields(Summary &c, Visitor &&v)
{
    v("analyzed", c.analyzed);
    v("mimd", c.mimd);
    v("unroll", c.unroll);
    v("perActivationRemap", c.perActivationRemap);
    v("segments", c.segmentCount);
    v("mapTicksMin", c.mapTicksMin);
    v("boundTicksPerActivation", c.boundTicksPerActivation);
    v("setupTicks", c.setupTicks);
    v("minCycleInsts", c.minCycleInsts);
    v("minCycleLoadUnits", c.minCycleLoadUnits);
    v("minCycleStoreUnits", c.minCycleStoreUnits);
    v("tiles", c.tiles);
    v("gridCols", c.gridCols);
    v("criticalPathTicks", c.criticalPathTicks);
    v("maxPressureTicks", c.maxPressureTicks);
    v("bottleneck", c.bottleneck);
    v("hopMass", c.hopMass);
    v("hopLowerBound", c.hopLowerBound);
    v("smcReadUnits", c.smcReadUnits);
    v("smcWriteUnits", c.smcWriteUnits);
    v("rsOccupancy", c.rsOccupancy);
    v("predictedTicksPerRecord", c.predictedTicksPerRecord);
}

/** Whole-plan cost report: the summary plus its per-segment detail. */
struct CostReport : CostSummary
{
    std::string plan;
    std::string config;
    std::vector<SegmentCost> segments;
};

/**
 * Analyze a scheduled SIMD plan; pure, no simulator state touched.
 *
 * `records` and `batches` describe the run's shape (both inputs of the
 * run, known before simulating): total records driven and how many
 * dependent batches deliver them (FFT stages, LU steps). Each batch --
 * and each SMC chunk within a batch, per plan.layout.chunkRecords --
 * pays its own map and pipeline ramp, which dominates short runs.
 * records == 0 asks for the asymptotic steady-state prediction.
 */
CostReport analyzeSimd(const sched::SimdPlan &plan,
                       const core::MachineParams &m, uint64_t records = 0,
                       uint64_t batches = 1);

/** Analyze a scheduled MIMD plan; pure. Run shape as for analyzeSimd. */
CostReport analyzeMimd(const sched::MimdPlan &plan,
                       const core::MachineParams &m, uint64_t records = 0,
                       uint64_t batches = 1);

/**
 * Append PERF-* advisory findings (PERF-HOP, PERF-CAP, PERF-UNROLL)
 * for this report to a check report. Advisories never affect
 * Report::clean().
 */
void perfRules(const CostReport &report, const core::MachineParams &m,
               check::Report &out);

} // namespace dlp::cost

#endif // DLP_COST_COST_HH
