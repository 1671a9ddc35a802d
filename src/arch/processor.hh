/**
 * @file
 * The top-level configurable processor. lowerFor() lowers a kernel the
 * way a machine configuration executes it (stream layout, SIMD or MIMD
 * plan, cost report); TripsProcessor::run() then drives a complete
 * workload through one stage pipeline shared by both engines:
 *
 *   lower -> cost -> check -> populate memory -> simulate chunks
 *         -> snapshot stats -> verify
 *
 * (functional outputs verified against the golden models by the
 * workload itself).
 *
 * This is the primary entry point of the library:
 *
 *   auto wl = kernels::makeWorkload("rijndael", 1024, seed);
 *   arch::TripsProcessor cpu(arch::configByName("S-O-D"));
 *   auto result = cpu.run(*wl);
 *   // result.verified, result.cycles, result.opsPerCycle()
 */

#ifndef DLP_ARCH_PROCESSOR_HH
#define DLP_ARCH_PROCESSOR_HH

#include <concepts>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "check/verify.hh"
#include "common/stats.hh"
#include "core/block_engine.hh"
#include "core/machine.hh"
#include "core/mimd_engine.hh"
#include "cost/cost.hh"
#include "kernels/workload.hh"
#include "obs/sampler.hh"
#include "sched/plan.hh"

namespace dlp::arch {

/**
 * One violated post-run invariant, as recorded by the verify-layer
 * auditor (src/verify/audit.hh). Lives here, not in verify, so results
 * can carry findings without arch depending on the verify library.
 */
struct AuditFinding
{
    std::string invariant; ///< short stable identifier of the check
    std::string detail;    ///< human-readable expected-vs-actual text
};

/**
 * The audit finding's one field table: calls v(key, member) for every
 * field, keyed and ordered as an exported finding.
 */
template <class Finding, class Visitor>
    requires std::same_as<std::remove_const_t<Finding>, AuditFinding>
void
visitFields(Finding &f, Visitor &&v)
{
    v("invariant", f.invariant);
    v("detail", f.detail);
}

/**
 * One diagnostic from the static SPDI verifier (src/check), flattened
 * the same way AuditFinding is so results can carry findings without
 * arch's interface depending on the check library.
 */
struct CheckFinding
{
    std::string rule;     ///< registry identifier, e.g. "MEM-ORDER"
    std::string severity; ///< "error", "warning" or "info"
    std::string location; ///< block:iN.sM anchor
    std::string detail;   ///< human-readable specifics
};

/** The check finding's one field table, as the audit finding's. */
template <class Finding, class Visitor>
    requires std::same_as<std::remove_const_t<Finding>, CheckFinding>
void
visitFields(Finding &f, Visitor &&v)
{
    v("rule", f.rule);
    v("severity", f.severity);
    v("location", f.location);
    v("detail", f.detail);
}

/** Outcome of running one workload on one configuration. */
struct ExperimentResult
{
    std::string kernel;
    std::string config;
    bool verified = false;
    std::string error;

    Cycles cycles = 0;
    uint64_t usefulOps = 0;
    uint64_t instsExecuted = 0;
    uint64_t records = 0;
    uint64_t activations = 0;
    uint64_t mappings = 0;

    /// @name Host (simulator) performance of this run -- wall-clock
    /// seconds, simulation-kernel events executed, and their ratio.
    /// Measurement noise, not simulated state: the CI bit-identical
    /// diff strips these, and the JSON exporter groups them under a
    /// separate "host" object so tooling can do the same.
    /// @{
    double hostSeconds = 0.0;
    uint64_t hostEvents = 0;

    double
    hostEventsPerSec() const
    {
        return hostSeconds > 0.0 ? double(hostEvents) / hostSeconds : 0.0;
    }
    /// @}

    /// @name Epoch fast-forwarding accounting. Host-side too (the CI
    /// diff strips them with the rest of the "host" object), but exact
    /// rather than noisy: the auditor checks the conservation laws
    /// eventActivations + ffIterations == activations and
    /// hostEvents + ffEventsSaved == core.simd.eventsExecuted.
    /// @{
    uint64_t ffEpochs = 0;          ///< epochs entered
    uint64_t ffIterations = 0;      ///< activations replayed closed-form
    uint64_t ffEventsSaved = 0;     ///< events those activations skipped
    uint64_t eventActivations = 0;  ///< activations simulated event-by-event
    /// @}

    /**
     * End-of-run snapshots of every per-structure statistics group
     * (engine, mesh, SMC, memory system). Value-semantic: they outlive
     * the processor and ride into the JSON exporter.
     */
    std::vector<GroupSnapshot> statGroups;

    /**
     * Periodic stat samples over simulated time (empty unless a
     * sampling interval was configured -- DLP_TIMESERIES or the
     * --timeseries flag). Delta columns sum to the final aggregates;
     * the exporter emits this as the "timeseries" JSON object.
     */
    obs::TimeSeries timeseries;

    /// @name Post-run invariant audit (populated only when auditing is
    /// enabled; see verify::auditAndRecord). audited distinguishes "not
    /// checked" from "checked clean".
    /// @{
    bool audited = false;
    std::vector<AuditFinding> auditViolations;
    /// @}

    /// @name Pre-run static verification (populated only when checking
    /// is enabled; see check::verify). checked distinguishes "not
    /// checked" from "checked clean". A plan with Error findings never
    /// runs: the processor raises a fatal error instead.
    /// @{
    bool checked = false;
    uint64_t checkErrors = 0;
    uint64_t checkWarnings = 0;
    std::vector<CheckFinding> checkFindings;
    /// @}

    /**
     * Static cost-model predictions for the scheduled plan (populated
     * unconditionally -- the analysis is pure and cheap). Exported as
     * the "cost" JSON object; verify::costInvariants audits the bound
     * side against the simulated cycle count.
     */
    cost::CostSummary cost;

    double
    opsPerCycle() const
    {
        return cycles ? double(usefulOps) / double(cycles) : 0.0;
    }

    /** The snapshot with the given group name; panics if absent. */
    const GroupSnapshot &
    group(const std::string &name) const
    {
        for (const auto &g : statGroups)
            if (g.name == name)
                return g;
        panic("no stat group '%s' in result for %s/%s", name.c_str(),
              kernel.c_str(), config.c_str());
    }
};

/**
 * The result's field table of simulated scalars: calls v(key, member)
 * for each, keyed and ordered as the store codec and the exporter write
 * them. Both codec directions, the exporter and the tests walk it, so a
 * scalar is added here and nowhere else.
 */
template <class Result, class Visitor>
    requires std::same_as<std::remove_const_t<Result>, ExperimentResult>
void
visitFields(Result &r, Visitor &&v)
{
    v("kernel", r.kernel);
    v("config", r.config);
    v("verified", r.verified);
    v("error", r.error);
    v("cycles", r.cycles);
    v("usefulOps", r.usefulOps);
    v("instsExecuted", r.instsExecuted);
    v("records", r.records);
    v("activations", r.activations);
    v("mappings", r.mappings);
}

/**
 * The result's field table of host fields, the only ones two runs of
 * one cell may disagree on; the codec writes them after the scalars.
 * store::simulatedJson zeroes exactly these.
 */
template <class Result, class Visitor>
    requires std::same_as<std::remove_const_t<Result>, ExperimentResult>
void
visitHostFields(Result &r, Visitor &&v)
{
    v("hostSeconds", r.hostSeconds);
    v("hostEvents", r.hostEvents);
    v("ffEpochs", r.ffEpochs);
    v("ffIterations", r.ffIterations);
    v("ffEventsSaved", r.ffEventsSaved);
    v("eventActivations", r.eventActivations);
}

class TripsProcessor
{
  public:
    explicit TripsProcessor(const core::MachineParams &params);

    /** Run a workload to completion and verify its outputs. */
    ExperimentResult run(kernels::Workload &workload);

    const core::MachineParams &params() const { return m; }

  private:
    core::MachineParams m;
};

/**
 * Partition the SMC between a kernel's input, output and scratch
 * streams. @return the layout; chunkRecords receives the records per
 * SMC-resident chunk (also layout.chunkRecords).
 */
sched::StreamLayout makeStreamLayout(const kernels::Kernel &k,
                                     const core::MachineParams &m,
                                     uint64_t &chunkRecords);

/** A kernel lowered the way the machine executes it (see lowerFor). */
struct LoweredKernel
{
    const kernels::Kernel *kernel = nullptr;
    /// The SMC partition; layout.chunkRecords is the records per chunk.
    sched::StreamLayout layout;
    /// The SIMD or MIMD plan, as the configuration's localPC selects.
    std::variant<sched::SimdPlan, sched::MimdPlan> plan;
    /// The cost model's report on the plan, for the requested run shape.
    cost::CostReport cost;

    /** The plan as the static verifier takes it. */
    check::MappedProgram
    program() const
    {
        return {std::get_if<sched::SimdPlan>(&plan),
                std::get_if<sched::MimdPlan>(&plan), kernel};
    }
};

/**
 * Lower (k, m) exactly as the processor does: the stream layout, then
 * lowerSimd or lowerMimd as m.mech.localPC selects, then the cost model
 * for a run of `records` records in `batches` dependent batches
 * (records == 0: the asymptotic steady state). The one lowering entry
 * of the processor, the linter, the cost report and the fuzzer, so
 * every consumer sees the plan the machine would really execute. k must
 * outlive the result.
 */
LoweredKernel lowerFor(const kernels::Kernel &k, const core::MachineParams &m,
                       uint64_t records = 0, uint64_t batches = 1);

} // namespace dlp::arch

#endif // DLP_ARCH_PROCESSOR_HH
