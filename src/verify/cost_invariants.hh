/**
 * @file
 * Cross-validation of the static cost model (src/cost) against the
 * simulator, in two layers:
 *
 *  - Soundness: `costBoundTicks` is the one home of the model's
 *    closed-form lower bound on total run ticks, computed from the
 *    cost::CostSummary an ExperimentResult carries. The
 *    `cost-lower-bound` invariant in the audit registry asserts it never
 *    exceeds the ticks the simulation actually took; a violation means
 *    the "bound" was not a bound.
 *
 *  - Fidelity: `costInvariants` additionally checks, per kernel, that
 *    the model's throughput *estimate* ranks machine configurations the
 *    same way the simulator does (Spearman rank correlation over the
 *    configurations of each kernel). The estimate carries no soundness
 *    guarantee, only this rank-correlation contract, enforced in CI on
 *    the full kernel x configuration grid.
 */

#ifndef DLP_VERIFY_COST_INVARIANTS_HH
#define DLP_VERIFY_COST_INVARIANTS_HH

#include <vector>

#include "arch/processor.hh"

namespace dlp::verify {

/**
 * The cost model's sound lower bound on total run ticks for this
 * result, computed from its cost summary and the run's own
 * activation/mapping/record counters. Zero when the plan was never
 * analyzed (no claim).
 */
uint64_t costBoundTicks(const arch::ExperimentResult &res);

/**
 * Spearman rank correlation of two equal-length samples, with average
 * ranks for ties. Returns 1.0 for degenerate inputs (fewer than two
 * points, or either sample constant): a constant prediction over a
 * constant truth is vacuously in order, and callers gate on group size
 * anyway.
 *
 * `relTol` widens what counts as a tie: sorted values within that
 * relative distance of their tie group's smallest member share an
 * averaged rank. Two simulator runs 0.3% apart are the same speed for
 * ranking purposes, and a strict ordering of such noise-level
 * differences would penalize a model for not predicting noise. Applied
 * symmetrically to both samples; 0 keeps exact-equality ties only.
 */
double spearman(const std::vector<double> &a, const std::vector<double> &b,
                double relTol = 0.0);

/** Per-kernel rank agreement between predicted and simulated cost. */
struct CostRankStat
{
    std::string kernel;
    size_t configs = 0;  ///< results ranked (one per configuration)
    double spearman = 1; ///< predictedTicksPerRecord vs ticks/record
};

/**
 * Rank statistics for every kernel appearing in results (sorted by
 * kernel name). Results without records or with an unanalyzed cost
 * summary are skipped.
 */
std::vector<CostRankStat>
costRankStats(const std::vector<arch::ExperimentResult> &results);

/**
 * Audit the whole grid: the sound bound must hold for every result,
 * and every kernel ranked across at least three configurations must
 * reach minSpearman. @return the violations (empty == clean).
 */
std::vector<arch::AuditFinding>
costInvariants(const std::vector<arch::ExperimentResult> &results,
               double minSpearman);

} // namespace dlp::verify

#endif // DLP_VERIFY_COST_INVARIANTS_HH
