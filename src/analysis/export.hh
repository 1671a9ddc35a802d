/**
 * @file
 * Machine-readable experiment output: serialize stat-group snapshots,
 * individual experiment results and the full experiment grid as JSON
 * documents with deterministic key ordering, so the benches' numbers
 * (Figure 5, Table 4) can be consumed by plotting and regression
 * tooling without scraping the text tables.
 *
 * Document shapes ([..] optional: present only when the run audited,
 * checked or sampled, so other documents and their goldens keep their
 * shape):
 *
 *   GroupSnapshot  -> { "name", "scalars": {..}, "formulas": {..},
 *                       "distributions": { n: { samples, mean, stdev,
 *                       min, max, low, high, underflow, overflow,
 *                       buckets: [..] } }, "vectors": { n: [..] } }
 *   ExperimentResult -> { <arch::visitFields(ExperimentResult) keys:
 *                       kernel, config, verified, error (omitted when
 *                       empty), cycles, usefulOps, instsExecuted,
 *                       records, activations, mappings>, opsPerCycle,
 *                       host: { events, eventsPerSec, seconds, ffEpochs,
 *                       ffIterations, ffEventsSaved, eventActivations },
 *                       [audit: { violations, findings: [ <arch::
 *                       visitFields(AuditFinding) keys> ] }],
 *                       [check: { errors, warnings, findings: [ <arch::
 *                       visitFields(CheckFinding) keys> ] }],
 *                       cost: { <cost::visitFields keys> },
 *                       [timeseries: { intervalTicks, stats, isLevel,
 *                       ticks, samples }],
 *                       statGroups: [ GroupSnapshot.. ] }
 *   Grid           -> { "generator", "paper", "experiments": [ result.. ] }
 *
 * The "host" object is simulator performance and fast-forwarding
 * accounting, not simulated state; bit-identical regression diffs strip
 * it.
 */

#ifndef DLP_ANALYSIS_EXPORT_HH
#define DLP_ANALYSIS_EXPORT_HH

#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "arch/multicore.hh"
#include "arch/processor.hh"
#include "common/json.hh"
#include "common/stats.hh"

namespace dlp::analysis {

/** One stat-group snapshot as a JSON object. */
json::Value toJson(const GroupSnapshot &group);

/** One experiment result, including its stat-group snapshots. */
json::Value toJson(const arch::ExperimentResult &result);

/**
 * One multi-core service run: configuration echo, conservation totals,
 * throughput, latency percentiles + histogram, per-core and per-profile
 * tables, per-request records, shared-memory contention groups, and —
 * under the same shape-stability contract as experiment documents —
 * optional "audit" and "timeseries" objects.
 */
json::Value toJson(const arch::ServiceResult &result);

/**
 * A document's header, { "generator", "paper" }, which every complete
 * document written here (and serve_bench's) starts with.
 */
json::Value document();

/**
 * A flat list of results (Table 4 style) as a complete document:
 * { "generator", "paper", "experiments": [..] }.
 */
json::Value toJson(const std::vector<arch::ExperimentResult> &results);

/** The full grid (Figure 5 style), one entry per kernel x config. */
json::Value toJson(const Grid &grid);

/** Serialize and write a document; fatal on I/O failure. */
void writeJsonFile(const std::string &path, const json::Value &doc);

} // namespace dlp::analysis

#endif // DLP_ANALYSIS_EXPORT_HH
