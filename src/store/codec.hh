/**
 * @file
 * Full-fidelity JSON codec for ExperimentResult.
 *
 * The analysis exporter (analysis/export.hh) serializes results for
 * *consumption*: distributions appear as derived mean/stdev, which is
 * what plots want but cannot be inverted exactly. The store codec
 * serializes results for *reconstruction*: distributions carry their
 * raw accumulators (sum, sumSq) so a decoded result re-exported through
 * the analysis exporter is byte-for-byte identical to the original —
 * mean() and stdev() recompute from the very same doubles the original
 * run held. (JSON doubles survive the trip exactly: the writer emits
 * shortest round-trippable forms.)
 *
 * Everything on the result rides along — audit/check findings, the
 * sampled timeseries, host-performance numbers (historical values from
 * the run that computed the cell) — so a store hit is indistinguishable
 * from a recompute, modulo wall-clock.
 *
 * Both directions walk the same field tables (arch::visitFields,
 * arch::visitHostFields, cost::visitFields), so they agree on every key
 * and its order by construction.
 */

#ifndef DLP_STORE_CODEC_HH
#define DLP_STORE_CODEC_HH

#include <string>

#include "arch/processor.hh"
#include "common/json.hh"

namespace dlp::store {

/** Schema version of the codec's document shape. */
constexpr uint64_t codecFormatVersion = 1;

/** Serialize a result with enough fidelity to reconstruct it exactly. */
json::Value resultToJson(const arch::ExperimentResult &result);

/**
 * obj[key] of a store document, which is input, not simulator state: a
 * missing key or a value of another kind raises FatalError.
 */
const json::Value &documentField(const json::Value &obj, const char *key,
                                 json::Value::Kind kind);

/**
 * Inverse of resultToJson. Every key the tables name is required: a
 * document missing one (or holding a value of another type) raises
 * FatalError, which the result store counts as a corrupt entry and a
 * miss.
 */
arch::ExperimentResult resultFromJson(const json::Value &doc);

/**
 * The codec text of a result with its host fields (visitHostFields)
 * zeroed: what every run of one simulated cell must reproduce byte for
 * byte, however the host ran it (serial or parallel, fast-forwarded or
 * not).
 */
std::string simulatedJson(arch::ExperimentResult result);

} // namespace dlp::store

#endif // DLP_STORE_CODEC_HH
