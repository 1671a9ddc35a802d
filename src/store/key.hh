/**
 * @file
 * Content-addressed experiment keys.
 *
 * An experiment is fully determined by (kernel IR, machine
 * configuration, problem scale, dataset seed, code version): the
 * simulator is deterministic and CI asserts bit-identical results
 * across processes and worker counts, which is exactly what makes a
 * content-addressed cache sound. The key is the 128-bit FNV-1a digest
 * (as 32 hex characters) of a canonical serialization of those five
 * inputs:
 *
 *  - the kernel's complete IR — every node, loop, carry, constant and
 *    table, field by field — so an edited kernel changes its key even
 *    if its name stays the same;
 *  - every MachineParams field (mechanism switches, array geometry,
 *    latencies, the full memory-system parameter block), so a tweaked
 *    configuration never aliases the old one;
 *  - the resolved problem scale and dataset seed;
 *  - a code-version string: DLP_CODE_VERSION if set, else a
 *    compile-time stamp. A rebuilt binary therefore defaults to a cold
 *    store — set DLP_CODE_VERSION explicitly (e.g. to a git SHA) to
 *    share a store across builds known to be result-compatible.
 *
 * The same key string is used by the in-process result cache and the
 * on-disk store, so "same cell" means the same thing at both layers.
 */

#ifndef DLP_STORE_KEY_HH
#define DLP_STORE_KEY_HH

#include <cstdint>
#include <string>

#include "common/hash.hh"
#include "core/machine.hh"
#include "kernels/ir.hh"
#include "traffic/generator.hh"

namespace dlp::store {

/**
 * Bumped whenever the canonical fold below changes shape, or when the
 * simulator's result schema changes incompatibly (v2: epoch
 * fast-forwarding counters joined the stored ExperimentResult; v3:
 * multi-core service documents joined the store and serviceKey()'s
 * canonical fold was defined).
 */
constexpr uint64_t keyFormatVersion = 3;

/** Fold a kernel's complete IR into a hasher, canonically. */
void foldKernel(Fnv1a128 &h, const kernels::Kernel &k);

/** Fold every machine parameter into a hasher, canonically. */
void foldMachine(Fnv1a128 &h, const core::MachineParams &m);

/** Digest of one kernel's IR (cached per catalog name; thread-safe). */
Hash128 kernelIrHash(const std::string &kernelName);

/** Digest of one Table 5 configuration (cached per name; thread-safe). */
Hash128 machineHash(const std::string &configName);

/**
 * The code-version string folded into every key: DLP_CODE_VERSION from
 * the environment if non-empty, else the library's compile-time stamp.
 */
std::string codeVersion();

/** Override the code version (tests; empty string restores default). */
void setCodeVersion(const std::string &version);

/**
 * The content-addressed key of one experiment cell, as 32 hex chars.
 * scale is the *resolved* problem scale (driver::resolvedScale), not a
 * divisor.
 */
std::string experimentKey(const std::string &kernel,
                          const std::string &config, uint64_t scale,
                          uint64_t seed);

/**
 * The content-addressed key of one multi-core service run, as 32 hex
 * chars: machine-config digest, core count, shared bandwidth, the
 * complete traffic description (arrival process, load, request count,
 * batch, seeds, and the IR digest plus weight of every mix entry) and
 * the code version. The same determinism argument as experimentKey():
 * the service simulation is bit-reproducible from exactly these inputs.
 */
std::string serviceKey(const std::string &config, unsigned cores,
                       double bandwidthWordsPerTick,
                       const traffic::TrafficParams &t);

} // namespace dlp::store

#endif // DLP_STORE_KEY_HH
