/**
 * @file
 * Open-loop request traffic for the multi-core serving experiments.
 *
 * A TrafficParams describes an arrival process (requests per second,
 * total request count, arrival discipline) and a per-request kernel mix
 * drawn from the Table-1 catalog. generate() expands it into a concrete,
 * fully deterministic arrival schedule: every request carries its
 * arrival tick, the kernel it runs and the dataset-seed slot it reads.
 *
 * Open-loop means arrivals never wait for service: the schedule is
 * fixed up front from the seed alone, so an overloaded system builds a
 * queue instead of silently throttling the offered load — which is what
 * makes sustained-throughput and tail-latency measurements honest
 * (closed-loop generators suffer coordinated omission).
 *
 * Determinism note: the "poisson" discipline needs -ln(U) for its
 * exponential interarrivals. std::log is not guaranteed to round
 * identically across libm versions, so interarrival sampling uses an
 * in-repo polynomial log (plain IEEE +,*,/ only) — schedules are
 * bit-identical on every platform, which the CI golden bit-diff relies
 * on.
 */

#ifndef DLP_TRAFFIC_GENERATOR_HH
#define DLP_TRAFFIC_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dlp::traffic {

/** One entry of the per-request kernel mix. */
struct MixEntry
{
    std::string kernel;   ///< Table-1 catalog name
    uint64_t weight = 1;  ///< relative draw weight (must be nonzero)
};

/** How interarrival gaps are drawn. */
enum class Arrival : uint8_t
{
    Uniform,  ///< mean gap with +/-50% seeded jitter
    Poisson,  ///< exponential gaps (memoryless arrivals)
};

struct TrafficParams
{
    double rps = 1000.0;        ///< offered load, requests per second
    uint64_t requests = 256;    ///< total requests to inject
    uint64_t batch = 256;       ///< records per request (problem scale)
    uint64_t seed = 1;          ///< schedule + dataset-slot seed
    uint64_t seedPool = 2;      ///< distinct dataset seeds cycled per kernel
    double ticksPerSec = 1e9;   ///< simulated ticks in one wall second
    Arrival arrival = Arrival::Uniform;
    std::vector<MixEntry> mix;  ///< kernel draw table (non-empty)
};

/** Parse/format the arrival discipline name ("uniform", "poisson"). */
Arrival arrivalByName(const std::string &name);
const char *arrivalName(Arrival a);

/**
 * Parse a "--mix" spec: comma-separated kernel[:weight] entries, e.g.
 * "convert:4,md5:2,fft". UsageError on malformed entries or a weight
 * outside 1..2^32-1 (kernel names are checked by the caller).
 */
std::vector<MixEntry> parseMix(const std::string &spec);

/** One request of the generated schedule. */
struct Request
{
    uint64_t index = 0;    ///< injection order
    Tick arrival = 0;      ///< arrival tick (non-decreasing)
    uint32_t mixIndex = 0; ///< which MixEntry the kernel was drawn from
    uint32_t seedSlot = 0; ///< dataset-seed slot in [0, seedPool)
};

/**
 * Expand params into the concrete arrival schedule: requests in
 * injection order with non-decreasing arrival ticks. Same params =>
 * bit-identical schedule. Fatal on an empty mix, zero rps or zero
 * weights.
 */
std::vector<Request> generate(const TrafficParams &params);

/**
 * Deterministic natural log for the exponential sampler: frexp range
 * reduction + atanh series, IEEE +,*,/ only, ~1e-14 relative accuracy
 * over (0, 1]. Exposed for the unit tests.
 */
double detLog(double x);

} // namespace dlp::traffic

#endif // DLP_TRAFFIC_GENERATOR_HH
