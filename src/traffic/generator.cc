#include "traffic/generator.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/random.hh"

namespace dlp::traffic {

Arrival
arrivalByName(const std::string &name)
{
    if (name == "uniform")
        return Arrival::Uniform;
    if (name == "poisson")
        return Arrival::Poisson;
    fatal("unknown arrival discipline '%s' (uniform, poisson)",
          name.c_str());
}

const char *
arrivalName(Arrival a)
{
    return a == Arrival::Uniform ? "uniform" : "poisson";
}

std::vector<MixEntry>
parseMix(const std::string &spec)
{
    std::vector<MixEntry> mix;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        if (comma > start) {
            std::string tok = spec.substr(start, comma - start);
            size_t colon = tok.find(':');
            MixEntry e;
            e.kernel = tok.substr(0, colon);
            bool ok = !e.kernel.empty();
            if (colon != std::string::npos) {
                // The whole rest is the weight: no sign, no trailing
                // characters, and small enough that weights sum safely.
                const char *end = tok.data() + tok.size();
                auto [ptr, ec] =
                    std::from_chars(tok.data() + colon + 1, end, e.weight);
                ok = ok && ec == std::errc() && ptr == end &&
                     e.weight <= UINT32_MAX;
            }
            usage_error_if(!ok || e.weight == 0,
                           "bad mix entry '%s' (want kernel[:weight], "
                           "weight in 1..%u)", tok.c_str(), UINT32_MAX);
            mix.push_back(std::move(e));
        }
        start = comma + 1;
    }
    usage_error_if(mix.empty(), "empty kernel mix '%s'", spec.c_str());
    return mix;
}

double
detLog(double x)
{
    // ln(x) = e*ln2 + ln(m) with x = m * 2^e, m in [0.5, 1). Fold one
    // exponent step so m lands in [sqrt(0.5), sqrt(2)), where the atanh
    // series argument s = (m-1)/(m+1) satisfies |s| <= 0.1716 and a
    // 15th-order truncation is accurate to ~1e-14 relative.
    int e = 0;
    double m = std::frexp(x, &e);
    if (m < 0.70710678118654752440) {
        m *= 2.0;
        e -= 1;
    }
    double s = (m - 1.0) / (m + 1.0);
    double s2 = s * s;
    double series = 1.0 / 15.0;
    series = series * s2 + 1.0 / 13.0;
    series = series * s2 + 1.0 / 11.0;
    series = series * s2 + 1.0 / 9.0;
    series = series * s2 + 1.0 / 7.0;
    series = series * s2 + 1.0 / 5.0;
    series = series * s2 + 1.0 / 3.0;
    series = series * s2 + 1.0;
    constexpr double ln2 = 0.69314718055994530942;
    return double(e) * ln2 + 2.0 * s * series;
}

std::vector<Request>
generate(const TrafficParams &p)
{
    fatal_if(p.mix.empty(), "traffic: empty kernel mix");
    fatal_if(p.rps <= 0.0, "traffic: rps must be positive");
    fatal_if(p.ticksPerSec <= 0.0, "traffic: ticksPerSec must be positive");
    fatal_if(p.seedPool == 0, "traffic: seedPool must be nonzero");

    uint64_t totalWeight = 0;
    for (const auto &e : p.mix) {
        fatal_if(e.weight == 0, "traffic: zero weight for kernel %s",
                 e.kernel.c_str());
        totalWeight += e.weight;
    }

    double meanGap = p.ticksPerSec / p.rps;
    fatal_if(meanGap >= 9e18, "traffic: rps too low for the tick clock");

    Rng rng(p.seed * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
    std::vector<Request> schedule;
    schedule.reserve(p.requests);
    Tick now = 0;
    for (uint64_t i = 0; i < p.requests; ++i) {
        double gap;
        if (p.arrival == Arrival::Uniform) {
            // mean +/- 50% jitter, uniform.
            gap = meanGap * (0.5 + rng.uniform());
        } else {
            // Exponential via inversion; clamp U away from 0 so the
            // tail stays finite.
            double u = rng.uniform();
            if (u < 1e-12)
                u = 1e-12;
            gap = meanGap * -detLog(u);
        }
        Tick gapTicks = Tick(gap) + 1;  // at least one tick apart
        now += gapTicks;

        Request r;
        r.index = i;
        r.arrival = now;
        uint64_t draw = rng.below(totalWeight);
        uint32_t mixIndex = 0;
        for (const auto &e : p.mix) {
            if (draw < e.weight)
                break;
            draw -= e.weight;
            ++mixIndex;
        }
        r.mixIndex = mixIndex;
        r.seedSlot = uint32_t(rng.below(p.seedPool));
        schedule.push_back(r);
    }
    return schedule;
}

} // namespace dlp::traffic
