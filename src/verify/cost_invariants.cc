#include "verify/cost_invariants.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

namespace dlp::verify {

uint64_t
costBoundTicks(const arch::ExperimentResult &res)
{
    const cost::CostSummary &c = res.cost;
    if (!c.analyzed)
        return 0;

    if (c.mimd) {
        if (c.tiles == 0)
            return 0;
        // Every tile walks floor(records/tiles) record-loop iterations;
        // each serializes one CFG cycle at one instruction per cycle,
        // and all tiles of a row share that row's SMC bank and
        // store-buffer port. The 2*mappings slack absorbs the partial
        // first/last iterations of each chunked run.
        uint64_t perTile = res.records / c.tiles;
        uint64_t slack = 2 * res.mappings;
        uint64_t iters = perTile > slack ? perTile - slack : 0;
        uint64_t best = iters * c.minCycleInsts * ticksPerCycle;
        best = std::max(best, iters * c.gridCols * c.minCycleLoadUnits);
        best = std::max(best, iters * c.gridCols * c.minCycleStoreUnits);
        return res.mappings * c.setupTicks + best;
    }

    if (res.activations == 0)
        return 0;
    // Pacing: each activation transition advances the engine's schedule
    // by at least the steady bound, and each mapping event (one per
    // chunk without instruction revitalization, all of them with it)
    // pays the map time first.
    uint64_t maps = c.perActivationRemap ? 1 : res.mappings;
    return maps * c.mapTicksMin +
           (res.activations - 1) * c.boundTicksPerActivation;
}

namespace {

/**
 * Average-rank vector of a sample (ties share their mean rank).
 * Values within relTol of their tie group's smallest member -- anchored
 * at the group's start, so bands cannot chain transitively across a
 * real gradient -- count as tied.
 */
std::vector<double>
ranks(const std::vector<double> &v, double relTol)
{
    size_t n = v.size();
    std::vector<size_t> idx(n);
    std::iota(idx.begin(), idx.end(), size_t(0));
    std::stable_sort(idx.begin(), idx.end(),
                     [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n, 0.0);
    for (size_t i = 0; i < n;) {
        size_t j = i;
        double lo = v[idx[i]];
        while (j + 1 < n &&
               v[idx[j + 1]] <= lo + relTol * std::abs(lo))
            ++j;
        double avg = 0.5 * double(i + j) + 1.0;
        for (size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double> &a, const std::vector<double> &b,
         double relTol)
{
    size_t n = std::min(a.size(), b.size());
    if (n < 2)
        return 1.0;
    std::vector<double> ra = ranks({a.begin(), a.begin() + n}, relTol);
    std::vector<double> rb = ranks({b.begin(), b.begin() + n}, relTol);
    double ma = 0.0, mb = 0.0;
    for (size_t i = 0; i < n; ++i) {
        ma += ra[i];
        mb += rb[i];
    }
    ma /= double(n);
    mb /= double(n);
    double num = 0.0, da = 0.0, db = 0.0;
    for (size_t i = 0; i < n; ++i) {
        num += (ra[i] - ma) * (rb[i] - mb);
        da += (ra[i] - ma) * (ra[i] - ma);
        db += (rb[i] - mb) * (rb[i] - mb);
    }
    if (da == 0.0 || db == 0.0)
        return 1.0; // a constant sample imposes no order to violate
    return num / std::sqrt(da * db);
}

std::vector<CostRankStat>
costRankStats(const std::vector<arch::ExperimentResult> &results)
{
    // kernel -> (predicted, simulated ticks per record), config order.
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>> byKernel;
    for (const auto &res : results) {
        if (!res.cost.analyzed || res.records == 0)
            continue;
        auto &[pred, sim] = byKernel[res.kernel];
        pred.push_back(res.cost.predictedTicksPerRecord);
        sim.push_back(double(cyclesToTicks(res.cycles)) /
                      double(res.records));
    }
    // Two configurations within 1% of each other perform the same for
    // ranking purposes; demanding a strict order on noise-level
    // differences would test the model's ability to predict noise.
    constexpr double rankTieTol = 0.01;
    std::vector<CostRankStat> stats;
    for (const auto &[kernel, series] : byKernel)
        stats.push_back({kernel, series.first.size(),
                         spearman(series.first, series.second,
                                  rankTieTol)});
    return stats;
}

std::vector<arch::AuditFinding>
costInvariants(const std::vector<arch::ExperimentResult> &results,
               double minSpearman)
{
    std::vector<arch::AuditFinding> findings;
    for (const auto &res : results) {
        uint64_t bound = costBoundTicks(res);
        uint64_t actual = cyclesToTicks(res.cycles);
        if (bound > actual) {
            std::ostringstream os;
            os << res.kernel << "/" << res.config << ": predicted lower "
               << "bound " << bound << " ticks > simulated " << actual;
            findings.push_back({"cost-lower-bound", os.str()});
        }
    }
    for (const auto &s : costRankStats(results)) {
        if (s.configs < 3)
            continue; // too few configurations to rank meaningfully
        if (s.spearman < minSpearman) {
            std::ostringstream os;
            os << s.kernel << ": Spearman " << s.spearman << " over "
               << s.configs << " configs, need >= " << minSpearman;
            findings.push_back({"cost-rank-order", os.str()});
        }
    }
    return findings;
}

} // namespace dlp::verify
