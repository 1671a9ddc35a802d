/**
 * @file
 * SIMD (mapped-block) side of the static cost model.
 *
 * Mirrors BlockEngine's charging exactly, but uncontended (every
 * resource grant at its request tick) and symbolic (no data values):
 * the per-op completion times reproduce execute()'s arithmetic, the
 * pressure table reproduces the constructor's resource registry with
 * each resource's true service interval, and the steady/once-only
 * split reproduces operand revitalization. Where the engine's timing
 * depends on data (L1/L2 bank index, hit or miss), the model takes the
 * minimum, which keeps every derived bound sound.
 */

#include "cost/cost.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "check/graph.hh"
#include "common/bitutils.hh"
#include "isa/opcodes.hh"
#include "mem/smc.hh"
#include "noc/mesh.hh"

namespace dlp::cost {

namespace {

using isa::MappedBlock;
using isa::MappedInst;
using isa::MemSpace;
using isa::Op;
using mem::smcBankTicks;

/**
 * Named busy-tick demand per steady activation, keyed by resource
 * instance. std::map keeps the argmax deterministic under ties (first
 * name in lexicographic order wins).
 */
using Pressure = std::map<std::string, uint64_t>;

std::string
key(const char *cls, unsigned a)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s(%u)", cls, a);
    return buf;
}

std::string
key(const char *cls, unsigned a, unsigned b)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s(%u,%u)", cls, a, b);
    return buf;
}

uint64_t
manhattan(const MappedInst &a, const MappedInst &b)
{
    uint64_t dr = a.row > b.row ? a.row - b.row : b.row - a.row;
    uint64_t dc = a.col > b.col ? a.col - b.col : b.col - a.col;
    return dr + dc;
}

/** Walks the per-activation network demand of one block. */
struct NetTally
{
    Pressure &pressure;
    uint64_t hops = 0;

    /// Mesh route from (srow,scol) to (drow,dcol), charged to the
    /// directed links MeshNetwork::route takes, in its hop order.
    void
    route(unsigned srow, unsigned scol, unsigned drow, unsigned dcol)
    {
        static const char *const linkName[] = {"link.east", "link.west",
                                               "link.south", "link.north"};
        noc::forEachXYHop(
            noc::Coord{uint8_t(srow), uint8_t(scol)},
            noc::Coord{uint8_t(drow), uint8_t(dcol)},
            [this](noc::Dir d, unsigned r, unsigned c) {
                pressure[key(linkName[size_t(d)], r, c)] += 1;
                ++hops;
            });
    }

    void
    toEdge(unsigned row, unsigned col)
    {
        route(row, col, row, 0);
        pressure[key("edgeOut", row)] += 1;
        ++hops;
    }

    void
    fromEdge(unsigned row, unsigned col)
    {
        pressure[key("edgeIn", row)] += 1;
        ++hops;
        route(row, 0, row, col);
    }

    void
    channel(unsigned row, unsigned lane, unsigned dstRow, unsigned dstCol)
    {
        pressure[key("chan", row, lane & 1)] += 1;
        hops += dstCol + (dstRow > row ? dstRow - row : row - dstRow);
    }
};

/** Uncontended per-op completion times for one block (one CP pass). */
struct PathTimes
{
    /// Result-availability time at the producer (for Lmw: the bank
    /// "served" time; targets add the channel delivery on the edge).
    std::vector<uint64_t> done;
    uint64_t maxTime = 0;       ///< over every done and arrival
    uint64_t maxWriteDone = 0;  ///< over register Write completions
};

/**
 * Longest-path times over the operand graph, uncontended, with every
 * source operand of the included set available at tick 0. When
 * steadyOnly is set, once-only instructions are excluded: their
 * consumers see persistent operands that are already present when the
 * activation starts (operand revitalization).
 */
PathTimes
pathTimes(const MappedBlock &block, const check::BlockGraph &g,
          const core::MachineParams &m, bool steadyOnly)
{
    PathTimes pt;
    size_t n = block.insts.size();
    pt.done.assign(n, 0);
    if (g.cyclic() || !g.sound)
        return pt; // conservative: no path claim on malformed graphs

    const uint64_t hop = m.hopTicks;
    const uint64_t l1Min = cyclesToTicks(m.memParams.l1HitLatency);
    const uint64_t bankLat = cyclesToTicks(m.memParams.smcLatency);
    const unsigned smcWidth = mem::smcWordsPerTick(m.memParams);

    for (uint32_t i : g.topo) {
        const MappedInst &mi = block.insts[i];
        if (steadyOnly && mi.onceOnly)
            continue;

        uint64_t ready = 0;
        for (unsigned s = 0; s < mi.numSrcs; ++s) {
            for (const auto &pr : g.producers[i][s]) {
                const MappedInst &p = block.insts[pr.inst];
                if (steadyOnly && p.onceOnly)
                    continue; // operand persists from the first firing
                uint64_t arrive;
                if (p.op == Op::Lmw) {
                    // Channel delivery straight from the row's bank.
                    uint64_t vdist = mi.row > p.row ? mi.row - p.row
                                                    : p.row - mi.row;
                    arrive = pt.done[pr.inst] + 1 + (mi.col + vdist) * hop;
                } else {
                    arrive = pt.done[pr.inst] + manhattan(p, mi) * hop +
                             (p.regTile ? hop : 0);
                }
                ready = std::max(ready, arrive);
            }
        }

        uint64_t edge = ready + ticksPerCycle + (mi.col + 1) * hop;
        uint64_t done;
        switch (mi.op) {
          case Op::Read:
            done = ready + cyclesToTicks(m.regLatency) + hop;
            break;
          case Op::Write:
            done = ready + hop + cyclesToTicks(m.regLatency);
            pt.maxWriteDone = std::max(pt.maxWriteDone, done);
            break;
          case Op::Ld:
            if (mi.space == MemSpace::Smc && m.mech.smc) {
                uint64_t served = edge + smcBankTicks(smcWidth, 1) + bankLat;
                done = served + 1 + mi.col * hop;
            } else {
                // Cached round trip; bank distance and hit state are
                // data-dependent, so charge the minimum (L1 hit, own
                // bank).
                done = edge + l1Min + hop + mi.col * hop;
            }
            break;
          case Op::Lmw:
            if (m.mech.smc)
                done = edge + smcBankTicks(smcWidth, mi.lmwCount) + bankLat;
            else
                done = edge + l1Min; // per-word cached fallback, min
            break;
          case Op::St:
            if (mi.space == MemSpace::Smc && m.mech.smc)
                done = edge + 1; // store-buffer acceptance
            else
                done = edge + l1Min;
            break;
          case Op::Tld:
            if (m.mech.l0DataStore)
                done = ready + cyclesToTicks(m.l0Latency);
            else
                done = edge + l1Min + hop + mi.col * hop;
            break;
          default:
            done = ready + cyclesToTicks(isa::opInfo(mi.op).latency);
            break;
        }
        pt.done[i] = done;
        pt.maxTime = std::max(pt.maxTime, done);
    }
    return pt;
}

/** Static per-activation analysis of one mapped block. */
SegmentCost
analyzeBlock(const MappedBlock &block, const core::MachineParams &m)
{
    SegmentCost sc;
    sc.block = block.name;
    sc.insts = block.insts.size();

    sc.mapTicks = cyclesToTicks(divCeil(block.insts.size(), m.mapBandwidth) +
                                m.mapOverhead);
    sc.gapTicks = m.mech.instRevitalize ? cyclesToTicks(m.revitalizeDelay)
                                        : sc.mapTicks;

    // --- Pressure and hop mass over the steady (re-firing) set ----------
    const unsigned smcWidth = mem::smcWordsPerTick(m.memParams);
    Pressure pressure;
    NetTally net{pressure};
    uint64_t nonRegTile = 0;

    for (const auto &mi : block.insts) {
        if (!mi.regTile)
            ++nonRegTile;
        if (mi.onceOnly)
            continue;
        ++sc.steadyInsts;

        unsigned row = mi.row, col = mi.col;
        bool injects = true;
        switch (mi.op) {
          case Op::Read:
            pressure[key("regRead", unsigned(mi.imm) % m.regBanks)] +=
                ticksPerCycle;
            break;
          case Op::Write:
            pressure[key("regWrite", unsigned(mi.imm) % m.regBanks)] +=
                ticksPerCycle;
            sc.hopLowerBound += 1; // forced hop into the register tile
            ++net.hops;
            injects = false;
            break;
          case Op::Ld:
            pressure[key("issue", row, col)] += ticksPerCycle;
            net.toEdge(row, col);
            if (mi.space == MemSpace::Smc && m.mech.smc) {
                uint64_t units = smcBankTicks(smcWidth, 1);
                pressure[key("smcBank", row)] += units;
                sc.smcReadUnits += units;
                net.channel(row, 0, row, col);
            } else {
                net.fromEdge(row, col);
            }
            sc.hopLowerBound += 2;
            break;
          case Op::Lmw: {
            pressure[key("issue", row, col)] += ticksPerCycle;
            net.toEdge(row, col);
            if (m.mech.smc) {
                uint64_t units = smcBankTicks(smcWidth, mi.lmwCount);
                pressure[key("smcBank", row)] += units;
                sc.smcReadUnits += units;
            }
            for (const auto &t : mi.targets) {
                const auto &dst = block.insts[t.inst];
                net.channel(row, t.wordIdx, dst.row, dst.col);
            }
            sc.hopLowerBound += 1;
            injects = false;
            break;
          }
          case Op::St:
            pressure[key("issue", row, col)] += ticksPerCycle;
            net.toEdge(row, col);
            if (mi.space == MemSpace::Smc && m.mech.smc) {
                pressure[key("storeBuf", row)] += 1;
                sc.smcWriteUnits += 1;
            }
            sc.hopLowerBound += 1;
            break;
          case Op::Tld:
            if (m.mech.l0DataStore) {
                pressure[key("l0", row, col)] += ticksPerCycle;
            } else {
                pressure[key("issue", row, col)] += ticksPerCycle;
                net.toEdge(row, col);
                net.fromEdge(row, col);
                sc.hopLowerBound += 2;
            }
            break;
          default:
            pressure[key("issue", row, col)] += ticksPerCycle;
            if (isa::opInfo(mi.op).fu == isa::FuClass::FpDiv) {
                pressure[key("div", row, col)] +=
                    cyclesToTicks(isa::opInfo(Op::Fdiv).latency);
            }
            break;
        }

        if (injects && !mi.targets.empty()) {
            for (const auto &t : mi.targets) {
                const auto &dst = block.insts[t.inst];
                pressure[key("inject", row, col)] += m.injectInterval;
                net.route(row, col, dst.row, dst.col);
                if (mi.regTile) {
                    ++net.hops; // edge crossing from the register tile
                    sc.hopLowerBound += 1;
                }
            }
        }
    }
    sc.hopMass = net.hops;

    for (const auto &[name, busy] : pressure) {
        if (busy > sc.maxPressureTicks) {
            sc.maxPressureTicks = busy;
            sc.bottleneck = name;
        }
        bool isNet = name.compare(0, 5, "link.") == 0 ||
                     name.compare(0, 4, "edge") == 0 ||
                     name.compare(0, 4, "chan") == 0;
        if (isNet)
            sc.maxLinkTicks = std::max(sc.maxLinkTicks, busy);
    }

    // --- Critical paths over the operand graph ---------------------------
    check::BlockGraph g = check::buildGraph(block);
    PathTimes full = pathTimes(block, g, m, false);
    PathTimes steady = pathTimes(block, g, m, true);
    sc.criticalPathTicks = full.maxTime;
    sc.steadyWritePathTicks = steady.maxWriteDone;
    sc.writeDrainTicks = full.maxWriteDone;

    sc.boundTicks = std::max(sc.maxPressureTicks,
                             sc.gapTicks + sc.steadyWritePathTicks);

    uint64_t budget = uint64_t(m.totalSlots()) /
                      std::max(1u, m.pipelineFrames);
    sc.rsOccupancy = budget ? double(nonRegTile) / double(budget) : 0.0;
    return sc;
}

} // namespace

CostReport
analyzeSimd(const sched::SimdPlan &plan, const core::MachineParams &m,
            uint64_t records, uint64_t batches)
{
    CostReport rep;
    rep.analyzed = true;
    rep.mimd = false;
    rep.plan = plan.name;
    rep.config = m.name;
    rep.unroll = plan.unroll;
    rep.perActivationRemap = !m.mech.instRevitalize;
    rep.tiles = m.tiles();
    rep.gridCols = m.cols;

    for (const auto &seg : plan.segments) {
        SegmentCost sc = analyzeBlock(seg.block, m);
        sc.weight = std::max<uint64_t>(1, seg.activations);
        rep.segments.push_back(std::move(sc));
    }
    rep.segmentCount = rep.segments.size();
    if (rep.segments.empty())
        return rep;

    rep.mapTicksMin = UINT64_MAX;
    rep.boundTicksPerActivation = UINT64_MAX;
    const SegmentCost *binding = nullptr;
    for (const auto &sc : rep.segments) {
        rep.mapTicksMin = std::min(rep.mapTicksMin, sc.mapTicks);
        if (sc.boundTicks < rep.boundTicksPerActivation) {
            rep.boundTicksPerActivation = sc.boundTicks;
            binding = &sc;
        }
        rep.criticalPathTicks =
            std::max(rep.criticalPathTicks, sc.criticalPathTicks);
        rep.hopMass += sc.hopMass;
        rep.hopLowerBound += sc.hopLowerBound;
        rep.smcReadUnits += sc.smcReadUnits;
        rep.smcWriteUnits += sc.smcWriteUnits;
        rep.rsOccupancy = std::max(rep.rsOccupancy, sc.rsOccupancy);
    }
    if (binding) {
        rep.maxPressureTicks = binding->maxPressureTicks;
        rep.bottleneck = binding->bottleneck;
    }

    // Throughput estimate for ranking. The stream arrives in `batches`
    // dependent batches, each staged through the SMC in chunks of
    // layout.chunkRecords; every such run pays its own map and
    // pipeline fill/drain ramp, which dominates short runs (the grid
    // at small scale divisors). Within a run, a resident plan runs
    // groups x weight activations paced at the steady bound; a
    // multi-segment plan maps each segment in turn per group, runs
    // weight - 1 activations at the steady bound, then drains the last
    // activation's register writes before the next segment may map
    // (the engine orders each map after actMaxWrite). A single-
    // activation segment never reaches steady state, so its drain is
    // the full-graph write path, onceOnly ops included.
    uint64_t chunk = plan.layout.chunkRecords;
    uint64_t nBatches = std::max<uint64_t>(1, batches);
    uint64_t runs, recsPerRun;
    if (records) {
        uint64_t perBatch = divCeil(records, nBatches);
        runs = nBatches * (chunk ? divCeil(perBatch, chunk) : 1);
        recsPerRun = divCeil(records, runs);
    } else {
        runs = 1;
        recsPerRun = chunk ? chunk : uint64_t(1) << 20;
    }
    uint64_t groups = divCeil(recsPerRun, std::max(1u, plan.unroll));

    double perRun;
    if (plan.resident()) {
        const SegmentCost &sc = rep.segments[0];
        perRun = double(sc.mapTicks) +
                 double(groups) * double(sc.weight) *
                     double(sc.boundTicks) +
                 double(rep.criticalPathTicks);
    } else {
        double perGroup = 0.0;
        for (const auto &sc : rep.segments) {
            uint64_t drain = sc.weight == 1 ? sc.writeDrainTicks
                                            : sc.steadyWritePathTicks;
            perGroup += double(sc.mapTicks) +
                        double(sc.weight - 1) * double(sc.boundTicks) +
                        double(std::max(sc.boundTicks, drain));
        }
        perRun = double(groups) * perGroup;
    }
    double denom = records ? double(records) : double(recsPerRun);
    rep.predictedTicksPerRecord = double(runs) * perRun / denom;
    return rep;
}

} // namespace dlp::cost
