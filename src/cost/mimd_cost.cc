/**
 * @file
 * MIMD (sequential-program) side of the static cost model.
 *
 * MimdEngine issues one instruction per cycle per tile, strides the
 * record loop across all tiles, and serializes every SMC access of a
 * row's tiles through that row's bank and store-buffer ports. The
 * sound per-record floor is therefore a min-weight cycle over the
 * program's control-flow graph, taken independently for three weight
 * functions: instruction count (the per-tile serial floor), bank-port
 * ticks and store-buffer ticks (the per-row memory floors).
 *
 * The throughput estimate walks one record through the engine's own
 * per-instruction rule, core::mimd::step, under an uncontended policy:
 * constant-folded register words and the fixed middle-of-the-row load
 * latencies of RowLatencies, which the non-converged fallback prices
 * with too.
 */

#include "cost/cost.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "common/bitutils.hh"
#include "core/mimd_step.hh"
#include "isa/opcodes.hh"
#include "isa/seq.hh"
#include "mem/smc.hh"

namespace dlp::cost {

namespace {

using isa::MemSpace;
using isa::Op;
using isa::SeqInst;
using isa::SeqProgram;

/// Steps the walk takes before it gives up on a loop it cannot fold.
constexpr uint64_t walkBudget = uint64_t(1) << 20;

/** Control-flow successors of every instruction, as mimd::step goes. */
std::vector<std::vector<uint32_t>>
successors(const SeqProgram &prog)
{
    size_t n = prog.code.size();
    std::vector<std::vector<uint32_t>> succ(n);
    for (size_t i = 0; i < n; ++i) {
        Op op = prog.code[i].op;
        uint32_t target = prog.code[i].branchTarget;
        if ((op == Op::Br || op == Op::Beqz || op == Op::Bnez) && target < n)
            succ[i].push_back(target);
        if (op != Op::Br && op != Op::Halt && i + 1 < n)
            succ[i].push_back(uint32_t(i + 1));
    }
    return succ;
}

/**
 * Minimum weight of any directed cycle, where a cycle's weight is the
 * sum of its nodes' weights. Zero when the program has no cycle (a
 * straight-line program contributes no per-iteration floor). Programs
 * are tiny (tens of instructions), so Dijkstra from every node is
 * cheap.
 */
uint64_t
minCycleWeight(const std::vector<std::vector<uint32_t>> &succ,
               const std::vector<uint64_t> &weight)
{
    size_t n = succ.size();
    constexpr uint64_t inf = std::numeric_limits<uint64_t>::max();
    uint64_t best = inf;

    for (uint32_t v = 0; v < n; ++v) {
        // Shortest weight-sum path from each successor of v back to v,
        // counting every node entered along the way; closing the cycle
        // adds v's own weight.
        std::vector<uint64_t> dist(n, inf);
        using Entry = std::pair<uint64_t, uint32_t>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
        for (uint32_t s : succ[v]) {
            if (s == v) { // self-loop
                best = std::min(best, weight[v]);
                continue;
            }
            if (weight[s] < dist[s]) {
                dist[s] = weight[s];
                pq.emplace(dist[s], s);
            }
        }
        while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d != dist[u])
                continue;
            if (d + weight[v] >= best)
                break; // cannot improve the global minimum from here
            for (uint32_t x : succ[u]) {
                if (x == v) {
                    best = std::min(best, d + weight[v]);
                    continue;
                }
                uint64_t nd = d + weight[x];
                if (nd < dist[x]) {
                    dist[x] = nd;
                    pq.emplace(nd, x);
                }
            }
        }
    }
    return best == inf ? 0 : best;
}

/**
 * Uncontended completion ticks, from issue, of a middle-of-the-row
 * tile's loads: the walk's memory policy and the fallback's prices.
 * Cached-space loads are irregular by construction (textures and
 * pointers: data-dependent addresses over a footprint the line-grained
 * caches hold poorly), so they miss through to main memory. Table-space
 * lookups are the opposite extreme -- a few KB of hot indexed constants
 * that stay L1-resident -- so they pay the hit path, or the L0 store's.
 */
struct RowLatencies
{
    uint64_t burst; ///< bank-port ticks of a one-word SMC read
    uint64_t smc, hit, miss, tld;

    explicit RowLatencies(const core::MachineParams &m)
    {
        const mem::MemParams &mp = m.memParams;
        uint64_t trip = ticksPerCycle + 2 * uint64_t(m.cols / 2) * m.hopTicks;
        burst = mem::smcBankTicks(mem::smcWordsPerTick(mp), 1);
        smc = trip + 2 + burst + cyclesToTicks(mp.smcLatency);
        hit = trip + 2 + cyclesToTicks(mp.l1HitLatency);
        miss = trip + cyclesToTicks(mp.l1HitLatency + mp.l2Latency +
                                    mp.memLatency);
        tld = m.mech.l0DataStore ? cyclesToTicks(m.l0Latency) : hit;
    }

    uint64_t
    of(const SeqInst &si) const
    {
        return si.op == Op::Tld                ? tld
               : si.space == MemSpace::Smc    ? smc
               : si.space == MemSpace::Cached ? miss
                                              : hit;
    }
};

/** A register of the walk: a value, and whether the walk knows it. */
struct KnownWord
{
    Word value = 0;
    bool known = false;
};

/** core::mimd::step's policy for the walk: folded words, RowLatencies. */
struct Uncontended
{
    const RowLatencies &lat;
    std::vector<KnownWord> regs;

    std::optional<Word>
    value(uint8_t r) const
    {
        return regs[r].known ? std::optional(regs[r].value) : std::nullopt;
    }

    /** Fold the op when every operand is known (and no divisor is 0). */
    void
    alu(const SeqInst &si)
    {
        bool known = true;
        for (unsigned s = 0; s < isa::opInfo(si.op).numSrcs; ++s)
            known &= (s == 1 && si.immB) || regs[si.rs[s]].known;
        Word b = si.immB ? si.imm : regs[si.rs[1]].value;
        known &= !((si.op == Op::Udiv || si.op == Op::Urem) && b == 0);
        if (known)
            regs[si.rd].value = isa::evalOp(si.op, regs[si.rs[0]].value, b,
                                            regs[si.rs[2]].value, si.imm);
        regs[si.rd].known = known;
    }

    Tick
    load(const SeqInst &si, Tick t)
    {
        regs[si.rd].known = false;
        return t + lat.of(si);
    }

    Tick store(const SeqInst &, Tick t) { return t; }
};

/** Dynamic per-record counts and timing from the abstract walk. */
struct DynCounts
{
    bool converged = false; ///< the walk reached Halt within budget
    uint64_t smcLoads = 0;
    uint64_t smcStores = 0;
    uint64_t ticks = 0; ///< uncontended serial ticks for the iteration
};

/**
 * Constant-folding abstract walk of one record iteration, timed by the
 * engine's own step rule (core::mimd::step) without contention.
 *
 * The linearizer seeds every loop counter from immediates and tests the
 * record loop at the bottom, so a walk that folds all-known-operand ops
 * with isa::evalOp and falls through every unknown-condition branch
 * executes static inner loops to their exact trip counts while passing
 * through each data-dependent loop (and the record loop itself) exactly
 * once: the forward pre-check falls *into* the body and the backward
 * back-edge falls *out*. The result is the dynamic memory-operation
 * count of one record's worth of work -- the quantity the throughput
 * estimate needs, which the static per-CFG-cycle counts (sound, but
 * innermost-cycle-only) badly underestimate for kernels with counted
 * inner loops. Dependence stalls -- which dominate compute-heavy
 * kernels and which an insts-times-issue-width model misses entirely --
 * land in `ticks` exactly, because the walk steps by the engine's rule.
 */
DynCounts
walkOneRecord(const sched::MimdPlan &plan, const core::MachineParams &m,
              const RowLatencies &lat)
{
    // Every 8-bit register name, whatever the machine's register file.
    constexpr size_t regNames = 256;
    Uncontended pol{lat, std::vector<KnownWord>(regNames)};
    for (const auto &[reg, value] : plan.initialRegs)
        pol.regs.at(reg) = {value, true};
    // The stride is the machine's tile count; the record index (per
    // tile) and record count (per run) are not knowable statically.
    pol.regs.at(plan.strideReg) = {m.tiles(), true};
    pol.regs.at(plan.recIdxReg).known = false;
    pol.regs.at(plan.recCountReg).known = false;

    core::mimd::Pipeline p{std::vector<Tick>(regNames, 0),
                           core::mimd::LoadWindow(m)};

    DynCounts out;
    const auto &code = plan.program.code;
    for (uint64_t budget = walkBudget; p.pc < code.size() && budget;
         --budget) {
        const SeqInst &si = code[p.pc];
        out.smcLoads += si.op == Op::Ld && si.space == MemSpace::Smc;
        out.smcStores += si.op == Op::St && si.space == MemSpace::Smc;
        core::mimd::step(pol, m, plan.program, p,
                         core::mimd::issueTime(plan.program, p));
    }
    out.converged = p.pc >= code.size();
    out.ticks = p.cursor;
    return out;
}

} // namespace

CostReport
analyzeMimd(const sched::MimdPlan &plan, const core::MachineParams &m,
            uint64_t records, uint64_t batches)
{
    CostReport rep;
    rep.analyzed = true;
    rep.mimd = true;
    rep.plan = plan.name;
    rep.config = m.name;
    rep.tiles = m.tiles();
    rep.gridCols = m.cols;

    // Setup block: broadcast the program, as MimdEngine::run does. Its
    // L0 table images depend on the kernel's tables, which the plan
    // does not carry; omitting them only lowers the bound.
    size_t n = plan.program.code.size();
    rep.setupTicks = core::mimd::setupTicks(m, n);

    auto succ = successors(plan.program);

    std::vector<uint64_t> wInsts(n, 1), wLoad(n, 0), wStore(n, 0);
    RowLatencies lat(m);
    uint64_t smcLoads = 0, smcStores = 0, windowedTicks = 0;
    for (size_t i = 0; i < n; ++i) {
        const SeqInst &si = plan.program.code[i];
        bool ld = si.op == Op::Ld && si.space == MemSpace::Smc;
        bool st = si.op == Op::St && si.space == MemSpace::Smc;
        smcLoads += ld;
        smcStores += st;
        wLoad[i] = ld && m.mech.smc ? lat.burst : 0;
        wStore[i] = st && m.mech.smc;
        if (core::mimd::usesLoadWindow(si, m))
            windowedTicks += lat.of(si);
    }
    rep.minCycleInsts = minCycleWeight(succ, wInsts);
    rep.minCycleLoadUnits = minCycleWeight(succ, wLoad);
    rep.minCycleStoreUnits = minCycleWeight(succ, wStore);

    // --- Throughput estimate for ranking (not a bound) -------------------
    // The constant-folding timed walk gives the per-record serial ticks
    // of one tile exactly (dependence stalls, op latencies, and load
    // round trips included), floored by the per-row bank bandwidth the
    // row's tiles share. When the walk fails to converge (a folding gap
    // left a counted loop spinning), fall back to the static
    // whole-program counts: the shortest CFG cycle at one issue per
    // cycle, plus every windowed load's walk latency spread across the
    // load window.
    DynCounts dyn = walkOneRecord(plan, m, lat);
    double serial;
    if (dyn.converged) {
        serial = double(dyn.ticks);
        smcLoads = dyn.smcLoads;
        smcStores = dyn.smcStores;
    } else {
        serial = double(rep.minCycleInsts) * ticksPerCycle +
                 double(windowedTicks) /
                     double(core::mimd::LoadWindow::slots(m));
    }
    double bankUnits = double(smcLoads * lat.burst + smcStores);

    // Run shape: each batch (and each SMC chunk within one) broadcasts
    // the program afresh. Records stride across tiles, so a run's time
    // is the slowest tile's serial records floored by its row's shared
    // bank bandwidth; short runs leave most tiles idle and amortize the
    // setup over few records.
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
    uint64_t tiles = std::max<uint64_t>(1, rep.tiles);
    uint64_t rows = std::max<uint64_t>(1, tiles / std::max(1u, m.cols));
    uint64_t perTile = divCeil(recsPerRun, tiles);
    uint64_t perRow = divCeil(recsPerRun, rows);
    double perRun =
        double(rep.setupTicks) +
        std::max(double(perTile) * serial, double(perRow) * bankUnits);
    double denom = records ? double(records) : double(recsPerRun);
    rep.predictedTicksPerRecord = double(runs) * perRun / denom;
    return rep;
}

} // namespace dlp::cost
