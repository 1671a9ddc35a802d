#include "core/mimd_engine.hh"

#include <algorithm>

namespace dlp::core {

using isa::MemSpace;
using isa::Op;
using isa::SeqInst;

MimdEngine::MimdEngine(const MachineParams &params,
                       mem::MemorySystem &memory)
    : m(params), mem(memory),
      mesh(params.rows, params.cols, params.hopTicks),
      l0Ports(params.tiles(), sim::Resource(ticksPerCycle)),
      readySet(params.tiles())
{
    // Tiles step in global time order and never request below the tick
    // they were popped at, so that tick is every shared calendar's floor.
    auto bind = [this](std::vector<sim::Resource> &set) {
        for (auto &r : set)
            r.bindFloor(&floorTick);
    };
    bind(l0Ports);
    bind(mem.smc().bankPortResources());
    bind(mem.smc().storeBufResources());
    bind(mem.smc().channelResources());
    bind(mem.l1().portResources());
    bind(mem.l2().portResources());
    mem.mainMemory().portResource().bindFloor(&floorTick);
    mesh.forEachLink([this](sim::Resource &r) { r.bindFloor(&floorTick); });

    // Each MIMD tile issues at most one instruction per cycle.
    issueWidth = &engStats.distribution("issueWidth", 0.0, 1.0, 20);
    operandWait = &engStats.distribution("operandWaitTicks", 0.0, 128.0,
                                         16);
}

void
MimdEngine::setTables(const std::vector<kernels::Table> *kernelTables)
{
    tables = kernelTables;
    tableByteBase.clear();
    Addr base = tableRegionBase;
    if (tables) {
        for (const auto &t : *tables) {
            tableByteBase.push_back(base);
            base += t.data.size() * wordBytes;
        }
    }
}

/** mimd::step's policy: real words, the contended calendars. */
struct MimdEngine::Contended
{
    MimdEngine &e;
    TileState &ts;

    std::optional<Word> value(uint8_t r) const { return ts.regs[r]; }

    void
    alu(const SeqInst &si)
    {
        Word b = si.immB ? si.imm : ts.regs[si.rs[1]];
        ts.regs[si.rd] = isa::evalOp(si.op, ts.regs[si.rs[0]], b,
                                     ts.regs[si.rs[2]], si.imm);
    }

    Tick
    load(const SeqInst &si, Tick t)
    {
        const MachineParams &m = e.m;
        unsigned row = ts.here.row;
        Word a = ts.regs[si.rs[0]];
        Word &value = ts.regs[si.rd];
        bool tld = si.op == Op::Tld;
        if (tld) {
            panic_if(!e.tables || si.tableId >= e.tables->size(),
                     "Tld without table %u", si.tableId);
            const auto &table = (*e.tables)[si.tableId].data;
            value = table[a & (table.size() - 1)];
            if (m.mech.l0DataStore)
                return e.l0Ports[row * m.cols + ts.here.col].acquire(t) +
                       cyclesToTicks(m.l0Latency);
        }
        Tick atEdge = e.mesh.routeToEdge(ts.here, t + ticksPerCycle);
        Tick served;
        if (tld) {
            // No L0 store: the table lives in cached memory.
            Addr byteAddr = e.tableByteBase[si.tableId] + a * wordBytes;
            served = e.mem.cachedTiming(row, byteAddr, atEdge, false);
        } else if (si.space != MemSpace::Smc) {
            served = e.mem.cachedRead(row, a + si.imm, atEdge, value);
        } else {
            served = e.mem.streamRead(row, a + si.imm, 1, atEdge, &value);
            if (m.mech.smc) {
                // The response rides the row's streaming channel.
                Tick grant = e.mem.smc().channelLane(row, 0).acquire(served);
                return grant + 1 + ts.here.col * m.hopTicks;
            }
        }
        return e.mesh.routeFromEdge(row, ts.here, served);
    }

    Tick
    store(const SeqInst &si, Tick t)
    {
        unsigned row = ts.here.row;
        Addr addr = ts.regs[si.rs[0]] + si.imm;
        Word value = ts.regs[si.rs[1]];
        Tick atEdge = e.mesh.routeToEdge(ts.here, t + ticksPerCycle);
        return si.space == MemSpace::Smc
                   ? e.mem.streamWrite(row, addr, value, atEdge)
                   : e.mem.cachedWrite(row, addr, value, atEdge);
    }
};

RunStats
MimdEngine::run(const sched::MimdPlan &plan, uint64_t numRecords)
{
    RunStats stats;
    Tick start = curTick;

    // Setup block (Section 4.3): broadcast the program into every L0
    // instruction store, preload the per-tile registers and the L0 data
    // stores, reset the PCs.
    uint64_t setupWords = plan.program.code.size();
    if (tables && m.mech.l0DataStore) {
        for (const auto &t : *tables)
            setupWords += t.data.size();
    }
    start += mimd::setupTicks(m, setupWords);
    stats.mappings = 1;

    std::vector<TileState> tiles(m.tiles());
    for (unsigned t = 0; t < m.tiles(); ++t) {
        TileState &ts = tiles[t];
        ts.here = noc::Coord{static_cast<uint8_t>(t / m.cols),
                             static_cast<uint8_t>(t % m.cols)};
        ts.regs.assign(m.tileRegs, 0);
        ts.ready.assign(m.tileRegs, start);
        ts.loads = mimd::LoadWindow(m);
        for (const auto &init : plan.initialRegs)
            ts.regs.at(init.first) = init.second;
        ts.regs.at(plan.recIdxReg) = t;
        ts.regs.at(plan.strideReg) = m.tiles();
        ts.regs.at(plan.recCountReg) = numRecords;
        ts.cursor = start;
        ts.lastEffect = start;
    }

    // Advance tiles one instruction at a time in global simulated-time
    // order (lower tile first within a tick), so contention for shared
    // resources (edge ports, banks, links) resolves first-come-first-
    // served in machine time rather than in tile-scan order.
    readySet.reset(start);
    for (unsigned t = 0; t < m.tiles(); ++t)
        readySet.push(start, t);

    Tick end = start;
    Tick hiTick = start; ///< high-water mark for monotonic sampling
    while (!readySet.empty()) {
        auto [when, tileIdx] = readySet.pop();
        floorTick = when;
        TileState &ts = tiles[tileIdx];
        if (ts.pc >= plan.program.code.size())
            continue;

        // If this tile is dependency-stalled past the next tile's turn,
        // give way and come back at the stall-resolution time.
        Tick t = mimd::issueTime(plan.program, ts);
        if (!readySet.empty() && t > readySet.minTick()) {
            readySet.push(t, tileIdx);
            continue;
        }

        const SeqInst &si = plan.program.code[ts.pc];
        fatal_if(++ts.executed > instLimit,
                 "MIMD tile %u exceeded the instruction limit "
                 "(runaway loop in %s?)",
                 tileIdx, plan.name.c_str());
        ++hostSteps;
        if (t > ts.cursor)
            operandWait->sample(double(t - ts.cursor));
        ++stats.instsExecuted;
        stats.usefulOps += !si.overhead;
        OBS_SIM_INSTANT(Exec, "step", t, (uint64_t(tileIdx) << 32) | ts.pc);
        Contended pol{*this, ts};
        ts.lastEffect = std::max(ts.lastEffect,
                                 mimd::step(pol, m, plan.program, ts, t));
        hiTick = std::max(hiTick, ts.cursor);
        if (sampler)
            sampler->maybeSample(hiTick);

        if (ts.pc >= plan.program.code.size()) {
            // Every load's completion is in lastEffect already.
            end = std::max({end, ts.cursor, ts.lastEffect});
        } else {
            readySet.push(ts.cursor, tileIdx);
        }
    }

    // Sustained per-tile issue width for this run segment.
    Cycles span = ticksToCycles(end - start) + 1;
    for (const auto &ts : tiles)
        issueWidth->sample(double(ts.executed) / double(span));
    engStats.scalar("instsExecuted") += double(stats.instsExecuted);

    OBS_SIM_SPAN(Engine, "mimd.setup", curTick, start - curTick,
                 setupWords);
    OBS_SIM_SPAN(Engine, "mimd.run", start, end - start,
                 stats.instsExecuted);

    stats.cycles = ticksToCycles(end - curTick);
    curTick = end;
    return stats;
}

} // namespace dlp::core
