#include "core/mimd_engine.hh"

#include <algorithm>
#include <cinttypes>

#include "common/bitutils.hh"

namespace dlp::core {

using isa::MemSpace;
using isa::Op;
using isa::SeqInst;

MimdEngine::MimdEngine(const MachineParams &params,
                       mem::MemorySystem &memory)
    : m(params), loadWindow(std::max(1u, params.mimdOutstandingLoads)),
      mem(memory), mesh(params.rows, params.cols, params.hopTicks),
      l0Ports(params.tiles(), sim::Resource(ticksPerCycle)),
      loadSlots(size_t(params.tiles()) * loadWindow),
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
    start += cyclesToTicks(
        divCeil(std::max<uint64_t>(setupWords, 1),
                m.memParams.smcWordsPerCycle) +
        m.mapOverhead);
    stats.mappings = 1;

    std::vector<TileState> tiles(m.tiles());
    for (unsigned t = 0; t < m.tiles(); ++t) {
        TileState &ts = tiles[t];
        ts.here = noc::Coord{static_cast<uint8_t>(t / m.cols),
                             static_cast<uint8_t>(t % m.cols)};
        ts.regs.assign(m.tileRegs, 0);
        ts.ready.assign(m.tileRegs, start);
        ts.loads = &loadSlots[size_t(t) * loadWindow];
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
        Tick t = issueTime(plan, ts);
        if (!readySet.empty() && t > readySet.minTick()) {
            readySet.push(t, tileIdx);
            continue;
        }

        step(plan, ts, t, stats);
        hiTick = std::max(hiTick, ts.cursor);
        if (sampler)
            sampler->maybeSample(hiTick);

        if (ts.pc >= plan.program.code.size()) {
            Tick tileEnd = std::max(ts.cursor, ts.lastEffect);
            for (unsigned i = 0; i < ts.loadCount; ++i)
                tileEnd = std::max(
                    tileEnd, ts.loads[(ts.loadHead + i) % loadWindow]);
            end = std::max(end, tileEnd);
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

Tick
MimdEngine::issueTime(const sched::MimdPlan &plan, const TileState &ts) const
{
    const SeqInst &si = plan.program.code[ts.pc];
    const auto &info = isa::opInfo(si.op);
    Tick t = ts.cursor;
    for (unsigned s = 0; s < info.numSrcs; ++s) {
        if (s == 1 && si.immB)
            continue;
        t = std::max(t, ts.ready[si.rs[s]]);
    }
    return t;
}

Tick
MimdEngine::waitForLoadSlot(TileState &ts, Tick t) const
{
    if (ts.loadCount == loadWindow) {
        t = std::max(t, ts.loads[ts.loadHead]);
        ts.loadHead = ts.loadHead + 1 == loadWindow ? 0 : ts.loadHead + 1;
        --ts.loadCount;
    }
    return t;
}

void
MimdEngine::recordLoad(TileState &ts, Tick done) const
{
    unsigned slot = ts.loadHead + ts.loadCount;
    ts.loads[slot >= loadWindow ? slot - loadWindow : slot] = done;
    ++ts.loadCount;
}

void
MimdEngine::step(const sched::MimdPlan &plan, TileState &ts, Tick t,
                 RunStats &stats)
{
    const auto &code = plan.program.code;
    const SeqInst &si = code[ts.pc];
    const auto &info = isa::opInfo(si.op);
    unsigned tile = ts.here.row * m.cols + ts.here.col;
    unsigned row = ts.here.row;

    fatal_if(++ts.executed > instLimit,
             "MIMD tile %u exceeded the instruction limit "
             "(runaway loop in %s?)",
             tile, plan.name.c_str());
    ++hostSteps;

    if (t > ts.cursor)
        operandWait->sample(double(t - ts.cursor));
    ++stats.instsExecuted;
    if (!si.overhead)
        ++stats.usefulOps;
    OBS_SIM_INSTANT(Exec, "step", t, (uint64_t(tile) << 32) | ts.pc);

    Word a = ts.regs[si.rs[0]];
    Word b = si.immB ? si.imm : ts.regs[si.rs[1]];

    switch (si.op) {
      case Op::Ld: {
        t = waitForLoadSlot(ts, t);
        Addr addr = a + si.imm;
        Word value = 0;
        Tick atEdge = mesh.routeToEdge(ts.here, t + ticksPerCycle);
        Tick done;
        if (si.space == MemSpace::Smc && m.mech.smc) {
            Tick served = mem.streamRead(row, addr, 1, atEdge, &value);
            // The response rides the row's streaming channel.
            Tick grant = mem.smc().channelLane(row, 0).acquire(served);
            done = grant + 1 + ts.here.col * m.hopTicks;
        } else if (si.space == MemSpace::Smc) {
            Tick served = mem.streamRead(row, addr, 1, atEdge, &value);
            done = mesh.routeFromEdge(row, ts.here, served);
        } else {
            Tick served = mem.cachedRead(row, addr, atEdge, value);
            done = mesh.routeFromEdge(row, ts.here, served);
        }
        ts.regs[si.rd] = value;
        ts.ready[si.rd] = done;
        recordLoad(ts, done);
        ts.lastEffect = std::max(ts.lastEffect, done);
        break;
      }
      case Op::St: {
        Addr addr = a + si.imm;
        Tick atEdge = mesh.routeToEdge(ts.here, t + ticksPerCycle);
        Tick done;
        if (si.space == MemSpace::Smc)
            done = mem.streamWrite(row, addr, ts.regs[si.rs[1]], atEdge);
        else
            done = mem.cachedWrite(row, addr, ts.regs[si.rs[1]], atEdge);
        ts.lastEffect = std::max(ts.lastEffect, done);
        break;
      }
      case Op::Tld: {
        panic_if(!tables || si.tableId >= tables->size(),
                 "Tld without table %u", si.tableId);
        const auto &table = (*tables)[si.tableId].data;
        Word value = table[a & (table.size() - 1)];
        Tick done;
        if (m.mech.l0DataStore) {
            Tick grant = l0Ports[tile].acquire(t);
            done = grant + cyclesToTicks(m.l0Latency);
        } else {
            // No L0 store: the table lives in cached memory.
            t = waitForLoadSlot(ts, t);
            Tick atEdge = mesh.routeToEdge(ts.here, t + ticksPerCycle);
            Addr byteAddr = tableByteBase[si.tableId] + a * wordBytes;
            Tick served = mem.cachedTiming(row, byteAddr, atEdge, false);
            done = mesh.routeFromEdge(row, ts.here, served);
            recordLoad(ts, done);
        }
        ts.regs[si.rd] = value;
        ts.ready[si.rd] = done;
        ts.lastEffect = std::max(ts.lastEffect, done);
        break;
      }
      case Op::Br:
        ts.cursor = t + ticksPerCycle;
        ts.pc = si.branchTarget;
        return;
      case Op::Beqz:
      case Op::Bnez: {
        bool taken = (si.op == Op::Beqz) ? (a == 0) : (a != 0);
        ts.cursor = t + ticksPerCycle;
        ts.pc = taken ? si.branchTarget : ts.pc + 1;
        return;
      }
      case Op::Halt:
        ts.cursor = t + ticksPerCycle;
        ts.pc = code.size();
        return;
      default: {
        Word c = ts.regs[si.rs[2]];
        ts.regs[si.rd] = isa::evalOp(si.op, a, b, c, si.imm);
        ts.ready[si.rd] = t + cyclesToTicks(info.latency);
        break;
      }
    }

    ts.cursor = t + ticksPerCycle; // one issue per cycle
    ++ts.pc;
}

} // namespace dlp::core
