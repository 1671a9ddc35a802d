/**
 * @file
 * Engine-level tests: hand-built blocks and sequential programs driven
 * through the BlockEngine and MimdEngine, checking dataflow firing
 * rules, revitalization semantics, register-commit ordering and the
 * mechanism flags' timing effects.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "core/block_engine.hh"
#include "core/mimd_engine.hh"
#include "cost/cost.hh"
#include "epoch/epoch.hh"
#include "kernels/catalog.hh"
#include "sched/plan.hh"

using namespace dlp;
using namespace dlp::core;
using isa::MappedBlock;
using isa::MappedInst;
using isa::Op;
using isa::Target;

namespace {

MappedInst
inst(Op op, unsigned row, unsigned col, unsigned slot)
{
    MappedInst mi;
    mi.op = op;
    mi.row = static_cast<uint8_t>(row);
    mi.col = static_cast<uint8_t>(col);
    mi.slot = static_cast<uint8_t>(slot);
    mi.numSrcs = isa::opInfo(op).numSrcs;
    return mi;
}

/** A plan with one block: r10 = (7 + 8), written via the RF. */
sched::SimdPlan
tinyPlan(const MachineParams &m)
{
    sched::SimdPlan plan;
    plan.name = "tiny";
    plan.unroll = 1;
    plan.recBaseReg = 0;
    plan.initialRegs = {{0, 0}};

    sched::Segment seg;
    auto &b = seg.block;
    b.name = "tiny#0";
    b.rows = static_cast<uint8_t>(m.rows);
    b.cols = static_cast<uint8_t>(m.cols);
    b.slotsPerTile = static_cast<uint8_t>(m.frameSlots);

    MappedInst a = inst(Op::Movi, 1, 1, 0);
    a.imm = 7;
    a.overhead = true;
    a.targets.push_back(Target{2, 0, 0});

    MappedInst c = inst(Op::Movi, 2, 3, 0);
    c.imm = 8;
    c.overhead = true;
    c.targets.push_back(Target{2, 1, 0});

    MappedInst add = inst(Op::Add, 1, 2, 0);
    add.targets.push_back(Target{3, 0, 0});

    MappedInst wr = inst(Op::Write, 0, 0, 0);
    wr.imm = 10;
    wr.regTile = true;
    wr.overhead = true;

    b.insts = {a, c, add, wr};
    b.validate();
    plan.segments.push_back(std::move(seg));
    return plan;
}

} // namespace

TEST(BlockEngine, ExecutesADataflowChain)
{
    auto m = arch::configByName("S");
    mem::MemorySystem memory(m.memParams, true);
    BlockEngine engine(m, memory);
    auto plan = tinyPlan(m);
    auto stats = engine.run(plan, 1);
    EXPECT_EQ(engine.reg(10), 15u);
    EXPECT_EQ(stats.instsExecuted, 4u);
    EXPECT_EQ(stats.usefulOps, 1u); // just the Add
    EXPECT_GT(stats.cycles, 0u);
}

TEST(BlockEngine, RevitalizationReexecutesEveryActivation)
{
    auto m = arch::configByName("S");
    mem::MemorySystem memory(m.memParams, true);
    BlockEngine engine(m, memory);
    auto plan = tinyPlan(m);
    auto stats = engine.run(plan, 5); // unroll 1 -> 5 activations
    EXPECT_EQ(stats.activations, 5u);
    EXPECT_EQ(stats.instsExecuted, 20u);
    EXPECT_EQ(stats.mappings, 1u); // resident: mapped once
}

TEST(BlockEngine, BaselineRemapsEveryActivation)
{
    auto m = arch::configByName("baseline");
    mem::MemorySystem memory(m.memParams, false);
    BlockEngine engine(m, memory);
    auto plan = tinyPlan(m);
    auto stats = engine.run(plan, 5);
    EXPECT_EQ(stats.mappings, 5u);
}

TEST(BlockEngine, OnceOnlyFiresOnceWithOperandRevitalization)
{
    auto m = arch::configByName("S-O");
    mem::MemorySystem memory(m.memParams, true);
    BlockEngine engine(m, memory);
    auto plan = tinyPlan(m);
    // Mark the Movis once-only and the Add's operands persistent.
    for (auto &mi : plan.segments[0].block.insts)
        if (mi.op == Op::Movi)
            mi.onceOnly = true;
    plan.segments[0].block.insts[2].persistent[0] = true;
    plan.segments[0].block.insts[2].persistent[1] = true;

    auto stats = engine.run(plan, 4);
    // Activation 0: 4 insts; activations 1-3: Add + Write only.
    EXPECT_EQ(stats.instsExecuted, 4u + 3u * 2u);
    EXPECT_EQ(engine.reg(10), 15u);
}

TEST(BlockEngine, DeadlockedBlockPanics)
{
    auto m = arch::configByName("S");
    mem::MemorySystem memory(m.memParams, true);
    BlockEngine engine(m, memory);
    auto plan = tinyPlan(m);
    // Remove the producer of the Add's second operand.
    plan.segments[0].block.insts[1].targets.clear();
    EXPECT_THROW(engine.run(plan, 1), PanicError);
}

TEST(BlockEngine, RecBaseAdvancesPerGroup)
{
    auto m = arch::configByName("S");
    mem::MemorySystem memory(m.memParams, true);
    BlockEngine engine(m, memory);

    sched::SimdPlan plan;
    plan.name = "rb";
    plan.unroll = 4;
    plan.recBaseReg = 0;
    plan.initialRegs = {{0, 0}, {5, 0}};

    sched::Segment seg;
    auto &b = seg.block;
    b.name = "rb#0";
    b.rows = static_cast<uint8_t>(m.rows);
    b.cols = static_cast<uint8_t>(m.cols);
    b.slotsPerTile = static_cast<uint8_t>(m.frameSlots);
    // Read recBase -> write it to r5.
    MappedInst rd = inst(Op::Read, 0, 0, 0);
    rd.imm = 0;
    rd.regTile = true;
    rd.overhead = true;
    rd.targets.push_back(Target{1, 0, 0});
    MappedInst wr = inst(Op::Write, 0, 0, 0);
    wr.imm = 5;
    wr.regTile = true;
    wr.overhead = true;
    b.insts = {rd, wr};
    plan.segments.push_back(std::move(seg));

    engine.run(plan, 12); // 3 groups of 4
    EXPECT_EQ(engine.reg(5), 8u); // last group's base = 2 * 4
}

// ---------------------------------------------------------------------
// MIMD engine
// ---------------------------------------------------------------------

namespace {

/** Per-tile program: out[rec] = in[rec] + 100. */
sched::MimdPlan
mimdAddPlan()
{
    sched::MimdPlan plan;
    plan.name = "mimd-add";
    plan.recIdxReg = 0;
    plan.strideReg = 1;
    plan.recCountReg = 2;
    plan.layout.inBase = 0;
    plan.layout.outBase = 1000;

    using isa::SeqInst;
    auto &code = plan.program.code;
    auto push = [&](SeqInst si) { code.push_back(si); };

    SeqInst chk;
    chk.op = Op::Ltu;
    chk.rd = 10;
    chk.rs[0] = 0;
    chk.rs[1] = 2;
    chk.overhead = true;
    push(chk);
    SeqInst br;
    br.op = Op::Beqz;
    br.rs[0] = 10;
    br.branchTarget = 8;
    br.overhead = true;
    push(br);
    SeqInst ld;
    ld.op = Op::Ld;
    ld.rd = 11;
    ld.rs[0] = 0;
    ld.space = isa::MemSpace::Smc;
    ld.overhead = true;
    push(ld);
    SeqInst add;
    add.op = Op::Add;
    add.rd = 12;
    add.rs[0] = 11;
    add.imm = 100;
    add.immB = true;
    push(add);
    SeqInst addr;
    addr.op = Op::Add;
    addr.rd = 13;
    addr.rs[0] = 0;
    addr.imm = 1000;
    addr.immB = true;
    addr.overhead = true;
    push(addr);
    SeqInst st;
    st.op = Op::St;
    st.rs[0] = 13;
    st.rs[1] = 12;
    st.space = isa::MemSpace::Smc;
    st.overhead = true;
    push(st);
    SeqInst inc;
    inc.op = Op::Add;
    inc.rd = 0;
    inc.rs[0] = 0;
    inc.rs[1] = 1;
    inc.overhead = true;
    push(inc);
    SeqInst back;
    back.op = Op::Br;
    back.branchTarget = 0;
    back.overhead = true;
    push(back);
    SeqInst halt;
    halt.op = Op::Halt;
    halt.overhead = true;
    push(halt);

    plan.program.numRegs = 64;
    return plan;
}

} // namespace

TEST(MimdEngine, TilesStrideOverRecords)
{
    auto m = arch::configByName("M");
    mem::MemorySystem memory(m.memParams, true);
    MimdEngine engine(m, memory);

    const uint64_t records = 200; // not a multiple of 64
    for (uint64_t r = 0; r < records; ++r)
        memory.smc().poke(r, r * 3);

    auto plan = mimdAddPlan();
    auto stats = engine.run(plan, records);

    for (uint64_t r = 0; r < records; ++r)
        EXPECT_EQ(memory.smc().peek(1000 + r), r * 3 + 100) << r;
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.usefulOps, records); // one useful Add per record
}

TEST(MimdEngine, ZeroRecordsHaltImmediately)
{
    auto m = arch::configByName("M");
    mem::MemorySystem memory(m.memParams, true);
    MimdEngine engine(m, memory);
    auto plan = mimdAddPlan();
    auto stats = engine.run(plan, 0);
    EXPECT_EQ(stats.usefulOps, 0u);
}

TEST(MimdEngine, MoreTilesMakeItFaster)
{
    auto runWith = [](unsigned rows, unsigned cols) {
        auto m = arch::configByName("M");
        m.rows = rows;
        m.cols = cols;
        m.memParams.rows = rows;
        mem::MemorySystem memory(m.memParams, true);
        MimdEngine engine(m, memory);
        for (uint64_t r = 0; r < 256; ++r)
            memory.smc().poke(r, r);
        auto plan = mimdAddPlan();
        return engine.run(plan, 256).cycles;
    };
    EXPECT_LT(runWith(8, 8), runWith(2, 2));
}

TEST(MimdEngine, ZeroLoadWindowRunsAsAWindowOfOne)
{
    // mimdOutstandingLoads = 0 means one load in flight, in the engine
    // and in the cost oracle, which step by the same rule. Rijndael on
    // M also sends its table lookups through the load window (no L0
    // data store).
    struct Outcome
    {
        Cycles cycles;
        uint64_t insts;
        double waitSum;
        uint64_t waitSamples;
        double predicted; ///< the cost oracle's ticks per record
        bool operator==(const Outcome &) const = default;
    };
    auto runWith = [](const std::string &config, unsigned window) {
        auto k = kernels::kernelByName("rijndael");
        auto m = arch::configByName(config);
        m.mimdOutstandingLoads = window;
        arch::LoweredKernel low = arch::lowerFor(k, m);
        mem::MemorySystem memory(m.memParams, m.mech.smc, m.hopTicks);
        MimdEngine engine(m, memory);
        engine.setTables(&k.tables);
        auto stats = engine.run(std::get<sched::MimdPlan>(low.plan), 128);
        const auto *wait =
            engine.statsGroup().findDistribution("operandWaitTicks");
        double predicted =
            cost::analyzeMimd(std::get<sched::MimdPlan>(low.plan), m, 128)
                .predictedTicksPerRecord;
        return Outcome{stats.cycles, stats.instsExecuted, wait->sum(),
                       wait->samples(), predicted};
    };
    for (const char *config : {"M", "M-D"}) {
        SCOPED_TRACE(config);
        Outcome one = runWith(config, 1);
        EXPECT_EQ(runWith(config, 0), one);
        // The window is live: a wider one finishes sooner.
        Outcome four = runWith(config, 4);
        EXPECT_LT(four.cycles, one.cycles);
        EXPECT_LT(four.predicted, one.predicted);
    }
}

TEST(MimdEngine, OneTileAluProgramRunsAsTheOracleWalksIt)
{
    // One tile, one record, and no memory access: nothing contended,
    // so the engine's issue span is the step rule alone, which is what
    // the cost oracle walks. The program has a Mul chain (scoreboard
    // stalls) in a counted inner loop inside the record loop.
    auto m = arch::configByName("M");
    m.rows = 1;
    m.cols = 1;
    sched::MimdPlan plan;
    plan.name = "mimd-alu";
    plan.recIdxReg = 0;
    plan.strideReg = 1;
    plan.recCountReg = 2;
    plan.initialRegs = {{3, 0}, {4, 7}};
    using isa::SeqInst;
    auto &code = plan.program.code;
    auto alu = [&code](Op op, uint8_t rd, uint8_t a, uint8_t b,
                      std::optional<Word> imm = {}) {
        SeqInst si;
        si.op = op;
        si.rd = rd;
        si.rs[0] = a;
        si.rs[1] = b;
        si.imm = imm.value_or(0);
        si.immB = imm.has_value();
        code.push_back(si);
    };
    auto branch = [&code](Op op, uint8_t cond, uint32_t target) {
        SeqInst si;
        si.op = op;
        si.rs[0] = cond;
        si.branchTarget = target;
        code.push_back(si);
    };
    alu(Op::Ltu, 10, 0, 2);    // 0: record pre-check
    branch(Op::Beqz, 10, 10);  // 1: -> halt
    alu(Op::Add, 3, 3, 0, 1);  // 2: inner index += 1
    alu(Op::Mul, 4, 4, 3);     // 3: r4 *= index
    alu(Op::Mul, 5, 4, 4);     // 4: waits on the Mul above
    alu(Op::Ltu, 11, 3, 0, 5); // 5: five inner trips
    branch(Op::Bnez, 11, 2);   // 6
    alu(Op::Add, 0, 0, 1);     // 7: record index += stride
    alu(Op::Ltu, 10, 0, 2);    // 8: record back-edge test...
    branch(Op::Bnez, 10, 2);   // 9: ...at the bottom
    code.push_back(SeqInst{.op = Op::Halt}); // 10
    plan.program.numRegs = 12;

    mem::MemorySystem memory(m.memParams, m.mech.smc, m.hopTicks);
    MimdEngine engine(m, memory);
    RunStats stats = engine.run(plan, 1);
    cost::CostReport rep = cost::analyzeMimd(plan, m, 1);

    Tick span = engine.now() - rep.setupTicks;
    EXPECT_EQ(double(span),
              rep.predictedTicksPerRecord - double(rep.setupTicks));
    EXPECT_EQ(stats.instsExecuted, 2u + 5 * 5 + 4);
    // The Mul chain stalls: the span exceeds one issue per cycle.
    EXPECT_GT(span, stats.instsExecuted * ticksPerCycle);
}

// ---------------------------------------------------------------------
// Calendar retirement: the shared resources an engine binds to its
// floor hold a bounded calendar however long the run.
// ---------------------------------------------------------------------

namespace {

/**
 * Largest calendar over the engine's mesh links and its memory
 * system's ports, after retiring each up to the engine's last floor
 * (so the count is the live calendar, not whatever the last lazy
 * retirement happened to leave).
 */
size_t
largestCalendar(mem::MemorySystem &memory, noc::MeshNetwork &mesh)
{
    size_t worst = 0;
    auto visit = [&worst](sim::Resource &r) {
        r.retire();
        worst = std::max(worst, r.intervals());
    };
    for (auto *set : {&memory.smc().bankPortResources(),
                      &memory.smc().storeBufResources(),
                      &memory.smc().channelResources(),
                      &memory.l1().portResources(),
                      &memory.l2().portResources()})
        for (auto &r : *set)
            visit(r);
    mesh.forEachLink(visit);
    return worst;
}

/** Run kernel on config over records (every activation simulated). */
size_t
calendarAfter(const std::string &kernel, const std::string &config,
              uint64_t records)
{
    epoch::FastForwardGuard guard;
    epoch::setFastForwardEnabled(false);
    auto k = kernels::kernelByName(kernel);
    auto m = arch::configByName(config);
    arch::LoweredKernel low = arch::lowerFor(k, m);
    EXPECT_LE(records, low.layout.chunkRecords);
    mem::MemorySystem memory(m.memParams, m.mech.smc, m.hopTicks);
    if (const auto *mimd = std::get_if<sched::MimdPlan>(&low.plan)) {
        MimdEngine engine(m, memory);
        engine.setTables(&k.tables);
        engine.run(*mimd, records);
        return largestCalendar(memory, engine.network());
    }
    const auto &plan = std::get<sched::SimdPlan>(low.plan);
    EXPECT_TRUE(plan.resident());
    BlockEngine engine(m, memory);
    engine.setTables(&k.tables);
    engine.run(plan, records);
    return largestCalendar(memory, engine.network());
}

} // namespace

TEST(CalendarRetirement, ResidentSimdCalendarsDoNotGrowWithRecords)
{
    // Without retirement convert's link calendars grow about linearly
    // (over a hundred intervals at 64 records, several hundred at 512).
    size_t small = calendarAfter("convert", "S-O-D", 64);
    size_t large = calendarAfter("convert", "S-O-D", 512);
    EXPECT_GT(small, 0u);
    EXPECT_LE(large, small);
}

TEST(CalendarRetirement, MimdCalendarsDoNotGrowWithRecords)
{
    size_t small = calendarAfter("md5", "M-D", 64);
    size_t large = calendarAfter("md5", "M-D", 512);
    EXPECT_GT(small, 0u);
    EXPECT_LE(large, small);
}
