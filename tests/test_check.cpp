/**
 * @file
 * The static SPDI verifier under test: every rule of the registry must
 * fire on a directed malformed program (and name the documented rule
 * ID), the whole kernel catalog must lint error-free on every Table 5
 * configuration, and PR 4's fuzzer-found defect class -- a scratch
 * reload racing the store that feeds it -- must be rejected statically.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "check/report.hh"
#include "check/rules.hh"
#include "check/verify.hh"
#include "kernels/catalog.hh"
#include "kernels/workload.hh"
#include "verify/fuzz.hh"

using namespace dlp;
using check::BlockOptions;
using check::Report;
using check::Severity;
using isa::MappedBlock;
using isa::MappedInst;
using isa::MemSpace;
using isa::Op;
using isa::SeqInst;
using isa::SeqProgram;

namespace {

/** An empty 2x2 block with 4 slots per tile. */
MappedBlock
makeBlock()
{
    MappedBlock b;
    b.name = "testblock";
    b.rows = 2;
    b.cols = 2;
    b.slotsPerTile = 4;
    return b;
}

/** Append an instruction; placement defaults to consecutive slots of
 *  tile (0,0) unless overridden afterwards. */
uint32_t
addInst(MappedBlock &b, Op op, unsigned numSrcs, Word imm = 0)
{
    MappedInst mi;
    mi.op = op;
    mi.imm = imm;
    mi.numSrcs = uint8_t(numSrcs);
    size_t i = b.insts.size();
    mi.row = uint8_t(i / (size_t(b.cols) * b.slotsPerTile));
    mi.col = uint8_t(i / b.slotsPerTile % b.cols);
    mi.slot = uint8_t(i % b.slotsPerTile);
    b.insts.push_back(mi);
    return uint32_t(i);
}

/** Dataflow edge: result word of `from` into slot `slot` of `to`. */
void
wire(MappedBlock &b, uint32_t from, uint32_t to, unsigned slot,
     unsigned wordIdx = 0)
{
    b.insts[from].targets.push_back(
        {to, uint8_t(slot), uint8_t(wordIdx)});
}

/** The simplest clean block: movi feeding a register write. */
MappedBlock
cleanBlock()
{
    MappedBlock b = makeBlock();
    uint32_t v = addInst(b, Op::Movi, 0, 42);
    uint32_t w = addInst(b, Op::Write, 1, 7);
    wire(b, v, w, 0);
    return b;
}

core::MachineParams
machine(const char *name)
{
    return arch::configByName(name);
}

/** Rule IDs of every Error finding. */
std::set<std::string>
errorRules(const Report &rep)
{
    std::set<std::string> ids;
    for (const auto &d : rep.diags)
        if (d.severity == Severity::Error)
            ids.insert(d.rule);
    return ids;
}

} // namespace

// --- Registry ---------------------------------------------------------------

TEST(CheckRegistry, RulesAreUniqueAndDocumented)
{
    const auto &regs = check::rules();
    ASSERT_GE(regs.size(), 20u);
    std::set<std::string> ids;
    for (const auto &r : regs) {
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule " << r.id;
        EXPECT_NE(std::string(r.invariant), "") << r.id;
        EXPECT_EQ(check::ruleByName(r.id), &r);
    }
    EXPECT_EQ(check::ruleByName("NO-SUCH-RULE"), nullptr);
}

TEST(CheckRegistry, SeveritiesMatchDocumentation)
{
    EXPECT_EQ(check::ruleByName("DF-NOPROD")->severity, Severity::Error);
    EXPECT_EQ(check::ruleByName("MEM-ORDER")->severity, Severity::Error);
    EXPECT_EQ(check::ruleByName("MEM-MAY")->severity, Severity::Warning);
    EXPECT_EQ(check::ruleByName("CFG-TBL-BUDGET")->severity,
              Severity::Warning);
}

// --- Graph well-formedness (DF-*) -------------------------------------------

TEST(CheckBlock, CleanBlockPasses)
{
    Report rep = check::verifyBlock(cleanBlock(), machine("S"));
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
    EXPECT_EQ(rep.warnings(), 0u) << rep.describe();
    EXPECT_EQ(rep.insts, 2u);
}

TEST(CheckBlock, DanglingTargetIsDFDANGLE)
{
    MappedBlock b = cleanBlock();
    b.insts[0].targets.push_back({99, 0, 0});
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-DANGLE")) << rep.describe();
}

TEST(CheckBlock, BadSourceSlotIsDFSLOT)
{
    // Delivers to slot 2 of a consumer waiting on one source.
    MappedBlock b = cleanBlock();
    b.insts[0].targets[0].srcSlot = 2;
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-SLOT")) << rep.describe();
}

TEST(CheckBlock, SlotBeyondMaxSrcsIsDFSLOT)
{
    MappedBlock b = cleanBlock();
    b.insts[0].targets.push_back({1, isa::maxSrcs, 0});
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-SLOT")) << rep.describe();
}

TEST(CheckBlock, WordIndexBeyondProducerIsDFWORD)
{
    // A scalar producer has exactly one result word.
    MappedBlock b = cleanBlock();
    b.insts[0].targets[0].wordIdx = 1;
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-WORD")) << rep.describe();
}

TEST(CheckBlock, LmwWordIndexIsBoundedByCount)
{
    MappedBlock b = makeBlock();
    uint32_t a = addInst(b, Op::Movi, 0, 0);
    uint32_t l = addInst(b, Op::Lmw, 1);
    b.insts[l].space = MemSpace::Smc;
    b.insts[l].lmwCount = 2;
    uint32_t w0 = addInst(b, Op::Write, 1, 0);
    uint32_t w1 = addInst(b, Op::Write, 1, 1);
    wire(b, a, l, 0);
    wire(b, l, w0, 0, 0);
    wire(b, l, w1, 0, 1); // word 1 of 2: fine
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();

    b.insts[l].targets[1].wordIdx = 2; // word 2 of 2: out of range
    rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-WORD")) << rep.describe();
}

TEST(CheckBlock, WrongArityIsDFARITY)
{
    // add waiting on a single operand can fire with garbage in src1.
    MappedBlock b = makeBlock();
    uint32_t v = addInst(b, Op::Movi, 0, 1);
    uint32_t s = addInst(b, Op::Add, 1);
    uint32_t w = addInst(b, Op::Write, 1, 0);
    wire(b, v, s, 0);
    wire(b, s, w, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-ARITY")) << rep.describe();
}

TEST(CheckBlock, ImmBOnUnaryOpIsDFARITY)
{
    MappedBlock b = cleanBlock();
    b.insts[1].immB = true; // write has no second source to replace
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-ARITY")) << rep.describe();
}

TEST(CheckBlock, MemOpsMayCarryAnOrderingToken)
{
    // A store with one extra source (the ordering token) is legal.
    MappedBlock b = makeBlock();
    uint32_t a = addInst(b, Op::Movi, 0, 0);
    uint32_t d = addInst(b, Op::Movi, 0, 5);
    uint32_t t = addInst(b, Op::Movi, 0, 0);
    uint32_t st = addInst(b, Op::St, 3);
    b.insts[st].space = MemSpace::Smc;
    wire(b, a, st, 0);
    wire(b, d, st, 1);
    wire(b, t, st, 2);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

TEST(CheckBlock, UnfedSlotIsDFNOPROD)
{
    MappedBlock b = makeBlock();
    uint32_t v = addInst(b, Op::Movi, 0, 1);
    uint32_t s = addInst(b, Op::Add, 2); // src1 never fed
    wire(b, v, s, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-NOPROD")) << rep.describe();
    const auto &d = rep.diags[0];
    EXPECT_EQ(d.rule, "DF-NOPROD");
    EXPECT_EQ(d.inst, 1);
    EXPECT_EQ(d.slot, 1);
    EXPECT_EQ(d.location(), "testblock:i1.s1");
}

TEST(CheckBlock, RacingProducersAreDFRACE)
{
    MappedBlock b = cleanBlock();
    uint32_t v2 = addInst(b, Op::Movi, 0, 43);
    wire(b, v2, 1, 0); // second producer into the same slot
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-RACE")) << rep.describe();
}

TEST(CheckBlock, DataflowCycleIsDFCYCLE)
{
    MappedBlock b = makeBlock();
    uint32_t x = addInst(b, Op::Mov, 1);
    uint32_t y = addInst(b, Op::Mov, 1);
    wire(b, x, y, 0);
    wire(b, y, x, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-CYCLE")) << rep.describe();
}

TEST(CheckBlock, SelfLoopIsDFCYCLE)
{
    MappedBlock b = makeBlock();
    uint32_t x = addInst(b, Op::Mov, 1);
    wire(b, x, x, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("DF-CYCLE")) << rep.describe();
}

// --- Memory ordering (MEM-*): PR 4's defect class, decided statically ------

namespace {

/**
 * The fuzzer-found scratch race of PR 4 in its minimal static form: a
 * store to a scratch word and a reload of the same word with no
 * dataflow path between them. With `token` the store's completion
 * value is threaded into the reload's spare source slot, which is the
 * fix the lowering applies.
 */
MappedBlock
scratchRace(bool token)
{
    MappedBlock b = makeBlock();
    uint32_t addr = addInst(b, Op::Movi, 0, 130); // scratch word 130
    uint32_t data = addInst(b, Op::Movi, 0, 7);
    uint32_t st = addInst(b, Op::St, 2);
    b.insts[st].space = MemSpace::Smc;
    uint32_t ld = addInst(b, Op::Ld, token ? 2 : 1);
    b.insts[ld].space = MemSpace::Smc;
    uint32_t out = addInst(b, Op::Write, 1, 3);
    wire(b, addr, st, 0);
    wire(b, data, st, 1);
    wire(b, addr, ld, 0);
    wire(b, ld, out, 0);
    if (token)
        wire(b, st, ld, 1);
    return b;
}

const sched::StreamLayout testLayout = {0, 64, 128};

} // namespace

TEST(CheckMem, UnorderedScratchReloadIsMEMORDER)
{
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(scratchRace(false), machine("S"), opts);
    EXPECT_TRUE(rep.has("MEM-ORDER")) << rep.describe();
    EXPECT_GE(rep.errors(), 1u);
}

TEST(CheckMem, TokenChainOrdersTheReload)
{
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(scratchRace(true), machine("S"), opts);
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
    EXPECT_FALSE(rep.has("MEM-ORDER"));
}

TEST(CheckMem, DisjointWordsDoNotAlias)
{
    MappedBlock b = scratchRace(false);
    b.insts[0].targets.clear();
    uint32_t addr2 = addInst(b, Op::Movi, 0, 131); // the next word
    wire(b, 0, 2, 0);  // store keeps address 130
    wire(b, addr2, 3, 0); // load reads 131
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(b, machine("S"), opts);
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

TEST(CheckMem, LmwWidthOverlapsTheStoredWord)
{
    // lmw of 4 words from 128 covers the word stored at 130.
    MappedBlock b = makeBlock();
    uint32_t a1 = addInst(b, Op::Movi, 0, 130);
    uint32_t d = addInst(b, Op::Movi, 0, 9);
    uint32_t st = addInst(b, Op::St, 2);
    b.insts[st].space = MemSpace::Smc;
    uint32_t a2 = addInst(b, Op::Movi, 0, 128);
    uint32_t lmw = addInst(b, Op::Lmw, 1);
    b.insts[lmw].space = MemSpace::Smc;
    b.insts[lmw].lmwCount = 4;
    wire(b, a1, st, 0);
    wire(b, d, st, 1);
    wire(b, a2, lmw, 0);
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(b, machine("S"), opts);
    EXPECT_TRUE(rep.has("MEM-ORDER")) << rep.describe();
}

TEST(CheckMem, UnknownAddressesInOneRegionAreMEMMAY)
{
    // Two data-dependent scratch addresses (distinct register reads):
    // the verifier cannot separate them, so the unordered pair is a
    // warning, not an error.
    MappedBlock b = makeBlock();
    uint32_t r1 = addInst(b, Op::Read, 0, 1);
    uint32_t r2 = addInst(b, Op::Read, 0, 2);
    uint32_t d = addInst(b, Op::Movi, 0, 3);
    uint32_t st = addInst(b, Op::St, 2);
    b.insts[st].space = MemSpace::Smc;
    uint32_t ld = addInst(b, Op::Ld, 1);
    b.insts[ld].space = MemSpace::Smc;
    wire(b, r1, st, 0);
    wire(b, d, st, 1);
    wire(b, r2, ld, 0);
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(b, machine("S"), opts);
    EXPECT_TRUE(rep.has("MEM-MAY")) << rep.describe();
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

TEST(CheckMem, UnorderedCachedStoresAreOneAliasClass)
{
    MappedBlock b = makeBlock();
    uint32_t r1 = addInst(b, Op::Read, 0, 1);
    uint32_t r2 = addInst(b, Op::Read, 0, 2);
    uint32_t d = addInst(b, Op::Movi, 0, 3);
    uint32_t st = addInst(b, Op::St, 2);
    b.insts[st].space = MemSpace::Cached;
    uint32_t ld = addInst(b, Op::Ld, 1);
    b.insts[ld].space = MemSpace::Cached;
    wire(b, r1, st, 0);
    wire(b, d, st, 1);
    wire(b, r2, ld, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("MEM-ORDER")) << rep.describe();
}

TEST(CheckMem, LoadsAloneNeedNoOrdering)
{
    MappedBlock b = makeBlock();
    uint32_t a = addInst(b, Op::Movi, 0, 130);
    uint32_t l1 = addInst(b, Op::Ld, 1);
    uint32_t l2 = addInst(b, Op::Ld, 1);
    b.insts[l1].space = MemSpace::Smc;
    b.insts[l2].space = MemSpace::Smc;
    wire(b, a, l1, 0);
    wire(b, a, l2, 0);
    BlockOptions opts;
    opts.layout = &testLayout;
    Report rep = check::verifyBlock(b, machine("S"), opts);
    EXPECT_EQ(rep.count(Severity::Error), 0u) << rep.describe();
    EXPECT_FALSE(rep.has("MEM-ORDER"));
    EXPECT_FALSE(rep.has("MEM-MAY"));
}

// --- Revitalization (REV-*) -------------------------------------------------

TEST(CheckRev, PersistentBitWithoutMechanismIsREVPERSIST)
{
    MappedBlock b = cleanBlock();
    b.insts[0].onceOnly = true;
    b.insts[1].persistent[0] = true;
    // S has instruction revitalization but not operand revitalization.
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("REV-PERSIST")) << rep.describe();
    // S-O adds the mechanism; the same block is legal.
    rep = check::verifyBlock(b, machine("S-O"));
    EXPECT_FALSE(rep.has("REV-PERSIST")) << rep.describe();
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

TEST(CheckRev, OnceOnlyIntoClearedSlotIsREVFEED)
{
    // Deadlock direction: the slot empties at the first revitalize and
    // its once-only producer never re-fires.
    MappedBlock b = cleanBlock();
    b.insts[0].onceOnly = true;
    Report rep = check::verifyBlock(b, machine("S-O"));
    EXPECT_TRUE(rep.has("REV-FEED")) << rep.describe();
}

TEST(CheckRev, RefiringProducerIntoPersistentSlotIsREVFEED)
{
    // Stale-read direction: the consumer can fire on the kept operand
    // before the new value arrives.
    MappedBlock b = cleanBlock();
    b.insts[1].persistent[0] = true;
    Report rep = check::verifyBlock(b, machine("S-O"));
    EXPECT_TRUE(rep.has("REV-FEED")) << rep.describe();
}

TEST(CheckRev, NonRevitalizedBlocksAreExempt)
{
    MappedBlock b = cleanBlock();
    b.insts[0].onceOnly = true;
    BlockOptions opts;
    opts.revitalized = false;
    Report rep = check::verifyBlock(b, machine("S-O"), opts);
    EXPECT_FALSE(rep.has("REV-FEED")) << rep.describe();
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

// --- Configuration legality (CFG-*) -----------------------------------------

TEST(CheckCfg, SequentialOpcodeInBlockIsCFGOPCODE)
{
    MappedBlock b = cleanBlock();
    addInst(b, Op::Halt, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("CFG-OPCODE")) << rep.describe();
}

TEST(CheckCfg, MemOpWithoutSpaceIsCFGOPCODE)
{
    MappedBlock b = makeBlock();
    uint32_t a = addInst(b, Op::Movi, 0, 0);
    uint32_t l = addInst(b, Op::Ld, 1); // space left at None
    wire(b, a, l, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("CFG-OPCODE")) << rep.describe();
}

TEST(CheckCfg, RegisterBeyondFileIsCFGREG)
{
    core::MachineParams m = machine("S");
    MappedBlock b = cleanBlock();
    b.insts[1].imm = m.numRegs; // first illegal register
    Report rep = check::verifyBlock(b, m);
    EXPECT_TRUE(rep.has("CFG-REG")) << rep.describe();
}

TEST(CheckCfg, TableIdBeyondKernelIsCFGTABLE)
{
    kernels::Kernel k;
    k.name = "tableless";
    MappedBlock b = makeBlock();
    uint32_t i = addInst(b, Op::Movi, 0, 0);
    uint32_t t = addInst(b, Op::Tld, 1);
    b.insts[t].space = MemSpace::Table;
    b.insts[t].tableId = 0; // kernel defines no tables
    wire(b, i, t, 0);
    BlockOptions opts;
    opts.kernel = &k;
    Report rep = check::verifyBlock(b, machine("S-O-D"), opts);
    EXPECT_TRUE(rep.has("CFG-TABLE")) << rep.describe();
}

TEST(CheckCfg, OversizedTableIsCFGTBLBUDGET)
{
    core::MachineParams m = machine("S-O-D");
    kernels::Kernel k;
    k.name = "fat-tables";
    k.tables.push_back({"big", std::vector<Word>(
        m.l0DataBytes / wordBytes * 2, 0)});
    Report rep;
    check::checkTableBudget(k, m, rep);
    EXPECT_TRUE(rep.has("CFG-TBL-BUDGET")) << rep.describe();
    EXPECT_EQ(rep.errors(), 0u); // a modeling-fidelity warning, not fatal

    // Without the L0 data store the tables live in L1 and any size goes.
    Report rep2;
    check::checkTableBudget(k, machine("S"), rep2);
    EXPECT_FALSE(rep2.has("CFG-TBL-BUDGET"));
}

// --- Capacity (CAP-*) -------------------------------------------------------

TEST(CheckCap, BlockLargerThanMachineIsCAPGRID)
{
    core::MachineParams m = machine("S");
    MappedBlock b = cleanBlock();
    b.rows = uint8_t(m.rows + 1);
    Report rep = check::verifyBlock(b, m);
    EXPECT_TRUE(rep.has("CAP-GRID")) << rep.describe();
}

TEST(CheckCap, OffGridPlacementIsCAPGRID)
{
    MappedBlock b = cleanBlock();
    b.insts[1].row = 5; // outside the 2x2 block
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("CAP-GRID")) << rep.describe();
}

TEST(CheckCap, SharedStationIsCAPSLOT)
{
    MappedBlock b = cleanBlock();
    b.insts[1].row = b.insts[0].row;
    b.insts[1].col = b.insts[0].col;
    b.insts[1].slot = b.insts[0].slot;
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("CAP-SLOT")) << rep.describe();
}

TEST(CheckCap, OverfilledTileIsCAPTILE)
{
    MappedBlock b = cleanBlock();
    b.slotsPerTile = 1;
    b.insts[0].slot = 0;
    b.insts[1].row = b.insts[0].row;
    b.insts[1].col = b.insts[0].col;
    b.insts[1].slot = 0;
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_TRUE(rep.has("CAP-TILE")) << rep.describe();
}

TEST(CheckCap, RegisterTilesAreSlotExempt)
{
    MappedBlock b = cleanBlock();
    b.insts[1].regTile = true;
    b.insts[1].row = b.insts[0].row;
    b.insts[1].col = b.insts[0].col;
    b.insts[1].slot = b.insts[0].slot;
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_FALSE(rep.has("CAP-SLOT")) << rep.describe();
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

// --- Sequential programs (SEQ-*) --------------------------------------------

namespace {

SeqProgram
cleanSeq()
{
    SeqProgram p;
    p.name = "testseq";
    p.numRegs = 4;
    SeqInst mov;
    mov.op = Op::Movi;
    mov.rd = 0;
    mov.imm = 1;
    p.code.push_back(mov);
    SeqInst halt;
    halt.op = Op::Halt;
    p.code.push_back(halt);
    return p;
}

} // namespace

TEST(CheckSeq, CleanProgramPasses)
{
    Report rep = check::verifySeq(cleanSeq(), machine("M"));
    EXPECT_EQ(rep.errors(), 0u) << rep.describe();
}

TEST(CheckSeq, DataflowOpcodeIsSEQOP)
{
    SeqProgram p = cleanSeq();
    p.code[0].op = Op::Lmw;
    p.code[0].space = MemSpace::Smc;
    Report rep = check::verifySeq(p, machine("M"));
    EXPECT_TRUE(rep.has("SEQ-OP")) << rep.describe();
}

TEST(CheckSeq, BranchOutsideProgramIsSEQBR)
{
    SeqProgram p = cleanSeq();
    SeqInst br;
    br.op = Op::Br;
    br.branchTarget = 100;
    p.code.insert(p.code.begin(), br);
    Report rep = check::verifySeq(p, machine("M"));
    EXPECT_TRUE(rep.has("SEQ-BR")) << rep.describe();
}

TEST(CheckSeq, RegisterBeyondProgramIsSEQREG)
{
    SeqProgram p = cleanSeq();
    p.code[0].rd = 9; // numRegs is 4
    Report rep = check::verifySeq(p, machine("M"));
    EXPECT_TRUE(rep.has("SEQ-REG")) << rep.describe();
}

TEST(CheckSeq, RegistersBeyondTileIsSEQREG)
{
    core::MachineParams m = machine("M");
    SeqProgram p = cleanSeq();
    p.numRegs = m.tileRegs + 1;
    Report rep = check::verifySeq(p, m);
    EXPECT_TRUE(rep.has("SEQ-REG")) << rep.describe();
}

TEST(CheckSeq, MissingHaltIsSEQHALT)
{
    SeqProgram p = cleanSeq();
    p.code.pop_back();
    Report rep = check::verifySeq(p, machine("M"));
    EXPECT_TRUE(rep.has("SEQ-HALT")) << rep.describe();
}

// --- Plan-level checks ------------------------------------------------------

TEST(CheckPlan, SimdPlanRegisterPlumbingIsChecked)
{
    core::MachineParams m = machine("S");
    sched::SimdPlan plan;
    plan.name = "testplan";
    plan.recBaseReg = m.numRegs + 3;
    sched::Segment seg;
    seg.block = cleanBlock();
    plan.segments.push_back(seg);
    check::MappedProgram prog;
    prog.simd = &plan;
    Report rep = check::verify(prog, m);
    EXPECT_TRUE(rep.has("CFG-REG")) << rep.describe();
}

TEST(CheckPlan, MimdPlanRegisterPlumbingIsChecked)
{
    core::MachineParams m = machine("M");
    sched::MimdPlan plan;
    plan.name = "testplan";
    plan.program = cleanSeq();
    plan.recIdxReg = m.tileRegs + 1;
    check::MappedProgram prog;
    prog.mimd = &plan;
    Report rep = check::verify(prog, m);
    EXPECT_TRUE(rep.has("CFG-REG")) << rep.describe();
}

// --- Whole-catalog lint -----------------------------------------------------

TEST(CheckCatalog, EveryScheduledProgramLintsErrorFree)
{
    // The exact plans the processor executes: every kernel lowered for
    // every Table 5 configuration. Errors are always fatal; the only
    // expected warnings are vertex-skinning's oversized matrix palette
    // against the 2 KB per-tile L0 budget (the engine broadcasts tables
    // across the grid's aggregate L0, so it runs correctly; the warning
    // records the locality cost).
    for (const auto &configName : arch::allConfigNames()) {
        core::MachineParams m = arch::configByName(configName);
        for (const auto &k : kernels::allKernels()) {
            check::Report rep =
                check::verify(arch::lowerFor(k, m).program(), m);
            EXPECT_EQ(rep.errors(), 0u)
                << k.name << " on " << configName << ":\n"
                << rep.describe();
            for (const auto &d : rep.diags)
                EXPECT_TRUE(d.rule == "CFG-TBL-BUDGET" &&
                            k.name == "vertex-skinning")
                    << k.name << " on " << configName << ": unexpected "
                    << d.rule << ": " << d.message;
        }
    }
}

// --- Processor gate and JSON plumbing ---------------------------------------

TEST(CheckGate, EnabledCheckRecordsACleanReportInTheResult)
{
    check::setCheckEnabled(true);
    auto wl = kernels::makeWorkload("dct", 8, 77);
    arch::TripsProcessor cpu(machine("S-O"));
    auto res = cpu.run(*wl);
    check::setCheckEnabled(false);
    ASSERT_TRUE(res.verified) << res.error;
    EXPECT_TRUE(res.checked);
    EXPECT_EQ(res.checkErrors, 0u);
    EXPECT_EQ(res.checkWarnings, 0u);
}

TEST(CheckGate, DisabledCheckLeavesTheResultUnchecked)
{
    check::setCheckEnabled(false);
    auto wl = kernels::makeWorkload("dct", 8, 77);
    arch::TripsProcessor cpu(machine("S"));
    auto res = cpu.run(*wl);
    ASSERT_TRUE(res.verified) << res.error;
    EXPECT_FALSE(res.checked);
}

// --- Fuzzer cross-validation ------------------------------------------------

TEST(CheckFuzz, StaticModeIsCleanOnCleanSeeds)
{
    verify::FuzzOptions o;
    o.seed = 3;
    o.staticCheck = true;
    o.configs = {"S-O", "M"};
    verify::FuzzReport rep = verify::fuzzOne(o);
    EXPECT_TRUE(rep.clean())
        << rep.failures[0].kind << ": " << rep.failures[0].detail;
    EXPECT_EQ(rep.staticGaps, 0u);
}

// --- Report mechanics -------------------------------------------------------

TEST(CheckReport, CountsAndDescribe)
{
    Report rep;
    rep.add("DF-NOPROD", "b", 3, 1, "unfed");
    rep.add("MEM-MAY", "b", -1, -1, "maybe");
    EXPECT_EQ(rep.errors(), 1u);
    EXPECT_EQ(rep.warnings(), 1u);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.countRule("DF-NOPROD"), 1u);
    EXPECT_TRUE(rep.has("MEM-MAY"));
    EXPECT_FALSE(rep.has("DF-CYCLE"));
    std::string text = rep.describe();
    EXPECT_NE(text.find("DF-NOPROD"), std::string::npos);
    EXPECT_NE(text.find("b:i3.s1"), std::string::npos);
}

TEST(CheckReport, EveryDirectedFindingNamesARegisteredRule)
{
    // Belt and braces: a malformed block producing several findings
    // must only ever cite registry rules.
    MappedBlock b = cleanBlock();
    b.insts[0].targets.push_back({99, 0, 0});
    b.insts[1].persistent[0] = true;
    addInst(b, Op::Halt, 0);
    Report rep = check::verifyBlock(b, machine("S"));
    EXPECT_GE(rep.errors(), 3u);
    for (const auto &id : errorRules(rep))
        EXPECT_NE(check::ruleByName(id), nullptr) << id;
}
