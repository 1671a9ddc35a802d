/**
 * @file
 * Unit tests for the operation set: functional semantics (including the
 * 32-bit variants the crypto kernels depend on), latency-table sanity
 * and the disassembler.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "isa/disasm.hh"
#include "isa/mapped.hh"
#include "isa/opcodes.hh"

using namespace dlp;
using namespace dlp::isa;

/**
 * One evalOp case. gtest names each case after the raw bytes of its
 * parameter, so the struct must have no padding: padding bytes are
 * indeterminate and would give the cases a different name on every run.
 * The opcode is therefore held in a full Word.
 */
struct OpCase
{
    OpCase(Op o, Word x, Word y, Word z, Word i, Word e)
        : opcode(Word(o)), a(x), b(y), c(z), imm(i), expect(e)
    {
    }

    Op op() const { return Op(opcode); }

    Word opcode;
    Word a, b, c, imm;
    Word expect;
};
static_assert(std::has_unique_object_representations_v<OpCase>,
              "OpCase must have no padding bytes");

class EvalOp : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(EvalOp, Matches)
{
    const auto &t = GetParam();
    EXPECT_EQ(evalOp(t.op(), t.a, t.b, t.c, t.imm), t.expect)
        << opName(t.op());
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, EvalOp,
    ::testing::Values(
        OpCase{Op::Add, 3, 4, 0, 0, 7},
        OpCase{Op::Sub, 3, 4, 0, 0, Word(-1)},
        OpCase{Op::Mul, 6, 7, 0, 0, 42},
        OpCase{Op::And, 0xff00, 0x0ff0, 0, 0, 0x0f00},
        OpCase{Op::Or, 0xf0, 0x0f, 0, 0, 0xff},
        OpCase{Op::Xor, 0xff, 0x0f, 0, 0, 0xf0},
        OpCase{Op::Not, 0, 0, 0, 0, ~Word(0)},
        OpCase{Op::Shl, 1, 12, 0, 0, 4096},
        OpCase{Op::Shr, 4096, 12, 0, 0, 1},
        OpCase{Op::Sar, Word(-8), 2, 0, 0, Word(-2)},
        OpCase{Op::Add32, 0xffffffff, 1, 0, 0, 0},
        OpCase{Op::Sub32, 0, 1, 0, 0, 0xffffffff},
        OpCase{Op::Mul32, 0x10000, 0x10000, 0, 0, 0},
        OpCase{Op::Not32, 0, 0, 0, 0, 0xffffffff},
        OpCase{Op::Shl32, 0x80000000, 1, 0, 0, 0},
        OpCase{Op::Shr32, 0x80000000, 31, 0, 0, 1},
        OpCase{Op::Rotl32, 0x80000001, 1, 0, 0, 3},
        OpCase{Op::Rotr32, 3, 1, 0, 0, 0x80000001},
        OpCase{Op::Eq, 5, 5, 0, 0, 1},
        OpCase{Op::Ne, 5, 5, 0, 0, 0},
        OpCase{Op::Lt, Word(-1), 0, 0, 0, 1},
        OpCase{Op::Ltu, Word(-1), 0, 0, 0, 0},
        OpCase{Op::Leu, 3, 3, 0, 0, 1},
        OpCase{Op::Sel, 10, 20, 1, 0, 10},
        OpCase{Op::Sel, 10, 20, 0, 0, 20},
        OpCase{Op::Movi, 0, 0, 0, 1234, 1234},
        OpCase{Op::Mov, 55, 0, 0, 0, 55}));

TEST(EvalOpFp, Arithmetic)
{
    auto F = fpToWord;
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fadd, F(1.5), F(2.25), 0, 0)),
                     3.75);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fmul, F(3.0), F(-2.0), 0, 0)),
                     -6.0);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fdiv, F(1.0), F(4.0), 0, 0)),
                     0.25);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fsqrt, F(81.0), 0, 0, 0)), 9.0);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fmax, F(-1.0), F(2.0), 0, 0)),
                     2.0);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Fabs, F(-7.0), 0, 0, 0)), 7.0);
    EXPECT_EQ(evalOp(Op::Flt, F(1.0), F(2.0), 0, 0), 1u);
    EXPECT_DOUBLE_EQ(wordToFp(evalOp(Op::Itof, Word(-3), 0, 0, 0)), -3.0);
    EXPECT_EQ(evalOp(Op::Ftoi, F(3.9), 0, 0, 0), 3u);
}

TEST(EvalOp, DivideByZeroPanics)
{
    EXPECT_THROW(evalOp(Op::Udiv, 1, 0, 0, 0), PanicError);
}

TEST(EvalOp, ControlOpsRejected)
{
    EXPECT_THROW(evalOp(Op::Ld, 0, 0, 0, 0), PanicError);
    EXPECT_THROW(evalOp(Op::Br, 0, 0, 0, 0), PanicError);
}

TEST(OpInfo, LatenciesMatchAlpha21264Style)
{
    EXPECT_EQ(opInfo(Op::Add).latency, 1u);
    EXPECT_EQ(opInfo(Op::Mul).latency, 7u);
    EXPECT_EQ(opInfo(Op::Fadd).latency, 4u);
    EXPECT_EQ(opInfo(Op::Fmul).latency, 4u);
    EXPECT_GE(opInfo(Op::Fdiv).latency, 12u);
    EXPECT_EQ(opInfo(Op::Fdiv).fu, FuClass::FpDiv);
}

TEST(OpInfo, SourceCounts)
{
    EXPECT_EQ(opInfo(Op::Movi).numSrcs, 0u);
    EXPECT_EQ(opInfo(Op::Mov).numSrcs, 1u);
    EXPECT_EQ(opInfo(Op::Add).numSrcs, 2u);
    EXPECT_EQ(opInfo(Op::Sel).numSrcs, 3u);
    EXPECT_EQ(opInfo(Op::St).numSrcs, 2u);
}

TEST(Mapped, ValidateCatchesOffGrid)
{
    MappedBlock b;
    b.name = "bad";
    b.rows = 2;
    b.cols = 2;
    b.slotsPerTile = 1;
    MappedInst mi;
    mi.row = 5;
    b.insts.push_back(mi);
    EXPECT_THROW(b.validate(), PanicError);
}

TEST(Mapped, ValidateCatchesOverfilledTile)
{
    MappedBlock b;
    b.name = "full";
    b.rows = 1;
    b.cols = 1;
    b.slotsPerTile = 1;
    MappedInst a, c;
    a.slot = 0;
    c.slot = 0;
    b.insts.push_back(a);
    b.insts.push_back(c);
    EXPECT_THROW(b.validate(), PanicError);
}

TEST(Disasm, MentionsOpcodeAndTargets)
{
    MappedInst mi;
    mi.op = Op::Add;
    mi.row = 1;
    mi.col = 2;
    mi.targets.push_back(Target{7, 1, 0});
    std::string s = disasm(mi);
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("i7"), std::string::npos);
}

TEST(Disasm, GoldenMappedInstructions)
{
    // Placement, operands, memory attributes, revitalization state and
    // targets all print; these strings are what the trace logs and the
    // static verifier's diagnostics embed.
    MappedInst add;
    add.op = Op::Add;
    add.row = 1;
    add.col = 2;
    add.slot = 5;
    add.numSrcs = 2;
    add.immB = true;
    add.imm = 10;
    add.persistent[1] = true;
    add.targets.push_back(Target{7, 1, 0});
    add.overhead = true;
    EXPECT_EQ(disasm(add), "[1,2:5] add b=#10 ^p1 -> i7.1 ;ovh");

    MappedInst lmw;
    lmw.op = Op::Lmw;
    lmw.numSrcs = 1;
    lmw.space = MemSpace::Smc;
    lmw.lmwCount = 4;
    lmw.lmwStride = 2;
    lmw.targets.push_back(Target{3, 0, 0});
    lmw.targets.push_back(Target{4, 0, 3});
    EXPECT_EQ(disasm(lmw), "[0,0:0] lmw @smc x4*2 -> i3.0 i4.0w3");

    MappedInst rd;
    rd.op = Op::Read;
    rd.imm = 19;
    rd.regTile = true;
    rd.onceOnly = true;
    rd.targets.push_back(Target{1, 0, 0});
    EXPECT_EQ(disasm(rd), "[0,0:0r] read #19 !once -> i1.0");

    MappedInst tld;
    tld.op = Op::Tld;
    tld.numSrcs = 1;
    tld.space = MemSpace::Table;
    tld.tableId = 2;
    EXPECT_EQ(disasm(tld), "[0,0:0] tld @tab t2");
}

TEST(Disasm, GoldenSeqInstruction)
{
    SeqInst si;
    si.op = Op::St;
    si.rs[0] = 3;
    si.rs[1] = 4;
    si.imm = 8;
    si.space = MemSpace::Smc;
    EXPECT_EQ(disasm(si), "st r0, r3, r4, #8 @smc");
}

TEST(Disasm, BlockListingCarriesPlacementPerLine)
{
    MappedBlock b;
    b.name = "demo";
    b.rows = 2;
    b.cols = 2;
    b.slotsPerTile = 2;
    MappedInst mi;
    mi.op = Op::Movi;
    mi.imm = 42;
    mi.row = 1;
    mi.col = 1;
    mi.slot = 1;
    b.insts.push_back(mi);
    std::string s = disasm(b);
    EXPECT_NE(s.find("block demo"), std::string::npos);
    EXPECT_NE(s.find("i0: [1,1:1] movi #42"), std::string::npos);
}
