#include "verify/fuzz.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "arch/configs.hh"
#include "arch/processor.hh"
#include "check/verify.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "epoch/epoch.hh"
#include "kernels/interp.hh"
#include "kernels/workload.hh"
#include "store/codec.hh"
#include "verify/audit.hh"
#include "verify/cost_invariants.hh"

namespace dlp::verify {

namespace {

using kernels::Kernel;
using kernels::KernelBuilder;
using kernels::Value;
using isa::Op;

/// Irregular image shape shared by the generator, the oracle and the
/// machine: cachedWords words at the graphics texture base address.
constexpr Addr cachedBase = 0x10000000ull;
constexpr unsigned cachedWords = 64;

/** Integer ops that are total and identical across all executors. */
constexpr Op binaryOps[] = {
    Op::Add,  Op::Sub,  Op::Mul,  Op::And,  Op::Or,    Op::Xor,
    Op::Eq,   Op::Ne,   Op::Lt,   Op::Le,   Op::Ltu,   Op::Leu,
    Op::Add32, Op::Sub32, Op::Mul32, Op::Rotl32, Op::Rotr32,
};

constexpr Op shiftOps[] = {Op::Shl, Op::Shr, Op::Sar, Op::Shl32, Op::Shr32};

/**
 * The generator state: a scoped pool of live values. Values defined
 * inside a loop leave the pool at endLoop (only exitValue() may carry
 * them out), mirroring the IR's scoping rules.
 */
struct Gen
{
    KernelBuilder &b;
    Rng &rng;
    std::vector<Value> pool;

    Value pick() { return pool[rng.below(pool.size())]; }
    void push(Value v) { pool.push_back(v); }

    /** One random pure compute node over the live pool. */
    Value
    computeNode()
    {
        switch (rng.below(5)) {
          case 0:
            return b.op(binaryOps[rng.below(std::size(binaryOps))],
                        pick(), pick());
          case 1:
            // Immediate-operand shift; amount 1..63 (0 is a Mov).
            return b.opImm(shiftOps[rng.below(std::size(shiftOps))],
                           pick(), 1 + rng.below(63));
          case 2: {
            constexpr Op immOps[] = {Op::And, Op::Or, Op::Xor, Op::Add};
            return b.opImm(immOps[rng.below(std::size(immOps))], pick(),
                           rng.next());
          }
          case 3:
            return b.op(rng.below(2) ? Op::Not : Op::Not32, pick());
          default: {
            Value cond = b.op(Op::Ltu, pick(), pick());
            return b.sel(cond, pick(), pick());
          }
        }
    }
};

} // namespace

kernels::Kernel
buildFuzzKernel(const FuzzOptions &opts)
{
    // Decouple the program stream from the dataset stream (which uses
    // the raw seed) so shrinking knobs never reshapes the input data.
    Rng rng(opts.seed ^ 0x5eedf0ccull);
    KernelBuilder b("fuzz_" + std::to_string(opts.seed),
                    kernels::Domain::Multimedia);

    const unsigned inWords = 2 + unsigned(rng.below(7));   // 2..8
    const unsigned outWords = 1 + unsigned(rng.below(4));  // 1..4
    const bool useScratch = opts.scratch && rng.below(2) == 0;
    const unsigned scratchWords = useScratch ? 4 : 0;
    b.setRecord(inWords, outWords, scratchWords);

    Gen g{b, rng, {}};
    g.push(b.recIdx());
    for (unsigned i = 0; i < inWords; ++i)
        g.push(b.inWord(i));
    g.push(b.constant("c0", rng.next()));
    g.push(b.imm(rng.next()));

    // Optional lookup table (indices are masked by every executor).
    bool haveTable = false;
    uint16_t table = 0;
    if (opts.tables && rng.below(2) == 0) {
        std::vector<Word> data(16);
        for (auto &w : data)
            w = rng.next();
        table = b.addTable("t0", std::move(data));
        haveTable = true;
    }

    const bool haveCached = opts.cachedLoads && rng.below(2) == 0;
    if (haveCached)
        b.setIrregularBytes(Addr(cachedWords) * wordBytes);

    // Optional wide (LMW) fetch of a statically bounded input window.
    if (opts.wideLoads && rng.below(2) == 0 && inWords >= 2) {
        unsigned count = 2 + unsigned(rng.below(std::min(3u, inWords - 1)));
        unsigned start = unsigned(rng.below(inWords - count + 1));
        Value wide = b.inWide(b.imm(start), count, 1);
        for (unsigned i = 0; i < count; ++i)
            g.push(b.wordOf(wide, i));
    }

    // Scratch staging in the dct idiom: one loop stores the scratch
    // region, a second reloads and reduces it. Cross-loop ordering is
    // exactly what both lowerings must get right.
    if (useScratch) {
        Value seedVal = g.pick();
        b.beginLoop(scratchWords);
        {
            Value i = b.loopIdx();
            Value v = b.op(Op::Xor, seedVal, i);
            b.scratchStore(i, b.opImm(Op::Add, v, 0x9e3779b9ull));
        }
        b.endLoop();
        Value init = b.imm(0);
        b.beginLoop(scratchWords);
        Value acc = b.carry(init);
        {
            Value ld = b.scratchLoad(b.loopIdx());
            b.setCarryNext(acc, b.op(Op::Add, acc, ld));
        }
        b.endLoop();
        g.push(b.exitValue(acc));
    }

    // Random reduction loops, static or data-dependent trip count.
    for (unsigned l = 0; l < opts.loops; ++l) {
        if (rng.below(2) == 0)
            continue;
        Value init = g.pick();
        const bool variable = rng.below(3) == 0;
        if (variable) {
            // Trip in 1..4, derived from live data, bounded by maxTrip.
            Value trip =
                b.opImm(Op::Add, b.opImm(Op::And, g.pick(), 3), 1);
            b.beginLoopVar(trip, 4);
        } else {
            b.beginLoop(2 + uint32_t(rng.below(3)));
        }
        size_t outer = g.pool.size();
        Value carry = b.carry(init);
        g.push(carry);
        g.push(b.loopIdx());
        unsigned bodyOps = 2 + unsigned(rng.below(3));
        Value last = carry;
        for (unsigned j = 0; j < bodyOps; ++j) {
            last = g.computeNode();
            g.push(last);
        }
        b.setCarryNext(carry, last);
        b.endLoop();
        g.pool.resize(outer);
        g.push(b.exitValue(carry));
    }

    // The main mixing phase: a budget of random nodes, occasionally a
    // table or irregular load keyed by live data.
    for (unsigned n = 0; n < opts.nodeBudget; ++n) {
        unsigned roll = unsigned(rng.below(8));
        if (roll == 6 && haveTable) {
            g.push(b.tableLoad(table, g.pick()));
        } else if (roll == 7 && haveCached) {
            // Word-aligned address inside the irregular image.
            Value idx = b.opImm(Op::And, g.pick(), cachedWords - 1);
            Value off = b.markOverhead(b.opImm(Op::Shl, idx, 3));
            Value addr =
                b.markOverhead(b.opImm(Op::Add, off, cachedBase));
            g.push(b.cachedLoad(addr));
        } else {
            g.push(g.computeNode());
        }
    }

    for (unsigned i = 0; i < outWords; ++i)
        b.outWord(i, g.pick());

    return b.build();
}

namespace {

/** A fully materialized test case: program, dataset, oracle outputs. */
struct FuzzCase
{
    Kernel kern;
    std::vector<Word> input;
    std::vector<Word> expected;
    std::unordered_map<Addr, Word> image;
    uint64_t records = 0;
};

FuzzCase
buildCase(const FuzzOptions &opts)
{
    FuzzCase fc;
    fc.kern = buildFuzzKernel(opts);
    fc.records = std::max(1u, opts.records);

    Rng data(opts.seed * 0x9e3779b97f4a7c15ull + 1);
    fc.input.resize(fc.records * fc.kern.inWords);
    for (auto &w : fc.input)
        w = data.next();
    if (fc.kern.irregularBytes) {
        for (unsigned i = 0; i < cachedWords; ++i)
            fc.image[cachedBase + Addr(i) * wordBytes] = data.next();
    }

    kernels::IrregularMemory mem;
    mem.read = [&fc](Addr a) {
        auto it = fc.image.find(a);
        return it == fc.image.end() ? Word(0) : it->second;
    };
    mem.write = [&fc](Addr a, Word w) { fc.image[a] = w; };
    kernels::interpretBatch(fc.kern, fc.input, fc.expected, fc.records,
                            mem);
    return fc;
}

/** Single-batch workload whose golden outputs came from the oracle. */
class FuzzWorkload : public kernels::Workload
{
  public:
    explicit FuzzWorkload(const FuzzCase &c)
        : Workload(c.kern), input(c.input), expected(c.expected),
          records(c.records)
    {
        for (const auto &kv : c.image)
            installIrregularWord(kv.first, kv.second);
    }

    bool
    nextBatch(std::vector<Word> &in, uint64_t &numRecords) override
    {
        if (consumed)
            return false;
        in = input;
        numRecords = records;
        consumed = true;
        return true;
    }

    void
    consumeOutput(const std::vector<Word> &output) override
    {
        got = output;
    }

    bool
    verify(std::string &err) const override
    {
        if (got.size() < expected.size()) {
            std::ostringstream os;
            os << "short output: " << got.size() << " of "
               << expected.size() << " words";
            err = os.str();
            return false;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
            if (got[i] != expected[i]) {
                std::ostringstream os;
                os << "record " << i / kern.outWords << " word "
                   << i % kern.outWords << ": got 0x" << std::hex
                   << got[i] << ", oracle says 0x" << expected[i];
                err = os.str();
                return false;
            }
        }
        return true;
    }

    uint64_t totalRecords() const override { return records; }

  private:
    std::vector<Word> input;
    std::vector<Word> expected;
    uint64_t records;
    std::vector<Word> got;
    bool consumed = false;
};

struct RunOutcome
{
    bool failed = false;
    std::string kind;
    std::string detail;
};

arch::ExperimentResult
runOnce(const FuzzCase &fc, const std::string &config)
{
    FuzzWorkload wl(fc);
    arch::TripsProcessor cpu(arch::configByName(config));
    return cpu.run(wl);
}

std::string
firstJsonDiff(const std::string &a, const std::string &b)
{
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    size_t from = i > 40 ? i - 40 : 0;
    std::ostringstream os;
    os << "fast-forwarded run diverges at byte " << i << ": ..."
       << a.substr(from, 80) << "... vs ..." << b.substr(from, 80)
       << "...";
    return os.str();
}

RunOutcome
runCase(const FuzzCase &fc, const std::string &config, bool audit,
        bool ffDiff, bool cost)
{
    try {
        arch::ExperimentResult res;
        if (ffDiff) {
            // Differential: the same case with the fast-forwarder off,
            // then on. Everything but the host fields must be
            // bit-identical. The audit below runs on the ff-on result,
            // so its conservation laws see the interesting path.
            epoch::FastForwardGuard guard;
            epoch::setFastForwardEnabled(false);
            arch::ExperimentResult off = runOnce(fc, config);
            epoch::setFastForwardEnabled(true);
            res = runOnce(fc, config);
            std::string a = store::simulatedJson(off);
            std::string b = store::simulatedJson(res);
            if (a != b)
                return {true, "fastforward", firstJsonDiff(a, b)};
        } else {
            res = runOnce(fc, config);
        }
        if (!res.verified)
            return {true, "mismatch", res.error};
        if (audit) {
            auto violations = auditResult(res);
            if (!violations.empty()) {
                std::ostringstream os;
                os << violations.front().invariant << ": "
                   << violations.front().detail;
                if (violations.size() > 1)
                    os << " (+" << violations.size() - 1 << " more)";
                return {true, "audit", os.str()};
            }
        }
        if (cost) {
            uint64_t bound = costBoundTicks(res);
            uint64_t actual = cyclesToTicks(res.cycles);
            if (bound > actual) {
                std::ostringstream os;
                os << "cost-model lower bound " << bound << " ticks > "
                   << "simulated " << actual << " (" << res.activations
                   << " activations, " << res.mappings << " mappings)";
                return {true, "cost", os.str()};
            }
        }
        return {};
    } catch (const std::exception &e) {
        return {true, "exception", e.what()};
    }
}

/**
 * Run the static verifier over the plan (kern, config) would execute:
 * the same layout and lowering the processor uses.
 */
check::Report
staticReport(const Kernel &kern, const std::string &config)
{
    core::MachineParams m = arch::configByName(config);
    return check::verify(arch::lowerFor(kern, m).program(), m);
}

/** First Error-severity rule of a report, or "". */
std::string
firstErrorRule(const check::Report &rep)
{
    for (const auto &d : rep.diags)
        if (d.severity == check::Severity::Error)
            return d.rule;
    return "";
}

/** Does (opts, config) still fail? Generator crashes count as failures. */
bool
stillFails(const FuzzOptions &opts, const std::string &config,
           uint64_t &runs)
{
    ++runs;
    try {
        FuzzCase fc = buildCase(opts);
        return runCase(fc, config, opts.audit, opts.ffDiff,
                       opts.cost).failed;
    } catch (const std::exception &) {
        return true;
    }
}

/**
 * Greedy shrink: repeatedly try the reductions below, keeping each one
 * that still reproduces a failure, until a full pass changes nothing.
 */
FuzzOptions
shrinkOptions(FuzzOptions opts, const std::string &config, uint64_t &runs)
{
    bool changed = true;
    while (changed) {
        changed = false;
        auto attempt = [&](FuzzOptions cand) {
            if (stillFails(cand, config, runs)) {
                opts = cand;
                changed = true;
            }
        };
        if (opts.records > 1) {
            FuzzOptions c = opts;
            c.records = std::max(1u, opts.records / 2);
            attempt(c);
        }
        if (opts.nodeBudget > 2) {
            FuzzOptions c = opts;
            c.nodeBudget = std::max(2u, opts.nodeBudget / 2);
            attempt(c);
        }
        if (opts.loops > 0) {
            FuzzOptions c = opts;
            c.loops = opts.loops - 1;
            attempt(c);
        }
        for (bool FuzzOptions::*knob :
             {&FuzzOptions::tables, &FuzzOptions::wideLoads,
              &FuzzOptions::cachedLoads, &FuzzOptions::scratch}) {
            if (opts.*knob) {
                FuzzOptions c = opts;
                c.*knob = false;
                attempt(c);
            }
        }
    }
    return opts;
}

} // namespace

std::string
describeKernel(const kernels::Kernel &k)
{
    static const char *kindNames[] = {
        "Compute",     "Const",      "RecIdx",      "LoopIdx",
        "InWord",      "InWordAt",   "InWide",      "ScratchWide",
        "WordOf",      "OutWord",    "OutWordAt",   "ScratchLoad",
        "ScratchStore","CachedLoad", "CachedStore", "TableLoad",
        "Carry",       "LoopExit",
    };
    std::ostringstream os;
    os << k.name << ": in=" << k.inWords << " out=" << k.outWords
       << " scratch=" << k.scratchWords << " nodes=" << k.nodes.size()
       << " loops=" << k.loops.size() << "\n";
    for (size_t i = 0; i < k.nodes.size(); ++i) {
        const auto &n = k.nodes[i];
        os << "  n" << i << ": "
           << kindNames[static_cast<size_t>(n.kind)];
        if (n.kind == kernels::NodeKind::Compute)
            os << " " << isa::opInfo(n.op).name;
        for (int s = 0; s < 3; ++s)
            if (n.src[s] != kernels::noValue)
                os << " n" << n.src[s];
        if (n.imm || n.immB ||
            n.kind != kernels::NodeKind::Compute)
            os << " imm=0x" << std::hex << n.imm << std::dec;
        if (n.immB)
            os << " (immB)";
        if (n.loop != kernels::topLevel)
            os << " loop=" << n.loop;
        if (n.overhead)
            os << " overhead";
        os << "\n";
    }
    for (size_t l = 0; l < k.loops.size(); ++l) {
        const auto &lp = k.loops[l];
        os << "  loop " << l << ": trip=" << lp.staticTrip;
        if (lp.tripValue != kernels::noValue)
            os << " tripValue=n" << lp.tripValue
               << " maxTrip=" << lp.maxTrip;
        if (lp.parent != kernels::topLevel)
            os << " parent=" << lp.parent;
        os << "\n";
    }
    for (const auto &c : k.carries)
        os << "  carry: node=n" << c.node << " init=n" << c.init
           << " next=n" << c.next << " loop=" << c.loop << "\n";
    return os.str();
}

std::string
replayCommand(const FuzzOptions &opts, const std::string &config)
{
    std::ostringstream os;
    os << "fuzz_ir --seed " << opts.seed << " --records " << opts.records
       << " --nodes " << opts.nodeBudget << " --loops " << opts.loops;
    if (!opts.tables)
        os << " --no-tables";
    if (!opts.wideLoads)
        os << " --no-wide";
    if (!opts.cachedLoads)
        os << " --no-cached";
    if (!opts.scratch)
        os << " --no-scratch";
    if (opts.staticCheck)
        os << " --static-check";
    if (opts.cost)
        os << " --cost";
    if (opts.ffDiff)
        os << " --fast-forward";
    os << " --configs " << config;
    return os.str();
}

FuzzReport
fuzzOne(const FuzzOptions &opts)
{
    FuzzOptions o = opts;
    if (o.configs.empty())
        o.configs = arch::allConfigNames();

    FuzzReport rep;
    FuzzCase fc;
    try {
        fc = buildCase(o);
    } catch (const std::exception &e) {
        // The generator or the oracle itself blew up: that is a finding
        // against the IR layer, attributed to no particular config.
        ++rep.runs;
        FuzzFailure f;
        f.seed = o.seed;
        f.config = "(generator)";
        f.kind = "exception";
        f.detail = e.what();
        f.shrunk = o;
        f.replay = replayCommand(o, o.configs.front());
        rep.failures.push_back(std::move(f));
        return rep;
    }

    for (const auto &config : o.configs) {
        ++rep.runs;
        RunOutcome out = runCase(fc, config, o.audit, o.ffDiff, o.cost);
        if (!out.failed) {
            // Dynamically clean: a static Error here is a verifier
            // false positive, which is itself a counterexample.
            if (o.staticCheck) {
                check::Report sr;
                try {
                    sr = staticReport(fc.kern, config);
                } catch (const std::exception &) {
                    continue; // the processor's lowering succeeded
                }
                if (sr.errors() > 0) {
                    FuzzFailure f;
                    f.seed = o.seed;
                    f.config = config;
                    f.kind = "static";
                    f.detail = "static verifier rejects a dynamically "
                               "clean program: " +
                               sr.describe();
                    f.shrunk = o;
                    f.replay = replayCommand(o, config);
                    f.staticallyCaught = true;
                    f.staticRule = firstErrorRule(sr);
                    rep.failures.push_back(std::move(f));
                }
            }
            continue;
        }
        FuzzFailure f;
        f.seed = o.seed;
        f.config = config;
        f.kind = out.kind;
        f.detail = out.detail;
        f.shrunk = shrinkOptions(o, config, rep.runs);
        f.replay = replayCommand(f.shrunk, config);
        if (o.staticCheck) {
            // The coverage assertion: a dynamically diverging program
            // must trip a static rule or be logged as a gap.
            try {
                std::string rule = firstErrorRule(
                    staticReport(fc.kern, config));
                f.staticallyCaught = !rule.empty();
                f.staticRule = rule;
            } catch (const std::exception &e) {
                f.staticallyCaught = true;
                f.staticRule = std::string("(lowering: ") + e.what() +
                               ")";
            }
            if (f.staticallyCaught)
                ++rep.staticallyCaught;
            else
                ++rep.staticGaps;
        }
        rep.failures.push_back(std::move(f));
    }
    return rep;
}

FuzzReport
fuzzSeeds(const std::vector<uint64_t> &seeds, const FuzzOptions &base)
{
    FuzzReport rep;
    for (uint64_t seed : seeds) {
        FuzzOptions o = base;
        o.seed = seed;
        FuzzReport one = fuzzOne(o);
        rep.runs += one.runs;
        rep.staticallyCaught += one.staticallyCaught;
        rep.staticGaps += one.staticGaps;
        for (auto &f : one.failures)
            rep.failures.push_back(std::move(f));
    }
    return rep;
}

} // namespace dlp::verify
