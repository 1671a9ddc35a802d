/**
 * @file
 * The MIMD tile's per-instruction timing rule (Section 4.3, Figure 4c),
 * written once for MimdEngine (contended calendars) and the cost
 * oracle's one-record walk (uncontended latencies, cost/mimd_cost.cc).
 *
 * A tile is an in-order pipeline with its own PC: an instruction issues
 * a cycle after the last one, once its sources are ready; an ALU result
 * is ready after the op's latency; a load (Ld, and Tld without an L0
 * data store) first waits for a slot in the tile's load window. step()
 * owns that rule and the control flow; its Policy supplies the values
 * and the memory:
 *
 *   std::optional<Word> value(uint8_t reg)  nullopt if unknown: a branch
 *                                           on it falls through
 *   void alu(const SeqInst &)               write the op's result
 *   Tick load(const SeqInst &, Tick issue)  Ld or Tld: write the result,
 *                                           return its completion tick
 *   Tick store(const SeqInst &, Tick issue) St: its completion tick
 */

#ifndef DLP_CORE_MIMD_STEP_HH
#define DLP_CORE_MIMD_STEP_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "common/bitutils.hh"
#include "core/machine.hh"
#include "isa/opcodes.hh"
#include "isa/seq.hh"

namespace dlp::core::mimd {

/**
 * A tile's outstanding loads: the completion ticks of its last slots()
 * loads, oldest at head. A load waits for the slot it takes over (a
 * slot never used holds tick 0).
 */
class LoadWindow
{
  public:
    static unsigned
    slots(const MachineParams &m)
    {
        return std::max(1u, m.mimdOutstandingLoads);
    }

    LoadWindow() = default;
    explicit LoadWindow(const MachineParams &m) : ring(slots(m), 0) {}

    Tick wait(Tick t) const { return std::max(t, ring[head]); }

    void
    push(Tick done)
    {
        ring[head] = done;
        head = head + 1 == ring.size() ? 0 : head + 1;
    }

  private:
    std::vector<Tick> ring;
    size_t head = 0;
};

/** The timing state of one tile's pipeline. */
struct Pipeline
{
    std::vector<Tick> ready; ///< per register: tick its value is ready
    LoadWindow loads;
    Tick cursor = 0; ///< the earliest tick of the next issue
    uint64_t pc = 0;
};

/** Ticks of the setup block: broadcast `words` at the SMC width. */
inline Tick
setupTicks(const MachineParams &m, uint64_t words)
{
    return cyclesToTicks(divCeil(std::max<uint64_t>(words, 1),
                                 m.memParams.smcWordsPerCycle) +
                         m.mapOverhead);
}

inline bool
usesLoadWindow(const isa::SeqInst &si, const MachineParams &m)
{
    return si.op == isa::Op::Ld ||
           (si.op == isa::Op::Tld && !m.mech.l0DataStore);
}

/** The issue tick of the next instruction, its operand stalls resolved. */
inline Tick
issueTime(const isa::SeqProgram &prog, const Pipeline &p)
{
    const isa::SeqInst &si = prog.code[p.pc];
    Tick t = p.cursor;
    for (unsigned s = 0; s < isa::opInfo(si.op).numSrcs; ++s) {
        if (!(s == 1 && si.immB))
            t = std::max(t, p.ready[si.rs[s]]);
    }
    return t;
}

/**
 * Execute the next instruction, issuing at tick t (at least
 * issueTime()). Returns its memory access's completion tick, or 0.
 * Always inlined: it is the MIMD engine's per-instruction hot path.
 */
template <class Policy>
[[gnu::always_inline]] inline Tick
step(Policy &pol, const MachineParams &m, const isa::SeqProgram &prog,
     Pipeline &p, Tick t)
{
    using isa::Op;
    const isa::SeqInst &si = prog.code[p.pc];
    uint64_t next = p.pc + 1;
    Tick done = 0;
    switch (si.op) {
      case Op::Ld:
      case Op::Tld: {
        bool windowed = usesLoadWindow(si, m);
        if (windowed)
            t = p.loads.wait(t);
        done = p.ready[si.rd] = pol.load(si, t);
        if (windowed)
            p.loads.push(done);
        break;
      }
      case Op::St:
        done = pol.store(si, t);
        break;
      case Op::Br:
        next = si.branchTarget;
        break;
      case Op::Beqz:
      case Op::Bnez: {
        std::optional<Word> c = pol.value(si.rs[0]);
        if (c && (si.op == Op::Beqz) == (*c == 0))
            next = si.branchTarget;
        break;
      }
      case Op::Halt:
        next = prog.code.size();
        break;
      default:
        pol.alu(si);
        p.ready[si.rd] = t + cyclesToTicks(isa::opInfo(si.op).latency);
        break;
    }
    p.cursor = t + ticksPerCycle; // one issue per cycle
    p.pc = next;
    return done;
}

} // namespace dlp::core::mimd

#endif // DLP_CORE_MIMD_STEP_HH
