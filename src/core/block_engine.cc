#include "core/block_engine.hh"

#include <algorithm>
#include <cinttypes>

#include "common/bitutils.hh"
#include "epoch/epoch.hh"
#include "epoch/passes.hh"
#include "isa/disasm.hh"

namespace dlp::core {

using isa::MappedBlock;
using isa::MappedInst;
using isa::MemSpace;
using isa::Op;

BlockEngine::BlockEngine(const MachineParams &params,
                         mem::MemorySystem &memory)
    : m(params), mem(memory), mesh(params.rows, params.cols, params.hopTicks),
      rf(params.numRegs, 0),
      issuePorts(params.tiles(), sim::Resource(ticksPerCycle)),
      divPorts(params.tiles(),
               sim::Resource(cyclesToTicks(isa::opInfo(Op::Fdiv).latency))),
      injectPorts(params.tiles(), sim::Resource(params.injectInterval)),
      l0Ports(params.tiles(), sim::Resource(ticksPerCycle)),
      regRead(params.regBanks, sim::Resource(ticksPerCycle)),
      regWrite(params.regBanks, sim::Resource(ticksPerCycle))
{
    // The structural resources whose occupancy sets the activation
    // initiation interval when iterations pipeline across frames.
    auto trackSet = [this](std::vector<sim::Resource> &set) {
        for (auto &r : set)
            tracked.push_back(&r);
    };
    trackSet(issuePorts);
    trackSet(divPorts);
    trackSet(injectPorts);
    trackSet(l0Ports);
    trackSet(regRead);
    trackSet(regWrite);
    trackSet(mem.smc().bankPortResources());
    trackSet(mem.smc().storeBufResources());
    trackSet(mem.l1().portResources());
    trackSet(mem.l2().portResources());
    trackSet(mem.smc().channelResources());
    mesh.forEachLink([this](sim::Resource &r) { tracked.push_back(&r); });
    grantSnapshot.assign(tracked.size(), 0);
    // Every request an activation makes lands at or after its start,
    // and so do main memory's, which serve its L2 misses and DMA. Main
    // memory is bound but not tracked: epoch recording neither compares
    // nor shifts it.
    for (sim::Resource *r : tracked)
        r->bindFloor(&floorTick);
    mem.mainMemory().portResource().bindFloor(&floorTick);

    // One reusable event seeds every activation (bound once here; the
    // per-activation context travels through members, not captures).
    seedEvent.bind(eq, [this] { seedActivation(); });

    // Issue width is bounded by the tile count; operand waits beyond a
    // couple hundred ticks all mean "starved" and land in overflow.
    issueWidth = &engStats.distribution("issueWidth", 0.0,
                                        double(m.tiles()), 16);
    operandWait = &engStats.distribution("operandWaitTicks", 0.0, 128.0,
                                         16);
    engStats.setPreDump([this] { foldWaits(); });
    activationsStat = &engStats.scalar("activations");
    revitalizesStat = &engStats.scalar("revitalizes");
    signatureRepeatsStat = &engStats.scalar("signatureRepeats");

    // Lifetime event-queue counters, surfaced so the post-run auditor
    // can check the conservation law scheduled == executed + pending +
    // discarded (and that a completed run drains the queue). The ff
    // offsets fold in the events replayed epochs accounted for without
    // firing, so these report simulated-machine totals; hostEvents()
    // stays the true host count.
    engStats.formula("eventsScheduled", [this] {
        return double(eq.scheduledEvents() + ffScheduledOffset);
    });
    engStats.formula("eventsExecuted", [this] {
        return double(eq.executedEvents() + ffExecutedOffset);
    });
    engStats.formula("eventsPending",
                     [this] { return double(eq.pending()); });
    engStats.formula("eventsDiscarded",
                     [this] { return double(eq.discardedEvents()); });
}

void
BlockEngine::foldWaits()
{
    for (size_t v = 0; v < smallWaits.size(); ++v) {
        if (smallWaits[v]) {
            operandWait->sample(double(v), smallWaits[v]);
            smallWaits[v] = 0;
        }
    }
}

void
BlockEngine::snapshotGrants()
{
    for (size_t i = 0; i < tracked.size(); ++i)
        grantSnapshot[i] = tracked[i]->grants();
}

Tick
BlockEngine::busySinceSnapshot() const
{
    Tick worst = 0;
    for (size_t i = 0; i < tracked.size(); ++i) {
        worst = std::max(worst, (tracked[i]->grants() - grantSnapshot[i]) *
                                    tracked[i]->interval());
    }
    return worst;
}

void
BlockEngine::setTables(const std::vector<kernels::Table> *kernelTables)
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
BlockEngine::run(const sched::SimdPlan &plan, uint64_t numRecords)
{
    RunStats stats;
    Tick t = curTick;

    // A fresh run (new plan, new chunk, reused in-process fixture) must
    // not inherit the previous run's steady-state evidence: the first
    // activation always resets the streak through the fresh-mapping
    // path, but the epoch controller arms off the streak *between*
    // activations, so stale state here would be evidence it never saw.
    signatureStreak = 0;
    lastSignature = 0;

    // Setup block: write the initial register values (constants,
    // induction registers) through the register-file ports, and load the
    // L0 data stores / table region.
    for (const auto &init : plan.initialRegs)
        rf.at(init.first) = init.second;
    t += cyclesToTicks(
        divCeil(std::max<size_t>(plan.initialRegs.size(), 1), m.regBanks) +
        m.mapOverhead);
    if (tables && !tables->empty()) {
        uint64_t tableWords = 0;
        for (const auto &tab : *tables)
            tableWords += tab.data.size();
        // Broadcast the tables into the L0 stores (or prime the cached
        // region): bandwidth-limited copy.
        t += cyclesToTicks(
            divCeil(tableWords, m.memParams.smcWordsPerCycle));
    }

    uint64_t groups = divCeil(numRecords, plan.unroll);
    stats.groups = groups;

    planPaths.resize(plan.segments.size());
    for (size_t i = 0; i < plan.segments.size(); ++i)
        buildPaths(plan.segments[i].block, planPaths[i]);

    // Successive activations pipeline: a new activation begins once the
    // previous one's instructions have all *issued* (their reservation
    // stations are free for revitalized re-use -- the S-morph maps
    // iterations into spare frames) and its register writes have
    // committed (the next iteration's Reads depend on them), plus the
    // revitalize broadcast -- or a full re-map on machines without
    // instruction revitalization. The run as a whole ends when the last
    // activation fully drains.
    Tick drain = t;
    Tick nextStart = t;
    actMaxWrite = t;

    // Run one activation and compute when the next may begin: the
    // initiation interval is the largest resource occupancy of this
    // activation (frames double-buffer, so latency is hidden), floored
    // by the revitalize broadcast -- or by the re-map time on machines
    // without instruction revitalization -- and ordered after this
    // activation's register-write commits (true dependences: loop
    // carries, cross-block temporaries).
    auto paceActivation = [&](const BlockPaths &paths, bool first,
                              Tick gapTicks) {
        snapshotGrants();
        runActivation(paths, nextStart, first, stats);
        drain = std::max(drain, actMaxTick);
        Tick ii = std::max(busySinceSnapshot(), gapTicks);
        Tick prev = nextStart;
        nextStart = std::max(nextStart + ii, actMaxWrite + gapTicks);
        if (!first) {
            ++*revitalizesStat;
            OBS_SIM_SPAN(Revit, "revitalize", prev, gapTicks,
                         signatureStreak);
        }
        if (sampler)
            sampler->maybeSample(drain);
    };

    const bool ffEligible =
        epoch::fastForwardEnabled() && m.mech.instRevitalize;
    uint64_t armThreshold = epoch::armStreak();
    unsigned epochAttempts = 0;

    // Record two consecutive *units* starting at unit u, lower them
    // through the epoch pass pipeline, and -- when every validation
    // holds -- replay the remaining units arithmetically. A unit is the
    // repeating schedule quantum: one activation when the plan is
    // resident, one full group (every segment mapped and activated)
    // otherwise. runUnit(n) executes unit n through the event kernel;
    // setUnitContext(n) re-establishes the sequencer-owned register
    // state for unit n (also called before each replayed unit);
    // unitBlocks names the block behind each activation of a unit and
    // blocks lists the distinct blocks for classification. Returns how
    // many units were consumed: the two recorded ones are real
    // simulation either way, so a failed lowering costs nothing but the
    // controller backoff.
    auto tryEpoch = [&](uint64_t u, uint64_t totalUnits,
                        const std::vector<const MappedBlock *> &unitBlocks,
                        const std::vector<const MappedBlock *> &blocks,
                        auto &&setUnitContext, auto &&runUnit) -> uint64_t {
        epoch::EpochInput in;
        in.blocks = blocks;
        in.smcMechanism = m.mech.smc;
        in.l0DataStore = m.mech.l0DataStore;
        in.instRevitalize = m.mech.instRevitalize;
        uint64_t remaining = totalUnits - u - 2;
        uint64_t cap = epoch::maxIterationsPerEpoch();
        in.iterations = cap ? std::min(remaining, cap) : remaining;

        captureEpochSnapshot(in.s0, stats);
        auto record = [&](uint64_t unit, epoch::RecordedIteration &r) {
            Tick origin = nextStart;
            epochRec = &r;
            runUnit(unit);
            epochRec = nullptr;
            r.start = origin;
            r.drainLen = actMaxTick - origin;
            r.issueLen = actMaxIssue - origin;
            r.writeLen = actMaxWrite - origin;
            r.unitDrainLen = drain - origin;
            r.fired = r.fires.size();
            captureEpochTails(r.tails, origin);
        };
        record(u, in.r1);
        captureEpochSnapshot(in.s1, stats);
        record(u + 1, in.r2);
        captureEpochSnapshot(in.s2, stats);
        in.period = in.r2.start - in.r1.start;
        in.period2 = nextStart - in.r2.start;

        epoch::EpochLower lower(in);
        if (!lower.ok()) {
            // The failing pass and its detail ride as the label,
            // interned only when a sink takes the category.
            if (obs::enabled(obs::Cat::Epoch)) {
                static const uint32_t bailId = obs::internName("bail");
                obs::recordInstant(
                    obs::Cat::Epoch, bailId, obs::Domain::Sim, nextStart, u,
                    obs::internName(lower.failedPass() + ": " +
                                    lower.failureDetail()));
            }
            armThreshold *= 2;
            ++epochAttempts;
            return 2;
        }

        const epoch::EpochPlan &ep = lower.plan();
        const uint64_t iters = in.iterations;

        Tick firstStart = nextStart;
        Tick start = firstStart;
        uint64_t pendingIters = 0;
        for (uint64_t i = 0; i < iters; ++i) {
            // The sequencer still owns the record-group pointer.
            setUnitContext(u + 2 + i);
            replayEpochFires(unitBlocks, ep);

            // The streak either keeps growing (no reset inside the
            // unit) or lands on the same value after every unit; the
            // passes proved which.
            if (ep.sigStreakAdditive)
                signatureStreak =
                    uint64_t(int64_t(signatureStreak) + ep.sigStreakDelta);
            else
                signatureStreak = ep.sigStreakEnd;

            stats.activations += ep.activations;
            stats.mappings += ep.mappings;
            stats.instsExecuted += ep.instsExecuted;
            stats.usefulOps += ep.usefulOps;
            ffScheduledOffset += ep.eqScheduled;
            ffExecutedOffset += ep.eqExecuted;
            ffEventsSavedN += ep.eqExecuted;
            ffIterationsN += ep.activations;
            ++pendingIters;

            drain = std::max(drain, start + ep.unitDrainLen);
            if (sampler && sampler->due(drain)) {
                // Bring every bulk counter current before the sampler
                // reads the groups, exactly as a simulated unit would
                // have left them.
                applyEpochCounters(ep, pendingIters);
                pendingIters = 0;
                sampler->maybeSample(drain);
            }
            start += ep.period;
        }
        lastSignature = ep.sigLast;
        applyEpochCounters(ep, pendingIters);
        shiftEpochCalendars(ep, iters);

        Tick lastStart = start - ep.period;
        nextStart = start;
        actMaxTick = lastStart + ep.drainLen;
        actMaxIssue = lastStart + ep.issueLen;
        actMaxWrite = lastStart + ep.writeLen;
        ++ffEpochsN;
        OBS_SIM_SPAN(Epoch, "epoch", firstStart, ep.period * iters, iters);
        return 2 + iters;
    };

    if (plan.resident()) {
        const auto &seg = plan.segments[0];
        uint64_t totalActs = groups * seg.activations;
        Tick mapTicks = cyclesToTicks(
            divCeil(seg.block.insts.size(), m.mapBandwidth) + m.mapOverhead);
        Tick gap = m.mech.instRevitalize
                       ? cyclesToTicks(m.revitalizeDelay)
                       : mapTicks;
        nextStart += mapTicks;
        stats.mappings++;
        OBS_SIM_SPAN(Engine, "map", nextStart - mapTicks, mapTicks,
                     seg.block.insts.size());

        const std::vector<const MappedBlock *> unitBlocks = {&seg.block};
        auto setCtx = [&](uint64_t act) {
            rf.at(plan.recBaseReg) = (act / seg.activations) * plan.unroll;
        };
        auto runUnit = [&](uint64_t act) {
            setCtx(act);
            paceActivation(planPaths[0], false, gap);
        };

        uint64_t a = 0;
        while (a < totalActs) {
            bool first = a == 0;
            if (!first && !m.mech.instRevitalize) {
                stats.mappings++;
                first = true; // a fresh mapping re-fires everything
            }
            // Steady state (and at least one activation to replay after
            // the two recorded ones): try to fast-forward.
            if (ffEligible && !first && signatureStreak >= armThreshold &&
                totalActs - a >= 3 &&
                epochAttempts < epoch::maxAttemptsPerRun) {
                a += tryEpoch(a, totalActs, unitBlocks, unitBlocks, setCtx,
                              runUnit);
                continue;
            }
            // The sequencer owns the record-group pointer.
            setCtx(a);
            paceActivation(planPaths[0], first, gap);
            ++a;
        }
    } else {
        // Group-level epochs: when the plan cycles through several
        // segments, no single activation's signature repeats
        // back-to-back, but the whole group -- every segment mapped and
        // all its activations run, in order -- is the steady-state
        // quantum. Arm on a streak of identical *group* digests (the
        // fold of every activation signature in the group) and hand the
        // same record/lower/replay machinery one group per unit.
        std::vector<const MappedBlock *> unitBlocks, segBlocks;
        for (const auto &seg : plan.segments) {
            segBlocks.push_back(&seg.block);
            for (uint64_t a = 0; a < seg.activations; ++a)
                unitBlocks.push_back(&seg.block);
        }

        // Replay applies stat deltas at unit-end granularity, so a
        // sampler wanting rows mid-group could not be served
        // bit-identically; groups fast-forward only while sampling is
        // off (the resident path keeps per-activation exactness).
        const bool ffGroups =
            ffEligible && (!sampler || sampler->intervalTicks() == 0);
        uint64_t groupStreak = 0;
        uint64_t lastGroupDigest = 0;

        auto setCtx = [&](uint64_t grp) {
            rf.at(plan.recBaseReg) = grp * plan.unroll;
        };
        auto runUnit = [&](uint64_t grp) {
            setCtx(grp);
            obs::SignatureHash groupHash;
            for (size_t si = 0; si < plan.segments.size(); ++si) {
                const auto &seg = plan.segments[si];
                Tick mapTicks =
                    cyclesToTicks(divCeil(seg.block.insts.size(),
                                          m.mapBandwidth) +
                                  m.mapOverhead);
                Tick gap = m.mech.instRevitalize
                               ? cyclesToTicks(m.revitalizeDelay)
                               : mapTicks;
                // A different block must be fetched and mapped.
                nextStart = std::max(nextStart, actMaxWrite) + mapTicks;
                stats.mappings++;
                OBS_SIM_SPAN(Engine, "map", nextStart - mapTicks, mapTicks,
                             seg.block.insts.size());
                for (uint64_t a = 0; a < seg.activations; ++a) {
                    bool first = a == 0;
                    if (!first && !m.mech.instRevitalize) {
                        stats.mappings++;
                        first = true;
                    }
                    paceActivation(planPaths[si], first, gap);
                    groupHash.add(lastSignature);
                }
            }
            uint64_t digest = groupHash.digest();
            if (grp > 0 && digest == lastGroupDigest)
                ++groupStreak;
            else
                groupStreak = 0;
            lastGroupDigest = digest;
        };

        uint64_t g = 0;
        while (g < groups) {
            if (ffGroups && g > 0 && groupStreak >= armThreshold &&
                groups - g >= 3 &&
                epochAttempts < epoch::maxAttemptsPerRun) {
                g += tryEpoch(g, groups, unitBlocks, segBlocks, setCtx,
                              runUnit);
                continue;
            }
            runUnit(g);
            ++g;
        }
    }

    stats.cycles = ticksToCycles(drain - curTick);
    curTick = drain;
    return stats;
}

void
BlockEngine::buildPaths(const MappedBlock &block, BlockPaths &paths) const
{
    paths.block = &block;
    paths.first.clear();
    paths.routes.clear();
    paths.links.clear();
    for (const auto &mi : block.insts) {
        paths.first.push_back(uint32_t(paths.routes.size()));
        for (const auto &t : mi.targets) {
            noc::Coord to = tileOf(block.insts[t.inst]);
            paths.routes.push_back({uint32_t(paths.links.size()), to});
            mesh.appendPath(tileOf(mi), to, paths.links);
        }
    }
}

void
BlockEngine::runActivation(const BlockPaths &paths, Tick startTick,
                           bool firstActivation, RunStats &stats)
{
    const MappedBlock &block = *paths.block;
    // (Re)initialize per-instruction state.
    if (firstActivation) {
        state.assign(block.insts.size(), InstState{});
    } else {
        for (size_t i = 0; i < block.insts.size(); ++i) {
            auto &st = state[i];
            st.fired = false;
            st.sawOperand = false;
            const auto &mi = block.insts[i];
            for (unsigned s = 0; s < isa::maxSrcs; ++s) {
                if (!mi.persistent[s])
                    st.present[s] = false;
            }
        }
    }

    floorTick = startTick;
    firedCount = 0;
    expectedCount = 0;
    actMaxTick = startTick;
    actMaxIssue = startTick;
    actMaxWrite = startTick;
    sigHash.reset();

    // Activations may start earlier than the previous activation's last
    // event (frames pipeline); the queue is empty here, so rewinding its
    // clock is safe.
    eq.reset();

    curBlock = &block;
    curPaths = &paths;
    curStats = &stats;
    seedTick = startTick;
    seedFresh = firstActivation;

    // One event seeds the whole activation. The seeds are the first
    // thing the queue executes, so running them back to back inside one
    // callback is order-identical to scheduling one event per seed:
    // either way every seed fires before any same-tick delivery (those
    // carry later sequence numbers by construction).
    seedEvent.schedule(startTick);

    eq.run();

    panic_if(firedCount != expectedCount,
             "block %s deadlocked: fired %" PRIu64 " of %" PRIu64
             " instructions",
             block.name.c_str(), firedCount, expectedCount);

    // Commit: apply buffered register writes.
    for (const auto &w : pendingWrites)
        rf.at(w.first) = w.second;
    pendingWrites.clear();

    // Sustained issue width of this activation: instructions fired over
    // the issue span (drain excluded -- it overlaps the next activation).
    Cycles span = ticksToCycles(actMaxIssue - startTick) + 1;
    double width = double(firedCount) / double(span);
    issueWidth->sample(width);
    ++*activationsStat;

    // Epoch recording: the per-activation substructure replay needs to
    // partition the unit's fire trace and stay bit-exact on the sampled
    // issue width (the division is not an integer).
    if (epochRec) {
        epochRec->fireCounts.push_back(firedCount);
        epochRec->issueSamples.push_back(width);
        epochRec->fresh.push_back(firstActivation ? 1 : 0);
    }

    // Close the occupancy signature with the activation's envelope: two
    // iterations with identical fire schedules but different drain or
    // commit shapes are not the same steady state.
    sigHash.add(actMaxTick - startTick);
    sigHash.add(actMaxIssue - startTick);
    sigHash.add(actMaxWrite - startTick);
    sigHash.add(firedCount);
    uint64_t digest = sigHash.digest();
    if (!firstActivation && digest == lastSignature) {
        ++signatureStreak;
        ++*signatureRepeatsStat;
    } else {
        signatureStreak = 0;
    }
    lastSignature = digest;

    OBS_SIM_SPAN(Engine, "activation", startTick, actMaxTick - startTick,
                 firedCount);
    OBS_SIM_COUNTER(EventQ, "eventsExecuted", actMaxTick,
                    eq.executedEvents());

    stats.activations++;
    ++eventActivationsN;
}

void
BlockEngine::seedActivation()
{
    const MappedBlock &block = *curBlock;
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const auto &mi = block.insts[i];
        if (mi.onceOnly && !seedFresh)
            continue;
        ++expectedCount;
        bool ready = true;
        for (unsigned s = 0; s < mi.numSrcs; ++s)
            ready &= state[i].present[s];
        if (ready)
            execute(block, static_cast<uint32_t>(i), seedTick, *curStats);
    }
}

void
BlockEngine::execute(const MappedBlock &block, uint32_t idx, Tick ready,
                     RunStats &stats)
{
    const MappedInst &mi = block.insts[idx];
    InstState &st = state[idx];
    panic_if(st.fired, "instruction %u of %s fired twice", idx,
             block.name.c_str());
    st.fired = true;
    ++firedCount;
    ++stats.instsExecuted;
    if (!mi.overhead)
        ++stats.usefulOps;

    // Operand-wait skew: how long the first-arriving operand sat in the
    // reservation station before the last one enabled the fire.
    if (st.sawOperand && ready > st.firstOperand) {
        Tick wait = ready - st.firstOperand;
        if (wait < smallWaits.size())
            ++smallWaits[wait];
        else
            operandWait->sample(double(wait));
    }
    OBS_SIM_INSTANT(Exec, "fire", ready, idx);

    // Feed the occupancy signature: which instruction fired, how far
    // into the activation. Identical sequences => identical iterations.
    sigHash.add(idx);
    sigHash.add(ready - seedTick);

    // Epoch recording: capture the fire schedule in invocation order.
    // The event kernel executes producers before their consumers (even
    // same-tick), so replaying deliveries in this order is causal.
    if (epochRec)
        epochRec->fires.push_back({idx, ready - seedTick});

    Word a = st.operand[0];
    Word b = mi.immB ? mi.imm : st.operand[1];
    Word c = st.operand[2];

    noc::Coord here = tileOf(mi);
    unsigned row = mi.row;
    Tick done;
    Word result = 0;

    switch (mi.op) {
      case Op::Read: {
        unsigned bank = static_cast<unsigned>(mi.imm) % m.regBanks;
        Tick grant = regRead[bank].acquire(ready);
        actMaxIssue = std::max(actMaxIssue, grant);
        done = grant + cyclesToTicks(m.regLatency) + m.hopTicks;
        result = rf.at(static_cast<size_t>(mi.imm));
        break;
      }
      case Op::Write: {
        unsigned bank = static_cast<unsigned>(mi.imm) % m.regBanks;
        Tick grant = regWrite[bank].acquire(ready + m.hopTicks);
        actMaxIssue = std::max(actMaxIssue, grant);
        done = grant + cyclesToTicks(m.regLatency);
        pendingWrites.emplace_back(static_cast<unsigned>(mi.imm), a);
        actMaxTick = std::max(actMaxTick, done);
        actMaxWrite = std::max(actMaxWrite, done);
        return; // no targets
      }
      case Op::Ld: {
        Tick issue = issuePort(mi.row, mi.col).acquire(ready);
        actMaxIssue = std::max(actMaxIssue, issue);
        Tick atEdge = mesh.routeToEdge(here, issue + ticksPerCycle);
        Word value = 0;
        Tick served;
        if (mi.space == MemSpace::Smc) {
            served = mem.streamRead(row, a, 1, atEdge, &value);
            if (m.mech.smc) {
                // The response rides the row's streaming channel.
                done = channelDeliver(row, 0, here, served);
                result = value;
                break;
            }
        } else {
            served = mem.cachedRead(row, a, atEdge, value);
        }
        done = mesh.routeFromEdge(row, here, served);
        result = value;
        break;
      }
      case Op::Lmw: {
        Tick issue = issuePort(mi.row, mi.col).acquire(ready);
        actMaxIssue = std::max(actMaxIssue, issue);
        Tick atEdge = mesh.routeToEdge(here, issue + ticksPerCycle);
        lmwWords.assign(mi.lmwCount, Word(0));
        Tick served = mem.streamRead(row, a, mi.lmwCount, atEdge,
                                     lmwWords.data(), mi.lmwStride);
        // Words fan out over the row's dedicated streaming channel
        // straight to the consumers.
        for (const auto &t : mi.targets) {
            const auto &dst = block.insts[t.inst];
            Tick arrive =
                channelDeliver(row, t.wordIdx, tileOf(dst), served);
            deliver(t, lmwWords.at(t.wordIdx), arrive);
        }
        actMaxTick = std::max(actMaxTick, served);
        return;
      }
      case Op::St: {
        Tick issue = issuePort(mi.row, mi.col).acquire(ready);
        actMaxIssue = std::max(actMaxIssue, issue);
        Tick atEdge = mesh.routeToEdge(here, issue + ticksPerCycle);
        if (mi.space == MemSpace::Smc)
            done = mem.streamWrite(row, a, b, atEdge);
        else
            done = mem.cachedWrite(row, a, b, atEdge);
        // Completion token: the lowering hangs memory-ordering edges off
        // stores whose region is also read within the block.
        result = b;
        break;
      }
      case Op::Tld: {
        panic_if(!tables || mi.tableId >= tables->size(),
                 "Tld without table %u", mi.tableId);
        const auto &table = (*tables)[mi.tableId].data;
        Word value = table[a & (table.size() - 1)];
        if (m.mech.l0DataStore) {
            Tick grant = l0Ports[mi.row * m.cols + mi.col].acquire(ready);
            actMaxIssue = std::max(actMaxIssue, grant);
            done = grant + cyclesToTicks(m.l0Latency);
        } else {
            // Table lives in cached memory; pay a full L1 round trip.
            Tick issue = issuePort(mi.row, mi.col).acquire(ready);
            actMaxIssue = std::max(actMaxIssue, issue);
            Tick atEdge = mesh.routeToEdge(here, issue + ticksPerCycle);
            Addr byteAddr = tableByteBase[mi.tableId] + a * wordBytes;
            Tick served = mem.cachedTiming(row, byteAddr, atEdge, false);
            done = mesh.routeFromEdge(row, here, served);
        }
        result = value;
        break;
      }
      default: {
        // Ordinary computation on the tile's functional units.
        const auto &info = isa::opInfo(mi.op);
        Tick issue = issuePort(mi.row, mi.col).acquire(ready);
        if (info.fu == isa::FuClass::FpDiv) {
            issue = divPorts[mi.row * m.cols + mi.col].acquire(issue);
        }
        actMaxIssue = std::max(actMaxIssue, issue);
        done = issue + cyclesToTicks(info.latency);
        result = isa::evalOp(mi.op, a, b, c, mi.imm);
        break;
      }
    }

    actMaxTick = std::max(actMaxTick, done);

    // Serialize operand injection at the producer, then route each copy
    // over its prebuilt path.
    sim::Resource &inject = injectPorts[mi.row * m.cols + mi.col];
    const TargetRoute *r = curPaths->routes.data() + curPaths->first[idx];
    for (const auto &t : mi.targets) {
        Tick injT = inject.acquire(done);
        Tick arrive = mesh.route(here, r->to,
                                 curPaths->links.data() + r->path, injT);
        ++r;
        if (mi.regTile)
            arrive += m.hopTicks; // edge crossing from the register tile
        deliver(t, result, arrive);
    }
}

Tick
BlockEngine::channelDeliver(unsigned row, uint8_t wordIdx, noc::Coord dst,
                            Tick ready)
{
    Tick grant = mem.smc().channelLane(row, wordIdx).acquire(ready);
    unsigned vdist = dst.row > row ? dst.row - row : row - dst.row;
    return grant + 1 + (dst.col + vdist) * m.hopTicks;
}

void
BlockEngine::deliver(const isa::Target &target, Word value, Tick when)
{
    actMaxTick = std::max(actMaxTick, when);
    uint32_t idx = target.inst;
    uint8_t slot = target.srcSlot;

    // The capture must fit an InlineFn: this + payload words only. The
    // activation context (block, stats) is reached through members, and
    // the arrival tick is the queue's clock when the event fires.
    eq.schedule(when, [this, idx, slot, value] {
        Tick arrive = eq.curTick();
        const MappedInst &mi = curBlock->insts[idx];
        InstState &st = state[idx];
        panic_if(slot >= mi.numSrcs,
                 "operand delivered to bad slot %u of %s", slot,
                 isa::disasm(mi).c_str());
        st.operand[slot] = value;
        st.present[slot] = true;
        if (!st.fired && !st.sawOperand) {
            st.sawOperand = true;
            st.firstOperand = arrive;
        }
        if (st.fired)
            return;
        if (mi.onceOnly && firedCount >= expectedCount)
            return;
        for (unsigned s = 0; s < mi.numSrcs; ++s)
            if (!st.present[s])
                return;
        execute(*curBlock, idx, arrive, *curStats);
    });
}

void
BlockEngine::captureEpochSnapshot(epoch::Snapshot &s, const RunStats &stats)
{
    s.res.resize(tracked.size());
    for (size_t i = 0; i < tracked.size(); ++i)
        s.res[i] = {tracked[i]->grants(), tracked[i]->waitedTicks()};

    // Raw (pre-preDump) copies: derived stats recompute from these at
    // dump time, so they need no deltas of their own. Short operand
    // waits and the mesh's short stalls are counted apart until folded
    // into their distributions.
    foldWaits();
    mesh.foldStalls();
    s.groups.clear();
    StatGroup *groups[] = {&engStats, &mesh.statsGroup(),
                           &mem.smc().statsGroup(), &mem.statsGroup()};
    for (StatGroup *g : groups) {
        epoch::GroupRaw raw;
        raw.name = g->groupName();
        for (const auto &[n, st] : g->all())
            raw.scalars[n] = st.get();
        raw.dists = g->allDistributions();
        raw.vectors = g->allVectors();
        s.groups.push_back(std::move(raw));
    }

    s.eqScheduled = eq.scheduledEvents();
    s.eqExecuted = eq.executedEvents();
    s.eqDiscarded = eq.discardedEvents();

    s.smcReads = mem.smc().reads();
    s.smcWrites = mem.smc().writes();
    s.smcWords = mem.smc().wordsRead();
    s.smcLast = mem.smc().lastBankActivity();

    s.meshRouted = mesh.operandsRouted();
    s.meshHops = mesh.totalHops();
    s.meshContention = mesh.contentionTicks();
    s.meshLast = mesh.lastLinkActivity();

    s.l1Hits = mem.l1().hits();
    s.l1Misses = mem.l1().misses();
    s.l2Hits = mem.l2().hits();
    s.l2Misses = mem.l2().misses();
    s.mainMemAccesses = mem.mainMemory().accesses();

    s.instsExecuted = stats.instsExecuted;
    s.usefulOps = stats.usefulOps;
    s.activations = stats.activations;
    s.mappings = stats.mappings;

    s.sigLast = lastSignature;
    s.sigStreak = signatureStreak;
}

void
BlockEngine::captureEpochTails(std::vector<epoch::ResourceTail> &out,
                               Tick origin)
{
    // tailSince() skips intervals retired below the floor, so the tails
    // do not depend on when each calendar last freed their storage.
    out.resize(tracked.size());
    for (size_t i = 0; i < tracked.size(); ++i) {
        tracked[i]->tailSince(origin, out[i].busy);
        out[i].lastEnd = int64_t(tracked[i]->nextFree()) - int64_t(origin);
    }
}

void
BlockEngine::replayEpochFires(
    const std::vector<const MappedBlock *> &unitBlocks,
    const epoch::EpochPlan &plan)
{
    // The recorded order is the event kernel's invocation order, so
    // every producer precedes its consumers here (even same-tick fires
    // carry later sequence numbers). Writing result words straight into
    // consumer operand slots is therefore causal. Timing is untouched:
    // the plan already proved it identical every unit.
    size_t fi = 0;
    for (size_t act = 0; act < plan.fireCounts.size(); ++act) {
        const MappedBlock &block = *unitBlocks[act];
        // A fresh mapping resets instruction state, exactly as
        // runActivation's (re)initialization would.
        if (plan.fresh[act])
            state.assign(block.insts.size(), InstState{});
        for (uint64_t n = 0; n < plan.fireCounts[act]; ++n, ++fi) {
            const auto &f = plan.fires[fi];
            const MappedInst &mi = block.insts[f.idx];
            InstState &st = state[f.idx];
            Word a = st.operand[0];
            Word b = mi.immB ? mi.imm : st.operand[1];
            Word c = st.operand[2];
            Word result = 0;
            bool deliverResult = true;
            switch (mi.op) {
              case Op::Read:
                result = rf.at(static_cast<size_t>(mi.imm));
                break;
              case Op::Write:
                pendingWrites.emplace_back(static_cast<unsigned>(mi.imm),
                                           a);
                deliverResult = false;
                break;
              case Op::Ld:
                result = mem.smc().peek(a);
                break;
              case Op::Lmw:
                for (const auto &t : mi.targets)
                    state[t.inst].operand[t.srcSlot] =
                        mem.smc().peek(a + Addr(t.wordIdx) * mi.lmwStride);
                deliverResult = false;
                break;
              case Op::St:
                mem.smc().poke(a, b);
                result = b;
                break;
              case Op::Tld: {
                const auto &table = (*tables)[mi.tableId].data;
                result = table[a & (table.size() - 1)];
                break;
              }
              default:
                result = isa::evalOp(mi.op, a, b, c, mi.imm);
                break;
            }
            if (deliverResult)
                for (const auto &t : mi.targets)
                    state[t.inst].operand[t.srcSlot] = result;
        }

        // Commit register writes at the activation boundary, exactly as
        // the simulated activation would, then take its issue-width
        // sample with the recorded (bit-exact) value.
        for (const auto &w : pendingWrites)
            rf.at(w.first) = w.second;
        pendingWrites.clear();
        issueWidth->sample(plan.issueSamples[act]);
    }
}

void
BlockEngine::applyEpochCounters(const epoch::EpochPlan &plan, uint64_t iters)
{
    if (iters == 0)
        return;

    StatGroup *groups[] = {&engStats, &mesh.statsGroup(),
                           &mem.smc().statsGroup(), &mem.statsGroup()};
    panic_if(plan.groups.size() != std::size(groups),
             "epoch plan group count mismatch");
    for (size_t gi = 0; gi < plan.groups.size(); ++gi) {
        const epoch::GroupAdvance &adv = plan.groups[gi];
        StatGroup *g = groups[gi];
        for (const auto &[name, delta] : adv.scalars) {
            Stat *st = g->findScalar(name);
            panic_if(!st, "epoch plan names unknown scalar %s.%s",
                     g->groupName().c_str(), name.c_str());
            st->fastForward(delta, iters);
        }
        for (const auto &[name, d] : adv.dists) {
            Distribution *dist = g->findDistribution(name);
            panic_if(!dist, "epoch plan names unknown distribution %s.%s",
                     g->groupName().c_str(), name.c_str());
            dist->fastForward(d.counts, d.under, d.over, d.samples, d.sum,
                              d.sumSq, iters);
        }
        for (const auto &[name, delta] : adv.vectors) {
            VectorStat *v = g->findVector(name);
            panic_if(!v, "epoch plan names unknown vector %s.%s",
                     g->groupName().c_str(), name.c_str());
            v->fastForward(delta, iters);
        }
    }

    for (size_t i = 0; i < tracked.size(); ++i) {
        const auto &r = plan.res[i];
        if (r.cls == epoch::ResClass::Shift)
            tracked[i]->fastForwardCounters(r.grants * iters,
                                            r.wait * iters);
    }

    Tick span = plan.period * iters;
    mem.smc().fastForward(plan.smcReads * iters, plan.smcWrites * iters,
                          plan.smcWords * iters,
                          plan.smcLastAdvances ? span : 0);
    mesh.fastForward(plan.meshRouted * iters, plan.meshHops * iters,
                     plan.meshContention * iters,
                     plan.meshLastAdvances ? span : 0);
}

void
BlockEngine::shiftEpochCalendars(const epoch::EpochPlan &plan,
                                 uint64_t iters)
{
    Tick shift = plan.period * iters;
    for (size_t i = 0; i < tracked.size(); ++i)
        if (plan.res[i].cls == epoch::ResClass::Shift)
            tracked[i]->shiftCalendar(shift);
}

} // namespace dlp::core
