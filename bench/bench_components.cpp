/**
 * @file
 * google-benchmark microbenchmarks of the simulator's substrates: mesh
 * routing, calendar resources, the MIMD ready set, cache tag probes, the
 * IR interpreter, the scheduler lowerings, the JSON export of a service
 * run, Blowfish's pi table and end-to-end simulation throughput. These
 * track simulator (host) performance, not simulated-machine performance.
 */

#include <benchmark/benchmark.h>

#include <malloc.h>

#include <vector>

#include "analysis/export.hh"
#include "arch/configs.hh"
#include "arch/multicore.hh"
#include "arch/processor.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "kernels/catalog.hh"
#include "kernels/interp.hh"
#include "kernels/workload.hh"
#include "mem/cache_model.hh"
#include "noc/mesh.hh"
#include "ref/pi_digits.hh"
#include "sched/linearize.hh"
#include "sched/simd_lowering.hh"
#include "sim/eventq.hh"
#include "sim/ready_set.hh"
#include "sim/resource.hh"

using namespace dlp;

static void
BM_MeshRoute(benchmark::State &state)
{
    noc::MeshNetwork mesh(8, 8);
    Rng rng(1);
    Tick t = 0;
    for (auto _ : state) {
        noc::Coord src{uint8_t(rng.below(8)), uint8_t(rng.below(8))};
        noc::Coord dst{uint8_t(rng.below(8)), uint8_t(rng.below(8))};
        benchmark::DoNotOptimize(mesh.route(src, dst, t++));
    }
}
BENCHMARK(BM_MeshRoute);

static void
BM_MeshRoutePath(benchmark::State &state)
{
    // BM_MeshRoute's random pairs, drawn up front as a tape with each
    // pair's XY path prebuilt, the way BlockEngine routes operands.
    noc::MeshNetwork mesh(8, 8);
    Rng rng(1);
    struct Leg
    {
        noc::Coord src, dst;
        uint32_t path;
    };
    std::vector<Leg> tape(4096);
    std::vector<noc::LinkId> links;
    for (Leg &leg : tape) {
        leg.src = {uint8_t(rng.below(8)), uint8_t(rng.below(8))};
        leg.dst = {uint8_t(rng.below(8)), uint8_t(rng.below(8))};
        leg.path = uint32_t(links.size());
        mesh.appendPath(leg.src, leg.dst, links);
    }
    Tick t = 0;
    size_t i = 0;
    for (auto _ : state) {
        const Leg &leg = tape[i++ & (tape.size() - 1)];
        benchmark::DoNotOptimize(
            mesh.route(leg.src, leg.dst, links.data() + leg.path, t++));
    }
}
BENCHMARK(BM_MeshRoutePath);

static void
BM_ResourceAcquireInOrder(benchmark::State &state)
{
    sim::Resource res(1);
    Tick t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(res.acquire(t += 2));
}
BENCHMARK(BM_ResourceAcquireInOrder);

static void
BM_ResourceAcquireScattered(benchmark::State &state)
{
    // One fixed batch of out-of-order acquires per iteration on a reset
    // calendar, as BM_EventQueue does: an unreset calendar fills as the
    // iteration count grows, so its number would depend on how many
    // iterations google-benchmark picks.
    sim::Resource res(1);
    std::vector<Tick> tape(4096);
    Rng rng(2);
    for (Tick &t : tape)
        t = rng.below(1 << 16);
    for (auto _ : state) {
        res.reset();
        for (Tick t : tape)
            benchmark::DoNotOptimize(res.acquire(t));
    }
    state.SetItemsProcessed(state.iterations() * int64_t(tape.size()));
}
BENCHMARK(BM_ResourceAcquireScattered);

static void
BM_CacheProbe(benchmark::State &state)
{
    mem::CacheModel cache("bench", 64 * 1024, 4, 32, 8, 2);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(rng.below(1 << 18), false));
}
BENCHMARK(BM_CacheProbe);

static void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue eq;
    for (auto _ : state) {
        eq.reset();
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Tick>(i * 3 % 17), [] {});
        eq.run();
    }
}
BENCHMARK(BM_EventQueue);

static void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    // The engines' dominant traffic: events landing a few ticks out,
    // inside the calendar ring. One batch = 64 schedules + 64 fires.
    sim::EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(static_cast<Tick>(1 + i % 7), [] {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleFire);

static void
BM_EventQueueBucketRollover(benchmark::State &state)
{
    // Chains hopping further than the ring covers: every hop slides the
    // window, exercising the occupancy bit-scan and overflow migration.
    sim::EventQueue eq;
    for (auto _ : state) {
        struct Chain
        {
            sim::EventQueue &q;
            int left;
            void
            operator()()
            {
                if (left-- > 0)
                    q.scheduleIn(300, *this);
            }
        };
        eq.schedule(eq.curTick(), Chain{eq, 64});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueBucketRollover);

static void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // Worst case for the two-tier split: everything lands in the
    // overflow heap first and migrates into the ring on the way out.
    sim::EventQueue eq;
    Rng rng(7);
    for (auto _ : state) {
        Tick base = eq.curTick();
        for (int i = 0; i < 64; ++i)
            eq.schedule(base + 10000 + rng.below(100000), [] {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarFuture);

static void
BM_MimdReadySet(benchmark::State &state)
{
    // MimdEngine::run's scheduler traffic over 64 tiles: pop the lowest
    // (tick, tile), peek the next tick, push the tile back -- mostly one
    // cycle out, sometimes after a dependency stall, now and then past
    // the 256-tick window. The tape of push-back distances is drawn up
    // front so the loop times the set alone.
    constexpr unsigned tiles = 64;
    std::vector<Tick> tape(4096);
    Rng rng(3);
    for (Tick &d : tape) {
        uint64_t r = rng.below(100);
        d = r < 70 ? 2 : r < 98 ? 1 + rng.below(64) : 256 + rng.below(400);
    }
    sim::ReadySet set(tiles);
    set.reset(0);
    for (unsigned t = 0; t < tiles; ++t)
        set.push(0, t);
    size_t i = 0;
    for (auto _ : state) {
        auto [when, tile] = set.pop();
        benchmark::DoNotOptimize(set.minTick());
        set.push(when + tape[i++ & (tape.size() - 1)], tile);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MimdReadySet);

static void
BM_ResourceAcquireMany(benchmark::State &state)
{
    // Multi-unit grants (memory banks, DMA bursts) on the bitmap calendar.
    sim::Resource res(2);
    Tick t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(res.acquireMany(t += 3, 4));
}
BENCHMARK(BM_ResourceAcquireMany);

static void
BM_ResourceAcquirePipelined(benchmark::State &state)
{
    // What the engines produce: each activation's 8 requests land
    // anywhere in a 64-tick window after its start, and the next
    // activation starts 12 ticks later, before that window closes, so
    // grants interleave out of order. The floor -- the current
    // activation's start -- only rises, which keeps the calendar at the
    // window's width however long this runs.
    sim::Resource res(1);
    Tick floor = 0;
    res.bindFloor(&floor);
    Rng rng(5);
    unsigned n = 0;
    for (auto _ : state) {
        if (++n % 8 == 0)
            floor += 12;
        benchmark::DoNotOptimize(res.acquire(floor + rng.below(64)));
    }
}
BENCHMARK(BM_ResourceAcquirePipelined);

static void
BM_ResourceAcquireOneTickScan(benchmark::State &state)
{
    // One-tick grants out of order: of each activation's 8 requests the
    // first lands past the others, so the other 7 fall behind the tail
    // run and search the bitmap for their idle tick. The floor rises 12
    // ticks per activation, as in BM_ResourceAcquirePipelined.
    sim::Resource res(1);
    Tick floor = 0;
    res.bindFloor(&floor);
    std::vector<Tick> tape(4096);
    Rng rng(8);
    for (size_t i = 0; i < tape.size(); ++i)
        tape[i] = i % 8 == 0 ? 64 + rng.below(8) : rng.below(64);
    size_t i = 0;
    for (auto _ : state) {
        if (i % 8 == 0)
            floor += 12;
        benchmark::DoNotOptimize(
            res.acquire(floor + tape[i++ & (tape.size() - 1)]));
    }
}
BENCHMARK(BM_ResourceAcquireOneTickScan);

static void
BM_InterpretRijndael(benchmark::State &state)
{
    auto k = kernels::makeRijndael();
    Rng rng(4);
    std::vector<Word> in(k.inWords), out(k.outWords);
    for (auto &w : in)
        w = rng.next();
    for (auto _ : state)
        kernels::interpret(k, 0, in.data(), out.data());
}
BENCHMARK(BM_InterpretRijndael);

static void
BM_LowerSimd(benchmark::State &state)
{
    auto k = kernels::makeVertexSimple();
    auto m = arch::configByName("S-O");
    sched::StreamLayout layout{0, 30000, 60000};
    for (auto _ : state)
        benchmark::DoNotOptimize(sched::lowerSimd(k, m, layout));
}
BENCHMARK(BM_LowerSimd);

static void
BM_LowerMimd(benchmark::State &state)
{
    auto k = kernels::makeVertexSimple();
    auto m = arch::configByName("M-D");
    sched::StreamLayout layout{0, 30000, 60000};
    for (auto _ : state)
        benchmark::DoNotOptimize(sched::lowerMimd(k, m, layout));
}
BENCHMARK(BM_LowerMimd);

static void
BM_EndToEndConvert(benchmark::State &state)
{
    setQuietLogging(true);
    for (auto _ : state) {
        auto wl = kernels::makeWorkload("convert", 256, 5);
        arch::TripsProcessor cpu(arch::configByName("S-O"));
        auto res = cpu.run(*wl);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_EndToEndConvert);

/**
 * A 50k-request ServiceResult, the size of one capacity point's. The
 * request records are random but shaped like served ones, integral
 * ticks included.
 */
static arch::ServiceResult
syntheticService()
{
    arch::ServiceResult result;
    result.config = "S-O-D";
    result.cores = 4;
    Rng rng(6);
    double tick = 0.0;
    for (uint64_t i = 0; i < 50000; ++i) {
        arch::RequestRecord r;
        r.index = i;
        r.mixIndex = uint32_t(rng.below(3));
        r.seedSlot = uint32_t(rng.below(2));
        r.core = unsigned(rng.below(result.cores));
        tick += double(rng.below(400));
        r.arrival = tick;
        r.start = tick + double(rng.below(2000));
        r.finish = r.start + double(rng.below(50000));
        result.requests.push_back(r);
    }
    return result;
}

/**
 * The serve export at one capacity point's size: analysis::toJson of
 * the synthetic ServiceResult, json::write of the document, and freeing
 * both.
 */
static void
BM_JsonServiceExport(benchmark::State &state)
{
    const arch::ServiceResult result = syntheticService();
    size_t bytes = 0;
    for (auto _ : state) {
        std::string text = json::write(analysis::toJson(result));
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
        bytes += text.size();
    }
    state.SetBytesProcessed(int64_t(bytes));
}
BENCHMARK(BM_JsonServiceExport)->Unit(benchmark::kMillisecond);

/**
 * json::write alone on the document BM_JsonServiceExport builds, built
 * once outside the timed loop, so the writer's cost shows apart from
 * analysis::toJson's.
 */
static void
BM_JsonWrite(benchmark::State &state)
{
    const json::Value doc = analysis::toJson(syntheticService());
    size_t bytes = 0;
    for (auto _ : state) {
        std::string text = json::write(doc);
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
        bytes += text.size();
    }
    state.SetBytesProcessed(int64_t(bytes));
}
BENCHMARK(BM_JsonWrite)->Unit(benchmark::kMillisecond);

/**
 * json::parse of the export BM_JsonServiceExport writes, and freeing
 * the document: the path the result store's reads and warm reruns take.
 */
static void
BM_JsonParse(benchmark::State &state)
{
    const std::string text =
        json::write(analysis::toJson(syntheticService()));
    for (auto _ : state) {
        json::Value doc = json::parse(text);
        benchmark::DoNotOptimize(&doc);
    }
    state.SetBytesProcessed(int64_t(state.iterations() * text.size()));
}
BENCHMARK(BM_JsonParse)->Unit(benchmark::kMillisecond);

/** Blowfish's 1,042 pi words (18 P + 4 x 256 S-box), which the first
 *  Blowfish key schedule in a process builds. */
static void
BM_PiFractionWords(benchmark::State &state)
{
    const size_t count = size_t(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(ref::piFractionWords(count));
}
BENCHMARK(BM_PiFractionWords)->Arg(18 + 4 * 256)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // perfbench's allocator settings: keep freed memory in the process,
    // so the JSON benchmarks time JSON code rather than the page faults
    // of mapping and trimming their multi-megabyte buffers each time.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_TOP_PAD, 64 << 20);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
