/**
 * @file
 * Unit tests for the mesh operand network and the memory system.
 */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"
#include "mem/memory_system.hh"
#include "noc/mesh.hh"

using namespace dlp;
using namespace dlp::noc;
using namespace dlp::mem;

// ---------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------

TEST(Mesh, LocalBypassIsFree)
{
    MeshNetwork mesh(8, 8);
    EXPECT_EQ(mesh.route({3, 3}, {3, 3}, 100), 100u);
}

TEST(Mesh, UncontendedLatencyIsHopCount)
{
    MeshNetwork mesh(8, 8, /*hopTicks=*/1);
    // XY route (1,1) -> (4,5): 4 column hops + 3 row hops = 7 ticks.
    EXPECT_EQ(mesh.route({1, 1}, {4, 5}, 0), 7u);
}

TEST(Mesh, DistanceIsManhattan)
{
    MeshNetwork mesh(8, 8);
    EXPECT_EQ(mesh.distance({0, 0}, {7, 7}), 14u);
    EXPECT_EQ(mesh.distance({2, 5}, {2, 5}), 0u);
}

TEST(Mesh, ContentionSerializesALink)
{
    MeshNetwork mesh(4, 4, 1);
    // Two operands over the same first link at the same tick: the
    // second waits one tick at the link.
    Tick a = mesh.route({0, 0}, {0, 3}, 10);
    Tick b = mesh.route({0, 0}, {0, 3}, 10);
    EXPECT_EQ(a, 13u);
    EXPECT_EQ(b, 14u);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    MeshNetwork mesh(4, 4, 1);
    Tick a = mesh.route({0, 0}, {0, 1}, 10);
    Tick b = mesh.route({3, 3}, {3, 2}, 10);
    EXPECT_EQ(a, 11u);
    EXPECT_EQ(b, 11u);
}

TEST(Mesh, EdgeRoundTripCrossesPort)
{
    MeshNetwork mesh(4, 4, 1);
    // Tile (2,2) to its row edge: 2 west hops + the edge crossing.
    EXPECT_EQ(mesh.routeToEdge({2, 2}, 0), 3u);
    // Back from the edge to (2,2).
    EXPECT_EQ(mesh.routeFromEdge(2, {2, 2}, 10), 13u);
}

TEST(Mesh, CountsHopsAndOperands)
{
    MeshNetwork mesh(4, 4, 1);
    mesh.route({0, 0}, {1, 1}, 0);
    EXPECT_EQ(mesh.operandsRouted(), 1u);
    EXPECT_EQ(mesh.totalHops(), 2u);
}

TEST(Mesh, StallHistogramMatchesPerHopSampling)
{
    // A seeded mix of the three route kinds, then two bursts that queue
    // operands for up to 149 ticks at one link. Every field of the
    // stall histogram is pinned to the values the mesh produced when
    // each hop sampled the distribution directly; short stalls are now
    // counted apart and folded in at dump time.
    MeshNetwork mesh(4, 4, 1);
    uint64_t s = 2024;
    auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    };
    auto tile = [&next] {
        return Coord{uint8_t(next() % 4), uint8_t(next() % 4)};
    };
    for (int i = 0; i < 6000; ++i) {
        Tick inject = Tick(i / 3) + next() % 16;
        switch (next() % 3) {
          case 0:
            mesh.route(tile(), tile(), inject);
            break;
          case 1:
            mesh.routeToEdge(tile(), inject);
            break;
          default:
            mesh.routeFromEdge(unsigned(next() % 4), tile(), inject);
            break;
        }
    }
    for (int i = 0; i < 150; ++i)
        mesh.route({1, 0}, {3, 3}, 2500);
    for (int i = 0; i < 90; ++i)
        mesh.routeToEdge({2, 3}, 2600);

    GroupSnapshot snap = mesh.statsGroup().snapshot();
    const Distribution &d = snap.distributions.at("contentionStallTicks");
    const uint64_t buckets[16] = {18330, 132, 9, 4, 4, 4, 4, 4,
                                  4,     4,   4, 4, 4, 4, 4, 4};
    ASSERT_EQ(d.numBuckets(), 16u);
    for (size_t b = 0; b < 16; ++b)
        EXPECT_EQ(d.bucket(b), buckets[b]) << "bucket " << b;
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 176u);
    EXPECT_EQ(d.samples(), 18699u);
    EXPECT_EQ(d.minValue(), 0.0);
    EXPECT_EQ(d.maxValue(), 149.0);
    EXPECT_EQ(d.sum(), 16256.0);
    EXPECT_EQ(d.sumSq(), 1354220.0);
    EXPECT_EQ(mesh.totalHops(), 18699u);
    EXPECT_EQ(mesh.contentionTicks(), 16256u);
    EXPECT_EQ(mesh.operandsRouted(), 6240u);
}

// ---------------------------------------------------------------------
// Cache model
// ---------------------------------------------------------------------

TEST(Cache, MissesThenHits)
{
    CacheModel cache("t", 8 * 1024, 2, 32, 2, 2);
    EXPECT_FALSE(cache.probe(0x1000, false));
    EXPECT_TRUE(cache.probe(0x1000, false));
    EXPECT_TRUE(cache.probe(0x1008, false)); // same line
    EXPECT_FALSE(cache.probe(0x1040, false));
}

TEST(Cache, LruEviction)
{
    // 2-way, 1 set per bank at this size: three distinct lines mapping
    // to the same set evict the least recently used.
    CacheModel cache("t", 2 * 32 * 2, 2, 32, 2, 1);
    // Bank selection is line-interleaved; pick same-bank lines (stride
    // = banks * lineBytes).
    EXPECT_FALSE(cache.probe(0 * 64, false));
    EXPECT_FALSE(cache.probe(1 * 64 * 2, false));
    EXPECT_TRUE(cache.probe(0, false));
    EXPECT_FALSE(cache.probe(4 * 64 * 2, false)); // evicts LRU (line 128)
    EXPECT_FALSE(cache.probe(1 * 64 * 2, false));
}

TEST(Cache, WritesDoNotAllocate)
{
    CacheModel cache("t", 8 * 1024, 2, 32, 2, 2);
    EXPECT_FALSE(cache.probe(0x2000, true));
    EXPECT_FALSE(cache.probe(0x2000, false)); // still a miss, then fills
    EXPECT_TRUE(cache.probe(0x2000, false));
}

// ---------------------------------------------------------------------
// Memory system
// ---------------------------------------------------------------------

TEST(MemorySystem, SmcReadWritesRoundTrip)
{
    MemParams p;
    MemorySystem mem(p, /*smc=*/true);
    mem.smc().poke(100, 42);
    Word out[2] = {0, 0};
    mem.streamRead(0, 100, 1, 0, out);
    EXPECT_EQ(out[0], 42u);
    mem.streamWrite(3, 200, 7, 0);
    EXPECT_EQ(mem.smc().peek(200), 7u);
}

TEST(MemorySystem, StridedStreamRead)
{
    MemParams p;
    MemorySystem mem(p, true);
    for (int i = 0; i < 8; ++i)
        mem.smc().poke(i * 8, 100 + i);
    Word out[8];
    mem.streamRead(0, 0, 8, 0, out, /*stride=*/8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], Word(100 + i));
}

TEST(MemorySystem, WideReadAmortizesThePort)
{
    MemParams p;
    MemorySystem mem(p, true);
    // 8 contiguous words = 2 line slots; 8 scalar reads = 8 line slots.
    Tick wide = mem.streamRead(0, 0, 8, 0, nullptr) ;
    MemorySystem mem2(p, true);
    Tick scalarEnd = 0;
    for (int i = 0; i < 8; ++i)
        scalarEnd = mem2.streamRead(0, i, 1, 0, nullptr);
    EXPECT_LT(wide, scalarEnd);
}

TEST(MemorySystem, BaselineFallsBackToCaches)
{
    MemParams p;
    MemorySystem mem(p, /*smc=*/false);
    mem.smc().poke(5, 99);
    Word out = 0;
    Tick smcTime;
    {
        MemorySystem fast(p, true);
        fast.smc().poke(5, 99);
        smcTime = fast.streamRead(0, 5, 1, 0, &out);
    }
    Tick slowTime = mem.streamRead(0, 5, 1, 0, &out);
    EXPECT_EQ(out, 99u);
    // First access misses all the way to main memory on the baseline.
    EXPECT_GT(slowTime, smcTime);
    EXPECT_GT(mem.l1().misses(), 0u);
}

TEST(MemorySystem, CachedAccessWarmsUp)
{
    MemParams p;
    MemorySystem mem(p, true);
    mem.mainMemory().writeWord(0x1000, 77);
    Word v = 0;
    Tick cold = mem.cachedRead(0, 0x1000, 0, v);
    EXPECT_EQ(v, 77u);
    Tick warmStart = cold;
    Tick warm = mem.cachedRead(0, 0x1000, warmStart, v) - warmStart;
    EXPECT_LT(warm, cold);
}

TEST(MemorySystem, DmaChargesBandwidth)
{
    MemParams p;
    MemorySystem mem(p, true);
    Tick small = mem.dma(0, 64, 0);
    MemorySystem mem2(p, true);
    Tick large = mem2.dma(0, 4096, 0);
    EXPECT_GT(large, small);
}
