/**
 * @file
 * Unit tests for the mesh operand network and the memory system.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

namespace {

/**
 * The link ids the mesh's original X-then-Y walk visited: it stepped
 * one tile index through four per-direction link sets, which the flat
 * link array lays out in the order east, west, south, north.
 */
std::vector<LinkId>
fourLoopWalk(unsigned cols, size_t tiles, Coord from, Coord to)
{
    enum : size_t { east, west, south, north };
    std::vector<LinkId> out;
    size_t idx = size_t(from.row) * cols + from.col;
    for (unsigned c = from.col; c < to.col; ++c)
        out.push_back(LinkId(east * tiles + idx++));
    for (unsigned c = from.col; c > to.col; --c)
        out.push_back(LinkId(west * tiles + idx--));
    for (unsigned r = from.row; r < to.row; ++r, idx += cols)
        out.push_back(LinkId(south * tiles + idx));
    for (unsigned r = from.row; r > to.row; --r, idx -= cols)
        out.push_back(LinkId(north * tiles + idx));
    return out;
}

} // namespace

TEST(Mesh, PathsFollowTheFourLoopWalk)
{
    for (auto [rows, cols] : {std::pair{8u, 8u}, std::pair{3u, 5u}}) {
        MeshNetwork mesh(rows, cols);
        size_t tiles = size_t(rows) * cols;
        auto at = [cols](size_t t) {
            return Coord{uint8_t(t / cols), uint8_t(t % cols)};
        };
        for (size_t a = 0; a < tiles; ++a) {
            for (size_t b = 0; b < tiles; ++b) {
                std::vector<LinkId> path;
                mesh.appendPath(at(a), at(b), path);
                EXPECT_EQ(path, fourLoopWalk(cols, tiles, at(a), at(b)))
                    << rows << "x" << cols << " " << a << "->" << b;
                EXPECT_EQ(path.size(), mesh.distance(at(a), at(b)));
            }
            // To the edge: west along the row, then out of the port,
            // whose links follow the four tile sets.
            Coord src = at(a);
            std::vector<LinkId> toEdge =
                fourLoopWalk(cols, tiles, src, Coord{src.row, 0});
            toEdge.push_back(LinkId(4 * tiles + src.row));
            std::vector<LinkId> built;
            mesh.appendToEdgePath(src, built);
            EXPECT_EQ(built, toEdge) << "to edge " << a;
            // From every row's port into column 0, then XY to the tile.
            for (unsigned row = 0; row < rows; ++row) {
                std::vector<LinkId> fromEdge{LinkId(4 * tiles + rows + row)};
                for (LinkId l : fourLoopWalk(cols, tiles,
                                             Coord{uint8_t(row), 0}, src))
                    fromEdge.push_back(l);
                built.clear();
                mesh.appendFromEdgePath(row, src, built);
                EXPECT_EQ(built, fromEdge)
                    << "from row " << row << " edge to " << a;
            }
        }
    }
}

TEST(Mesh, PrebuiltPathsRouteLikeOnTheFlyPaths)
{
    // The same contended tape through route() with and without a
    // prebuilt path: every arrival and counter agrees.
    MeshNetwork built(4, 4, 1), onTheFly(4, 4, 1);
    uint64_t s = 77;
    auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    };
    std::vector<LinkId> path;
    for (int i = 0; i < 5000; ++i) {
        Coord a{uint8_t(next() % 4), uint8_t(next() % 4)};
        Coord b{uint8_t(next() % 4), uint8_t(next() % 4)};
        Tick inject = Tick(i / 4) + next() % 8;
        path.clear();
        built.appendPath(a, b, path);
        ASSERT_EQ(built.route(a, b, path.data(), inject),
                  onTheFly.route(a, b, inject))
            << "step " << i;
    }
    EXPECT_EQ(built.totalHops(), onTheFly.totalHops());
    EXPECT_EQ(built.contentionTicks(), onTheFly.contentionTicks());
    EXPECT_EQ(built.operandsRouted(), onTheFly.operandsRouted());
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
