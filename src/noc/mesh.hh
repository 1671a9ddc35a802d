/**
 * @file
 * The lightweight routed operand network connecting the ALU array.
 *
 * The TRIPS execution array forwards operands between ALUs over a 2-D mesh
 * with dimension-order (X-then-Y) routing. With the paper's 10FO4 clock at
 * 100 nm the hop delay between adjacent ALUs is half a cycle (one tick).
 *
 * The model is link-accurate for contention: every unidirectional link can
 * accept one operand per tick, and operands queue FCFS at busy links. This
 * captures the effect the paper leans on in Section 5.3 -- in MIMD mode
 * every load request is routed tile-to-edge through the mesh and the extra
 * traffic degrades the regular kernels relative to the SIMD configurations.
 *
 * Each row additionally has a memory port on its west edge (column 0 side)
 * through which loads, stores and register traffic leave the array.
 *
 * The links live in one flat array: the east, west, south and north
 * links of every tile (each set indexed by source tile), then the
 * per-row edgeOut and edgeIn links. A route is a path of link ids, and
 * forEachXYHop() is the one place that knows the X-then-Y hop order:
 * the mesh builds paths from it, and the static cost model charges its
 * per-link demand from it. Placement is static, so BlockEngine builds
 * each plan block's operand paths once per run and routes over them;
 * the mesh keeps every tile's edge paths from construction.
 */

#ifndef DLP_NOC_MESH_HH
#define DLP_NOC_MESH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/resource.hh"

namespace dlp::noc {

/** Coordinates of a tile in the array. */
struct Coord
{
    uint8_t row;
    uint8_t col;

    bool operator==(const Coord &o) const
    {
        return row == o.row && col == o.col;
    }
};

/** Link directions, in the order of the mesh's flat link array. */
enum class Dir : uint8_t
{
    East,
    West,
    South,
    North,
    EdgeOut,
    EdgeIn,
};

/**
 * Visit the hops of the dimension-order route from tile `from` to tile
 * `to`, X first then Y: fn(dir, row, col) once per hop, in order, with
 * (row, col) the tile the hop leaves.
 */
template <typename Fn>
void
forEachXYHop(Coord from, Coord to, Fn &&fn)
{
    unsigned r = from.row, c = from.col;
    for (; c < to.col; ++c)
        fn(Dir::East, r, c);
    for (; c > to.col; --c)
        fn(Dir::West, r, c);
    for (; r < to.row; ++r)
        fn(Dir::South, r, c);
    for (; r > to.row; --r)
        fn(Dir::North, r, c);
}

/** Index of a link in a mesh's flat link array. */
using LinkId = uint16_t;

/** A 2-D mesh with per-link FCFS contention. */
class MeshNetwork
{
  public:
    /**
     * @param rows     array height
     * @param cols     array width
     * @param hopTicks ticks to traverse one link (default: half a cycle)
     */
    MeshNetwork(unsigned rows, unsigned cols, Tick hopTicks = 1);

    /**
     * Route one operand from src to dst, injected at tick inject.
     * Same-tile forwarding is free (local bypass).
     *
     * @return the tick at which the operand arrives at dst.
     */
    Tick route(Coord src, Coord dst, Tick inject);

    /**
     * route() over a prebuilt path: `path` holds the distance(src, dst)
     * link ids that appendPath(src, dst, ...) appends.
     */
    Tick route(Coord src, Coord dst, const LinkId *path, Tick inject);

    /**
     * Route an operand from a tile to its row's west-edge memory port
     * (or back). One extra hop crosses from column 0 into the port.
     */
    Tick routeToEdge(Coord src, Tick inject);
    Tick routeFromEdge(unsigned row, Coord dst, Tick inject);

    /** The link a hop in direction dir leaves tile (row, col) by; for
     *  the edge links, col is ignored. */
    LinkId
    linkId(Dir dir, unsigned row, unsigned col) const
    {
        size_t tiles = size_t(rows) * cols;
        size_t d = size_t(dir);
        return LinkId(d < size_t(Dir::EdgeOut)
                          ? d * tiles + row * cols + col
                          : 4 * tiles + (d - size_t(Dir::EdgeOut)) * rows +
                                row);
    }

    /** Append the link ids of the XY route from src to dst to out. */
    void
    appendPath(Coord src, Coord dst, std::vector<LinkId> &out) const
    {
        panic_if(src.row >= rows || src.col >= cols, "path from off-grid");
        panic_if(dst.row >= rows || dst.col >= cols, "path to off-grid");
        forEachXYHop(src, dst, [&](Dir d, unsigned r, unsigned c) {
            out.push_back(linkId(d, r, c));
        });
    }

    /** Append the link ids of routeToEdge(src) to out. */
    void
    appendToEdgePath(Coord src, std::vector<LinkId> &out) const
    {
        appendPath(src, Coord{src.row, 0}, out);
        out.push_back(linkId(Dir::EdgeOut, src.row, 0));
    }

    /** Append the link ids of routeFromEdge(row, dst) to out. */
    void
    appendFromEdgePath(unsigned row, Coord dst,
                       std::vector<LinkId> &out) const
    {
        out.push_back(linkId(Dir::EdgeIn, row, 0));
        appendPath(Coord{uint8_t(row), 0}, dst, out);
    }

    /** Manhattan distance in hops between two tiles. */
    unsigned
    distance(Coord a, Coord b) const
    {
        return static_cast<unsigned>(
                   a.row > b.row ? a.row - b.row : b.row - a.row) +
               static_cast<unsigned>(
                   a.col > b.col ? a.col - b.col : b.col - a.col);
    }

    unsigned numRows() const { return rows; }
    unsigned numCols() const { return cols; }
    Tick hopDelay() const { return hopTicks; }

    uint64_t operandsRouted() const { return routed; }
    uint64_t totalHops() const { return hops; }
    Tick contentionTicks() const { return contention; }

    /** Latest link grant end (utilization reference point). */
    Tick lastLinkActivity() const { return lastActivity; }

    /**
     * Advance the raw routing counters by a replayed epoch's worth of
     * traffic without simulating it (epoch fast-forwarding). The
     * activity watermark moves by `lastAdvance` ticks; link calendars
     * are shifted separately through their Resources.
     */
    void
    fastForward(uint64_t routedDelta, uint64_t hopsDelta,
                Tick contentionDelta, Tick lastAdvance)
    {
        routed += routedDelta;
        hops += hopsDelta;
        contention += contentionDelta;
        lastActivity += lastAdvance;
    }

    /**
     * The mesh statistics group ("noc.mesh"): routing counters, a
     * per-hop contention-stall histogram, and — refreshed at dump time —
     * a per-link utilization distribution and per-direction grant
     * vector over the observed simulated interval.
     */
    StatGroup &statsGroup() { return statGroup; }

    /**
     * Fold the short per-hop stalls counted since the last call into
     * the contentionStallTicks distribution. The mesh's pre-dump does
     * this; call it before reading the raw distribution directly. The
     * sums are integers below 2^53, so the result is bit-identical to
     * sampling every hop as it happens.
     */
    void foldStalls();

    /** Clear all link occupancy and counters. */
    void reset();

    /** Visit every link resource (occupancy accounting). */
    template <typename Fn>
    void
    forEachLink(Fn &&fn)
    {
        for (auto &link : links)
            fn(link);
    }

  private:
    /** Register statistics and the pre-dump utilization refresh. */
    void initStats();

    /** Acquire link at ready, count the stall; the departure tick. */
    Tick
    hop(sim::Resource &link, Tick ready)
    {
        Tick grant = link.acquire(ready);
        Tick stall = grant - ready;
        if (stall < smallStalls.size())
            ++smallStalls[stall];
        else
            stallDist->sample(double(stall));
        return grant + hopTicks;
    }

    /** Hop the n links of path in order from tick t; the arrival. */
    Tick
    walk(const LinkId *path, size_t n, Tick t)
    {
        for (size_t i = 0; i < n; ++i)
            t = hop(links[path[i]], t);
        return t;
    }

    /** Count one route of n hops from inject to arrive. */
    void
    account(unsigned n, Tick inject, Tick arrive)
    {
        hops += n;
        contention += arrive - inject - Tick(n) * hopTicks;
        lastActivity = std::max(lastActivity, arrive);
    }

    unsigned rows;
    unsigned cols;
    Tick hopTicks;

    /// Every link, in Dir order: four unidirectional sets indexed by
    /// source tile (E, W, S, N), then the per-row edge links out of and
    /// into the memory ports.
    std::vector<sim::Resource> links;

    /// Every tile's routeToEdge path, then every (row, tile) pair's
    /// routeFromEdge path, back to back; edgeStart[k] is where path k
    /// starts (tile k, then row * tiles + tile).
    std::vector<LinkId> edgeLinks;
    std::vector<uint32_t> edgeStart;
    /// The path of a route() called without one.
    std::vector<LinkId> scratchPath;

    uint64_t routed = 0;
    uint64_t hops = 0;
    Tick contention = 0;
    Tick lastActivity = 0; ///< latest link grant end (for utilization)

    StatGroup statGroup{"noc.mesh"};
    Distribution *stallDist = nullptr; ///< per-hop contention stalls
    /// Hops that stalled v ticks, for v below 64, not yet in stallDist.
    std::array<uint64_t, 64> smallStalls{};
};

} // namespace dlp::noc

#endif // DLP_NOC_MESH_HH
