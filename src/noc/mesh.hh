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
 */

#ifndef DLP_NOC_MESH_HH
#define DLP_NOC_MESH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace.hh"
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
     * Route an operand from a tile to its row's west-edge memory port
     * (or back). One extra hop crosses from column 0 into the port.
     */
    Tick routeToEdge(Coord src, Tick inject);
    Tick routeFromEdge(unsigned row, Coord dst, Tick inject);

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
        for (auto *set : {&east, &west, &south, &north, &edgeOut, &edgeIn})
            for (auto &link : *set)
                fn(link);
    }

  private:
    const char *dlpTraceName() const { return "mesh"; }

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

    /**
     * Walk from tile `from` to tile `to`, X first then Y, starting at
     * tick t; the arrival tick.
     */
    Tick walkXY(Coord from, Coord to, Tick t);

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

    // Four unidirectional link sets indexed by source tile: E, W, S, N,
    // plus the per-row edge links into/out of the memory ports.
    std::vector<sim::Resource> east;
    std::vector<sim::Resource> west;
    std::vector<sim::Resource> south;
    std::vector<sim::Resource> north;
    std::vector<sim::Resource> edgeOut;
    std::vector<sim::Resource> edgeIn;

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
