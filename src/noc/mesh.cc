#include "noc/mesh.hh"

#include <cinttypes>

#include "obs/timeline.hh"

namespace dlp::noc {

MeshNetwork::MeshNetwork(unsigned nrows, unsigned ncols, Tick hop)
    : rows(nrows), cols(ncols), hopTicks(hop),
      east(static_cast<size_t>(nrows) * ncols, sim::Resource(1)),
      west(static_cast<size_t>(nrows) * ncols, sim::Resource(1)),
      south(static_cast<size_t>(nrows) * ncols, sim::Resource(1)),
      north(static_cast<size_t>(nrows) * ncols, sim::Resource(1)),
      edgeOut(nrows, sim::Resource(1)),
      edgeIn(nrows, sim::Resource(1))
{
    panic_if(rows == 0 || cols == 0, "degenerate mesh %ux%u", rows, cols);
    initStats();
}

void
MeshNetwork::initStats()
{
    // Stalls longer than ~2 activations of a saturated link land in the
    // overflow bin; the interesting shape is the low end.
    stallDist = &statGroup.distribution("contentionStallTicks", 0.0, 32.0,
                                        16);
    statGroup.formula("avgHopsPerOperand", [this] {
        return routed ? double(hops) / double(routed) : 0.0;
    });
    statGroup.formula("avgStallPerHop", [this] {
        return hops ? double(contention) / double(hops) : 0.0;
    });

    // Derived at dump time: busy fraction of every unidirectional link
    // over the interval the mesh was active, plus per-direction totals.
    statGroup.setPreDump([this] {
        foldStalls();
        statGroup.scalar("operandsRouted").set(double(routed));
        statGroup.scalar("totalHops").set(double(hops));
        statGroup.scalar("contentionTicks").set(double(contention));

        Distribution &util =
            statGroup.distribution("linkUtilization", 0.0, 1.0, 20);
        util.reset();
        // Direction order: east, west, south, north, edgeOut, edgeIn.
        VectorStat &byDir = statGroup.vector("grantsByDirection", 6);
        byDir.reset();
        const std::vector<sim::Resource> *sets[6] = {&east,    &west,
                                                     &south,   &north,
                                                     &edgeOut, &edgeIn};
        for (unsigned d = 0; d < 6; ++d) {
            for (const auto &link : *sets[d]) {
                byDir.inc(d, double(link.grants()));
                if (lastActivity > 0) {
                    double busy = double(link.grants()) *
                                  double(link.interval());
                    util.sample(busy / double(lastActivity));
                }
            }
        }
    });
}

Tick
MeshNetwork::walkXY(Coord from, Coord to, Tick t)
{
    size_t idx = static_cast<size_t>(from.row) * cols + from.col;
    for (unsigned c = from.col; c < to.col; ++c)
        t = hop(east[idx++], t);
    for (unsigned c = from.col; c > to.col; --c)
        t = hop(west[idx--], t);
    for (unsigned r = from.row; r < to.row; ++r, idx += cols)
        t = hop(south[idx], t);
    for (unsigned r = from.row; r > to.row; --r, idx -= cols)
        t = hop(north[idx], t);
    return t;
}

Tick
MeshNetwork::route(Coord src, Coord dst, Tick inject)
{
    panic_if(src.row >= rows || src.col >= cols, "route from off-grid");
    panic_if(dst.row >= rows || dst.col >= cols, "route to off-grid");
    ++routed;

    // Local bypass: the ALU result feeds its own reservation stations for
    // free on the same tick.
    if (src == dst)
        return inject;

    Tick t = walkXY(src, dst, inject);
    account(distance(src, dst), inject, t);
    DPRINTF(Mesh,
            "route (%u,%u)->(%u,%u) inject=%" PRIu64 " arrive=%" PRIu64
            " stall=%" PRIu64,
            src.row, src.col, dst.row, dst.col, inject, t,
            t - inject - Tick(distance(src, dst)) * hopTicks);
    OBS_SIM_SPAN(Mesh, "flit", inject, t - inject,
                 distance(src, dst));
    return t;
}

Tick
MeshNetwork::routeToEdge(Coord src, Tick inject)
{
    panic_if(src.row >= rows || src.col >= cols, "edge route from off-grid");
    ++routed;

    Tick t = walkXY(src, Coord{src.row, 0}, inject);
    // Cross from column 0 into the row's memory port.
    Tick arrive = hop(edgeOut[src.row], t);
    account(src.col + 1u, inject, arrive);
    DPRINTF(Mesh,
            "toEdge (%u,%u) inject=%" PRIu64 " at-port=%" PRIu64,
            src.row, src.col, inject, arrive);
    OBS_SIM_SPAN(Mesh, "toEdge", inject, arrive - inject, src.col + 1);
    return arrive;
}

Tick
MeshNetwork::routeFromEdge(unsigned row, Coord dst, Tick inject)
{
    panic_if(row >= rows, "edge route from bad row %u", row);
    panic_if(dst.row >= rows || dst.col >= cols, "edge route to off-grid");
    ++routed;

    // Cross from the memory port into column 0 of the row.
    Coord entry{static_cast<uint8_t>(row), 0};
    Tick t = walkXY(entry, dst, hop(edgeIn[row], inject));
    account(1 + distance(entry, dst), inject, t);
    DPRINTF(Mesh,
            "fromEdge row %u ->(%u,%u) inject=%" PRIu64 " arrive=%" PRIu64,
            row, dst.row, dst.col, inject, t);
    OBS_SIM_SPAN(Mesh, "fromEdge", inject, t - inject, dst.col + 1);
    return t;
}

void
MeshNetwork::foldStalls()
{
    for (size_t v = 0; v < smallStalls.size(); ++v) {
        if (smallStalls[v]) {
            stallDist->sample(double(v), smallStalls[v]);
            smallStalls[v] = 0;
        }
    }
}

void
MeshNetwork::reset()
{
    for (auto *set : {&east, &west, &south, &north, &edgeOut, &edgeIn})
        for (auto &link : *set)
            link.reset();
    routed = 0;
    hops = 0;
    contention = 0;
    lastActivity = 0;
    smallStalls.fill(0);
    statGroup.resetAll();
}

} // namespace dlp::noc
