#include "noc/mesh.hh"

#include <cinttypes>

#include "obs/timeline.hh"

namespace dlp::noc {

MeshNetwork::MeshNetwork(unsigned nrows, unsigned ncols, Tick hop)
    : rows(nrows), cols(ncols), hopTicks(hop),
      links(4 * size_t(nrows) * ncols + 2 * size_t(nrows), sim::Resource(1))
{
    panic_if(rows == 0 || cols == 0, "degenerate mesh %ux%u", rows, cols);
    panic_if(links.size() > size_t(LinkId(~0)) + 1,
             "mesh %ux%u has more links than a LinkId can name", rows,
             cols);
    size_t tiles = size_t(rows) * cols;
    auto at = [this](size_t t) {
        return Coord{uint8_t(t / cols), uint8_t(t % cols)};
    };
    for (size_t t = 0; t < tiles; ++t) {
        edgeStart.push_back(uint32_t(edgeLinks.size()));
        appendToEdgePath(at(t), edgeLinks);
    }
    for (unsigned r = 0; r < rows; ++r) {
        for (size_t t = 0; t < tiles; ++t) {
            edgeStart.push_back(uint32_t(edgeLinks.size()));
            appendFromEdgePath(r, at(t), edgeLinks);
        }
    }
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
        size_t tiles = size_t(rows) * cols;
        for (size_t i = 0; i < links.size(); ++i) {
            const sim::Resource &link = links[i];
            unsigned d = i < 4 * tiles ? unsigned(i / tiles)
                                       : 4 + unsigned((i - 4 * tiles) / rows);
            byDir.inc(d, double(link.grants()));
            if (lastActivity > 0) {
                double busy = double(link.grants()) *
                              double(link.interval());
                util.sample(busy / double(lastActivity));
            }
        }
    });
}

Tick
MeshNetwork::route(Coord src, Coord dst, Tick inject)
{
    scratchPath.clear();
    appendPath(src, dst, scratchPath);
    return route(src, dst, scratchPath.data(), inject);
}

Tick
MeshNetwork::route(Coord src, Coord dst, const LinkId *path, Tick inject)
{
    ++routed;

    // Local bypass: the ALU result feeds its own reservation stations for
    // free on the same tick.
    if (src == dst)
        return inject;

    unsigned n = distance(src, dst);
    Tick t = walk(path, n, inject);
    account(n, inject, t);
    OBS_SIM_SPAN(Mesh, "flit", inject, t - inject, n);
    return t;
}

Tick
MeshNetwork::routeToEdge(Coord src, Tick inject)
{
    panic_if(src.row >= rows || src.col >= cols, "edge route from off-grid");
    ++routed;

    // The walk ends by crossing from column 0 into the row's memory port.
    size_t k = size_t(src.row) * cols + src.col;
    Tick arrive = walk(&edgeLinks[edgeStart[k]], src.col + 1u, inject);
    account(src.col + 1u, inject, arrive);
    OBS_SIM_SPAN(Mesh, "toEdge", inject, arrive - inject, src.col + 1);
    return arrive;
}

Tick
MeshNetwork::routeFromEdge(unsigned row, Coord dst, Tick inject)
{
    panic_if(row >= rows, "edge route from bad row %u", row);
    panic_if(dst.row >= rows || dst.col >= cols, "edge route to off-grid");
    ++routed;

    // The walk starts by crossing from the memory port into column 0.
    size_t tiles = size_t(rows) * cols;
    size_t k = tiles + row * tiles + size_t(dst.row) * cols + dst.col;
    unsigned n = 1 + distance(Coord{uint8_t(row), 0}, dst);
    Tick t = walk(&edgeLinks[edgeStart[k]], n, inject);
    account(n, inject, t);
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
    for (auto &link : links)
        link.reset();
    routed = 0;
    hops = 0;
    contention = 0;
    lastActivity = 0;
    smallStalls.fill(0);
    statGroup.resetAll();
}

} // namespace dlp::noc
