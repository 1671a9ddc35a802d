#include "sim/resource.hh"

#include <cinttypes>

namespace dlp::sim {

void
floorViolation(Tick earliest, Tick floor)
{
    panic("resource request at tick %" PRIu64 " below its floor (%" PRIu64
          ")",
          earliest, floor);
}

} // namespace dlp::sim
