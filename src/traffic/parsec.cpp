#include "traffic/parsec.h"

#include <stdexcept>
#include <vector>

#include "noc/ni.h"

namespace rlftnoc {

const std::vector<ParsecProfile>& parsec_suite() {
  // Rates/burstiness/locality follow the qualitative ordering reported in
  // PARSEC NoC traffic studies: blackscholes/swaptions are light and smooth,
  // canneal/x264 are heavy with bursty, poorly localized access patterns.
  static const std::vector<ParsecProfile> kSuite = {
      {.name = "blackscholes", .injection_rate = 0.020, .burst_on_rate_scale = 2.0,
       .p_enter_burst = 0.001, .p_exit_burst = 0.020, .locality = 0.60,
       .locality_radius = 2, .short_packet_fraction = 0.60, .data_packet_len = 4,
       .total_packets = 120000},
      {.name = "bodytrack", .injection_rate = 0.040, .burst_on_rate_scale = 2.5,
       .p_enter_burst = 0.002, .p_exit_burst = 0.015, .locality = 0.50,
       .locality_radius = 2, .short_packet_fraction = 0.55, .data_packet_len = 4,
       .total_packets = 180000},
      {.name = "canneal", .injection_rate = 0.070, .burst_on_rate_scale = 3.0,
       .p_enter_burst = 0.004, .p_exit_burst = 0.010, .locality = 0.20,
       .locality_radius = 2, .short_packet_fraction = 0.40, .data_packet_len = 4,
       .total_packets = 300000},
      {.name = "dedup", .injection_rate = 0.055, .burst_on_rate_scale = 3.5,
       .p_enter_burst = 0.003, .p_exit_burst = 0.012, .locality = 0.35,
       .locality_radius = 2, .short_packet_fraction = 0.45, .data_packet_len = 4,
       .total_packets = 220000},
      {.name = "ferret", .injection_rate = 0.055, .burst_on_rate_scale = 2.5,
       .p_enter_burst = 0.002, .p_exit_burst = 0.012, .locality = 0.40,
       .locality_radius = 2, .short_packet_fraction = 0.50, .data_packet_len = 4,
       .total_packets = 210000},
      {.name = "fluidanimate", .injection_rate = 0.045, .burst_on_rate_scale = 2.0,
       .p_enter_burst = 0.002, .p_exit_burst = 0.015, .locality = 0.65,
       .locality_radius = 1, .short_packet_fraction = 0.55, .data_packet_len = 4,
       .total_packets = 180000},
      {.name = "swaptions", .injection_rate = 0.025, .burst_on_rate_scale = 2.0,
       .p_enter_burst = 0.001, .p_exit_burst = 0.020, .locality = 0.55,
       .locality_radius = 2, .short_packet_fraction = 0.60, .data_packet_len = 4,
       .total_packets = 110000},
      {.name = "x264", .injection_rate = 0.062, .burst_on_rate_scale = 4.0,
       .p_enter_burst = 0.005, .p_exit_burst = 0.010, .locality = 0.30,
       .locality_radius = 2, .short_packet_fraction = 0.35, .data_packet_len = 4,
       .total_packets = 250000},
  };
  return kSuite;
}

const ParsecProfile& parsec_profile(const std::string& name) {
  for (const ParsecProfile& p : parsec_suite()) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("unknown PARSEC profile: " + name);
}

std::vector<NodeId> default_mc_nodes(const Grid& grid) {
  // One controller per quadrant, one tile in from the corner (a common
  // CMP floorplan); degenerates gracefully on small meshes.
  const int x0 = std::min(1, grid.width() - 1);
  const int y0 = std::min(1, grid.height() - 1);
  const int x1 = std::max(grid.width() - 2, 0);
  const int y1 = std::max(grid.height() - 2, 0);
  return {grid.node(x0, y0), grid.node(x1, y0), grid.node(x0, y1),
          grid.node(x1, y1)};
}

ParsecTraffic::ParsecTraffic(const Grid& grid, ParsecProfile profile,
                             std::uint64_t seed)
    : grid_(grid),
      profile_(std::move(profile)),
      rng_(seed, "parsec:" + profile_.name),
      bursting_(static_cast<std::size_t>(grid.num_nodes()), false),
      mc_nodes_(default_mc_nodes(grid)) {}

NodeId ParsecTraffic::pick_destination(NodeId src) {
  if (rng_.bernoulli(profile_.mc_fraction)) {
    // Memory access: send to the nearest memory controller (address-
    // interleaved in reality; nearest keeps it simple and still spatial).
    NodeId best = mc_nodes_.front();
    for (const NodeId mc : mc_nodes_) {
      if (grid_.distance(src, mc) < grid_.distance(src, best)) best = mc;
    }
    if (best != src) return best;
  }
  if (rng_.bernoulli(profile_.locality)) {
    // Nearby destination: uniform over the Manhattan ball around src.
    std::vector<NodeId> nearby;
    const Coord c = grid_.coord(src);
    for (int dy = -profile_.locality_radius; dy <= profile_.locality_radius; ++dy) {
      for (int dx = -profile_.locality_radius; dx <= profile_.locality_radius; ++dx) {
        if (std::abs(dx) + std::abs(dy) > profile_.locality_radius) continue;
        const int x = c.x + dx;
        const int y = c.y + dy;
        if (x < 0 || x >= grid_.width() || y < 0 || y >= grid_.height()) continue;
        const NodeId cand = grid_.node(x, y);
        if (cand != src) nearby.push_back(cand);
      }
    }
    if (!nearby.empty()) return nearby[rng_.next_below(nearby.size())];
  }
  NodeId dst = src;
  while (dst == src)
    dst = static_cast<NodeId>(rng_.next_below(static_cast<std::uint64_t>(grid_.num_nodes())));
  return dst;
}

void ParsecTraffic::tick(Cycle now, std::vector<Packet>& out) {
  if (exhausted()) return;
  // Mean-preserving ON/OFF modulation: the baseline rate is chosen so the
  // long-run average matches `injection_rate`.
  const double p_on = profile_.p_enter_burst /
                      (profile_.p_enter_burst + profile_.p_exit_burst);
  const double mean_scale = 1.0 + p_on * (profile_.burst_on_rate_scale - 1.0);
  const double base_rate = profile_.injection_rate / mean_scale;
  const double avg_len = profile_.short_packet_fraction * 1.0 +
                         (1.0 - profile_.short_packet_fraction) * profile_.data_packet_len;
  // The per-node draws go through gates compiled once per tick from the very
  // doubles bernoulli() would see, which is bit-identical (see rng.h).
  const std::uint64_t exit_gate = Rng::bernoulli_gate(profile_.p_exit_burst);
  const std::uint64_t enter_gate = Rng::bernoulli_gate(profile_.p_enter_burst);
  const std::uint64_t on_gate = Rng::bernoulli_gate(
      base_rate * profile_.burst_on_rate_scale / avg_len);
  const std::uint64_t off_gate = Rng::bernoulli_gate(base_rate / avg_len);

  for (NodeId src = 0; src < grid_.num_nodes(); ++src) {
    if (exhausted()) break;
    auto idx = static_cast<std::size_t>(src);
    if (bursting_[idx]) {
      if (rng_.bernoulli_gated(exit_gate)) bursting_[idx] = false;
    } else {
      if (rng_.bernoulli_gated(enter_gate)) bursting_[idx] = true;
    }
    if (!rng_.bernoulli_gated(bursting_[idx] ? on_gate : off_gate)) continue;

    const NodeId dst = pick_destination(src);
    const int len = rng_.bernoulli(profile_.short_packet_fraction)
                        ? 1
                        : profile_.data_packet_len;
    out.push_back(make_packet(next_id_++, src, dst, len, now, rng_));
    ++generated_;
  }
}

}  // namespace rlftnoc
