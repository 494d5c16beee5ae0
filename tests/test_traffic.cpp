#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "coding/crc.h"
#include "common/config.h"
#include "common/rng.h"
#include "noc/ni.h"
#include "sim/campaign.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

const MeshTopology kTopo(8, 8);

TEST(Patterns, TransposeIsInvolution) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kTranspose, n, kTopo);
    EXPECT_EQ(pattern_destination(TrafficPattern::kTranspose, d, kTopo), n);
  }
}

TEST(Patterns, BitComplementIsInvolution) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kBitComplement, n, kTopo);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, kTopo.num_nodes());
    EXPECT_EQ(pattern_destination(TrafficPattern::kBitComplement, d, kTopo), n);
  }
}

TEST(Patterns, TornadoHalfWidthShift) {
  const NodeId d = pattern_destination(TrafficPattern::kTornado, kTopo.node(0, 3), kTopo);
  EXPECT_EQ(d, kTopo.node(3, 3));
}

TEST(Patterns, NeighborWraps) {
  EXPECT_EQ(pattern_destination(TrafficPattern::kNeighbor, kTopo.node(7, 2), kTopo),
            kTopo.node(0, 2));
}

TEST(Patterns, BitReverseStaysInRange) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kBitReverse, n, kTopo);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, kTopo.num_nodes());
  }
}

TEST(Patterns, NamesAreDistinct) {
  EXPECT_STRNE(traffic_pattern_name(TrafficPattern::kUniform),
               traffic_pattern_name(TrafficPattern::kTornado));
}

TEST(Patterns, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(TrafficPattern::kHotspot); ++i) {
    const auto p = static_cast<TrafficPattern>(i);
    EXPECT_EQ(traffic_pattern_from_name(traffic_pattern_name(p)), p);
  }
  EXPECT_FALSE(traffic_pattern_from_name("canneal").has_value());
  EXPECT_FALSE(traffic_pattern_from_name("?").has_value());
}

TEST(SyntheticTraffic, RespectsPacketBudget) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.5;
  o.total_packets = 100;
  SyntheticTraffic gen(kTopo, o, 1);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 1000 && !gen.exhausted(); ++t) gen.tick(t, out);
  EXPECT_TRUE(gen.exhausted());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(gen.generated(), 100u);
}

TEST(SyntheticTraffic, InjectionRateApproximatelyMet) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.packet_len = 4;
  o.total_packets = 0;  // unlimited
  SyntheticTraffic gen(kTopo, o, 2);
  std::vector<Packet> out;
  const Cycle cycles = 20000;
  for (Cycle t = 0; t < cycles; ++t) gen.tick(t, out);
  std::uint64_t flits = 0;
  for (const Packet& p : out) flits += p.flits.size();
  const double rate = static_cast<double>(flits) / cycles / kTopo.num_nodes();
  EXPECT_NEAR(rate, 0.08, 0.008);
}

TEST(SyntheticTraffic, NoSelfPackets) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.3;
  o.total_packets = 2000;
  SyntheticTraffic gen(kTopo, o, 3);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 2000 && !gen.exhausted(); ++t) gen.tick(t, out);
  for (const Packet& p : out) EXPECT_NE(p.src, p.dst);
}

TEST(SyntheticTraffic, HotspotConcentratesTraffic) {
  SyntheticTraffic::Options o;
  o.pattern = TrafficPattern::kHotspot;
  o.injection_rate = 0.2;
  o.hotspot_fraction = 0.5;
  o.total_packets = 5000;
  SyntheticTraffic gen(kTopo, o, 4);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 10000 && !gen.exhausted(); ++t) gen.tick(t, out);
  std::uint64_t to_hot = 0;
  const auto hot = std::vector<NodeId>{kTopo.node(4, 4), kTopo.node(3, 4),
                                       kTopo.node(4, 3), kTopo.node(3, 3)};
  for (const Packet& p : out) {
    for (const NodeId h : hot) {
      if (p.dst == h) {
        ++to_hot;
        break;
      }
    }
  }
  // Expect far above the uniform share (4/64) of packets at the hot nodes.
  EXPECT_GT(static_cast<double>(to_hot) / static_cast<double>(out.size()), 0.3);
}

TEST(SyntheticTraffic, DeterministicBySeed) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.1;
  o.total_packets = 200;
  SyntheticTraffic a(kTopo, o, 5);
  SyntheticTraffic b(kTopo, o, 5);
  std::vector<Packet> va;
  std::vector<Packet> vb;
  for (Cycle t = 0; t < 1000; ++t) {
    a.tick(t, va);
    b.tick(t, vb);
  }
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].src, vb[i].src);
    EXPECT_EQ(va[i].dst, vb[i].dst);
    EXPECT_EQ(va[i].inject_cycle, vb[i].inject_cycle);
  }
}

TEST(Parsec, SuiteHasEightDistinctBenchmarks) {
  const auto& suite = parsec_suite();
  EXPECT_EQ(suite.size(), 8u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(Parsec, LookupByName) {
  EXPECT_EQ(parsec_profile("canneal").name, "canneal");
  EXPECT_THROW(parsec_profile("doom"), std::invalid_argument);
}

TEST(Parsec, MeanRateApproximatelyMet) {
  ParsecProfile prof = parsec_profile("ferret");
  prof.total_packets = 0xFFFFFFFF;  // effectively unlimited
  ParsecTraffic gen(kTopo, prof, 6);
  std::vector<Packet> out;
  const Cycle cycles = 60000;
  for (Cycle t = 0; t < cycles; ++t) gen.tick(t, out);
  std::uint64_t flits = 0;
  for (const Packet& p : out) flits += p.flits.size();
  const double rate = static_cast<double>(flits) / cycles / kTopo.num_nodes();
  EXPECT_NEAR(rate, prof.injection_rate, prof.injection_rate * 0.25);
}

TEST(Parsec, McTrafficConcentration) {
  ParsecProfile prof = parsec_profile("canneal");
  prof.total_packets = 20000;
  ParsecTraffic gen(kTopo, prof, 7);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 100000 && !gen.exhausted(); ++t) gen.tick(t, out);
  const auto mcs = default_mc_nodes(kTopo);
  std::uint64_t to_mc = 0;
  for (const Packet& p : out) {
    for (const NodeId mc : mcs) {
      if (p.dst == mc) {
        ++to_mc;
        break;
      }
    }
  }
  const double frac = static_cast<double>(to_mc) / static_cast<double>(out.size());
  EXPECT_GT(frac, prof.mc_fraction * 0.8);
}

TEST(Parsec, MixedPacketLengths) {
  ParsecProfile prof = parsec_profile("dedup");
  prof.total_packets = 5000;
  ParsecTraffic gen(kTopo, prof, 8);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 100000 && !gen.exhausted(); ++t) gen.tick(t, out);
  std::uint64_t shorts = 0;
  for (const Packet& p : out) {
    ASSERT_TRUE(p.flits.size() == 1 ||
                p.flits.size() == static_cast<std::size_t>(prof.data_packet_len));
    if (p.flits.size() == 1) ++shorts;
  }
  EXPECT_NEAR(static_cast<double>(shorts) / static_cast<double>(out.size()),
              prof.short_packet_fraction, 0.05);
}

// ---------------------------------------------------------------------------
// Gated tick draws: the generators compile their per-node Bernoulli
// probabilities into Rng gates once per tick. These references are the
// ungated ticks (plain Rng::bernoulli on the same doubles); both must consume
// the stream draw for draw, which the packet payloads (drawn from the same
// stream) would expose at the first divergence.
// ---------------------------------------------------------------------------

class UngatedParsecReference {
 public:
  UngatedParsecReference(const MeshTopology& topo, ParsecProfile profile,
                         std::uint64_t seed)
      : topo_(topo),
        profile_(std::move(profile)),
        rng_(seed, "parsec:" + profile_.name),
        bursting_(static_cast<std::size_t>(topo.num_nodes()), false),
        mc_nodes_(default_mc_nodes(topo)) {}

  bool exhausted() const { return generated_ >= profile_.total_packets; }

  void tick(Cycle now, std::vector<Packet>& out) {
    if (exhausted()) return;
    const double p_on = profile_.p_enter_burst /
                        (profile_.p_enter_burst + profile_.p_exit_burst);
    const double mean_scale = 1.0 + p_on * (profile_.burst_on_rate_scale - 1.0);
    const double base_rate = profile_.injection_rate / mean_scale;
    const double avg_len =
        profile_.short_packet_fraction * 1.0 +
        (1.0 - profile_.short_packet_fraction) * profile_.data_packet_len;
    for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
      if (exhausted()) break;
      const auto idx = static_cast<std::size_t>(src);
      if (bursting_[idx]) {
        if (rng_.bernoulli(profile_.p_exit_burst)) bursting_[idx] = false;
      } else {
        if (rng_.bernoulli(profile_.p_enter_burst)) bursting_[idx] = true;
      }
      const double rate =
          base_rate * (bursting_[idx] ? profile_.burst_on_rate_scale : 1.0);
      if (!rng_.bernoulli(rate / avg_len)) continue;
      const NodeId dst = pick_destination(src);
      const int len = rng_.bernoulli(profile_.short_packet_fraction)
                          ? 1
                          : profile_.data_packet_len;
      out.push_back(make_packet(next_id_++, src, dst, len, now, rng_));
      ++generated_;
    }
  }

 private:
  NodeId pick_destination(NodeId src) {
    if (rng_.bernoulli(profile_.mc_fraction)) {
      NodeId best = mc_nodes_.front();
      for (const NodeId mc : mc_nodes_) {
        if (topo_.distance(src, mc) < topo_.distance(src, best)) best = mc;
      }
      if (best != src) return best;
    }
    if (rng_.bernoulli(profile_.locality)) {
      std::vector<NodeId> nearby;
      const Coord c = topo_.coord(src);
      const int r = profile_.locality_radius;
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          if (std::abs(dx) + std::abs(dy) > r) continue;
          const int x = c.x + dx;
          const int y = c.y + dy;
          if (x < 0 || x >= topo_.width() || y < 0 || y >= topo_.height()) continue;
          const NodeId cand = topo_.node(x, y);
          if (cand != src) nearby.push_back(cand);
        }
      }
      if (!nearby.empty()) return nearby[rng_.next_below(nearby.size())];
    }
    NodeId dst = src;
    while (dst == src)
      dst = static_cast<NodeId>(
          rng_.next_below(static_cast<std::uint64_t>(topo_.num_nodes())));
    return dst;
  }

  MeshTopology topo_;
  ParsecProfile profile_;
  Rng rng_;
  std::vector<bool> bursting_;
  std::vector<NodeId> mc_nodes_;
  std::uint64_t generated_ = 0;
  PacketId next_id_ = 1;  // the ParsecTraffic default (parsec.h)
};

class UngatedPretrainReference {
 public:
  UngatedPretrainReference(const MeshTopology& topo, std::uint64_t seed)
      : topo_(topo), rng_(seed, "pretrain") {}

  void tick(Cycle now, std::vector<Packet>& out) {
    const std::size_t level =
        static_cast<std::size_t>(now / period_) % levels_.size();
    const double p = levels_[level] / packet_len_;
    const bool hotspot_half = (now / (period_ / 2)) % 2 == 1;
    const int w = topo_.width();
    const int h = topo_.height();
    const std::array<NodeId, 4> hot = {
        topo_.node(std::min(1, w - 1), std::min(1, h - 1)),
        topo_.node(std::max(w - 2, 0), std::min(1, h - 1)),
        topo_.node(std::min(1, w - 1), std::max(h - 2, 0)),
        topo_.node(std::max(w - 2, 0), std::max(h - 2, 0))};
    for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
      if (!rng_.bernoulli(p)) continue;
      NodeId dst = src;
      if (hotspot_half && rng_.bernoulli(0.45)) {
        dst = hot[rng_.next_below(hot.size())];
        if (dst == src) continue;
      } else {
        while (dst == src)
          dst = static_cast<NodeId>(
              rng_.next_below(static_cast<std::uint64_t>(topo_.num_nodes())));
      }
      out.push_back(make_packet(next_id_++, src, dst, packet_len_, now, rng_));
    }
  }

 private:
  MeshTopology topo_;
  Rng rng_;
  // The PretrainTraffic defaults (traffic.h).
  std::vector<double> levels_ = {0.02, 0.04, 0.07, 0.10};
  Cycle period_ = 20000;
  int packet_len_ = 4;
  PacketId next_id_ = 0x100000000ULL;
};

void expect_same_packets(const std::vector<Packet>& got,
                         const std::vector<Packet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].inject_cycle, want[i].inject_cycle);
    ASSERT_EQ(got[i].flits.size(), want[i].flits.size());
    for (std::size_t k = 0; k < got[i].flits.size(); ++k)
      ASSERT_EQ(got[i].flits[k].payload, want[i].flits[k].payload);
  }
}

TEST(GatedTick, ParsecMatchesUngatedDrawForDraw) {
  ParsecProfile prof = parsec_profile("canneal");
  prof.total_packets = 12000;
  ParsecTraffic gen(kTopo, prof, 11);
  UngatedParsecReference ref(kTopo, prof, 11);
  std::vector<Packet> got, want;
  for (Cycle t = 0; t < 200000 && !gen.exhausted(); ++t) {
    gen.tick(t, got);
    ref.tick(t, want);
  }
  EXPECT_TRUE(gen.exhausted());
  EXPECT_TRUE(ref.exhausted());
  expect_same_packets(got, want);
}

TEST(GatedTick, PretrainMatchesUngatedDrawForDraw) {
  // Four levels x 20K cycles: every rate level and both hotspot halves.
  const MeshTopology topo(4, 4);
  PretrainTraffic gen(topo, 12);
  UngatedPretrainReference ref(topo, 12);
  std::vector<Packet> got, want;
  for (Cycle t = 0; t < 80000; ++t) {
    gen.tick(t, got);
    ref.tick(t, want);
  }
  ASSERT_GT(got.size(), 1000u);
  expect_same_packets(got, want);
}

// ---------------------------------------------------------------------------
// make_traffic: the one selector -> TrafficGenerator resolver
// ---------------------------------------------------------------------------

SimOptions mesh4_options() {
  SimOptions opt;
  opt.seed = 5;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  return opt;
}

TEST(MakeTraffic, ParsecBudgetOfZeroStillYieldsAPacket) {
  const auto gen = make_traffic("canneal", mesh4_options(), Config{}, 0);
  EXPECT_EQ(gen->name(), "canneal");
  std::vector<Packet> out;
  for (Cycle t = 0; t < 1'000'000 && !gen->exhausted(); ++t) gen->tick(t, out);
  EXPECT_TRUE(gen->exhausted());
  EXPECT_GE(out.size(), 1u);
}

TEST(MakeTraffic, EverySyntheticPatternNameResolves) {
  Config cfg;
  cfg.set("packets", "3");
  cfg.set("injection_rate", "1.0");
  for (int i = 0; i <= static_cast<int>(TrafficPattern::kHotspot); ++i) {
    const char* name = traffic_pattern_name(static_cast<TrafficPattern>(i));
    const auto gen = make_traffic(name, mesh4_options(), cfg, 100);
    EXPECT_EQ(gen->name(), name);
    std::vector<Packet> out;
    for (Cycle t = 0; t < 1000 && !gen->exhausted(); ++t) gen->tick(t, out);
    EXPECT_EQ(out.size(), 3u) << name;
  }
}

TEST(MakeTraffic, UnknownSelectorListsAllFourKinds) {
  try {
    make_traffic("doom", mesh4_options(), Config{}, 100);
    FAIL() << "expected make_traffic to throw";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'doom'"), std::string::npos) << msg;
    for (const char* kind : {"workload file", "built-in generator",
                             "PARSEC profile", "synthetic pattern"}) {
      EXPECT_NE(msg.find(kind), std::string::npos) << kind << ": " << msg;
    }
  }
}

TEST(MakePacket, FlitStructure) {
  Rng rng(1);
  const Packet p = make_packet(7, 2, 9, 4, 100, rng);
  ASSERT_EQ(p.flits.size(), 4u);
  EXPECT_EQ(p.flits[0].type, FlitType::kHead);
  EXPECT_EQ(p.flits[1].type, FlitType::kBody);
  EXPECT_EQ(p.flits[2].type, FlitType::kBody);
  EXPECT_EQ(p.flits[3].type, FlitType::kTail);
  for (const Flit& f : p.flits) {
    EXPECT_EQ(f.packet_id, 7u);
    EXPECT_EQ(f.src, 2);
    EXPECT_EQ(f.dst, 9);
    EXPECT_EQ(f.packet_len, 4u);
    EXPECT_EQ(f.packet_inject_cycle, 100u);
    EXPECT_EQ(f.crc, default_crc32().compute(f.payload));
  }
  const Packet single = make_packet(8, 0, 1, 1, 0, rng);
  EXPECT_EQ(single.flits[0].type, FlitType::kHeadTail);
}

}  // namespace
}  // namespace rlftnoc
