#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coding/crc.h"
#include "common/rng.h"
#include "noc/ni.h"
#include "traffic/parsec.h"
#include "traffic/trace.h"
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

TEST(Trace, RoundTripThroughText) {
  std::vector<TraceRecord> recs = {
      {0, 1, 2, 4}, {5, 3, 4, 1}, {5, 0, 7, 4}, {12, 6, 1, 2}};
  std::ostringstream os;
  write_trace(os, recs);
  std::istringstream is(os.str());
  const auto back = read_trace(is);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].cycle, recs[i].cycle);
    EXPECT_EQ(back[i].src, recs[i].src);
    EXPECT_EQ(back[i].dst, recs[i].dst);
    EXPECT_EQ(back[i].len, recs[i].len);
  }
}

TEST(Trace, RejectsMalformedInput) {
  std::istringstream unsorted("5 0 1 4\n2 0 1 4\n");
  EXPECT_THROW(read_trace(unsorted), std::runtime_error);
  std::istringstream short_line("5 0\n");
  EXPECT_THROW(read_trace(short_line), std::runtime_error);
  std::istringstream bad_len("5 0 1 0\n");
  EXPECT_THROW(read_trace(bad_len), std::runtime_error);
}

TEST(Trace, ErrorsNameLineAndOffendingToken) {
  // A garbage first token used to be silently skipped as if the line were a
  // comment; it must now raise an error quoting line number and token.
  std::istringstream garbage("1 0 1 4\ncycel 0 5 1\n");
  try {
    read_trace(garbage);
    FAIL() << "expected read_trace to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'cycel'"), std::string::npos) << msg;
  }
  // Missing fields report which field was expected.
  std::istringstream short_line("7 3\n");
  try {
    read_trace(short_line);
    FAIL() << "expected read_trace to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dst"), std::string::npos) << msg;
  }
  // Extra fields are an error too, naming the trailing token.
  std::istringstream trailing("7 3 4 1 bogus\n");
  try {
    read_trace(trailing);
    FAIL() << "expected read_trace to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
  }
}

TEST(Trace, CaptureOfExhaustedGeneratorThrows) {
  SyntheticTraffic::Options o;
  o.injection_rate = 1.0;
  o.total_packets = 1;
  SyntheticTraffic gen(kTopo, o, 9);
  std::vector<Packet> sink;
  for (Cycle t = 0; t < 64 && !gen.exhausted(); ++t) gen.tick(t, sink);
  ASSERT_TRUE(gen.exhausted());
  EXPECT_THROW(capture_trace(gen, 100), std::invalid_argument);
}

TEST(Trace, SkipsCommentsAndBlanks) {
  std::istringstream in("# header\n\n1 0 1 4 # inline\n");
  const auto recs = read_trace(in);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].cycle, 1u);
}

TEST(Trace, CaptureAndReplayMatchesGenerator) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.1;
  o.total_packets = 300;
  SyntheticTraffic gen(kTopo, o, 9);
  const auto recs = capture_trace(gen, 5000);
  EXPECT_EQ(recs.size(), 300u);

  TraceTraffic replay(recs, 10);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 5001; ++t) replay.tick(t, out);
  EXPECT_TRUE(replay.exhausted());
  ASSERT_EQ(out.size(), recs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].src, recs[i].src);
    EXPECT_EQ(out[i].dst, recs[i].dst);
    EXPECT_EQ(out[i].flits.size(), static_cast<std::size_t>(recs[i].len));
  }
}

TEST(Trace, LateTickDeliversBacklog) {
  std::vector<TraceRecord> recs = {{0, 0, 1, 1}, {10, 1, 2, 1}, {20, 2, 3, 1}};
  TraceTraffic replay(recs, 1);
  std::vector<Packet> out;
  replay.tick(15, out);  // catches up records at cycles 0 and 10
  EXPECT_EQ(out.size(), 2u);
  replay.tick(25, out);
  EXPECT_EQ(out.size(), 3u);
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
