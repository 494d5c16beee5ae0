#include "ftnoc/features.h"

#include <gtest/gtest.h>

#include <vector>

namespace rlftnoc {
namespace {

FeatureSnapshot sample_snapshot() {
  FeatureSnapshot s;
  s.buffer_util = 0.35;
  s.in_link_util = {0.05, 0.10, 0.15, 0.20, 0.02};
  s.out_link_util = {0.06, 0.12, 0.18, 0.24, 0.01};
  s.in_nack_rate = {0.0, 0.001, 0.01, 0.1, 0.0};
  s.out_nack_rate = {0.0, 0.0, 0.005, 0.05, 0.0};
  s.temperature_c = 83.0;
  return s;
}

std::vector<double> features(const FeatureSnapshot& s, bool per_port = false) {
  std::vector<double> v(
      static_cast<std::size_t>(FeatureSnapshot::num_features(per_port)));
  s.fill_vector(v, per_port);
  return v;
}

DiscreteState discrete(const FeatureSnapshot& s, bool per_port = false) {
  DiscreteState d;
  s.discretize_into(d, per_port);
  return d;
}

TEST(Features, VectorSizes) {
  const FeatureSnapshot s = sample_snapshot();
  std::vector<double> buf(
      static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
  EXPECT_EQ(s.fill_vector(buf, false),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesAggregated));
  EXPECT_EQ(s.fill_vector(buf, true),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
  EXPECT_EQ(discrete(s, false).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesAggregated));
  EXPECT_EQ(discrete(s, true).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
}

TEST(Features, AggregatedVectorContents) {
  const FeatureSnapshot s = sample_snapshot();
  const auto v = features(s, false);
  EXPECT_DOUBLE_EQ(v[0], 0.35);
  EXPECT_NEAR(v[1], (0.05 + 0.10 + 0.15 + 0.20 + 0.02) / 5.0, 1e-12);  // mean in
  EXPECT_DOUBLE_EQ(v[2], 0.20);   // max in
  EXPECT_DOUBLE_EQ(v[4], 0.24);   // max out
  EXPECT_DOUBLE_EQ(v[5], 0.1);    // max in-nack
  EXPECT_DOUBLE_EQ(v[6], 0.05);   // max out-nack
  EXPECT_DOUBLE_EQ(v[7], 83.0);
}

TEST(Features, PerPortVectorOrdering) {
  const FeatureSnapshot s = sample_snapshot();
  const auto v = features(s, true);
  EXPECT_DOUBLE_EQ(v[0], 0.35);
  EXPECT_DOUBLE_EQ(v[1], 0.05);                 // first in-util
  EXPECT_DOUBLE_EQ(v[6], 0.06);                 // first out-util
  EXPECT_DOUBLE_EQ(v[11], 0.0);                 // first in-nack
  EXPECT_DOUBLE_EQ(v[21], 83.0);                // temperature
}

TEST(Features, FillVectorWritesEveryFeatureBothLayouts) {
  // fill_vector reports exactly the layout's width and overwrites every
  // slot of it (DT training and inference read this exact layout).
  FeatureSnapshot s = sample_snapshot();
  s.out_link_dead = {0.0, 1.0, 0.0, 0.0, 1.0};
  for (const bool per_port : {false, true}) {
    const auto n = static_cast<std::size_t>(FeatureSnapshot::num_features(per_port));
    std::vector<double> got(n + 1, -1.0);
    EXPECT_EQ(s.fill_vector(got, per_port), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_GE(got[i], 0.0) << "slot " << i;
    EXPECT_EQ(got[n], -1.0);  // nothing past the layout is touched
  }
}

TEST(Features, DiscretizeIntoReusesStaleScratch) {
  FeatureSnapshot s = sample_snapshot();
  s.out_link_dead = {1.0, 0.0, 0.0, 1.0, 0.0};
  // Reuse with stale larger contents (the per-port layout): clear-then-fill
  // must leave exactly the new layout, not a mix.
  DiscreteState scratch;
  s.discretize_into(scratch, true);
  ASSERT_EQ(scratch.size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
  s.discretize_into(scratch, false);
  EXPECT_EQ(scratch, discrete(s, false));
  s.discretize_into(scratch, true);
  EXPECT_EQ(scratch, discrete(s, true));
}

TEST(Features, DiscretizationBins) {
  FeatureSnapshot s = sample_snapshot();
  const DiscreteState d = discrete(s, false);
  // buffer 0.35 in [0,1)/5 -> bin 1
  EXPECT_EQ(d[0], 1);
  // temp 83 in [50,100]/5 -> bin 3
  EXPECT_EQ(d[7], 3);
  // max in-util 0.20 in [0,0.3]/5 -> bin 3
  EXPECT_EQ(d[2], 3);
}

TEST(Features, TemperatureBinSweep) {
  // Temperature is the 8th aggregated feature (index 7); the dead-link
  // count now sits behind it.
  FeatureSnapshot s;
  s.temperature_c = 49.0;
  EXPECT_EQ(discrete(s)[7], 0);
  s.temperature_c = 65.0;
  EXPECT_EQ(discrete(s)[7], 1);
  s.temperature_c = 75.0;
  EXPECT_EQ(discrete(s)[7], 2);
  s.temperature_c = 85.0;
  EXPECT_EQ(discrete(s)[7], 3);
  s.temperature_c = 99.0;
  EXPECT_EQ(discrete(s)[7], 4);
  s.temperature_c = 140.0;
  EXPECT_EQ(discrete(s)[7], 4);
}

TEST(Features, DeadLinkFeature) {
  FeatureSnapshot s = sample_snapshot();
  // Fault-free: the dead-link feature is exactly zero in both layouts.
  EXPECT_DOUBLE_EQ(features(s, false).back(), 0.0);
  EXPECT_EQ(discrete(s, false).back(), 0);
  EXPECT_EQ(discrete(s, true).back(), 0);

  s.out_link_dead[port_index(Port::kEast)] = 1.0;
  s.out_link_dead[port_index(Port::kNorth)] = 1.0;
  EXPECT_DOUBLE_EQ(features(s, false).back(), 2.0 / 5.0);  // dead fraction
  EXPECT_EQ(discrete(s, false).back(), 2);                // dead count
  const DiscreteState per_port = discrete(s, true);
  EXPECT_EQ(per_port[22 + static_cast<int>(port_index(Port::kEast))], 1);
  EXPECT_EQ(per_port[22 + static_cast<int>(port_index(Port::kWest))], 0);
}

TEST(Features, IdenticalSnapshotsDiscretizeEqually) {
  const FeatureSnapshot a = sample_snapshot();
  const FeatureSnapshot b = sample_snapshot();
  EXPECT_EQ(discrete(a, false), discrete(b, false));
  EXPECT_EQ(discrete(a, true), discrete(b, true));
}

TEST(Features, SmallPerturbationWithinBinKeepsState) {
  FeatureSnapshot a = sample_snapshot();
  FeatureSnapshot b = a;
  b.temperature_c += 0.5;
  b.buffer_util += 0.01;
  EXPECT_EQ(discrete(a), discrete(b));
}

TEST(Thresholds, ClassifyBands) {
  const ErrorLevelThresholds t;
  EXPECT_EQ(t.classify(0.0), OpMode::kMode0);
  EXPECT_EQ(t.classify(t.low / 2), OpMode::kMode0);
  EXPECT_EQ(t.classify(t.low * 1.01), OpMode::kMode1);
  EXPECT_EQ(t.classify(t.medium * 1.01), OpMode::kMode2);
  EXPECT_EQ(t.classify(t.high * 1.01), OpMode::kMode3);
  EXPECT_EQ(t.classify(1.0), OpMode::kMode3);
}

TEST(Thresholds, OrderingInvariant) {
  const ErrorLevelThresholds t;
  EXPECT_LT(t.low, t.medium);
  EXPECT_LT(t.medium, t.high);
}

}  // namespace
}  // namespace rlftnoc
