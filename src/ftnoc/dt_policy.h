// Decision-tree baseline (DiTomaso et al., MICRO-16).
//
// During the pre-training phase the policy gathers labeled samples — the
// observable feature vector paired with the error level derived from the
// ground-truth link error probability — while steering the network with the
// oracle mapping (supervised learning needs labeled behaviour to observe).
// At the end of pre-training a CART tree is fitted once; during warm-up and
// measurement the frozen tree predicts the error level from observable
// features and the router deploys the corresponding mode ("the training
// result of DT is no longer updated during testing phase").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dt/decision_tree.h"
#include "ftnoc/policy.h"

namespace rlftnoc {

class DtPolicy final : public ControlPolicy {
 public:
  explicit DtPolicy(ErrorLevelThresholds thresholds = {}, DtParams params = {},
                    bool per_port_state = false)
      : thresholds_(thresholds), params_(params), per_port_state_(per_port_state) {}

  const char* name() const override { return "DT"; }

  OpMode decide(NodeId /*router*/, const FeatureSnapshot& state, double /*reward*/) override {
    const OpMode truth = thresholds_.classify(state.true_error_prob);
    if (phase_ == SimPhase::kPretrain) {
      DtSample& sample = samples_.emplace_back();
      sample.features.resize(
          static_cast<std::size_t>(FeatureSnapshot::num_features(per_port_state_)));
      state.fill_vector(sample.features, per_port_state_);
      sample.label = static_cast<int>(truth);
      return truth;  // behave like the oracle while collecting labels
    }
    if (!tree_.trained()) return OpMode::kMode1;  // defensive: untrained fallback
    // Member scratch keeps the per-step inference path allocation-free;
    // predict() takes the features by span and never stores them.
    scratch_features_.resize(
        static_cast<std::size_t>(FeatureSnapshot::num_features(per_port_state_)));
    state.fill_vector(scratch_features_, per_port_state_);
    return static_cast<OpMode>(tree_.predict(scratch_features_));
  }

  void begin_phase(SimPhase phase) override {
    if (phase != SimPhase::kPretrain && phase_ == SimPhase::kPretrain &&
        !samples_.empty()) {
      tree_.train(samples_, static_cast<int>(kNumOpModes), params_);
      training_accuracy_ = tree_.accuracy(samples_);
      samples_.clear();
      samples_.shrink_to_fit();
    }
    phase_ = phase;
  }

  std::optional<PowerEvent> control_energy_event() const override {
    return PowerEvent::kDtInference;
  }

  const DecisionTree& tree() const noexcept { return tree_; }
  double training_accuracy() const noexcept { return training_accuracy_; }
  std::size_t collected_samples() const noexcept { return samples_.size(); }

 private:
  ErrorLevelThresholds thresholds_;
  DtParams params_;
  bool per_port_state_ = false;
  SimPhase phase_ = SimPhase::kPretrain;
  std::vector<DtSample> samples_;
  std::vector<double> scratch_features_;  ///< reused per decide(), no per-step alloc
  DecisionTree tree_;
  double training_accuracy_ = 0.0;
};

}  // namespace rlftnoc
