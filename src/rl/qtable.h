// Tabular action-value storage: the per-router State-Action Mapping Table of
// Fig. 5. Only visited states occupy memory (hash map keyed by the packed
// discretized state vector), which is how a 26-dimensional discretized space
// stays tractable.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace rlftnoc {

/// A discretized state: one bin index per feature.
using DiscreteState = std::vector<std::uint8_t>;

/// Q-values of one state row, one entry per operation mode.
using QRow = std::array<double, kNumOpModes>;

/// Per-(state, action) visit counters, used for the count-based learning
/// rate ("the learning rate alpha can be reduced over time", Section IV.A).
using QVisits = std::array<std::uint32_t, kNumOpModes>;

struct DiscreteStateHash {
  std::size_t operator()(const DiscreteState& s) const noexcept {
    // FNV-1a over the bin bytes.
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : s) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// Sparse Q-table.
///
/// Rows materialize on first visit, filled with `init`. The paper
/// initializes Q to 0; with its strictly positive reward that makes the
/// first action ever tried in a state win the greedy comparison forever
/// ("greedy lock-in"), so the default here is an optimistic value above any
/// reachable return, which forces every action to be tried once per state.
/// Pass init = 0 to reproduce the paper-literal behaviour.
class QTable {
 public:
  explicit QTable(double init = 0.0) noexcept : init_(init) {}

  struct Row {
    QRow q;
    QVisits visits{};
  };

  /// Returns the row for `s`, inserting an init-filled row on first visit.
  Row& row(const DiscreteState& s) {
    const auto [it, inserted] = table_.try_emplace(s);
    if (inserted) it->second.q.fill(init_);
    return it->second;
  }

  /// Read-only lookup; returns nullptr for unvisited states.
  const Row* find(const DiscreteState& s) const {
    const auto it = table_.find(s);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Greedy action for `s` (0 for unvisited states).
  ///
  /// `confidence_penalty` subtracts c/sqrt(n) from each action's value
  /// before comparing, so an action whose high estimate rests on a couple
  /// of noisy visits cannot beat a well-sampled one (pessimistic greedy).
  /// `action_cost_prior` subtracts p*a, expressing that higher modes cost
  /// more hardware — it breaks near-ties toward the cheaper mode (the same
  /// bias as the paper's all-mode-0 initialization) without overriding a
  /// genuinely better Q-value. Pass 0/0 for the plain argmax.
  int argmax(const DiscreteState& s, double confidence_penalty = 0.0,
             double action_cost_prior = 0.0) const {
    const Row* r = find(s);
    if (r == nullptr) return 0;
    int best = 0;
    double best_score = -1e300;
    for (int a = 0; a < static_cast<int>(kNumOpModes); ++a) {
      const auto ai = static_cast<std::size_t>(a);
      const double n = std::max<double>(r->visits[ai], 1.0);
      const double score = r->q[ai] - confidence_penalty / std::sqrt(n) -
                           action_cost_prior * a;
      if (score > best_score) {
        best_score = score;
        best = a;
      }
    }
    return best;
  }

  /// Largest Q-value in the row for `s` (`init` for unvisited states).
  double max_q(const DiscreteState& s) const {
    const Row* r = find(s);
    if (r == nullptr) return init_;
    double m = r->q[0];
    for (const double q : r->q) m = q > m ? q : m;
    return m;
  }

  double init_value() const noexcept { return init_; }
  std::size_t size() const noexcept { return table_.size(); }
  void clear() { table_.clear(); }

  /// The only iteration surface: a snapshot of (state, row) pointers sorted
  /// lexicographically by state bytes. The hash table's own traversal order
  /// never escapes this class — qtable_io serializes through this, so saved
  /// Q-table bytes are identical for identical table *contents* regardless
  /// of insertion history or standard-library hash internals.
  std::vector<std::pair<const DiscreteState*, const Row*>> sorted_items()
      const {
    std::vector<std::pair<const DiscreteState*, const Row*>> items;
    items.reserve(table_.size());
    // rlftnoc-lint: allow(R1) snapshot sorted below; hash order cannot escape
    for (const auto& [state, row] : table_) items.emplace_back(&state, &row);
    // An explicit lexicographical_compare orders exactly like vector's
    // operator<, which GCC 12 misreports as -Wstringop-overread in Release.
    std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
      return std::lexicographical_compare(a.first->begin(), a.first->end(),
                                          b.first->begin(), b.first->end());
    });
    return items;
  }

 private:
  double init_ = 0.0;
  std::unordered_map<DiscreteState, Row, DiscreteStateHash> table_;
};

}  // namespace rlftnoc
