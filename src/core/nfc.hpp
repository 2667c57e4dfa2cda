// The NFC (number-of-free-channels) history and linear predictor of the
// paper's Fig. 6 / data structure NFC_i.
//
// A node records (t, s) samples — "at time t the number of free primary
// channels became s" — over a sliding window of width W, and predicts the
// value one round-trip (2T) ahead by linear extrapolation of the change
// across the window:
//
//     next = s + 2T * (s - get_nfc(t - W)) / W
//
// The prediction drives the local/borrowing mode switch with hysteresis
// thresholds θ_l < θ_h.
//
// Only change points are stored: a sample equal to the newest stored value
// leaves the value in force unchanged at every instant, so dropping it
// changes no answer of at(), current() or predict(). check_mode() samples
// on every acquisition and release, mostly repeats, so the history is
// bounded by the value changes inside one window instead of by the event
// rate times W.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace dca::core {

class NfcTracker {
 public:
  /// `window` is the paper's W (in simulated microseconds, > 0).
  explicit NfcTracker(sim::Duration window) : window_(window) {
    assert(window_ > 0);
  }

  /// add_nfc(t, s): records the sample (when it changes the value in
  /// force) and prunes history older than t - W (always keeping the newest
  /// sample at or before the cutoff so that at(t - W) stays answerable).
  void record(sim::SimTime t, int s) {
    assert(samples() == 0 || t >= entries_.back().first);
    if (samples() == 0 || entries_.back().second != s) entries_.emplace_back(t, s);
    const sim::SimTime cutoff = t - window_;
    while (samples() >= 2 && entries_[head_ + 1].first <= cutoff) ++head_;
    // Reclaim the pruned prefix once it is the larger part, so the vector
    // stays within twice the live history at amortized O(1) per record.
    if (head_ > 0 && 2 * head_ >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// get_nfc(t): the value in force at time t — the sample at the latest
  /// recording instant <= t, or the earliest known sample when t precedes
  /// all history. Returns 0 when no samples exist.
  [[nodiscard]] int at(sim::SimTime t) const {
    if (samples() == 0) return 0;
    int value = entries_[head_].second;
    for (std::size_t i = head_; i < entries_.size(); ++i) {
      if (entries_[i].first > t) break;
      value = entries_[i].second;
    }
    return value;
  }

  /// Latest recorded value (0 when empty).
  [[nodiscard]] int current() const {
    return samples() == 0 ? 0 : entries_.back().second;
  }

  /// The paper's predictor: current + horizon * slope, where the slope is
  /// the change over the last window. `horizon` is typically 2T.
  [[nodiscard]] double predict(sim::SimTime now, sim::Duration horizon) const {
    const double s = current();
    const double last = at(now - window_);
    return s + static_cast<double>(horizon) * (s - last) / static_cast<double>(window_);
  }

  /// Forget all history (crash recovery: NFC is volatile state).
  void reset() {
    entries_.clear();
    head_ = 0;
  }

  [[nodiscard]] sim::Duration window() const noexcept { return window_; }
  /// Stored change points (at most the value changes in the window + 1).
  [[nodiscard]] std::size_t samples() const noexcept {
    return entries_.size() - head_;
  }

 private:
  sim::Duration window_;
  // Live history is entries_[head_ ..]; the prefix before head_ is pruned.
  std::vector<std::pair<sim::SimTime, int>> entries_;
  std::size_t head_ = 0;
};

}  // namespace dca::core
