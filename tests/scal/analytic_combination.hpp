// A closed-form Combination for exercising the solver and series logic
// without simulation cost: E_s(n) = n / (n + knee), so the required size
// for target e is exactly n* = ceil(knee * e / (1 - e)). An optional
// wiggle adds wiggle * sin(n), making E_s non-monotone wherever its slope
// is below the wiggle's (required_size is then no longer exact).
#pragma once

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal::testing {

class AnalyticCombination final : public Combination {
 public:
  AnalyticCombination(std::string name, double marked_speed, double knee,
                      double wiggle = 0.0)
      : name_(std::move(name)),
        marked_speed_(marked_speed),
        knee_(knee),
        wiggle_(wiggle) {}

  const std::string& name() const override { return name_; }
  double marked_speed() const override { return marked_speed_; }

  double work(std::int64_t n) const override {
    const double dn = static_cast<double>(n);
    return dn * dn * dn;
  }

  const Measurement& measure(std::int64_t n) override {
    ++measure_calls_;
    probed_.insert(n);
    const double es = efficiency(n);
    last_.n = n;
    last_.work_flops = work(n);
    last_.seconds = last_.work_flops / (marked_speed_ * es);
    last_.speed_flops = last_.work_flops / last_.seconds;
    last_.speed_efficiency = es;
    last_.overhead_s = last_.seconds * (1.0 - es);
    return last_;
  }

  double efficiency(std::int64_t n) const {
    const double dn = static_cast<double>(n);
    return dn / (dn + knee_) + wiggle_ * std::sin(dn);
  }

  /// Exact smallest integer n with efficiency(n) >= e (epsilon guard so a
  /// mathematically integral threshold does not round up spuriously).
  std::int64_t required_size(double e) const {
    return static_cast<std::int64_t>(
        std::ceil(knee_ * e / (1.0 - e) - 1e-9));
  }

  int measure_calls() const { return measure_calls_; }
  /// Every size measured so far.
  const std::set<std::int64_t>& probed() const { return probed_; }

 private:
  std::string name_;
  double marked_speed_;
  double knee_;
  double wiggle_;
  Measurement last_;
  int measure_calls_ = 0;
  std::set<std::int64_t> probed_;
};

}  // namespace hetscale::scal::testing
