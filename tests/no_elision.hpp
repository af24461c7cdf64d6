// no_elision.hpp - A policy decorator that opts out of no-op round elision.
//
// NoElision forwards name(), reset() and decide() to the wrapped policy but
// not elision(), so the engine sees the default kNone contract and runs
// decide() on every round: the ordinary path of a policy that never opted
// in. Running a policy bare and wrapped is the elision on/off comparison.
#pragma once

#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace ecs {

class NoElision final : public Policy {
 public:
  explicit NoElision(Policy& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const Instance& instance) override { inner_->reset(instance); }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    inner_->decide(view, events, out);
  }

 private:
  Policy* inner_;
};

}  // namespace ecs
