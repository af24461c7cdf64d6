// Tests for schedule rendering and JSON export (exp/gantt.hpp).
#include "exp/gantt.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/validate.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"

namespace ecs {
namespace {

Instance small_instance() {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 0.0, 0.0},   // edge
                   {1, 0, 2.0, 0.0, 1.0, 1.0}};  // cloud
  return instance;
}

SimResult run(const Instance& instance) {
  FixedPolicy policy({kAllocEdge, 0}, {0.0, 1.0});
  return simulate(instance, policy);
}

TEST(Gantt, ContainsLanesAndGlyphs) {
  const Instance instance = small_instance();
  const SimResult sim = run(instance);
  const std::string chart = render_gantt(instance, sim.schedule);
  EXPECT_NE(chart.find("edge 0 cpu"), std::string::npos);
  EXPECT_NE(chart.find("edge 0 send"), std::string::npos);
  EXPECT_NE(chart.find("cloud 0 cpu"), std::string::npos);
  EXPECT_NE(chart.find('0'), std::string::npos);  // J0 glyph
  EXPECT_NE(chart.find('1'), std::string::npos);  // J1 glyph
}

TEST(Gantt, CommLanesOptional) {
  const Instance instance = small_instance();
  const SimResult sim = run(instance);
  GanttOptions options;
  options.show_comm = false;
  const std::string chart = render_gantt(instance, sim.schedule, options);
  EXPECT_EQ(chart.find("edge 0 send"), std::string::npos);
}

TEST(Gantt, WidthControlsLineLength) {
  const Instance instance = small_instance();
  const SimResult sim = run(instance);
  GanttOptions options;
  options.width = 40;
  const std::string chart = render_gantt(instance, sim.schedule, options);
  std::stringstream ss(chart);
  std::string line;
  std::getline(ss, line);  // header
  std::getline(ss, line);  // first lane
  // label(12) + " |" + cells(40) + "|"
  EXPECT_EQ(line.size(), 12u + 2u + 40u + 1u);
}

TEST(Gantt, OutagesRenderedAsHash) {
  Instance instance = small_instance();
  instance.cloud_outages.resize(1);
  instance.cloud_outages[0].add(100.0, 200.0);  // after the schedule: keeps
                                                // the run itself legal
  const SimResult sim = run(instance);
  // Extend horizon by painting: outage beyond makespan is clipped into the
  // last column; just check rendering does not crash and includes '#'
  // when the outage overlaps the horizon.
  Instance overlapping = small_instance();
  overlapping.cloud_outages.resize(1);
  overlapping.cloud_outages[0].add(4.5, 5.0);
  FixedPolicy policy({kAllocEdge, 0}, {0.0, 1.0});
  const SimResult sim2 = simulate(overlapping, policy);
  require_valid_schedule(overlapping, sim2.schedule);
  const std::string chart = render_gantt(overlapping, sim2.schedule);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(Gantt, AbandonedRunsLowercase) {
  // Job 10 maps to glyph 'A' (id 10); abandoned activity uses 'a'.
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs.reserve(11);
  for (int i = 0; i < 11; ++i) {
    instance.jobs.push_back(Job{i, 0, 0.5, 0.0, 0.0, 0.0});
  }
  instance.jobs[10] = Job{10, 0, 4.0, 0.0, 1.0, 1.0};

  class MoveJob10 final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "Move10"; }
    void decide(const SimView& view, const std::vector<Event>& events,
                std::vector<Directive>& out) override {
      (void)events;
      for (const JobId id : view.live_jobs()) {
        if (id == 10) {
          // Start on the cloud, flee to the edge after t = 2.
          out.push_back(Directive{10, view.now() >= 2.0 ? kAllocEdge : 0,
                                  0.0});
        } else {
          out.push_back(Directive{id, kAllocEdge, 1.0 + id});
        }
      }
    }
  };
  MoveJob10 policy;
  const SimResult sim = simulate(instance, policy);
  ASSERT_FALSE(sim.schedule.job(10).abandoned.empty());
  const std::string chart = render_gantt(instance, sim.schedule);
  EXPECT_NE(chart.find('a'), std::string::npos);  // abandoned cloud run
  EXPECT_NE(chart.find('A'), std::string::npos);  // final edge run
}

TEST(GanttJson, WellFormedAndComplete) {
  const Instance instance = small_instance();
  const SimResult sim = run(instance);
  const ScheduleMetrics metrics = compute_metrics(instance, sim.schedule);
  std::stringstream out;
  write_schedule_json(out, instance, sim.schedule, metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"max_stretch\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc\":\"edge\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc\":0"), std::string::npos);
  // Balanced braces and brackets (cheap well-formedness check).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace ecs
