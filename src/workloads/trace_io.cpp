#include "workloads/trace_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace ecs {
namespace {

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad ") + what + ": '" + s + "'");
  }
}

int parse_int(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad ") + what + ": '" + s + "'");
  }
}

/// Rethrows a record-level parse error with "line N:" context so a corrupt
/// file points at the offending line, not just the field value.
[[noreturn]] void fail_at(std::int64_t line_no, const std::string& what) {
  throw std::runtime_error("trace_io: line " + std::to_string(line_no) +
                           ": " + what);
}

/// A stream that stopped for any reason other than clean EOF lost data —
/// e.g. an I/O error on a truncated or corrupt file. Reading must be loud
/// about it: silently treating it as end-of-input would drop records.
void require_clean_eof(const std::istream& in, std::int64_t line_no) {
  if (in.bad()) {
    throw std::runtime_error(
        "trace_io: read error after line " + std::to_string(line_no) +
        " (truncated or corrupt input)");
  }
}

}  // namespace

void save_instance(std::ostream& out, const Instance& instance) {
  out << "# edgecloud-stretch instance v1\n";
  out << std::setprecision(17);
  out << "edges";
  for (double s : instance.platform.edge_speeds()) out << "," << s;
  out << "\n";
  if (instance.platform.homogeneous_cloud()) {
    out << "clouds," << instance.platform.cloud_count() << "\n";
  } else {
    out << "cloud_speeds";
    for (double s : instance.platform.cloud_speeds()) out << "," << s;
    out << "\n";
  }
  for (std::size_t k = 0; k < instance.cloud_outages.size(); ++k) {
    for (const Interval& iv : instance.cloud_outages[k].intervals()) {
      out << "outage," << k << "," << iv.begin << "," << iv.end << "\n";
    }
  }
  for (const Job& job : instance.jobs) {
    out << "job," << job.id << "," << job.origin << "," << job.work << ","
        << job.release << "," << job.up << "," << job.down << "\n";
  }
}

void save_instance_file(const std::string& path, const Instance& instance) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("trace_io: cannot open for writing: " + path);
  }
  save_instance(out, instance);
}

namespace {

/// Shared parser: when `plan` is non-null, `fault,` records are collected
/// into it; otherwise they are rejected like any unknown record.
Instance load_instance_impl(std::istream& in, FaultPlan* plan) {
  Instance instance;
  std::vector<double> edge_speeds;
  std::vector<double> cloud_speeds;
  int clouds = 0;
  bool heterogeneous = false;
  bool saw_edges = false;
  bool saw_clouds = false;

  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split_csv(line);
    if (fields.empty()) continue;
    try {
    if (fields[0] == "edges") {
      edge_speeds.clear();
      for (std::size_t i = 1; i < fields.size(); ++i) {
        edge_speeds.push_back(parse_double(fields[i], "edge speed"));
      }
      saw_edges = true;
    } else if (fields[0] == "clouds") {
      if (fields.size() != 2) {
        throw std::runtime_error("malformed clouds line");
      }
      clouds = parse_int(fields[1], "cloud count");
      heterogeneous = false;
      saw_clouds = true;
    } else if (fields[0] == "cloud_speeds") {
      cloud_speeds.clear();
      for (std::size_t i = 1; i < fields.size(); ++i) {
        cloud_speeds.push_back(parse_double(fields[i], "cloud speed"));
      }
      heterogeneous = true;
      saw_clouds = true;
    } else if (fields[0] == "outage") {
      if (fields.size() != 4) {
        throw std::runtime_error("malformed outage line: " + line);
      }
      const int k = parse_int(fields[1], "outage cloud index");
      if (k < 0) {
        throw std::runtime_error("negative outage cloud index");
      }
      if (static_cast<std::size_t>(k) >= instance.cloud_outages.size()) {
        instance.cloud_outages.resize(k + 1);
      }
      instance.cloud_outages[k].add(parse_double(fields[2], "outage begin"),
                                    parse_double(fields[3], "outage end"));
    } else if (fields[0] == "fault" && plan != nullptr) {
      if (fields.size() != 5) {
        throw std::runtime_error("malformed fault line: " + line);
      }
      FaultSpec spec;
      try {
        spec.kind = parse_fault_kind(fields[1]);
      } catch (const std::invalid_argument&) {
        throw std::runtime_error("bad fault kind: '" + fields[1] + "'");
      }
      spec.cloud = parse_int(fields[2], "fault cloud index");
      spec.begin = parse_double(fields[3], "fault begin");
      spec.end = parse_double(fields[4], "fault end");
      plan->faults.push_back(spec);
    } else if (fields[0] == "job") {
      if (fields.size() != 7) {
        throw std::runtime_error("malformed job line: " + line);
      }
      Job job;
      job.id = parse_int(fields[1], "job id");
      job.origin = parse_int(fields[2], "origin");
      job.work = parse_double(fields[3], "work");
      job.release = parse_double(fields[4], "release");
      job.up = parse_double(fields[5], "up");
      job.down = parse_double(fields[6], "down");
      instance.jobs.push_back(job);
    } else {
      throw std::runtime_error("unknown record '" + fields[0] + "'");
    }
    } catch (const std::runtime_error& e) {
      fail_at(line_no, e.what());
    }
  }
  require_clean_eof(in, line_no);
  if (!saw_edges || !saw_clouds) {
    throw std::runtime_error(
        "trace_io: missing 'edges' or 'clouds' header line");
  }
  instance.platform = heterogeneous
                          ? Platform(std::move(edge_speeds),
                                     std::move(cloud_speeds))
                          : Platform(std::move(edge_speeds), clouds);
  if (!instance.cloud_outages.empty()) {
    if (static_cast<int>(instance.cloud_outages.size()) >
        instance.platform.cloud_count()) {
      throw std::runtime_error(
          "trace_io: outage references a nonexistent cloud processor");
    }
    instance.cloud_outages.resize(instance.platform.cloud_count());
  }
  require_valid_instance(instance);
  if (plan != nullptr) {
    plan->normalize();
    const auto problems = validate_fault_plan(*plan, instance.platform);
    if (!problems.empty()) {
      throw std::runtime_error("trace_io: invalid fault plan: " +
                               problems.front());
    }
  }
  return instance;
}

}  // namespace

Instance load_instance(std::istream& in) {
  return load_instance_impl(in, nullptr);
}

Instance load_instance_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("trace_io: cannot open for reading: " + path);
  }
  return load_instance(in);
}

void save_fault_plan(std::ostream& out, const FaultPlan& plan) {
  out << std::setprecision(17);
  for (const FaultSpec& f : plan.faults) {
    out << "fault," << to_string(f.kind) << "," << f.cloud << "," << f.begin
        << "," << f.end << "\n";
  }
}

FaultPlan load_fault_plan(std::istream& in) {
  FaultPlan plan;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split_csv(line);
    if (fields.empty()) continue;
    try {
      if (fields[0] != "fault" || fields.size() != 5) {
        throw std::runtime_error("expected a fault record, got: " + line);
      }
      FaultSpec spec;
      try {
        spec.kind = parse_fault_kind(fields[1]);
      } catch (const std::invalid_argument&) {
        throw std::runtime_error("bad fault kind: '" + fields[1] + "'");
      }
      spec.cloud = parse_int(fields[2], "fault cloud index");
      spec.begin = parse_double(fields[3], "fault begin");
      spec.end = parse_double(fields[4], "fault end");
      plan.faults.push_back(spec);
    } catch (const std::runtime_error& e) {
      fail_at(line_no, e.what());
    }
  }
  require_clean_eof(in, line_no);
  plan.normalize();
  return plan;
}

void save_faulty_instance(std::ostream& out, const Instance& instance,
                          const FaultPlan& plan) {
  save_instance(out, instance);
  save_fault_plan(out, plan);
}

std::pair<Instance, FaultPlan> load_faulty_instance(std::istream& in) {
  FaultPlan plan;
  Instance instance = load_instance_impl(in, &plan);
  return {std::move(instance), std::move(plan)};
}

void save_metrics_csv(std::ostream& out, const Instance& instance,
                      const Schedule& schedule,
                      const ScheduleMetrics& metrics) {
  out << "job,alloc,completion,response,stretch\n";
  out << std::setprecision(17);
  for (const JobMetrics& jm : metrics.per_job) {
    const int alloc = schedule.job(jm.id).final_run.alloc;
    out << jm.id << ",";
    if (alloc == kAllocEdge) {
      out << "edge" << instance.jobs[jm.id].origin;
    } else {
      out << "cloud" << alloc;
    }
    out << "," << jm.completion << "," << jm.response << "," << jm.stretch
        << "\n";
  }
}

}  // namespace ecs
