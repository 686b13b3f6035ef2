// perfbench — the screening benchmark's driver binary.
//
//   perfbench --workload surface|pocket|campaign-plan --seed N --seconds S
//             --trace 0|1 [--smoke] [--scratch DIR]
//
// Runs one workload in this process and prints one JSON object on stdout:
// the environment, the output checks, every metric with its unit and clock,
// and the raw host timing samples.  perfbench/run.py builds this binary,
// runs it (several processes per untraced run) and turns those objects into
// the benchmark's result line.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "scoring/batch_engine.h"
#include "util/args.h"
#include "util/json.h"

namespace perfbench {

KernelFanout kernel_fanout(const metadock::obs::Tracer& tracer) {
  KernelFanout f;
  for (const metadock::obs::Span& span : tracer.spans()) {
    if (span.category != "kernel") continue;
    for (const auto& [key, value] : span.args) {
      if (key == "blocks") f.blocks += value;
    }
    f.launches += 1.0;
  }
  return f;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child would report
  // its launcher's peak when that is larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) {
  metadock::util::JsonWriter w;
  w.value(s);
  return w.str();
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string to_json(const Args& args, const Result& r) {
  namespace scoring = metadock::scoring;
  metadock::util::JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("trace").value(args.trace);
  w.key("env").begin_object();
  w.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("cpu_model").value(cpu_model());
  w.key("scoring_impl")
      .value(std::string(scoring::scoring_impl_name(
          scoring::resolve_scoring_impl(scoring::ScoringImpl::kAuto))));
  w.key("simd_level").value(std::string(scoring::simd_level_name(scoring::default_simd_level())));
  w.key("workload_seed").value(args.seed);
  w.end_object();
  w.key("correct").value(r.failures.empty() && r.failed == 0);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name).begin_object();
    w.key("value").value_exact(m.value);
    w.key("unit").value(m.unit);
    w.key("clock").value(m.clock);
    w.end_object();
  }
  w.end_object();
  w.key("unit_items").value(r.unit_items);
  w.key("samples").begin_object();
  for (const auto& [name, values] : r.samples) {
    w.key(name).begin_array();
    for (const double v : values) w.value_exact(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  std::string out = w.str();
  // Detail values are pre-encoded JSON; splice them in as one object.
  std::string detail = ",\"detail\":{";
  bool first = true;
  for (const auto& [key, value] : r.detail) {
    if (!first) detail += ',';
    first = false;
    detail += json_string(key) + ':' + value;
  }
  detail += "}}";
  out.pop_back();
  return out + detail;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const metadock::util::ArgParser parser(argc, argv);
    Args args;
    args.workload = parser.get("workload", std::string());
    args.seed = static_cast<std::uint64_t>(parser.get("seed", std::int64_t{1}));
    args.seconds = parser.get("seconds", 10.0);
    args.trace = parser.get("trace", std::int64_t{0}) != 0;
    args.smoke = parser.has("smoke");
    args.scratch_dir = parser.get("scratch", std::string("."));

    Result r;
    if (args.workload == "surface" || args.workload == "pocket") {
      r = run_docking(args);
    } else if (args.workload == "campaign-plan") {
      r = run_plan(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", args.workload.c_str());
      return 2;
    }
    std::printf("%s\n", to_json(args, r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
