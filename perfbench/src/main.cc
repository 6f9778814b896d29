// perfbench: the repository benchmark binary (perfbench/README.md).
//
//   perfbench --workload <serve-social|batch-web|group-small>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a human-readable metric table (name, value, unit, samples),
// then, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. perfbench/run.py builds
// this binary, runs it, and keeps the metrics BENCHMARK.json names.
// Exit code 0 when every output check passed, 1 when one failed, 2 on
// a usage error.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>

#include "bench.h"

namespace perfbench {

void Report::Add(std::string name, double value, std::string unit,
                 uint64_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::CheckFailed(const std::string& what) {
  ++checks_;
  ++check_failures_;
  if (check_failures_ <= 10) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::CheckRanking(const std::vector<ScoredVertex>& top,
                          std::span<const Vertex> exclude, uint32_t k,
                          double threshold) {
  std::string problem;
  if (top.size() > k) {
    problem = "ranking has " + std::to_string(top.size()) + " > k entries";
  }
  std::unordered_set<Vertex> seen;
  for (size_t i = 0; i < top.size() && problem.empty(); ++i) {
    const ScoredVertex& entry = top[i];
    if (!std::isfinite(entry.score) || entry.score < threshold) {
      problem = "score " + std::to_string(entry.score) + " below threshold";
    } else if (i > 0 && entry.score > top[i - 1].score) {
      problem = "ranking not best-first at position " + std::to_string(i);
    } else if (!seen.insert(entry.vertex).second) {
      problem = "vertex " + std::to_string(entry.vertex) + " ranked twice";
    } else if (std::find(exclude.begin(), exclude.end(), entry.vertex) !=
               exclude.end()) {
      problem = "ranking contains query vertex " +
                std::to_string(entry.vertex);
    }
  }
  if (problem.empty()) {
    ++checks_;
  } else {
    CheckFailed(problem);
  }
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = std::min(
      values.size() - 1, rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1);
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <serve-social|batch-web|"
               "group-small> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke]\n",
               problem);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
    Usage((std::string("invalid value for ") + flag).c_str());
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned(value, "--seed");
    } else if (flag == "--seconds") {
      const uint64_t seconds = ParseUnsigned(value, "--seconds");
      if (seconds < 1 || seconds > 600) Usage("--seconds must be in 1..600");
      args.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUnsigned(value, "--trace");
      if (trace > 1) Usage("--trace must be 0 or 1");
      args.trace = trace == 1;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

void PrintReport(const Args& args, const Report& report) {
  std::printf("%-34s %18s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : report.metrics()) {
    std::printf("%-34s %18.6f  %-8s %llu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  std::printf("checks: %llu run, %s; attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.checks()),
              report.correct() ? "all passed" : "SOME FAILED",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  // The result line: every recorded metric; run.py keeps the ones
  // BENCHMARK.json names for this mode.
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  bool first = true;
  for (const Metric& metric : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %llu}",
                first ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::fflush(stdout);
  Report report;
  if (!RunWorkload(args, report)) Usage("unknown workload");
  PrintReport(args, report);
  return report.correct() ? 0 : 1;
}
