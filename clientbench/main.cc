// Runs one workload of the client-view benchmark in this process and
// prints its report as one JSON object on stdout.
//
//   clientbench --workload nyt_static_range --seed 1 --seconds 10 --trace 0
//               [--work-dir DIR] [--spans-out FILE]
//
// Every flag takes a value; an unknown flag or a malformed value is an
// error (exit 2), so a typo can never silently run the defaults. run.py
// builds this binary and turns its report into the benchmark's result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "clientbench: " << message
            << "\nusage: clientbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out FILE]\nworkloads:";
  for (const std::string& name : clientbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  const std::map<std::string, bool> known = {
      {"--workload", true}, {"--seed", true},     {"--seconds", true},
      {"--trace", true},    {"--work-dir", false}, {"--spans-out", false}};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + arg);
    }
    if (known.count(arg) == 0) return Usage("unknown flag " + arg);
    flags[arg] = value;
  }
  for (const auto& [flag, required] : known) {
    if (required && flags.count(flag) == 0) return Usage("missing " + flag);
  }

  const auto config = clientbench::ConfigFor(flags["--workload"]);
  if (!config) return Usage("unknown workload " + flags["--workload"]);
  clientbench::RunOptions options;
  char* end = nullptr;
  options.seed = std::strtoull(flags["--seed"].c_str(), &end, 10);
  if (*end != '\0' || flags["--seed"].empty()) return Usage("bad --seed");
  options.seconds = std::strtod(flags["--seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0)) return Usage("bad --seconds");
  if (flags["--trace"] != "0" && flags["--trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  options.trace = flags["--trace"] == "1";
  options.work_dir = flags.count("--work-dir") ? flags["--work-dir"]
                                               : ".clientbench-work";
  options.spans_path = flags["--spans-out"];

  clientbench::RunReport report;
  try {
    report = clientbench::RunWorkload(*config, options);
  } catch (const std::exception& e) {
    std::cerr << "clientbench: " << config->name << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::string json = "{\"workload\":" + Quote(config->name) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"seconds\":" + Number(options.seconds) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"readers\":" + std::to_string(config->readers) +
                     ",\"rows\":" + std::to_string(config->rows) +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"mismatches\":" + std::to_string(report.mismatches) +
                     ",\"checked\":" + std::to_string(report.checked) +
                     ",\"stopped\":" + std::to_string(report.stopped) +
                     ",\"shed\":" + std::to_string(report.shed) +
                     ",\"reconciled\":" + (report.reconciled ? "true" : "false");
  json += ",\"build\":{";
  bool first = true;
  for (const auto& [key, value] : clientbench::BuildInfo()) {
    json += (first ? "" : ",") + Quote(key) + ":" + Quote(value);
    first = false;
  }
  json += "},\"notes\":[";
  first = true;
  for (const std::string& note : report.notes) {
    json += (first ? "" : ",") + Quote(note);
    first = false;
  }
  json += "],\"metrics\":{";
  first = true;
  for (const clientbench::Metric& m : report.metrics) {
    json += (first ? "" : ",") + Quote(m.name) + ":{\"value\":" +
            (m.value ? Number(*m.value) : "null") + ",\"unit\":" +
            Quote(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return report.reconciled ? 0 : 3;
}
