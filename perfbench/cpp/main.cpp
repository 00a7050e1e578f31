// lar_bench: one run of one lar-bench workload.
//
//   lar_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints every metric by name and unit, the exact counts of the
// determinism self-check and the correctness tally, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 0 when every check passed, 1 when one failed, 2 on bad usage and 3
// when a phase overran its deadline.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace lar::bench;

namespace {

// The whole run, set-up included, must end well inside 180 s.
constexpr double kRunDeadlineS = 170.0;

// CPUs the run is confined to.  An engine runs a dozen threads that hand
// tuples to each other; spread over every vCPU of a shared virtual machine,
// each hand-off may wake a halted vCPU through the hypervisor, and that cost
// swung CPU per tuple by 1.6x between runs of one build.  On two CPUs the
// hand-offs still cross cores, and ten runs spread 4-15 % (IQR / median).
constexpr int kCpus = 2;

/// Confines the process to the kCpus highest-numbered CPUs it may use (CPU 0
/// takes most device interrupts).  Must run before any thread starts:
/// threads inherit the mask.  Returns the number of CPUs in use.
int confine_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t use;
  CPU_ZERO(&use);
  int n = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n < kCpus; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++n;
    }
  }
  if (sched_setaffinity(0, sizeof use, &use) != 0) return CPU_COUNT(&allowed);
  return n;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "lar_bench: %s\nusage: lar_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               msg);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

void print_entries(const char* kind, const std::vector<Ledger::Entry>& v) {
  for (const auto& e : v) {
    std::printf("%-6s %-34s %.17g %s\n", kind, e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

void print_json(const Ledger& ledger, const std::vector<Ledger::Entry>& v) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", v[i].name.c_str(), v[i].value,
                v[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 60.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_trace) return usage("missing flags");
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == args.workload;
  if (!known) return usage(("unknown workload " + args.workload).c_str());

  const int cpus = confine_cpus();
  Watchdog dog(kRunDeadlineS);
  Tracer tracer(args.trace);
  Ledger ledger;
  std::printf("# lar-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Pace pace;
  run_workload(args, dog, pace, tracer, ledger);
  ledger.apply_pace(pace);
  ledger.info("cpus", cpus, "count");

  print_entries("e2e", ledger.e2e());
  print_entries("layer", ledger.layers());
  print_entries("info", ledger.infos());
  print_entries("exact", ledger.exacts());
  const double failed_frac =
      ledger.attempted() == 0
          ? 1.0
          : static_cast<double>(ledger.failed()) /
                static_cast<double>(ledger.attempted());
  std::printf("checks attempted=%llu failed=%llu failed_frac=%.17g\n",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()), failed_frac);
  ledger.layer("bench.failed_frac", failed_frac, "ratio");
  if (args.trace) {
    std::printf("# self time by span (s): name count total self\n");
    for (const auto& s : tracer.self_time_report()) {
      std::printf("self   %-34s %6llu %12.6f %12.6f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_s,
                  s.self_s);
    }
    if (!args.trace_out.empty()) {
      if (tracer.write_json(args.trace_out)) {
        std::printf("# wrote %zu spans to %s\n", tracer.size(),
                    args.trace_out.c_str());
      } else {
        ledger.check(false, "write span file " + args.trace_out);
      }
    }
  }
  print_json(ledger, args.trace ? ledger.layers() : ledger.e2e());
  std::fflush(stdout);
  return ledger.failed() == 0 && ledger.attempted() > 0 ? 0 : 1;
}
