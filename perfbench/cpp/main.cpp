// perfbench_worker: runs one workload in its own process and prints one
// JSON line of raw measurements for run.py.
//
//   perfbench_worker --workload <name> --seed <n> --seconds <s>
//                    --mode run|setup|trace [--spans <file>]
//
// Modes:
//   setup  build the inputs and the engine or service, run the untimed
//          warm-up unit, and stop where the first timed op would start;
//   run    then run untraced units in a closed loop for --seconds;
//   trace  alternate untraced and traced units for --seconds, report the
//          per-layer metrics from the traced ones and write the spans.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using perfbench::LayerValues;
using perfbench::Tracer;
using perfbench::UnitResult;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string mode;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_worker: " << why
            << "\nusage: perfbench_worker --workload <name> --seed <n> "
               "--seconds <s> --mode run|setup|trace [--spans <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--mode") {
      a.mode = value;
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (argc % 2 != 1) usage("options come in pairs");
  if (a.mode != "run" && a.mode != "setup" && a.mode != "trace") {
    usage("bad --mode");
  }
  if (a.mode != "setup" && !(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, Tracer& tracer) {
  if (a.workload == "bcast_sim") return perfbench::make_bcast_sim(a.seed, tracer);
  if (a.workload == "serve_exec") return perfbench::make_serve(a.seed, true, tracer);
  if (a.workload == "serve_plan") return perfbench::make_serve(a.seed, false, tracer);
  if (a.workload == "log_failover") {
    return perfbench::make_log_failover(a.seed, tracer);
  }
  usage("unknown workload " + a.workload);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Peak RSS of this process image in MB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used because it keeps the peak from before
/// execve, which here is the launching Python interpreter's (about 15 MB).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Tracer tracer;
  const Tracer::NameId unit_name = tracer.intern("unit");
  std::unique_ptr<Workload> workload;
  UnitResult warm;
  try {
    workload = make_workload(args, tracer);
    warm = workload->warm_up();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_worker: set-up failed: " << e.what() << '\n';
    return 1;
  }
  const std::int64_t first_op_ns = perfbench::now_ns();
  // Peak RSS of the set-up and the warm-up unit, which does the same work
  // as a timed unit. Taken before the first calibration round, whose maps
  // would otherwise set the peak of the small workloads.
  const double rss_mb = peak_rss_mb();
  std::cout << workload->describe() << '\n';
  // The host speed the set-up ran at, for scaling setup_s (run.py).
  const double setup_speed = perfbench::host_speed(3);

  std::uint64_t attempted = warm.ops;
  std::uint64_t failed = warm.failed;
  std::vector<double> rates;         // scaled ops per second, untraced units
  std::vector<double> traced_rates;  // scaled ops per second, traced units
  std::vector<double> raw_rates;     // untraced, in plain host seconds
  std::vector<double> speeds;        // host speed next to each unit
  std::int64_t traced_unit_ns = 0;
  std::int64_t traced_child_ns = 0;
  if (args.mode != "setup") {
    const bool trace = args.mode == "trace";
    const std::size_t min_units = trace ? 4 : 3;
    const auto deadline =
        first_op_ns + static_cast<std::int64_t>(args.seconds * 1e9);
    perfbench::Pacer pacer;
    for (std::size_t i = 0; i < min_units || perfbench::now_ns() < deadline; ++i) {
      const bool traced = trace && i % 2 == 1;
      tracer.set_op(i);
      pacer.begin_unit();
      if (traced) tracer.begin();
      const UnitResult unit =
          workload->run_unit(traced ? &tracer : nullptr, traced ? nullptr : &pacer);
      double raw_s = 0.0;
      if (traced) {
        const Tracer::Closed closed = tracer.end(unit_name);
        traced_unit_ns += closed.duration_ns - unit.excluded_ns;
        traced_child_ns += closed.child_ns - unit.excluded_ns;
        raw_s = static_cast<double>(closed.duration_ns - unit.excluded_ns) * 1e-9;
      }
      pacer.end_unit();
      if (!traced) raw_s = pacer.raw_s();
      const double speed = pacer.scaled_s() / pacer.raw_s();
      attempted += unit.ops;
      failed += unit.failed;
      const double ops = static_cast<double>(unit.ops);
      (traced ? traced_rates : rates).push_back(ops / (raw_s * speed));
      if (!traced) raw_rates.push_back(ops / raw_s);
      speeds.push_back(speed);
    }
  }

  std::ostringstream out;
  out << std::setprecision(10);
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"mode\":\"" << args.mode << "\",\"first_op_mono_s\":"
      << static_cast<double>(first_op_ns) * 1e-9 << ",\"setup_speed\":" << setup_speed
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"units\":" << speeds.size() << ",\"ops_per_s\":" << median(rates)
      << ",\"ops_per_s_raw\":" << median(raw_rates)
      << ",\"host_speed\":" << median(speeds) << ",\"peak_rss_mb\":" << rss_mb;
  if (args.mode == "trace") {
    LayerValues layers = workload->layer_metrics(tracer);
    const double traced = median(traced_rates);
    layers["trace.overhead"] = traced > 0.0 ? median(rates) / traced : 0.0;
    layers["trace.coverage"] =
        traced_unit_ns > 0 ? static_cast<double>(traced_child_ns) /
                                 static_cast<double>(traced_unit_ns)
                           : 0.0;
    layers["host.speed"] = median(speeds);
    if (layers["trace.coverage"] < 0.95) {
      std::cerr << "perfbench_worker: layer spans cover only "
                << layers["trace.coverage"] << " of op wall time\n";
    }
    out << ",\"layers\":{";
    for (auto it = layers.begin(); it != layers.end(); ++it) {
      out << (it == layers.begin() ? "" : ",") << '"' << it->first
          << "\":" << it->second;
    }
    out << '}';
    if (!args.spans.empty()) {
      std::ofstream spans(args.spans);
      tracer.write_json(spans, args.workload, args.seed);
      if (!spans) std::cerr << "perfbench_worker: cannot write " << args.spans << '\n';
    }
  }
  out << "}\n";
  std::cout << out.str();
  return 0;
}
