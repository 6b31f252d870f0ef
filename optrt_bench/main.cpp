// optrt_bench: one end-to-end benchmark over the paths a user of this
// system runs — answering ORTP batches (serve-bulk), a SIGHUP catalog
// reload (catalog), TZ churn repair (churn-tz) and the in-network CONGEST
// build (congest-tz) — plus a traced run that splits each path into
// per-layer numbers.
//
//   optrt_bench [--seed 1996] [--seconds 20] [--repeat K] [--trace DIR]
//               [--smoke] [--threads 1] [--workdir DIR]
//     Runs every workload, each in a fresh child process (this binary
//     re-executed with --workload), and prints "<workload> <metric>
//     <value> <unit>" lines and then one JSON line. --repeat K runs each
//     workload K times (seeds seed..seed+K-1) and prints each metric's
//     median, min, max and quartile spread against its bound. --trace DIR
//     adds a traced run per workload and reports trace_overhead_frac.
//
//   optrt_bench --workload W [--seed N] [--seconds S] [--trace DIR] …
//     Runs one workload in this process. The last stdout line is the
//     result: {"correct","attempted","failed","metrics"} with the
//     end-to-end metrics, or with --trace the per-layer metrics (and
//     DIR/W.trace.json plus DIR/W.layers.json written).
//
// Exit status: 0 ok; 1 a correctness gate failed or the run broke; 2 bad
// usage.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace optrt;
using namespace optrt::bench;
namespace fs = std::filesystem;

std::string format(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void usage(std::ostream& out) {
  out << "usage: optrt_bench [--workload W] [--seed N] [--seconds S] "
         "[--repeat K] [--trace DIR] [--smoke] [--threads N] [--workdir DIR]\n"
         "workloads:\n";
  for (const Workload& w : workloads()) {
    out << "  " << w.name << ": " << w.why << "\n";
  }
}

/// Parses argv into `opt`; returns false (after printing why) on bad usage.
bool parse_args(int argc, char** argv, Options& opt) {
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    const auto number = [&](auto& out) {
      const auto v = value();
      if (!v) return false;
      const auto res = std::from_chars(v->data(), v->data() + v->size(), out);
      return res.ec == std::errc() && res.ptr == v->data() + v->size();
    };
    bool ok = true;
    if (a == "--workload") {
      const auto v = value();
      ok = v.has_value();
      if (ok) opt.workload = *v;
    } else if (a == "--seed") {
      ok = number(opt.seed);
    } else if (a == "--seconds") {
      ok = number(opt.seconds) && opt.seconds > 0;
      seconds_given = true;
    } else if (a == "--repeat") {
      ok = number(opt.repeat) && opt.repeat > 0;
    } else if (a == "--threads") {
      ok = number(opt.threads) && opt.threads > 0;
    } else if (a == "--trace") {
      const auto v = value();
      ok = v.has_value();
      if (ok) opt.trace_dir = *v;
    } else if (a == "--workdir") {
      const auto v = value();
      ok = v.has_value();
      if (ok) opt.workdir = *v;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "optrt_bench: bad argument near '" << a << "'\n";
      usage(std::cerr);
      return false;
    }
  }
  if (opt.smoke && !seconds_given) opt.seconds = 1.0;
  if (!opt.workload.empty()) {
    bool known = false;
    for (const Workload& w : workloads()) known = known || opt.workload == w.name;
    if (!known) {
      std::cerr << "optrt_bench: unknown workload '" << opt.workload << "'\n";
      usage(std::cerr);
      return false;
    }
  }
  return true;
}

void print_lines(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << workload << " " << m.name << " " << format(m.value) << " "
              << m.unit << "\n";
  }
}

/// Runs one workload in this process and prints its result.
int run_one(const Options& opt) {
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) workload = &w;
  }
  core::set_default_threads(opt.threads);
  const auto start = Clock::now();
  const std::string dir =
      opt.workdir + "/" + opt.workload + "." + std::to_string(::getpid());
  Tracer tracer(!opt.trace_dir.empty());
  RunData data;
  try {
    fs::create_directories(dir);
    // Installed before any server or client thread starts.
    std::optional<obs::TraceScope> scope;
    if (tracer.trace() != nullptr) scope.emplace(*tracer.trace());
    data = workload->run(Context{opt, tracer, dir});
  } catch (const std::exception& e) {
    std::cerr << "optrt_bench: " << opt.workload << ": " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove(opt.workdir, ec);  // only when no other run still uses it

  const std::vector<Metric> e2e = end_to_end_metrics(data);
  print_lines(opt.workload, e2e);
  print_lines(opt.workload, raw_time_metrics(data));
  print_lines(opt.workload, data.info);
  std::vector<Metric> reported = e2e;
  if (tracer.trace() != nullptr) {
    const Tracer::Summary summary = tracer.summarize();
    reported = per_layer_metrics(data, summary);
    print_lines(opt.workload, reported);
    try {
      fs::create_directories(opt.trace_dir);
      write_trace_files(opt.trace_dir, opt.workload, tracer, summary, e2e);
    } catch (const std::exception& e) {
      std::cerr << "optrt_bench: " << e.what() << "\n";
      return 1;
    }
  }
  std::cout << "env " << environment_json(opt, seconds_since(start)) << "\n";
  for (const std::string& d : data.gates.details) {
    std::cerr << "optrt_bench: " << opt.workload << ": gate failed: " << d
              << "\n";
  }
  std::cout << result_json(data.gates, reported) << std::endl;
  return data.gates.failed == 0 ? 0 : 1;
}

struct ChildRun {
  int status = 1;
  std::optional<obs::JsonValue> result;  ///< the child's last stdout line
};

/// Re-executes this binary with `args`, echoing its stdout to stderr.
ChildRun spawn_child(const std::vector<std::string>& args) {
  ChildRun run;
  int fds[2];
  if (::pipe(fds) != 0) return run;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::read(fds[0], buf, sizeof(buf))) > 0 ||
           (got < 0 && errno == EINTR)) {
      if (got > 0) out.append(buf, static_cast<std::size_t>(got));
    }
  }
  ::close(fds[0]);
  if (rc != 0) return run;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  std::cerr << out;
  std::string last;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) last = line;
  }
  if (!last.empty() && last.front() == '{') {
    try {
      run.result = obs::parse_json(last);
    } catch (const std::exception&) {
    }
  }
  return run;
}

/// Runs every workload in child processes and prints the summary.
int run_all(const Options& opt) {
  const auto start = Clock::now();
  int worst = 0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  obs::JsonWriter summary;
  summary.begin_object();
  for (const Workload& w : workloads()) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    for (std::size_t k = 0; k < opt.repeat; ++k) {
      std::vector<std::string> args = {
          "optrt_bench", "--workload", w.name,
          "--seed",      std::to_string(opt.seed + k),
          "--seconds",   format(opt.seconds),
          "--threads",   std::to_string(opt.threads),
          "--workdir",   opt.workdir};
      if (opt.smoke) args.push_back("--smoke");
      const ChildRun plain = spawn_child(args);
      worst = std::max(worst, plain.status);
      if (!plain.result) {
        correct = false;
        continue;
      }
      const obs::JsonValue& r = *plain.result;
      correct = correct && r.find("correct")->boolean;
      attempted += r.find("attempted")->uint_value;
      failed += r.find("failed")->uint_value;
      for (const auto& [name, m] : r.find("metrics")->object) {
        values[name].push_back(m.find("value")->as_double());
        units[name] = m.find("unit")->string_value;
      }
      if (opt.trace_dir.empty()) continue;
      args.insert(args.end(), {"--trace", opt.trace_dir});
      const ChildRun traced = spawn_child(args);
      worst = std::max(worst, traced.status);
      std::ifstream layers(opt.trace_dir + "/" + w.name + ".layers.json");
      std::stringstream text;
      text << layers.rdbuf();
      try {
        const obs::JsonValue doc = obs::parse_json(text.str());
        const double traced_p50 =
            doc.find("e2e")->find("op_p50_ref")->as_double();
        const double plain_p50 =
            r.find("metrics")->find("op_p50_ref")->find("value")->as_double();
        values["trace_overhead_frac"].push_back(traced_p50 / plain_p50 - 1.0);
        units["trace_overhead_frac"] = "frac";
      } catch (const std::exception& e) {
        std::cerr << "optrt_bench: " << w.name << ": no traced layers: "
                  << e.what() << "\n";
        worst = std::max(worst, 1);
      }
    }
    for (const MetricDef& def : end_to_end_defs()) {
      if (!values.count(def.name)) continue;
      const std::vector<double>& v = values[def.name];
      summary.key(std::string(w.name) + "." + def.name).begin_object();
      summary.key("value").value(quantile(v, 0.5));
      summary.key("unit").value(def.unit);
      summary.end_object();
      std::cout << w.name << " " << def.name << " " << format(quantile(v, 0.5))
                << " " << def.unit;
      if (opt.repeat > 1) {
        std::cout << " min=" << format(*std::min_element(v.begin(), v.end()))
                  << " max=" << format(*std::max_element(v.begin(), v.end()))
                  << " spread=" << format(quartile_spread(v))
                  << " bound=" << format(def.bound);
      }
      std::cout << "\n";
    }
    if (values.count("trace_overhead_frac")) {
      std::cout << w.name << " trace_overhead_frac "
                << format(quantile(values["trace_overhead_frac"], 0.5))
                << " frac\n";
    }
  }
  summary.end_object();
  std::cout << "env " << environment_json(opt, seconds_since(start)) << "\n";
  obs::JsonWriter out;
  out.begin_object();
  out.key("correct").value(correct && worst == 0);
  out.key("attempted").value(attempted);
  out.key("failed").value(failed);
  out.key("metrics").raw(summary.str());
  out.end_object();
  std::cout << out.str() << std::endl;
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  return opt.workload.empty() ? run_all(opt) : run_one(opt);
}
