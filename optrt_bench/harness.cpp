#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"

#ifndef OPTRT_BENCH_BUILD_TYPE
#define OPTRT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef OPTRT_BENCH_GIT_REV
#define OPTRT_BENCH_GIT_REV "unknown"
#endif

namespace optrt::bench {

namespace {

namespace fs = std::filesystem;

/// CONGEST phases of the TZ construction, named as the engine labels
/// them after the "tz." prefix ("tz.flood a0", "tz.tree.claim", …).
constexpr const char* kCongestPhases[] = {"tree",  "flood",    "announce",
                                          "veto",  "register", "audit"};

bool inside(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& set,
            std::uint64_t t) {
  for (const auto& [begin, end] : set) {
    if (t >= begin && t < end) return true;
  }
  return false;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", 0.25},
      {"peak_rss_mb", "MiB", 0.20},
      {"op_p50_ref", "ref", 0.20},
  };
  return defs;
}

void pin_process(std::size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus[slot % cpus.size()], &mask);
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    // A thread that exited since the listing is no longer there to move.
    (void)::sched_setaffinity(tid, sizeof(mask), &mask);
  }
}

double reference_ms() {
  const auto start = Clock::now();
  std::vector<std::uint32_t> keys(1u << 15);
  std::uint32_t x = 0x9e3779b9u;
  for (std::uint32_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    k = x;
  }
  std::uint64_t acc = 0;
  {
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (std::uint32_t i = 0; i < keys.size(); ++i) map.emplace(keys[i], i);
    for (const std::uint32_t flip : {0u, 1u}) {
      for (const std::uint32_t k : keys) acc += map.count(k ^ flip);
    }
    std::vector<std::vector<std::uint32_t>> small;
    for (std::size_t i = 0; i < 2048; ++i) {
      small.emplace_back(16 + (keys[i] & 63), keys[i]);
    }
    for (const auto& v : small) acc += v.back();
  }
  std::sort(keys.begin(), keys.end());
  acc += keys[keys.size() / 2];
  // Keeps the work observable so the optimizer cannot drop it.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(acc, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Gates::fail(const std::string& detail) {
  ++failed;
  if (details.size() < 8) details.push_back(detail);
}

void Gates::merge(const Gates& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& d : other.details) {
    if (details.size() < 8) details.push_back(d);
  }
}

Tracer::Tracer(bool enabled) {
  if (enabled) trace_ = std::make_unique<obs::Trace>();
}

Tracer::Interval Tracer::to_trace(Clock::time_point begin,
                                  Clock::time_point end) const {
  const auto ns = [](Clock::duration d) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  const auto now = static_cast<std::int64_t>(trace_->now_ns());
  const Clock::time_point wall_now = Clock::now();
  return {static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, now - ns(wall_now - begin))),
          static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, now - ns(wall_now - end)))};
}

void Tracer::add_setup(Clock::time_point begin, Clock::time_point end) {
  if (trace_) setups_.push_back(to_trace(begin, end));
}

void Tracer::add_measure(Clock::time_point begin, Clock::time_point end) {
  if (trace_) windows_.push_back(to_trace(begin, end));
}

Tracer::Summary Tracer::summarize() const {
  Summary out;
  out.setups.resize(setups_.size());
  if (!trace_) return out;
  std::vector<obs::Trace::Event> events = trace_->events();
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.depth < b.depth;
  });
  std::vector<std::uint64_t> self(events.size());
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    self[i] = e.dur_ns;
    if (i > 0 && events[i - 1].tid != e.tid) open.clear();
    while (!open.empty() && events[open.back()].depth >= e.depth) {
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
      std::uint64_t& parent = self[open.back()];
      parent -= std::min(parent, e.dur_ns);
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    for (std::size_t k = 0; k < setups_.size(); ++k) {
      if (e.start_ns >= setups_[k].first && e.start_ns < setups_[k].second) {
        out.setups[k][e.name] += e.dur_ns;
      }
    }
    if (!inside(windows_, e.start_ns)) continue;
    SpanStats& s = out.measured[e.name];
    ++s.count;
    s.total_ns += e.dur_ns;
    s.self_ns += self[i];
    s.durations_ns.push_back(e.dur_ns);
  }
  return out;
}

const char* kind_span(const std::string& base, const std::string& kind) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(base + "." + kind).first->c_str();
}

const std::vector<std::string>& scheme_kinds() {
  static const std::vector<std::string> kinds = {
      "compact-diam2", "full-table",   "hub",               "routing-center",
      "landmark",      "hierarchical", "sequential-search", "tz"};
  return kinds;
}

std::vector<Metric> end_to_end_metrics(const RunData& data) {
  return {
      {"setup_s", quantile(data.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"op_p50_ref",
       quantile(data.op_ms, 0.5) / quantile(data.ref_ms, 0.5), "ref"},
  };
}

std::vector<Metric> raw_time_metrics(const RunData& data) {
  return {
      {"op_p50_ms", quantile(data.op_ms, 0.5), "ms"},
      {"ref_p50_ms", quantile(data.ref_ms, 0.5), "ms"},
      {"ops_per_s",
       data.measured_s > 0 ? static_cast<double>(data.ops) / data.measured_s
                           : 0.0,
       "1/s"},
  };
}

std::vector<Metric> per_layer_metrics(const RunData& data,
                                      const Tracer::Summary& summary) {
  std::vector<Metric> out;
  const double traced = static_cast<double>(std::max<std::uint64_t>(
      data.traced_ops, 1));
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(data.ops, 1));
  const auto span_us = [&](const std::string& name) {
    const auto it = summary.measured.find(name);
    return it == summary.measured.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e3 / traced;
  };
  const auto add_span = [&](const std::string& name) {
    out.push_back({name, span_us(name), "us/op"});
  };
  const auto add_count = [&](const std::string& name) {
    const auto it = data.counts.find(name);
    out.push_back(
        {name, it == data.counts.end() ? 0.0 : it->second / ops, "1/op"});
  };

  for (const char* name : {"graph.generate_s", "schemes.build_s",
                           "schemes.serialize_s", "serve.store_load_s",
                           "serve.bind_connect_s"}) {
    std::vector<double> per_setup;
    for (const auto& setup : summary.setups) {
      const auto it = setup.find(name);
      per_setup.push_back(
          it == setup.end() ? 0.0 : static_cast<double>(it->second) / 1e9);
    }
    out.push_back({name, quantile(per_setup, 0.5), "s"});
  }

  for (const char* name : {"serve.call_us", "serve.handle_request_us",
                           "serve.parse_frame_us", "serve.decode_pairs_us",
                           "serve.encode_frame_us"}) {
    add_span(name);
  }
  out.push_back({"serve.transport_us",
                 span_us("serve.call_us") - span_us("serve.handle_request_us"),
                 "us/op"});
  for (const char* name : {"serve.requests", "serve.pairs", "serve.bytes_in",
                           "serve.bytes_out", "serve.errors"}) {
    add_count(name);
  }

  for (const char* name :
       {"serve.store_reload_us", "core.load_graph_us", "bitio.crc32_us"}) {
    add_span(name);
  }
  for (const char* base :
       {"serve.load_artifact_mmap_us", "schemes.deserialize_us",
        "model.compile_fast_us", "model.route_batch_us"}) {
    for (const std::string& kind : scheme_kinds()) {
      add_span(kind_span(base, kind));
    }
  }

  for (const char* name : {"net.churn.session_us",
                           "schemes.repair.apply_event_us",
                           "schemes.repair.oracle_us"}) {
    add_span(name);
  }
  out.push_back({"net.churn.traffic_us",
                 span_us("net.churn.session_us") -
                     span_us("schemes.repair.apply_event_us") -
                     span_us("schemes.repair.oracle_us"),
                 "us/op"});
  for (const char* name :
       {"schemes.repair.tables_touched", "schemes.repair.dist_rows_bfs",
        "schemes.repair.dist_rows_patched", "schemes.repair.patched",
        "schemes.repair.rebuilt", "net.churn.stale_sent"}) {
    add_count(name);
  }

  add_span("net.congest.construct_us");
  add_span("model.verify_stretch_us");
  for (const char* stat : {"rounds", "messages", "message_bits"}) {
    add_count(std::string("net.congest.") + stat);
  }
  for (const char* phase : kCongestPhases) {
    for (const char* stat : {"rounds", "messages", "message_bits"}) {
      add_count(std::string("net.congest.") + phase + "." + stat);
    }
  }
  return out;
}

void write_trace_files(const std::string& dir, const std::string& workload,
                       const Tracer& tracer, const Tracer::Summary& summary,
                       const std::vector<Metric>& e2e) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("e2e").begin_object();
  for (const Metric& m : e2e) w.key(m.name).value(m.value);
  w.end_object();
  w.key("spans").begin_object();
  for (const auto& [name, s] : summary.measured) {
    std::vector<double> durations(s.durations_ns.begin(), s.durations_ns.end());
    w.key(name).begin_object();
    w.key("count").value(s.count);
    w.key("total_ns").value(s.total_ns);
    w.key("p50_ns").value(quantile(durations, 0.5));
    w.key("p99_ns").value(quantile(durations, 0.99));
    w.key("self_ns").value(s.self_ns);
    w.end_object();
  }
  w.end_object();
  w.key("setup_spans").begin_array();
  for (const auto& setup : summary.setups) {
    w.begin_object();
    for (const auto& [name, ns] : setup) w.key(name).value(ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string base = dir + "/" + workload;
  std::ofstream layers(base + ".layers.json");
  layers << w.str() << "\n";
  std::ofstream chrome(base + ".trace.json");
  chrome << tracer.trace()->chrome_json() << "\n";
  if (!layers || !chrome) {
    throw std::runtime_error("cannot write trace files under " + dir);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double quartile_spread(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  const double median = quantile(values, 0.5);
  return median != 0.0 ? (q(3) - q(1)) / median : 0.0;
}

double peak_rss_mb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string environment_json(const Options& opt, double wall_s) {
  const std::string build_type = OPTRT_BENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo" &&
      build_type != "MinSizeRel") {
    std::cerr << "warning: optrt_bench built with CMAKE_BUILD_TYPE='"
              << build_type << "', not an optimized build type\n";
  }
  obs::JsonWriter w;
  w.begin_object();
  w.key("build_type").value(build_type);
  w.key("compiler").value(compiler());
  w.key("cpu").value(cpu_model());
  w.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("pool_threads").value(static_cast<std::uint64_t>(opt.threads));
  w.key("server_threads").value(std::uint64_t{2});
  w.key("client_threads").value(std::uint64_t{1});
  w.key("cpus_per_round").value(std::uint64_t{1});
  w.key("git_rev").value(OPTRT_BENCH_GIT_REV);
  w.key("seed").value(opt.seed);
  w.key("workload").value(opt.workload.empty() ? "all" : opt.workload);
  w.key("seconds").value(opt.seconds);
  w.key("smoke").value(opt.smoke);
  w.key("wall_s").value(wall_s);
  w.end_object();
  return w.str();
}

std::string result_json(const Gates& gates,
                        const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(gates.failed == 0);
  w.key("attempted").value(gates.attempted);
  w.key("failed").value(gates.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace optrt::bench
