#include "harness.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "support/percentile.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace barracuda::perfbench {

namespace {

std::int64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("clock_gettime failed");
  }
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One slice of the probe's reference work; the result keeps the compiler
/// from dropping it.
double reference_slice() {
  std::uint64_t rng = 42;
  double sink = 0;
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back("key-" + std::to_string(splitmix64(rng) % 1000003));
  }
  std::map<std::string, double> tree;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    tree[keys[i]] = static_cast<double>(i);
  }
  for (const std::string& k : keys) sink += tree.at(k);
  std::vector<double> values(4096);
  for (double& v : values) {
    v = static_cast<double>(splitmix64(rng) >> 11) * 0x1p-53;
  }
  std::sort(values.begin(), values.end());
  for (double v : values) sink += std::sqrt(v) * std::exp(-v);
  return sink;
}

}  // namespace

std::int64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

HostProbe::HostProbe()
    : thread_([this] {
        static volatile double keep;
        do {
          const std::int64_t start = thread_cpu_ns();
          keep = reference_slice();
          slices_us_.push_back(static_cast<double>(thread_cpu_ns() - start) *
                               1e-3);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        } while (!stop_.load(std::memory_order_relaxed));
      }) {}

HostProbe::~HostProbe() { stop(); }

double HostProbe::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return median(slices_us_);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0 && args.seconds <= 120)) {
        throw std::runtime_error("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::runtime_error("--workload and --seed are required");
  }
  return args;
}

double percentile(std::vector<double>& samples, double p) {
  std::sort(samples.begin(), samples.end());
  return barracuda::support::percentile_sorted(samples, p);
}

double median(std::vector<double> samples) { return percentile(samples, 50); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) last = cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

OneCpu::~OneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

WindowTimes Phases::run(double warmup_seconds, double seconds) {
  barrier_.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_seconds));
  WindowTimes times;
  const double window = seconds / windows_;
  std::int64_t start = now_ns();
  std::int64_t cpu_start = process_cpu_ns();
  for (int w = 1; w <= windows_; ++w) {
    phase_.store(w, std::memory_order_relaxed);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start)) +
        std::chrono::duration<double>(window));
    const std::int64_t end = now_ns();
    const std::int64_t cpu_end = process_cpu_ns();
    times.seconds.push_back(static_cast<double>(end - start) * 1e-9);
    times.cpu_seconds.push_back(static_cast<double>(cpu_end - cpu_start) *
                                1e-9);
    start = end;
    cpu_start = cpu_end;
  }
  phase_.store(windows_ + 1, std::memory_order_relaxed);
  return times;
}

void Windows::merge(const Windows& other) {
  if (ops.size() < other.ops.size()) {
    ops.resize(other.ops.size());
    latencies_us.resize(other.ops.size());
  }
  for (std::size_t w = 0; w < other.ops.size(); ++w) {
    ops[w] += other.ops[w];
    latencies_us[w].insert(latencies_us[w].end(),
                           other.latencies_us[w].begin(),
                           other.latencies_us[w].end());
  }
}

std::size_t Windows::total_ops() const {
  std::size_t total = 0;
  for (std::size_t n : ops) total += n;
  return total;
}

std::vector<double> Windows::pooled() const {
  std::vector<double> all;
  for (const auto& w : latencies_us) all.insert(all.end(), w.begin(), w.end());
  return all;
}

void Windows::report(const WindowTimes& times,
                     std::map<std::string, double>& metrics) const {
  std::vector<double> rate, p50, p90, cpu;
  for (std::size_t w = 0; w < ops.size(); ++w) {
    if (ops[w] == 0) throw std::runtime_error("a window has no ops");
    rate.push_back(static_cast<double>(ops[w]) / times.seconds.at(w));
    if (!times.cpu_seconds.empty()) {
      cpu.push_back(times.cpu_seconds.at(w) * 1e6 /
                    static_cast<double>(ops[w]));
    }
    std::vector<double> lat = latencies_us[w];
    if (lat.empty()) throw std::runtime_error("a window has no samples");
    p50.push_back(percentile(lat, 50));
    p90.push_back(percentile(lat, 90));
  }
  metrics["ops_per_s"] = median(rate);
  metrics["p50_us"] = median(p50);
  metrics["p90_us"] = median(p90);
  if (!cpu.empty()) metrics["cpu_us_per_op"] = median(cpu);
}

namespace {
thread_local std::uint64_t current_span = 0;
std::atomic<std::uint64_t> tracer_instances{1};
thread_local std::uint64_t local_owner = 0;
thread_local std::vector<Tracer::Span>* local_buffer = nullptr;
}  // namespace

Tracer::Tracer()
    : instance_(tracer_instances.fetch_add(1, std::memory_order_relaxed)) {}

std::vector<Tracer::Span>& Tracer::local() {
  if (local_owner != instance_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    local_buffer = buffers_.back().get();
    local_owner = instance_;
  }
  return *local_buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op,
                     std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent == kInherit ? current_span : parent;
  span_.op = op;
  saved_current_ = current_span;
  current_span = span_.id;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end_ns = now_ns();
  current_span = saved_current_;
  tracer_->local().push_back(span_);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : all) {
    if (s.parent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, Totals> out;
  for (const Span& s : all) {
    Totals& t = out[s.name];
    const double total_ns = static_cast<double>(s.end_ns - s.start_ns);
    double covered_ns = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run in parallel (pooled evaluations), so subtract the
      // union of their intervals, clipped to the parent.
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : kids) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered_ns += static_cast<double>(hi - lo);
        lo = a;
        hi = b;
        open = true;
      }
      if (open) covered_ns += static_cast<double>(hi - lo);
    }
    ++t.count;
    t.total_us += total_ns * 1e-3;
    t.self_us += (total_ns - covered_ns) * 1e-3;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_.push_back({name, {value, unit}});
}

double Report::scaled(double value, const std::string& unit) const {
  const double factor = HostProbe::kReferenceSliceUs / host_slice_us_;
  return unit == "s" || unit == "ms" || unit == "us" ? value * factor
                                                     : value;
}

void Report::print(const Args& args, bool correct, std::size_t attempted,
                   std::size_t failed) const {
  auto metrics_object = [&](bool scale) {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, measured] = metrics_[i];
      const auto& [value, unit] = measured;
      std::snprintf(buf, sizeof buf, "%.17g", scale ? scaled(value, unit)
                                                      : value);
      if (i) out += ", ";
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    }
    return out + "}";
  };
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %zu, \"host_slice_us\": %.17g, \"reference_slice_us\": %g, "
      "\"measured\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.commit.c_str(),
      PERFBENCH_BUILD_TYPE, nproc(), host_slice_us_,
      HostProbe::kReferenceSliceUs, metrics_object(false).c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": " + metrics_object(true) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace barracuda::perfbench
