// Harness primitives shared by the benchmark workloads: argument parsing,
// barrier-started time-boxed phases, sampled latency timing, in-memory span
// tracing, and the result line the benchmark prints last.
#pragma once

#include <sched.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace barracuda::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by every thread of this process, in ns.  Unlike
/// wall time it does not grow while a thread waits for a CPU, so a host
/// that lends its cores elsewhere moves it less.
std::int64_t process_cpu_ns();
/// CPU time used so far by the calling thread, in ns.
std::int64_t thread_cpu_ns();

/// Gauges the host's speed while a run goes on.  A thread times, in its
/// own CPU time, one slice of fixed reference work every 10 ms: string
/// keys in a tree, a sort and some floating-point math, about 0.3 ms,
/// using nothing under src/.  On a shared host the CPU time of the same
/// work drifts with what other tenants run, by up to 1.9x over tens of
/// minutes on a 4-vCPU cloud host, and every workload drifts with it; the
/// median slice of the same run tracks that drift.
class HostProbe {
 public:
  /// The median slice on the host the figures are scaled to.
  static constexpr double kReferenceSliceUs = 300;

  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  /// Stops the probe; returns the median slice CPU time in microseconds.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> slices_us_;  // written by the probe thread only
  std::thread thread_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--commit C]
/// [--out-dir D]`; throws std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

/// Nearest-rank percentile (`p` in (0, 100]) of unsorted samples; sorts.
double percentile(std::vector<double>& samples, double p);
double median(std::vector<double> samples);
double geomean(const std::vector<double>& values);

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

/// While it lives, restricts the calling thread, and every thread it
/// starts meanwhile, to the last CPU the thread may run on; restores the
/// thread's CPUs when destroyed.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Picks the ops to time: one in `every`.
class Sampler {
 public:
  explicit Sampler(std::size_t every = 1) : every_(every ? every : 1) {}
  bool due() { return ++count_ % every_ == 0; }

 private:
  std::size_t every_;
  std::size_t count_ = 0;
};

/// Wall and process CPU seconds of each measurement window.
struct WindowTimes {
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
};

/// A client phase controller: `threads` workers wait on a barrier with the
/// controller, run a warm-up, then `windows` equal measurement windows
/// covering `seconds`, then stop.  Workers poll phase() between ops.
class Phases {
 public:
  static constexpr int kWarmup = 0;  // phase() of the warm-up
  Phases(std::size_t threads, std::size_t windows)
      : barrier_(static_cast<std::ptrdiff_t>(threads + 1)),
        windows_(static_cast<int>(windows)) {}
  void worker_start() { barrier_.arrive_and_wait(); }
  /// 0 during warm-up, w in [1, windows] during window w, then stopped.
  int phase() const { return phase_.load(std::memory_order_relaxed); }
  bool stopped(int phase) const { return phase > windows_; }
  /// Controller side: releases the workers and runs every phase; returns
  /// each window's measured wall and CPU time.
  WindowTimes run(double warmup_seconds, double seconds);

 private:
  std::barrier<> barrier_;
  const int windows_;
  std::atomic<int> phase_{kWarmup};
};

/// Op counts and latency samples per measurement window.  Every rate and
/// percentile a workload reports is the median of its per-window values,
/// so one disturbed window does not move the result.
struct Windows {
  explicit Windows(std::size_t n = 0) : ops(n), latencies_us(n) {}
  std::vector<std::size_t> ops;
  std::vector<std::vector<double>> latencies_us;

  void merge(const Windows& other);
  std::size_t total_ops() const;
  /// Every window's latency samples together.
  std::vector<double> pooled() const;
  /// Median across windows of ops/second, p50 and p90, and, when `times`
  /// has CPU figures, of process CPU microseconds per op.
  void report(const WindowTimes& times,
              std::map<std::string, double>& metrics) const;
};

/// In-memory span recorder.  Spans carry a name, a start and end, the
/// span that caused them and the id of the op they belong to; they are
/// written out as JSON lines when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::uint64_t op;
  };
  struct Totals {
    std::size_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };

  /// Records a span closed on destruction.  The parent defaults to the
  /// innermost open scope on this thread.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op,
          std::uint64_t parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_{};
    std::uint64_t saved_current_ = 0;
  };
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-name count, summed duration and summed self time (duration minus
  /// the union of the intervals its children cover).
  std::map<std::string, Totals> totals() const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans() const;
  /// This thread's span buffer (registered on first use), so recording a
  /// span takes no lock shared with other threads.
  std::vector<Span>& local();
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t instance_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// The metrics of one run, printed as the benchmark's last line.
class Report {
 public:
  /// `host_slice_us` is the run's HostProbe reading.  Each time figure
  /// (unit s, ms or us) is reported multiplied by
  /// HostProbe::kReferenceSliceUs / host_slice_us, so it reads as on a
  /// host where the probe's slice takes the reference time.  Rates, counts
  /// and ratios are reported as measured.
  explicit Report(double host_slice_us) : host_slice_us_(host_slice_us) {}
  /// `value` as measured; print() scales it by its unit.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints the context line (commit, build type, nproc, the probe reading
  /// and every metric as measured) and then the result line.
  void print(const Args& args, bool correct, std::size_t attempted,
            std::size_t failed) const;

 private:
  double scaled(double value, const std::string& unit) const;

  double host_slice_us_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

}  // namespace barracuda::perfbench
