// `remote`: an in-process PlanServer on a Unix socket, prewarmed; client
// threads each hold one RemoteRegistry link and send closed-loop GET_PLAN
// fetches while one more link runs periodic full-registry SYNCs.  The
// only workload that goes through net and serve/remote.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "net/frame.hpp"
#include "serve/remote/planserver.hpp"
#include "serve/remote/remoteregistry.hpp"
#include "serve/service.hpp"
#include "serve_setup.hpp"
#include "workloads.hpp"

namespace barracuda::perfbench {
namespace {

// One full-registry SYNC exchange per this many fetches, so the SYNC share
// of the work does not depend on how fast the fetches run.
constexpr std::size_t kSyncEvery = 2048;
// The node's own plans, pushed to the server by its first SYNC: cold
// fallbacks of this many never-seen shapes.
constexpr std::size_t kNodeOnly = 12;
// Fetch links and server workers.  Each fetch hands off from the client
// to the server's event loop and a worker and back.  Every thread of the
// workload runs on one CPU: across CPUs each hand-off is a cross-CPU
// wake-up, whose cost on a virtualized host follows the host's load (the
// host-scaled CPU per fetch varied 11% between runs that way, 2% on one
// CPU).
constexpr std::size_t kMaxFetchers = 2;
constexpr std::size_t kServerWorkers = 2;
// Trace one fetch in this many (each traced fetch adds a PING).
constexpr std::size_t kTraceEvery = 32;

struct RemoteState {
  std::vector<Request> warm;
  std::vector<serve::PlanEntry> prewarmed;
  std::unique_ptr<serve::PlanRegistry> server_registry;
  std::unique_ptr<serve::remote::PlanServer> server;
  std::unique_ptr<serve::PlanRegistry> node_registry;
};

struct LinkStats {
  Windows windows;
  std::size_t failed = 0, errors = 0, unavailable = 0;

  void absorb(const serve::remote::RemoteRegistryStats& s) {
    errors += s.errors;
    unavailable += s.unavailable;
  }
};

}  // namespace

Result run_remote(const Args& args) {
  Result result;
  const std::string socket_path =
      args.out_dir + "/remote-" + std::to_string(::getpid()) + ".sock";
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = socket_path;

  RemoteState state;
  const std::size_t fetchers =
      std::clamp<std::size_t>(nproc() / 2, 1, kMaxFetchers);
  const OneCpu one_cpu;
  const std::vector<Request> node_only = novel_shapes(args.seed, kNodeOnly);
  result.metrics["setup_s"] = timed_setup(3, [&] {
    if (state.server) state.server->stop();
    state.server.reset();
    state.server_registry = std::make_unique<serve::PlanRegistry>();
    state.warm = warm_set();
    state.prewarmed = prewarm_registry(*state.server_registry, state.warm,
                                       static_cast<int>(nproc()));
    state.node_registry = std::make_unique<serve::PlanRegistry>();
    for (const Request& rq : node_only) {
      state.node_registry->publish(
          rq.signature,
          serve::fallback_plan(rq.problem, *rq.device, serve_tune_options()));
    }
    serve::remote::PlanServerOptions server_options;
    server_options.net.workers = kServerWorkers;
    state.server = std::make_unique<serve::remote::PlanServer>(
        *state.server_registry, server_options);
    state.server->listen_unix(socket_path);
    state.server->start();
  });

  const ZipfPicker picker(state.warm, args.seed);
  Tracer tracer;
  std::vector<double> sync_ms, sync_bytes;
  LinkStats links;

  auto run_phase = [&](double seconds, bool traced, WindowTimes* times) {
    const std::size_t window_count = serve_windows(seconds);
    Phases phases(fetchers + 1, window_count);
    // Fetches so far; the fetch that completes each kSyncEvery-th one
    // wakes the SYNC link.
    std::atomic<std::size_t> fetched{0};
    std::vector<LinkStats> stats(fetchers + 1);  // the last is the SYNC link
    for (LinkStats& s : stats) s.windows = Windows(window_count);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < fetchers; ++t) {
      threads.emplace_back([&, t] {
        LinkStats& me = stats[t];
        serve::remote::RemoteRegistry link(endpoint);
        const std::vector<std::uint32_t> stream =
            picker.draw(1 << 14, args.seed * 64 + t + (traced ? 32 : 0));
        Sampler trace_sampler(kTraceEvery);
        phases.worker_start();
        int phase;
        for (std::size_t n = 0; !phases.stopped(phase = phases.phase()); ++n) {
          const std::uint32_t idx = stream[n & (stream.size() - 1)];
          const Request& rq = state.warm[idx];
          const bool measured = phase != Phases::kWarmup;
          const std::uint64_t op = (std::uint64_t{t} << 40) | n;
          const bool trace_op = measured && traced && trace_sampler.due();
          serve::PlanEntry entry;
          serve::RemoteStatus status;
          const std::int64_t t0 = now_ns();
          {
            Tracer::Scope s(trace_op ? &tracer : nullptr, "remote.fetch", op);
            status = link.fetch(rq.signature, &entry);
          }
          const std::int64_t t1 = now_ns();
          if ((fetched.fetch_add(1, std::memory_order_relaxed) + 1) %
                  kSyncEvery ==
              0) {
            fetched.notify_one();
          }
          if (trace_op) {
            {
              Tracer::Scope s(&tracer, "net.encode", op);
              net::encode_frame({net::Op::kGetPlan, rq.signature});
            }
            Tracer::Scope s(&tracer, "net.ping", op);
            link.ping();
          }
          const bool ok = status == serve::RemoteStatus::kHit &&
                          entry == state.prewarmed[idx];
          if (measured) {
            ++me.windows.ops[phase - 1];
            me.windows.latencies_us[phase - 1].push_back(
                static_cast<double>(t1 - t0) * 1e-3);
          }
          if (!ok) ++me.failed;
        }
        me.absorb(link.stats());
      });
    }
    // The SYNC link: a full-registry exchange after every kSyncEvery
    // fetches; afterwards both registries must render the same text.
    threads.emplace_back([&] {
      serve::remote::RemoteRegistry link(endpoint);
      phases.worker_start();
      int phase;
      std::uint64_t op = 0;
      std::size_t synced = 0;  // fetches covered by the SYNCs so far
      while (true) {
        std::size_t seen = fetched.load(std::memory_order_acquire);
        while (seen < synced + kSyncEvery &&
               !phases.stopped(phases.phase())) {
          fetched.wait(seen, std::memory_order_acquire);
          seen = fetched.load(std::memory_order_acquire);
        }
        if (phases.stopped(phase = phases.phase())) break;
        synced += kSyncEvery;
        const bool measured = phase != Phases::kWarmup;
        const std::int64_t t0 = now_ns();
        serve::RemoteWrite w;
        {
          Tracer::Scope s(traced && measured ? &tracer : nullptr,
                          "remote.sync", op);
          w = link.sync(*state.node_registry);
        }
        const std::int64_t t1 = now_ns();
        const std::string node_text = state.node_registry->to_text();
        const std::string server_text = state.server_registry->to_text();
        if (w != serve::RemoteWrite::kOk || node_text != server_text) {
          result.checks_ok = false;
        }
        if (measured) {
          sync_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
          sync_bytes.push_back(static_cast<double>(node_text.size()));
        }
        if (traced && measured) {
          // Replay both halves of the exchange's registry work.
          {
            Tracer::Scope s(&tracer, "serve.to_text", op);
            state.node_registry->to_text();
          }
          serve::PlanRegistry scratch;
          Tracer::Scope s(&tracer, "serve.merge_text", op);
          scratch.merge_text(server_text, "<benchmark>");
        }
        ++op;
      }
      stats.back().absorb(link.stats());
    });
    *times = phases.run(0.5, seconds);
    // Wake the SYNC link so it sees the stop.
    fetched.fetch_add(1, std::memory_order_release);
    fetched.notify_all();
    for (auto& th : threads) th.join();
    Windows all(window_count);
    for (const LinkStats& c : stats) {
      all.merge(c.windows);
      result.failed += c.failed;
      links.errors += c.errors;
      links.unavailable += c.unavailable;
    }
    result.attempted += all.total_ops();
    return all;
  };

  WindowTimes times;
  const Windows untraced = run_phase(
      args.trace ? args.seconds / 2 : args.seconds, false, &times);
  untraced.report(times, result.metrics);
  if (!args.trace) {
    result.metrics["plan_gflops_geomean"] =
        geomean_plan_gflops(state.warm, state.prewarmed);
  } else {
    sync_ms.clear();
    sync_bytes.clear();
    const std::vector<double> traced =
        run_phase(args.seconds / 2, true, &times).pooled();
    tracer.write(args.out_dir + "/trace-remote.jsonl");
    const auto spans = tracer.totals();
    auto mean = [&](const char* name) {
      const Tracer::Totals& t = spans.at(name);
      return t.total_us / static_cast<double>(t.count);
    };
    auto& m = result.metrics;
    m["remote.fetch_us"] = mean("remote.fetch");
    m["net.encode_us"] = mean("net.encode");
    m["net.ping_rtt_us"] = mean("net.ping");
    m["remote.handler_us"] = m["remote.fetch_us"] - m["net.ping_rtt_us"];
    m["serve.to_text_ms"] = mean("serve.to_text") * 1e-3;
    m["serve.merge_text_ms"] = mean("serve.merge_text") * 1e-3;
    m["sync_p50_ms"] = median(sync_ms);
    m["remote.sync_bytes"] = median(sync_bytes);
    m["remote.errors"] = static_cast<double>(links.errors);
    m["remote.unavailable"] = static_cast<double>(links.unavailable);
    trace_overhead(untraced.pooled(), traced, m);
  }
  state.server->stop();
  std::remove(socket_path.c_str());
  return result;
}

}  // namespace barracuda::perfbench
