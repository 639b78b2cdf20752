// hpccbench: one pass of one benchmark workload.
//
// A pass builds the workload's inputs (the set-up phase), runs every
// operation of the workload through the public hpccsim API, checks each
// operation's simulated output, and prints one JSON line with the host
// timings, the per-layer metrics and the failures. perfbench/run.py
// starts one process per pass and aggregates the passes; see
// perfbench/METRICS.md for what each workload exercises and why.
//
// Spans: every call into an hpccsim layer is wrapped in a Span, which
// always times the call (run_s is the sum of the simulation calls) and,
// with --trace-out, also records name/start/end/parent/operation in
// memory. The records are written at exit as Chrome trace_event JSON
// (loads in Perfetto / chrome://tracing). The spans sit at call
// boundaries only, never inside the simulators' hot loops.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/time.h>

#include "grid/grid_sim.hpp"
#include "linalg/distlu.hpp"
#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"

namespace {

using namespace hpccsim;

/// The seed whose inputs reproduce the shipped exhibits, so the goldens
/// below apply to it.
constexpr std::uint64_t kDefaultSeed = 1992;

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int op = -1;      ///< operation id, -1 outside operations
};

/// In-memory span store; records nothing when disabled.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::size_t size() const { return spans_.size(); }

  int open(std::string_view name, int op, std::int64_t start) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
    spans_.push_back({std::string(name), start, 0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id, std::int64_t end) {
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    // Spans are strictly nested (RAII), so the closing span is on top.
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Summed duration of the top-level spans, in seconds.
  double top_level_s() const {
    std::int64_t sum = 0;
    for (const SpanRecord& s : spans_)
      if (s.parent < 0) sum += s.end_ns - s.start_ns;
    return static_cast<double>(sum) * 1e-9;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path, const std::string& process) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path,
                           const std::string& process) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"" << json_escape(process) << "\"}}";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string_view name = s.name;
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(layer) << "\"," << buf << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// RAII span: always measures its duration; records into the log only
/// when tracing is on.
class Span {
 public:
  Span(SpanLog& log, std::string_view name, int op = -1)
      : log_(log), start_(now_ns()),
        id_(log.enabled() ? log.open(name, op, start_) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent); returns its duration in seconds.
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      if (id_ >= 0) log_.close(id_, end_);
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  SpanLog& log_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  int id_;
};

// ----------------------------------------------------------- host speed

// The host-speed probe. Other tenants of a shared host slow every
// instruction by an amount that varies from second to second and from
// minute to minute, mostly through the cores and caches they share,
// which no CPU-time account shows, and a median over passes cannot take
// out a slow minute. So a pass measures the host's speed while it runs: a process
// CPU-time timer (SIGPROF) interrupts whichever thread is running every
// kEveryUs of CPU time, and the handler times a fixed kernel on that
// thread, on the same core at the same moment as the workload. The
// kernel mixes the simulators' two host costs, a binary-heap event
// queue and dependent reads over a 256 KiB table, and calls no hpccsim
// code, so no change to the simulators can move it. run.py scales the
// pass's host times by the probes' mean time. The probes take ~3% of
// the CPU; their own time is taken out of every host time.
namespace probe {

constexpr long kEveryUs = 25000;
constexpr int kBurst = 10;  ///< probes run directly at the end of set-up
constexpr int kMaxSamples = 1 << 16;
constexpr std::size_t kTableWords = std::size_t{1} << 16;
constexpr int kQueue = 1024;
constexpr int kSteps = 25000;

// Everything the handler touches is preallocated: it makes no call that
// is not async-signal-safe. The timer may interrupt any thread the
// program runs, two at once, so the queue is per thread and the shared
// state is lock-free atomics.
std::uint32_t g_table[kTableWords];
thread_local std::uint64_t t_queue[kQueue];
double g_samples[kMaxSamples];
std::atomic<int> g_count{0};
std::atomic<std::int64_t> g_total_ns{0};
std::atomic<std::uint64_t> g_sink{0};  ///< keeps the kernel's result live

std::int64_t clock_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 16;
}

/// Run the kernel once and record its time. The kernel's data is first
/// brought into cache, untimed: the workload it interrupted may have
/// evicted it, by an amount that depends on the program, which must not
/// move the probe.
void run_once() {
  const std::int64_t start = clock_ns();
  std::uint64_t* q = t_queue;
  std::uint64_t x = 7, sum = 0;
  for (std::size_t i = 0; i < kTableWords; i += 16) sum += g_table[i];
  for (int i = 0; i < kQueue; ++i) q[i] = lcg(x);
  const std::int64_t warm = clock_ns();
  std::uint32_t at = 0;
  std::make_heap(q, q + kQueue, std::greater<>());
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(q, q + kQueue, std::greater<>());
    const std::uint64_t t = q[kQueue - 1];
    at = g_table[(at ^ t) & (kTableWords - 1)];
    sum += at;
    q[kQueue - 1] = t + (lcg(x) & 0xFFFF);
    std::push_heap(q, q + kQueue, std::greater<>());
  }
  g_sink.fetch_xor(sum, std::memory_order_relaxed);
  const std::int64_t end = clock_ns();
  const int k = g_count.fetch_add(1, std::memory_order_relaxed);
  if (k < kMaxSamples) g_samples[k] = static_cast<double>(end - warm) * 1e-9;
  g_total_ns.fetch_add(end - start, std::memory_order_relaxed);
}

void on_sigprof(int) {
  const int saved = errno;
  run_once();
  errno = saved;
}

void set_timer(long us) {
  itimerval it{};
  it.it_interval.tv_sec = us / 1000000;
  it.it_interval.tv_usec = us % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, nullptr);
}

/// Probe kBurst times now, then every kEveryUs of CPU time until stop().
void start() {
  std::uint64_t x = 1;
  for (std::uint32_t& w : g_table) w = static_cast<std::uint32_t>(lcg(x));
  for (int i = 0; i < kBurst; ++i) run_once();
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(kEveryUs);
}

void stop() { set_timer(0); }

/// Host time spent probing so far, in seconds.
double total_s() {
  return static_cast<double>(g_total_ns.load(std::memory_order_relaxed)) *
         1e-9;
}

/// Mean time of the probes [first, last), in seconds; 0 if none.
double mean_s(int first, int last) {
  last = std::min(last, g_count.load(std::memory_order_relaxed));
  last = std::min(last, kMaxSamples);
  double sum = 0.0;
  for (int i = first; i < last; ++i) sum += g_samples[i];
  return last > first ? sum / (last - first) : 0.0;
}

/// The burst times set-up's host speed, the timer probes the run's.
double burst_mean_s() { return mean_s(0, kBurst); }
int timer_count() {
  return std::max(0, std::min(g_count.load(), kMaxSamples) - kBurst);
}
double timer_mean_s() { return mean_s(kBurst, kMaxSamples); }

}  // namespace probe

// ----------------------------------------------------------------- pass

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool small = false;        ///< self-test size
  bool setup_only = false;   ///< stop after the set-up phase
  std::string trace_out;     ///< non-empty: record spans, write them here
};

/// Everything one pass measures. Timings are host seconds; metrics
/// marked (sim) in METRICS.md are simulated statistics.
struct Pass {
  explicit Pass(bool trace) : spans(trace) {}

  SpanLog spans;
  std::int64_t setup_end_ns = 0;
  double setup_s = 0.0;
  double run_s = 0.0;  ///< host time inside simulation calls, less probes
  double work = 0.0;
  int threads = 1;
  int attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> metrics;  ///< per layer

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }

  /// End the set-up phase: the first simulated event comes next.
  void end_setup(Span& setup) {
    setup_s = setup.stop();
    setup_end_ns = now_ns();
    probe::start();
  }
};

/// Time a build step of the set-up phase (not counted in run_s).
template <class F>
double build(Pass& p, std::string_view name, F&& f) {
  Span s(p.spans, name);
  f();
  return s.stop();
}

/// Time one simulation call of an operation, less the host-speed probes
/// that ran inside it; adds it to run_s.
template <class F>
double simulate(Pass& p, std::string_view name, F&& f) {
  const double probed = probe::total_s();
  Span s(p.spans, name);
  f();
  const double dt = s.stop() - (probe::total_s() - probed);
  p.run_s += dt;
  return dt;
}

/// Run one operation: a thrown exception (ContractError included) or a
/// non-empty check message marks it failed; neither aborts the pass.
void operation(Pass& p, std::string_view name,
               const std::function<std::string()>& body) {
  const int id = p.attempted++;
  Span s(p.spans, name, id);
  try {
    const std::string bad = body();
    if (!bad.empty()) p.failures.push_back(std::string(name) + ":" + bad);
  } catch (const std::exception& e) {
    p.failures.push_back(std::string(name) + " threw: " + e.what());
  }
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ hpl_delta

// Kernel efficiencies fitted by calibrate_kernels, relative to the
// repository root (the working directory run.py gives every pass).
constexpr const char* kCalibration = "bench/calibration.json";

// Shipped n=25,000 LINPACK point (bench/baselines.json, fig1_linpack with
// the calibration above).
constexpr double kGoldenGflops = 12.997097196394535;
constexpr double kGoldenSimSeconds = 801.557186904523;

// Flat JSON object of kernel efficiencies written by calibrate_kernels.
void load_calibration(proc::NodeModel& node, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read calibration " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto load = [&](const char* key, double& field) {
    const std::string quoted = std::string("\"") + key + "\"";
    const std::size_t at = text.find(quoted);
    const std::size_t colon =
        at == std::string::npos ? at : text.find(':', at + quoted.size());
    if (colon == std::string::npos)
      throw std::runtime_error(path + " lacks " + key);
    field = std::strtod(text.c_str() + colon + 1, nullptr);
  };
  load("gemm_efficiency", node.gemm_efficiency);
  load("trsm_efficiency", node.trsm_efficiency);
  load("panel_efficiency", node.panel_efficiency);
  load("vector_efficiency", node.vector_efficiency);
}

// Counters a replay must reproduce exactly (fig1_linpack --skeleton's
// comparison set; payload-pool and lu.skeleton.* counters legitimately
// differ between a derived and a replayed machine).
constexpr const char* kReplayCheckedCounters[] = {
    "core.engine.events", "core.engine.calls_scheduled",
    "nx.sends",           "nx.recvs",
    "nx.bytes_sent",      "nx.flops_charged",
    "nx.compute.ns",      "nx.send_wait.ns",
    "nx.recv_wait.ns",    "mesh.messages",
    "mesh.stalls",        "mesh.reroutes",
};

// Every message sent is received and crosses the mesh model once.
std::string check_message_flow(nx::NxMachine& m) {
  const obs::Registry& r = m.snapshot_counters();
  const auto sends = r.value("nx.sends");
  const auto recvs = r.value("nx.recvs");
  const auto mesh = r.value("mesh.messages");
  if (sends == recvs && sends == mesh && sends > 0) return {};
  return " nx.sends " + std::to_string(sends) + " nx.recvs " +
         std::to_string(recvs) + " mesh.messages " + std::to_string(mesh);
}

std::string compare_runs(const linalg::LuResult& a, nx::NxMachine& ma,
                         const linalg::LuResult& b, nx::NxMachine& mb) {
  std::string bad;
  if (a.elapsed != b.elapsed) bad += " elapsed";
  if (a.gflops != b.gflops) bad += " gflops";
  if (a.messages != b.messages) bad += " messages";
  if (a.bytes_moved != b.bytes_moved) bad += " bytes_moved";
  if (a.flops_charged != b.flops_charged) bad += " flops_charged";
  if (a.compute_time != b.compute_time) bad += " compute_time";
  const obs::Registry& ra = ma.snapshot_counters();
  const obs::Registry& rb = mb.snapshot_counters();
  for (const char* name : kReplayCheckedCounters)
    if (ra.value(name) != rb.value(name)) bad += std::string(" ") + name;
  return bad;
}

void hpl_delta(Pass& p, const Options& o) {
  const std::int64_t n = o.small ? 2000 : 25000;
  proc::MachineConfig calibrated = proc::machine_by_name("delta");
  const proc::MachineConfig uncalibrated = calibrated;
  // One machine per operation: simulated time accumulates on a machine.
  std::unique_ptr<nx::NxMachine> lu_m, derive_m, replay_m, default_m;
  {
    Span setup(p.spans, "bench.setup");
    load_calibration(calibrated.node, kCalibration);
    double build_s = 0.0;
    for (auto* m : {&lu_m, &derive_m, &replay_m})
      build_s += build(p, "nx.NxMachine", [&] {
        *m = std::make_unique<nx::NxMachine>(calibrated);
      });
    build_s += build(p, "nx.NxMachine", [&] {
      default_m = std::make_unique<nx::NxMachine>(uncalibrated);
    });
    p.metric("nx.machine_build_s", build_s);
    p.end_setup(setup);
  }
  if (o.setup_only) return;

  linalg::LuConfig cfg = linalg::lu_config_for(*lu_m, n, 64);
  cfg.seed = o.seed;  // modeled LU moves no values: the input is (n, nb)
  linalg::LuResult lu, derived, replayed, replayed_default;
  std::shared_ptr<const linalg::LuSkeleton> skel;
  double lu_s = 0.0, derive_s = 0.0, replay_s = 0.0;

  operation(p, "hpl.lu", [&] {
    lu_s = simulate(p, "linalg.run_distributed_lu",
                    [&] { lu = linalg::run_distributed_lu(*lu_m, cfg); });
    std::string bad = check_message_flow(*lu_m);
    if (!o.small && o.seed == kDefaultSeed &&
        (lu.gflops != kGoldenGflops ||
         lu.elapsed.as_sec() != kGoldenSimSeconds)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " golden %.17g GFLOPS %.17g s",
                    lu.gflops, lu.elapsed.as_sec());
      bad += buf;
    }
    return bad;
  });
  operation(p, "hpl.derive", [&] {
    derive_s = simulate(p, "linalg.derive_lu_skeleton", [&] {
      skel = linalg::derive_lu_skeleton(*derive_m, cfg, &derived);
    });
    if (!skel) return std::string(" schedule not representable");
    return check_message_flow(*derive_m) +
           compare_runs(lu, *lu_m, derived, *derive_m);
  });
  operation(p, "hpl.replay.calibrated", [&] {
    if (!skel) return std::string(" no skeleton");
    replay_s = simulate(p, "linalg.replay_lu_skeleton", [&] {
      replayed = linalg::replay_lu_skeleton(*replay_m, cfg, *skel);
    });
    return check_message_flow(*replay_m) +
           compare_runs(derived, *derive_m, replayed, *replay_m);
  });
  operation(p, "hpl.replay.default", [&] {
    if (!skel) return std::string(" no skeleton");
    simulate(p, "linalg.replay_lu_skeleton", [&] {
      replayed_default = linalg::replay_lu_skeleton(*default_m, cfg, *skel);
    });
    std::string bad = check_message_flow(*default_m);
    if (replayed_default.messages != derived.messages) bad += " messages";
    return bad;
  });

  const obs::Registry& r = lu_m->snapshot_counters();
  for (nx::NxMachine* m : {lu_m.get(), derive_m.get(), replay_m.get(),
                           default_m.get()})
    p.work += static_cast<double>(
        m->snapshot_counters().value("core.engine.events"));
  const double events = static_cast<double>(r.value("core.engine.events"));
  const double ops = skel ? static_cast<double>(skel->total_ops()) : 0.0;
  p.metric("core.events", events);
  p.metric("core.peak_queue_depth",
           static_cast<double>(r.value("core.engine.peak_queue_depth")));
  p.metric("core.host_ns_per_event", ratio(lu_s * 1e9, events));
  p.metric("nx.messages", static_cast<double>(r.value("nx.sends")));
  p.metric("nx.bytes", static_cast<double>(r.value("nx.bytes_sent")));
  p.metric("nx.payload_pool_sized",
           static_cast<double>(r.value("nx.payload.pool.sized")));
  p.metric("nx.recv_wait_share",
           ratio(static_cast<double>(r.value("nx.recv_wait.ns")),
                 static_cast<double>(lu_m->nodes()) * lu.elapsed.as_ns()));
  p.metric("linalg.lu_s", lu_s);
  p.metric("linalg.derive_s", derive_s);
  p.metric("linalg.replay_s", replay_s);
  p.metric("linalg.schedule_gen_share", ratio(derive_s - replay_s, derive_s));
  p.metric("linalg.skeleton_ops", ops);
  p.metric("linalg.replay_ops_per_s", ratio(ops, replay_s));
  p.metric("linalg.skeleton_mb", ops * sizeof(nx::SkelOp) / (1024.0 * 1024.0));
  p.metric("linalg.gflops_n25000", o.small ? 0.0 : lu.gflops);
  p.metric("mesh.messages", static_cast<double>(r.value("mesh.messages")));
  p.metric("mesh.stalls", static_cast<double>(r.value("mesh.stalls")));
  const auto* net = dynamic_cast<mesh::AnalyticalMeshNet*>(&lu_m->network());
  p.metric("mesh.contention_us_mean", net ? net->contention_mean_us() : 0.0);

  Span teardown(p.spans, "bench.teardown");
  skel.reset();
  lu_m.reset();
  derive_m.reset();
  replay_m.reset();
  default_m.reset();
}

// ------------------------------------------------------------ flit_mesh

struct FlitPhase {
  const char* name;
  double gap_us;
  std::unique_ptr<mesh::FlitNetwork> net;
  double run_s = 0.0;
};

void flit_mesh(Pass& p, const Options& o) {
  const std::int32_t side = o.small ? 16 : 64;
  const mesh::Mesh2D grid(side, side);
  // One thread: at two, the shards wait for each other every window, so
  // when the hypervisor takes one core away both stall, which neither
  // core's own speed shows; the host-speed probe cannot scale that out.
  p.threads = 1;
  FlitPhase phases[] = {{"dense", 20.0, nullptr}, {"sparse", 20000.0, nullptr}};
  {
    Span setup(p.spans, "bench.setup");
    double build_s = 0.0;
    for (std::size_t i = 0; i < std::size(phases); ++i) {
      FlitPhase& ph = phases[i];
      mesh::TrafficConfig tc;
      tc.messages_per_node = o.small ? 4 : 5;
      tc.message_bytes = 1024;
      tc.mean_gap = sim::Time::us(ph.gap_us);
      tc.seed = o.seed + i;
      std::vector<mesh::TrafficRecord> trace;
      build(p, "mesh.generate_traffic",
            [&] { trace = mesh::generate_traffic(grid, tc); });
      build_s += build(p, "mesh.FlitNetwork", [&] {
        ph.net = std::make_unique<mesh::FlitNetwork>(grid, mesh::FlitParams{});
        ph.net->set_threads(p.threads);
      });
      build(p, "mesh.FlitNetwork.inject", [&] {
        const double cycle_us = ph.net->cycle_time().as_us();
        for (const auto& rec : trace)
          ph.net->inject(rec.src, rec.dst, rec.bytes,
                         static_cast<std::uint64_t>(rec.depart.as_us() /
                                                    cycle_us));
      });
    }
    p.metric("mesh.flit.build_s", build_s);
    p.end_setup(setup);
  }
  if (o.setup_only) return;

  for (FlitPhase& ph : phases) {
    operation(p, std::string("flit.") + ph.name, [&] {
      mesh::FlitNetwork& net = *ph.net;
      ph.run_s = simulate(p, "mesh.FlitNetwork.run", [&] { net.run(); });
      std::string bad;
      const auto& msgs = net.messages();
      const auto undelivered = std::count_if(
          msgs.begin(), msgs.end(),
          [](const mesh::FlitMessage& m) { return !m.delivered; });
      if (undelivered != 0 || net.undelivered() != 0)
        bad += " undelivered " + std::to_string(undelivered);
      if (net.injected_flits() != net.ejected_flits() ||
          net.in_flight_flits() != 0)
        bad += " injected " + std::to_string(net.injected_flits()) +
               " ejected " + std::to_string(net.ejected_flits());
      return bad;
    });
  }

  double link = 0, cycles = 0, skipped = 0, visits = 0, ffwd = 0,
         windows = 0, waits = 0, boundary = 0;
  for (const FlitPhase& ph : phases) {
    const mesh::FlitNetwork& net = *ph.net;
    link += static_cast<double>(net.link_flits());
    cycles += static_cast<double>(net.cycle());
    skipped += static_cast<double>(net.skipped_cycles());
    visits += static_cast<double>(net.router_visits());
    ffwd += static_cast<double>(net.fastforwarded_flits());
    windows += static_cast<double>(net.parallel_windows());
    waits += static_cast<double>(net.barrier_waits());
    boundary += static_cast<double>(net.boundary_flits());
    p.metric(std::string("mesh.flit.") + ph.name + "_s", ph.run_s);
    p.metric(std::string("mesh.flit.host_ns_per_hop.") + ph.name,
             ratio(ph.run_s * 1e9, static_cast<double>(net.link_flits())));
  }
  p.work = link;
  p.metric("mesh.flit.link_flits", link);
  p.metric("mesh.flit.cycles", cycles);
  p.metric("mesh.flit.cycles_skipped", skipped);
  p.metric("mesh.flit.skip_ratio", ratio(skipped, cycles));
  p.metric("mesh.flit.router_visits", visits);
  p.metric("mesh.flit.visits_per_hop", ratio(visits, link));
  p.metric("mesh.flit.ffwd_flits", ffwd);
  p.metric("mesh.flit.shard_windows", windows);
  p.metric("mesh.flit.barrier_waits", waits);
  p.metric("mesh.flit.boundary_flits", boundary);

  Span teardown(p.spans, "bench.teardown");
  for (FlitPhase& ph : phases) ph.net.reset();
}

// ------------------------------------------------------------- grid_day

struct GridDay {
  std::unique_ptr<grid::WorkloadGenerator> requests;
  std::unique_ptr<grid::GridSimulator> sim;
};

void grid_day(Pass& p, const Options& o) {
  // Independent days (seed, seed+1, ...): one day's cost swings with its
  // rush-hour peak, so a pass averages over several.
  constexpr int kDays = 3;
  grid::FederationConfig fc;  // 4 regions x 6 leaves
  std::unique_ptr<grid::Federation> fed;
  std::vector<GridDay> days(kDays);
  {
    Span setup(p.spans, "bench.setup");
    double build_s = build(p, "grid.Federation", [&] {
      fed = std::make_unique<grid::Federation>(fc);
    });
    for (int d = 0; d < kDays; ++d) {
      // The grid_rush_hour exhibit's load, one day long. Widest-path
      // placement: under least-loaded this load sits at the edge of
      // overload and a day's cost varies 2x from seed to seed.
      grid::WorkloadConfig wc;
      wc.seed = o.seed + static_cast<std::uint64_t>(d);
      wc.days = 1.0;
      wc.requests_per_day = o.small ? 20000.0 : 600000.0;
      wc.dataset_count = o.small ? 2000 : 60000;
      wc.median_bytes = 3.5e6;
      wc.rush_amplitude = 1.2;
      GridDay& day = days[static_cast<std::size_t>(d)];
      build_s += build(p, "grid.WorkloadGenerator", [&] {
        day.requests = std::make_unique<grid::WorkloadGenerator>(wc, *fed);
      });
      build_s += build(p, "grid.GridSimulator", [&] {
        day.sim = std::make_unique<grid::GridSimulator>(
            *fed, grid::Placement::WidestPath);
      });
    }
    p.metric("grid.build_s", build_s);
    p.end_setup(setup);
  }
  if (o.setup_only) return;

  double run_s = 0.0;
  for (GridDay& day : days) {
    operation(p, "grid.day", [&] {
      run_s += simulate(p, "grid.GridSimulator.run",
                        [&] { day.sim->run(*day.requests); });
      const auto& s = day.sim->stats();
      std::string bad;
      if (s.requests !=
          s.cache_hits + s.coalesced + s.flows_completed + s.unroutable)
        bad += " requests != hits + coalesced + flows + unroutable";
      obs::Registry reg;
      day.sim->export_counters(reg);
      std::int64_t ingress = 0, egress = 0;
      for (const auto* sites : {&fed->archives(), &fed->leaves()})
        for (const grid::GridSite& g : *sites) {
          const std::string base = "grid.site." + fed->wan().site_name(g.site);
          ingress += reg.value(base + ".ingress_bytes");
          egress += reg.value(base + ".egress_bytes");
        }
      if (ingress != egress ||
          ingress != static_cast<std::int64_t>(s.bytes_moved))
        bad += " site bytes not conserved (ingress " +
               std::to_string(ingress) + " egress " + std::to_string(egress) +
               ")";
      return bad;
    });
  }

  double requests = 0, hits = 0, flows = 0, slowdown_sum = 0, recomputes = 0,
         updates = 0, stale = 0, completed = 0, peak = 0;
  for (const GridDay& day : days) {
    const auto& s = day.sim->stats();
    const auto& e = day.sim->engine_stats();
    requests += static_cast<double>(s.requests);
    hits += static_cast<double>(s.cache_hits);
    flows += static_cast<double>(s.flows_completed);
    slowdown_sum += s.slowdown_sum;
    recomputes += static_cast<double>(e.recomputes);
    updates += static_cast<double>(e.rate_updates);
    stale += static_cast<double>(e.stale_events);
    completed += static_cast<double>(e.completed);
    peak = std::max(peak, static_cast<double>(e.active_peak));
  }
  p.work = requests;
  p.metric("grid.run_s", run_s);
  p.metric("grid.requests", requests);
  p.metric("grid.cache_hit_ratio", ratio(hits, requests));
  p.metric("grid.flows_completed", flows);
  p.metric("grid.mean_slowdown", ratio(slowdown_sum, flows));
  p.metric("wan.flow.recomputes", recomputes);
  p.metric("wan.flow.rate_updates", updates);
  p.metric("wan.flow.stale_events", stale);
  p.metric("wan.flow.stale_ratio", ratio(stale, stale + completed));
  p.metric("wan.flow.active_peak", peak);
  p.metric("wan.flow.host_us_per_recompute", ratio(run_s * 1e6, recomputes));

  Span teardown(p.spans, "bench.teardown");
  days.clear();
  fed.reset();
}

// ------------------------------------------------------- platform_month

// Month 0 of the default seed is the shipped A13 month (shared_platform
// defaults, bench/baselines.json): waste % per strategy.
constexpr double kGoldenWastePct[] = {34.30291558841992, 32.4872875047432,
                                      32.49217391468965};

void platform_month(Pass& p, const Options& o) {
  const int months = o.small ? 2 : 12;
  const mesh::Mesh2D grid(33, 16);
  const sched::CheckpointStrategy strategies[] = {
      sched::CheckpointStrategy::Uncoordinated,
      sched::CheckpointStrategy::FifoCooperative,
      sched::CheckpointStrategy::OrderedCooperative,
  };
  constexpr std::size_t kStrategies = std::size(strategies);
  std::vector<std::unique_ptr<sched::PlatformSimulator>> sims;
  std::vector<std::size_t> trace_jobs;
  {
    Span setup(p.spans, "bench.setup");
    double workload_s = 0.0;
    for (int m = 0; m < months; ++m) {
      sched::PlatformWorkloadConfig wc;
      wc.seed = o.seed + static_cast<std::uint64_t>(m);
      wc.jobs = o.small ? 100 : 1000;
      wc.days = o.small ? 3.0 : 30.0;
      std::vector<sched::PlatformJob> trace;
      workload_s += build(p, "sched.platform_workload",
                          [&] { trace = sched::platform_workload(wc, grid); });
      sched::PlatformConfig cfg;
      cfg.io_disks = 4;
      // Offset so the default seed's month 0 uses fault-trace seed 1.
      cfg.failure_seed =
          o.seed - (kDefaultSeed - 1) + static_cast<std::uint64_t>(m);
      for (const auto strategy : strategies) {
        cfg.strategy = strategy;
        build(p, "sched.PlatformSimulator", [&] {
          sims.push_back(std::make_unique<sched::PlatformSimulator>(grid, cfg));
          sims.back()->submit(trace);
        });
        trace_jobs.push_back(trace.size());
      }
    }
    p.metric("sched.workload_build_s", workload_s);
    p.end_setup(setup);
  }
  if (o.setup_only) return;

  std::vector<sched::PlatformResult> results(sims.size());
  std::vector<double> run_s(kStrategies, 0.0);
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const std::size_t k = i % kStrategies;
    const std::size_t month = i / kStrategies;
    const std::string name = "platform.m" + std::to_string(month) + "." +
                             sched::strategy_name(strategies[k]);
    operation(p, name, [&] {
      run_s[k] += simulate(p, "sched.PlatformSimulator.run",
                           [&] { results[i] = sims[i]->run(); });
      const sched::PlatformResult& r = results[i];
      std::string bad;
      if (!r.balanced()) bad += " node-second buckets unbalanced";
      if (r.jobs != static_cast<std::int64_t>(trace_jobs[i]))
        bad += " jobs " + std::to_string(r.jobs);
      if (!o.small && o.seed == kDefaultSeed && month == 0 &&
          r.waste() * 100.0 != kGoldenWastePct[k]) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " golden waste %.17g %%",
                      r.waste() * 100.0);
        bad += buf;
      }
      return bad;
    });
  }

  double jobs = 0, backfilled = 0, bytes = 0, peak = 0, crashes = 0,
         rollbacks = 0, aborted = 0;
  std::vector<double> waste(kStrategies, 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sched::PlatformResult& r = results[i];
    jobs += static_cast<double>(r.jobs);
    backfilled += static_cast<double>(r.backfilled);
    bytes += static_cast<double>(r.io.bytes_completed);
    peak = std::max(peak, static_cast<double>(r.io.peak_active));
    crashes += static_cast<double>(r.crashes_hit);
    rollbacks += static_cast<double>(r.rollbacks);
    aborted += static_cast<double>(r.ckpts_aborted);
    waste[i % kStrategies] += r.waste() * 100.0 / months;
  }
  p.work = jobs;
  for (std::size_t k = 0; k < kStrategies; ++k) {
    const std::string s = sched::strategy_name(strategies[k]);
    p.metric("sched.run_s." + s, run_s[k]);
    p.metric("sched.waste_pct." + s, waste[k]);
  }
  p.metric("sched.jobs", jobs);
  p.metric("sched.backfilled", backfilled);
  p.metric("io.bytes_completed", bytes);
  p.metric("io.peak_active", peak);
  p.metric("fault.crashes_hit", crashes);
  p.metric("fault.rollbacks", rollbacks);
  p.metric("sched.ckpts_aborted", aborted);

  Span teardown(p.spans, "bench.teardown");
  sims.clear();
}

// ----------------------------------------------------------------- main

const std::map<std::string, void (*)(Pass&, const Options&)>& workloads() {
  static const std::map<std::string, void (*)(Pass&, const Options&)> w = {
      {"hpl_delta", hpl_delta},
      {"flit_mesh", flit_mesh},
      {"grid_day", grid_day},
      {"platform_month", platform_month},
  };
  return w;
}

void print_result(const Pass& p, const Options& o) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
              "\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"setup_end_ns\":%lld,\"setup_s\":%.9f,\"run_s\":%.9f,"
              "\"work\":%.17g,\"attempted\":%d,"
              "\"spans\":%zu,\"top_level_s\":%.9f,\"failures\":[",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              p.threads, json_escape(kCompiler).c_str(),
              HPCCBENCH_BUILD_TYPE, static_cast<long long>(p.setup_end_ns),
              p.setup_s, p.run_s, p.work, p.attempted,
              p.spans.size(), p.spans.top_level_s());
  for (std::size_t i = 0; i < p.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(p.failures[i]).c_str());
  std::printf("],\"burst_mean_s\":%.9f,\"probes\":%d,"
              "\"probe_mean_s\":%.9f,\"probe_total_s\":%.9f,"
              "\"metrics\":{",
              probe::burst_mean_s(), probe::timer_count(),
              probe::timer_mean_s(), probe::total_s());
  for (std::size_t i = 0; i < p.metrics.size(); ++i)
    std::printf("%s\"%s\":%.17g", i ? "," : "", p.metrics[i].first.c_str(),
                p.metrics[i].second);
  std::printf("}}\n");
}

const char* kUsage =
    "usage: hpccbench --workload NAME [--seed N] [--small] [--setup-only]\n"
    "                 [--trace-out PATH]\n"
    "workloads: hpl_delta flit_mesh grid_day platform_month\n";

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "hpccbench: refusing to measure a non-optimised build "
                       "(build type %s)\n", HPCCBENCH_BUILD_TYPE);
  return 3;
#endif
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') {
        std::fprintf(stderr, "hpccbench: bad --seed '%s'\n", argv[i]);
        return 2;
      }
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      std::fprintf(stderr, "hpccbench: unknown argument '%s'\n%s", a.c_str(),
                   kUsage);
      return 2;
    }
  }
  const auto it = workloads().find(o.workload);
  if (it == workloads().end()) {
    std::fprintf(stderr, "hpccbench: unknown workload '%s'\n%s",
                 o.workload.c_str(), kUsage);
    return 2;
  }

  Pass p(!o.trace_out.empty());
  try {
    it->second(p, o);
    probe::stop();
  } catch (const std::exception& e) {
    // Only set-up can throw here: operations catch their own failures.
    std::fprintf(stderr, "hpccbench: %s set-up failed: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }
  if (!o.trace_out.empty() &&
      !p.spans.write_chrome(o.trace_out, "hpccbench " + o.workload)) {
    std::fprintf(stderr, "hpccbench: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  print_result(p, o);
  return 0;
}
