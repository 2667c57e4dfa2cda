// perfbench probe: runs one benchmark workload through the public runner
// API (runner::run_uniform / run_hotspot with stream_metrics) and prints
// one JSON object on stdout. run.py drives it, one process per sample,
// because getrusage's ru_maxrss is a per-process high-water mark.
//
//   perfbench_probe --mode setup|timed|traced --workload NAME --seed N
//                   [--threads T] [--replicas R] [--tooling] [--force-fail CHECK]
//   perfbench_probe --mode reference
//
// Modes:
//   setup   timed HexGrid and LinkTable constructors of the workload's grid.
//   timed   a warming one-tick run, kSetupReps timed one-tick runs, then
//           the full run, untraced: host wall and CPU of the full run and
//           the median one-tick run, peak RSS, the run's exact outputs, and
//           the monotonic-clock instants the timed one-tick calls and the
//           full run started and the run ended.
//   reference  the host-speed reference (ReferenceWork), one unit every
//           kReferencePause on worker 0's CPU until SIGTERM; run.py scales
//           the timed processes' CPU seconds by it.
//   traced  the full run with a trace sink that keeps its counters in
//           memory: acquisition delays, per-kind trace counts, host time
//           between streaming folds. The modelled metrics pool R replicas
//           (seeds derived from N, see replica(); the workload's default
//           when --replicas is absent). --tooling also keeps replica 0's
//           events and times check_trace and trace_to_jsonl over them.
//
// Every mode gates on correctness and exits 3 naming the failed check;
// --force-fail CHECK fails that check on purpose (the self-test uses it).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cell/grid.hpp"
#include "cell/partition.hpp"
#include "metrics/summary.hpp"
#include "net/link_table.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "runner/scenario.hpp"
#include "sim/cpuset.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"

namespace {

using namespace dca;
using Clock = std::chrono::steady_clock;

// -- workloads ---------------------------------------------------------------

struct Workload {
  runner::ScenarioConfig cfg;
  double rho = 0.0;
  bool hotspot = false;
  double hot_factor = 1.0;
  sim::SimTime hot_start = 0;
  sim::SimTime hot_end = 0;
  std::vector<cell::CellId> hot_cells;
  /// Acquisitions after warm-up the run must keep, so that p99.9 has at
  /// least ten samples beyond it.
  std::uint64_t min_acquisitions = 0;
  /// Independent replicas the modelled metrics pool (see mode_traced).
  int replicas = 1;
};

/// The paper geometry every workload shares: radius 2, 70 channels,
/// cluster 7, T = 5 ms, mean holding 5 s, the adaptive scheme, streamed.
runner::ScenarioConfig paper_geometry(int rows, int cols, std::uint64_t seed) {
  runner::ScenarioConfig c;
  c.rows = rows;
  c.cols = cols;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.latency = sim::milliseconds(5);
  c.mean_holding_s = 5.0;
  c.seed = seed;
  c.stream_metrics = true;
  c.pin = true;
  return c;
}

/// The hex disk of `radius` around the cell of shard 0 farthest from every
/// other shard (lowest id on ties), so the hot spot's borrowing and
/// searching stay inside one block-partition shard.
std::vector<cell::CellId> hot_disk(const runner::ScenarioConfig& cfg, int radius) {
  const cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius, cfg.wrap);
  const std::vector<int> part = cell::block_partition(grid, cfg.shards);
  const int full_disk = 1 + 3 * radius * (radius + 1);
  cell::CellId best = cell::kNoCell;
  int best_depth = -1;
  for (cell::CellId c = 0; c < grid.n_cells(); ++c) {
    if (part[static_cast<std::size_t>(c)] != 0) continue;
    int depth = grid.rows() + grid.cols();
    int disk = 0;
    for (cell::CellId x = 0; x < grid.n_cells(); ++x) {
      const int d = grid.distance(c, x);
      if (d <= radius) ++disk;
      if (part[static_cast<std::size_t>(x)] != 0) depth = std::min(depth, d);
    }
    if (disk == full_disk && depth > best_depth) {
      best = c;
      best_depth = depth;
    }
  }
  std::vector<cell::CellId> cells;
  if (best == cell::kNoCell || best_depth <= radius) return cells;
  for (cell::CellId x = 0; x < grid.n_cells(); ++x) {
    if (grid.distance(best, x) <= radius) cells.push_back(x);
  }
  return cells;
}

/// Builds the named workload from the seed; returns false for an unknown
/// name. The run uses `threads` pinned workers, one when `threads` <= 0.
bool make_workload(const std::string& name, std::uint64_t seed, int threads,
                   Workload& w) {
  if (name == "metro") {
    // 96x96 bounded, uniform rho 0.9, one shard on one thread.
    w.cfg = paper_geometry(96, 96, seed);
    w.cfg.duration = sim::seconds(12);
    w.cfg.warmup = sim::seconds(7);
    w.rho = 0.9;
    w.min_acquisitions = 10000;
  } else if (name == "hotspot") {
    // 48x48, base rho 0.5, a radius-3 disk (37 cells) at 4x the base rate
    // for the middle third of the horizon; 4 shards.
    w.cfg = paper_geometry(48, 48, seed);
    w.cfg.duration = sim::seconds(30);
    w.cfg.warmup = sim::seconds(5);
    w.cfg.shards = 4;
    w.rho = 0.5;
    w.hotspot = true;
    w.hot_factor = 4.0;
    w.hot_start = w.cfg.duration / 3;
    w.hot_end = 2 * w.cfg.duration / 3;
    w.hot_cells = hot_disk(w.cfg, 3);
    w.min_acquisitions = 10000;
    w.replicas = 8;
  } else if (name == "churn" || name == "churn-crash") {
    // 24x24 uniform rho 0.9 with mobility, 1% frame loss (reliable
    // transport) and request timeouts; one shard. churn-crash adds MSS
    // crashes; it feeds only the crash-recovery per-layer figures, since
    // the heavy-tailed outages make its delays differ too much from seed
    // to seed for an end-to-end metric.
    w.cfg = paper_geometry(24, 24, seed);
    w.cfg.duration = sim::seconds(15);
    w.cfg.warmup = sim::seconds(5);
    w.cfg.mean_dwell_s = 3.0;
    w.cfg.fault.drop_prob = 0.01;
    w.cfg.request_timeout = sim::milliseconds(200);
    if (name == "churn-crash") {
      w.cfg.fault.crash_rate_per_min = 0.5;
      w.cfg.fault.crash_mean_s = 2.0;
    }
    w.rho = 0.9;
    w.min_acquisitions = 10000;
    w.replicas = 5;
  } else if (name == "tiny") {
    // Self-test configuration: 7x7, a few simulated seconds, overloaded so
    // that calls borrow and block.
    w.cfg = paper_geometry(7, 7, seed);
    w.cfg.duration = sim::seconds(4);
    w.cfg.warmup = sim::seconds(1);
    w.rho = 2.0;
  } else {
    return false;
  }
  w.cfg.threads = std::max(1, threads);
  return true;
}

runner::RunResult run(const Workload& w, sim::TraceRecorder* trace,
                      sim::Duration duration) {
  runner::ScenarioConfig cfg = w.cfg;
  cfg.duration = duration;
  if (w.hotspot) {
    return runner::run_hotspot(cfg, runner::Scheme::kAdaptive, w.rho, w.hot_factor,
                               w.hot_start, w.hot_end, w.hot_cells, trace);
  }
  return runner::run_uniform(cfg, runner::Scheme::kAdaptive, w.rho, trace);
}

/// The same call with the horizon cut to one tick: set-up and teardown,
/// no traffic.
runner::RunResult run_setup_only(const Workload& w) {
  Workload one = w;
  one.cfg.warmup = 0;
  return run(one, nullptr, 1);
}

// -- host measurement ------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

/// Seconds on the steady clock, which on Linux is CLOCK_MONOTONIC, the
/// clock of Python's time.monotonic(): run.py lines up the reference's
/// units with a timed run's window on it.
double monotonic_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// CPU seconds of the calling thread. Time the host takes the CPU away
/// (steal) does not count.
double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Timed repetitions of a set-up step; the modes report their median.
constexpr int kSetupReps = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- JSON output -------------------------------------------------------------

/// Flat JSON object writer. Doubles print with 17 significant digits so
/// exact outputs compare bit for bit after a round trip.
class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

/// Every output of a run that must repeat bit for bit for a seed, at any
/// thread count: event and message counts, the aggregate, the transport
/// and availability counters.
std::string exact_outputs(const runner::RunResult& r) {
  const metrics::Aggregate& a = r.agg;
  JsonObject by_kind;
  for (int k = 0; k < net::kNumMsgKinds; ++k) {
    char key[8];
    std::snprintf(key, sizeof key, "k%d", k);
    by_kind.num(key, r.messages_by_kind[static_cast<std::size_t>(k)]);
  }
  JsonObject j;
  j.num("events", r.executed_events)
      .num("total_messages", r.total_messages)
      .num("cross_shard_messages", r.cross_shard_messages)
      .raw("messages_by_kind", by_kind.text())
      .num("offered_calls", r.offered_calls)
      .num("carried_erlangs", r.carried_erlangs)
      .num("violations", r.violations)
      .flag("quiescent", r.quiescent)
      .num("offered", a.offered)
      .num("acquired", a.acquired)
      .num("blocked", a.blocked)
      .num("starved", a.starved)
      .num("timed_out", a.timed_out)
      .num("downed", a.downed)
      .num("handoff_offered", a.handoff_offered)
      .num("handoff_failures", a.handoff_failures)
      .num("xi1", a.xi1)
      .num("xi2", a.xi2)
      .num("xi3", a.xi3)
      .num("mean_update_attempts", a.mean_update_attempts)
      .num("attempts_mean", a.attempts.mean())
      .num("n_borrow_mean", a.mean_borrowing_neighbors)
      .num("n_search_mean", a.mean_searching_neighbors)
      .num("delay_us_mean", a.delay_us.mean())
      .num("delay_us_count", a.delay_us.count())
      .num("delay_us_max", a.delay_us.max())
      .num("delay_in_T_mean", a.delay_in_T.mean())
      .num("messages_per_call_mean", a.messages_per_call.mean())
      .num("messages_per_call_count", a.messages_per_call.count())
      .num("messages_acquired_mean", a.messages_acquired.mean())
      .num("frames_dropped", r.transport.frames_dropped)
      .num("frames_duplicated", r.transport.frames_duplicated)
      .num("retransmissions", r.transport.retransmissions)
      .num("acks_sent", r.transport.acks_sent)
      .num("crashes", r.availability.crashes)
      .num("resyncs", r.availability.resyncs)
      .num("down_us", r.availability.down_us)
      .num("resync_us", r.availability.resync_us)
      .num("resync_rounds", r.availability.resync_rounds);
  return j.text();
}

// -- correctness gate --------------------------------------------------------

class Gate {
 public:
  explicit Gate(std::string forced) : forced_(std::move(forced)) {}

  /// Fails the named check (exit 3) when `ok` is false or the check was
  /// forced to fail.
  void check(const char* name, bool ok, const std::string& detail = "") const {
    if (ok && forced_ != name) return;
    std::fprintf(stderr, "perfbench gate failed: %s%s%s\n", name,
                 detail.empty() ? "" : ": ", detail.c_str());
    std::exit(3);
  }

  void run_checks(const runner::RunResult& r) const {
    check("theorem1", r.violations == 0,
          std::to_string(r.violations) + " co-channel violations");
    check("quiescence", r.quiescent, "the drain did not reach quiescence");
  }

 private:
  std::string forced_;
};

// -- modes -------------------------------------------------------------------

/// The host-speed reference: a fixed unit of work shaped like the
/// simulator's inner loop, a binary heap of timestamps popped and re-pushed,
/// a hash map of live serials, and dependent loads over a table larger than
/// a core's L2. It uses nothing from src/, so a change to the simulator
/// leaves it alone, while a host that slows the CPU down slows it too.
class ReferenceWork {
 public:
  ReferenceWork() : table_(std::size_t{kMask} + 1, 1u) {
    for (std::uint64_t i = 0; i < 50000; ++i) heap_.push_back(sim::mix64(i) >> 20);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void unit() {
    for (std::uint64_t end = step_ + kSteps; step_ < end; ++step_) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.back() += sim::mix64(step_) & 0xFFFFF;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      for (int k = 0; k < 4; ++k) {
        p_ = (p_ * 2654435761u + table_[p_] + 1u) & kMask;
        table_[p_] += static_cast<std::uint32_t>(step_);
      }
      if (step_ % 2 == 1) {
        live_.emplace(step_, p_);
      } else {
        live_.erase(step_ - 7);
      }
    }
  }

 private:
  static constexpr std::uint32_t kMask = (1u << 25) - 1;  // 128 MiB of uint32
  static constexpr std::uint64_t kSteps = 25000;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> heap_;
  std::unordered_map<std::uint64_t, std::uint32_t> live_;
  std::uint64_t step_ = 0;
  std::uint32_t p_ = 0;
};

volatile std::sig_atomic_t g_stop = 0;

/// Idle time between two reference units, so that the reference takes a
/// small share of the CPU it shares with the timed worker.
constexpr std::chrono::milliseconds kReferencePause{100};

/// Runs a reference unit every kReferencePause on the CPU the kernel pins
/// worker 0 to, until SIGTERM, so that each unit meets the host as the
/// timed worker meets it at that moment; then reports when each unit ended
/// and the CPU seconds it took.
std::string mode_reference() {
  std::signal(SIGTERM, [](int) { g_stop = 1; });
  prctl(PR_SET_PDEATHSIG, SIGTERM);  // stop with run.py, however it ends
  const std::vector<int> cpus = sim::allowed_cpus();
  if (!cpus.empty()) sim::pin_current_thread(cpus.front());
  ReferenceWork work;
  std::printf("ready\n");
  std::fflush(stdout);
  std::string ends, secs;
  while (g_stop == 0) {
    std::this_thread::sleep_for(kReferencePause);
    const double cpu0 = thread_cpu_seconds();
    work.unit();
    const double cpu = thread_cpu_seconds() - cpu0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.9f", ends.empty() ? "" : ",", monotonic_s());
    ends += buf;
    std::snprintf(buf, sizeof buf, "%s%.9f", secs.empty() ? "" : ",", cpu);
    secs += buf;
  }
  JsonObject j;
  j.raw("unit_end_s", "[" + ends + "]").raw("unit_cpu_s", "[" + secs + "]");
  return j.text();
}

/// Times the HexGrid and LinkTable constructors of the workload's grid
/// (medians of kSetupReps).
std::string mode_setup(const Workload& w) {
  std::vector<double> grid_s, links_s;
  std::uint64_t n_links = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    auto t0 = Clock::now();
    const cell::HexGrid grid(w.cfg.rows, w.cfg.cols, w.cfg.interference_radius,
                             w.cfg.wrap);
    grid_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const net::LinkTable links(grid);
    links_s.push_back(seconds_since(t0));
    n_links = static_cast<std::uint64_t>(links.n_links());
  }
  JsonObject j;
  j.num("grid_build_s", median(grid_s))
      .num("link_table_build_s", median(links_s))
      .num("links", n_links);
  return j.text();
}

std::string mode_timed(const Workload& w, const Gate& gate) {
  // One-tick calls first. The first warms the allocator and the caches;
  // the median of the next kSetupReps is the set-up cost, warm like the
  // set-up part of the full call that follows, which the timed run
  // excludes.
  gate.run_checks(run_setup_only(w));
  const double window_start = monotonic_s();
  std::vector<double> setup_wall, setup_cpu;
  for (int i = 0; i < kSetupReps; ++i) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const runner::RunResult s = run_setup_only(w);
    setup_wall.push_back(seconds_since(t0));
    setup_cpu.push_back(cpu_seconds() - cpu0);
    gate.run_checks(s);
  }

  const double run_start = monotonic_s();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const runner::RunResult r = run(w, nullptr, w.cfg.duration);
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  gate.run_checks(r);

  JsonObject j;
  j.num("window_start_s", window_start)
      .num("run_start_s", run_start)
      .num("window_end_s", monotonic_s())
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("setup_wall_s", median(setup_wall))
      .num("setup_cpu_s", median(setup_cpu))
      .num("peak_rss_bytes", r.peak_rss_bytes)
      .num("threads", static_cast<std::uint64_t>(w.cfg.threads))
      .num("cells", static_cast<std::uint64_t>(w.cfg.rows * w.cfg.cols))
      .raw("exact", exact_outputs(r));
  return j.text();
}

/// Trace sink state of one traced run: counters and spans kept in memory,
/// written out once the run is over.
struct TraceStats {
  std::array<std::uint64_t, 32> by_kind{};
  std::uint64_t search_success = 0;
  // Acquisition delays: request instant by serial, for requests made after
  // warm-up; a matching acquire closes the pair and adds its delay to the
  // pooled sample.
  sim::SimTime warmup = 0;
  double T_us = 1.0;
  std::unordered_map<std::uint64_t, sim::SimTime> pending;
  metrics::SampledSummary* delays = nullptr;
  std::uint64_t pairs = 0;
  // Streaming folds hand their events over in one burst at each window
  // barrier at least 1 s of simulated time after the previous fold. A new
  // burst starts at an event that follows a host gap longer than kFoldGap
  // and lies at least kFoldSpan of simulated time past the current
  // burst's first event; the second condition keeps a descheduled worker
  // from splitting a burst.
  static constexpr std::chrono::microseconds kFoldGap{1000};
  static constexpr sim::Duration kFoldSpan = sim::milliseconds(900);
  Clock::time_point last_event{};
  std::vector<Clock::time_point> fold_starts;
  std::vector<sim::SimTime> fold_first_ts;
  bool keep_events = false;
  sim::TraceRecorder events;

  void on_event(const sim::TraceEvent& e) {
    const Clock::time_point now = Clock::now();
    if (fold_starts.empty() ||
        (now - last_event > kFoldGap && e.t >= fold_first_ts.back() + kFoldSpan)) {
      fold_starts.push_back(now);
      fold_first_ts.push_back(e.t);
    }
    last_event = now;

    ++by_kind[static_cast<std::size_t>(e.kind)];
    switch (e.kind) {
      case sim::TraceKind::kRequest:
        if (e.t >= warmup) pending[e.serial] = e.t;
        break;
      case sim::TraceKind::kAcquire: {
        if (e.serial == 0) break;  // channel reassignment, not a request
        const auto it = pending.find(e.serial);
        if (it == pending.end()) break;
        delays->add(static_cast<double>(e.t - it->second) / T_us);
        ++pairs;
        pending.erase(it);
        break;
      }
      case sim::TraceKind::kBlock:
        pending.erase(e.serial);
        break;
      case sim::TraceKind::kSearchDecide:
        if (e.a != 0) ++search_success;
        break;
      default:
        break;
    }
    if (keep_events) events.emit(e);
  }

  [[nodiscard]] std::uint64_t count(sim::TraceKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }

  /// Host ms between consecutive folds while traffic arrives; the drain
  /// after the horizon folds releases only and would swamp the loaded
  /// folds.
  [[nodiscard]] std::vector<double> fold_ms(sim::SimTime horizon) const {
    std::vector<double> ms;
    for (std::size_t i = 1; i < fold_starts.size() && fold_first_ts[i] <= horizon; ++i) {
      ms.push_back(
          std::chrono::duration<double, std::milli>(fold_starts[i] - fold_starts[i - 1])
              .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms;
  }
};

/// Nearest-rank-below percentile of a sorted sample (0 when empty).
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1))];
}

/// Replica i of the workload: replica 0 is the seed itself, replica i > 0
/// runs the seed mixed with i, so every replica follows from the one seed.
Workload replica(const Workload& w, int i) {
  Workload r = w;
  if (i > 0) {
    r.cfg.seed = sim::mix64(w.cfg.seed + static_cast<std::uint64_t>(i) * std::uint64_t{0x9E37});
  }
  return r;
}

std::string mode_traced(const Workload& w, int replicas, bool tooling, const Gate& gate) {
  // Modelled metrics pool every replica; per-layer figures come from
  // replica 0, whose exact outputs the untraced runs must reproduce.
  metrics::SampledSummary delays;
  std::uint64_t failed = 0, offered = 0, msg_count = 0;
  double msg_sum = 0.0;
  JsonObject j;
  for (int i = 0; i < replicas; ++i) {
    const Workload wi = replica(w, i);
    TraceStats st;
    st.warmup = wi.cfg.warmup;
    st.T_us = static_cast<double>(wi.cfg.latency);
    st.delays = &delays;
    st.keep_events = tooling && i == 0;
    sim::TraceRecorder rec;
    rec.set_sink([&st](const sim::TraceEvent& e) { st.on_event(e); });

    const auto t0 = Clock::now();
    const runner::RunResult r = run(wi, &rec, wi.cfg.duration);
    const double wall = seconds_since(t0);
    gate.run_checks(r);
    gate.check("conformance", r.conformance_ok(),
               std::to_string(r.conformance_violations) + " in-engine violations");
    gate.check("trace_aggregate", st.pairs == r.agg.acquired,
               std::to_string(st.pairs) + " request->acquire pairs vs " +
                   std::to_string(r.agg.acquired) + " acquisitions in the aggregate");

    const metrics::Aggregate& a = r.agg;
    failed += a.blocked + a.starved + a.timed_out + a.downed;
    offered += a.offered;
    msg_sum += a.messages_per_call.sum();
    msg_count += a.messages_per_call.count();
    if (i != 0) continue;

    const std::vector<double> fold_ms = st.fold_ms(wi.cfg.duration);
    j.num("wall_s", wall)
        .num("duration_us", static_cast<std::uint64_t>(wi.cfg.duration))
        .raw("exact", exact_outputs(r))
        .num("trace_events", static_cast<std::uint64_t>(rec.size()))
        .num("search_starts", st.count(sim::TraceKind::kSearchStart))
        .num("search_success", st.search_success)
        .num("timeouts", st.count(sim::TraceKind::kTimeout))
        .num("acq_delay_T_p50", delays.percentile(50.0))
        .num("fold_ms_p50", sorted_percentile(fold_ms, 0.5))
        .num("fold_ms_p99", sorted_percentile(fold_ms, 0.99));
    if (tooling) {
      const std::vector<sim::TraceEvent>& events = st.events.events();
      const cell::HexGrid grid(wi.cfg.rows, wi.cfg.cols, wi.cfg.interference_radius,
                               wi.cfg.wrap);
      auto t1 = Clock::now();
      const runner::ConformanceReport rep =
          runner::check_trace(grid, wi.cfg.n_channels, events);
      const double conformance_s = seconds_since(t1);
      gate.check("conformance", rep.ok(), rep.to_string());
      t1 = Clock::now();
      const std::string jsonl = runner::trace_to_jsonl(events);
      j.num("trace_jsonl_s", seconds_since(t1))
          .num("conformance_s", conformance_s)
          .num("conformance_events", rep.events);
    }
  }
  gate.check("acquisition_samples", delays.count() >= w.min_acquisitions,
             std::to_string(delays.count()) + " acquisitions after warm-up, need " +
                 std::to_string(w.min_acquisitions));

  JsonObject pooled;
  pooled.num("replicas", static_cast<std::uint64_t>(replicas))
      .num("offered", offered)
      .num("failed", failed)
      .num("blocked_frac", static_cast<double>(failed) / static_cast<double>(offered))
      .num("acq_samples", delays.count())
      .num("acq_delay_T_mean", delays.mean())
      .num("acq_delay_T_p999", delays.percentile(99.9))
      .num("msgs_per_call", msg_sum / static_cast<double>(msg_count));
  j.raw("modelled", pooled.text());
  return j.text();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_probe: %s\nusage: perfbench_probe --mode setup|timed|traced "
               "--workload NAME --seed N [--threads T] [--replicas R] [--tooling] "
               "[--force-fail CHECK]\n       perfbench_probe --mode reference\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, workload, forced;
  std::uint64_t seed = 0;
  bool have_seed = false, tooling = false;
  int threads = 0, replicas = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tooling") {
      tooling = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--mode") {
      mode = argv[++i];
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("--seed needs an integer");
      have_seed = true;
    } else if (a == "--threads") {
      threads = std::atoi(argv[++i]);
    } else if (a == "--replicas") {
      replicas = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--force-fail") {
      forced = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (mode == "reference") {
    std::printf("%s\n", mode_reference().c_str());
    return 0;
  }
  if (!have_seed) return usage("--seed is required");

  Workload w;
  if (!make_workload(workload, seed, threads, w)) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  const Gate gate(forced);
  const std::string invalid = runner::validate_scenario(w.cfg);
  gate.check("validate_scenario", invalid.empty(), invalid);
  gate.check("hot_disk", !w.hotspot || w.hot_cells.size() == 37,
             "no radius-3 disk fits inside shard 0");

  std::string out;
  if (mode == "setup") {
    out = mode_setup(w);
  } else if (mode == "timed") {
    out = mode_timed(w, gate);
  } else if (mode == "traced") {
    out = mode_traced(w, replicas > 0 ? replicas : w.replicas, tooling, gate);
  } else {
    return usage(("unknown mode '" + mode + "'").c_str());
  }
  JsonObject meta;
  meta.str("build_type", PERFBENCH_BUILD_TYPE).str("compiler", PERFBENCH_COMPILER);
  std::printf("{\"probe\":%s,\"result\":%s}\n", meta.text().c_str(), out.c_str());
  return 0;
}
