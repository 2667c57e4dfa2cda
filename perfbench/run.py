#!/usr/bin/env python3
"""The repo benchmark: simulator host cost and the paper's modelled metrics.

Builds perfbench_probe from ../src (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload through the public runner API in child
processes, gates on correctness, and prints one JSON object as the last
line of stdout.

  python3 perfbench/run.py --workload metro --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --ab BUILD_A BUILD_B

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 runs
the traced configuration and reports the per-layer metrics. See README.md
for the workloads, the metrics and the A/B win rule.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = "perfbench_probe"

# Seed 7919 is held out for confirming claims (README.md).
DEFAULT_SEED = 1
WORKLOADS = ("metro", "hotspot", "churn")
# Wall-clock limit of one probe child, and of a whole --workload run after
# its build; a run stops and fails rather than overstay.
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 170
run_deadline = None  # set by main() for --workload runs
# At least this many timed samples per run, however short --seconds is.
MIN_TIMED = 2

# End-to-end host seconds are reported scaled to a machine on which one unit
# of the probe's reference work takes this many CPU seconds (about what it
# takes on the 4-vCPU Xeon VM the bounds were set on); see reference().
REFERENCE_UNIT_S = 0.020
# The simulator's CPU time moves as about this power of the reference unit's
# when the host changes speed. On that VM the log-log slope of the one over
# the other ranged from about 1 to 1.9 between slow and fast spells, and 1.4
# kept the medians of sets made in different spells closest (README.md).
REFERENCE_EXPONENT = 1.4
# Fewest reference units a timed process is scaled by.
MIN_REFERENCE_UNITS = 3

# Workers of the runs that measure the multi-core path (hotspot's thread
# invariance and speed-up). Host end-to-end metrics come from one-worker runs:
# on a shared VM a worker's CPU is often taken away for a moment, and every
# window barrier then waits for it (README.md has the measurement).
PARALLEL_THREADS = 2

# Pairs of an A/B comparison (choosing-metrics §8 asks for at least ten).
AB_PAIRS = 10
# Deterministic for a seed: identical on every run and every host.
EXACT_METRICS = ("blocked_frac", "acq_delay_T_mean", "acq_delay_T_p999", "msgs_per_call")

MSG_KINDS = {  # net::MsgKind order
    "request": [0], "response": [1], "change_mode": [2], "release": [3],
    "acquisition": [4], "handoff": [6], "resync": [7, 8],
}


class GateFailure(Exception):
    """A correctness check failed; the message names it."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build ---------------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds the probe; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", PROBE, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(out, PROBE)


# -- probe children ------------------------------------------------------------

def probe(exe, mode, workload, seed, *extra):
    """Runs one probe child to completion; returns (meta, result)."""
    cmd = [exe, "--mode", mode, "--workload", workload, "--seed", str(seed), *extra]
    timeout = CHILD_TIMEOUT_S
    if run_deadline is not None:
        timeout = min(timeout, max(1.0, run_deadline - time.monotonic()))
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise GateFailure(f"timeout: {' '.join(cmd)} ran past {timeout:.0f} s") from e
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        first = (p.stderr.strip().splitlines() or ["no output"])[-1]
        raise GateFailure(f"probe exit {p.returncode}: {first}")
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    return doc["probe"], doc["result"]


def same_exact(name, ref, got):
    if ref != got:
        diff = sorted(k for k in ref if ref.get(k) != got.get(k))
        raise GateFailure(f"{name}: exact outputs differ in {', '.join(diff)}")


@contextlib.contextmanager
def reference(exe):
    """Runs the probe's host-speed reference in its own process, on the CPU
    of the timed worker, while the body runs. Yields a function that, once
    the body is done, gives the scale from CPU seconds spent between two
    monotonic instants to seconds at REFERENCE_UNIT_S: the nominal unit time
    over the mean CPU time of the reference units that ended in between, to
    the power REFERENCE_EXPONENT."""
    p = subprocess.Popen([exe, "--mode", "reference"], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    units = []

    def scale(start, end):
        during = [cpu for t, cpu in units if start < t <= end]
        if len(during) < MIN_REFERENCE_UNITS:
            # A short span: the units that ended nearest to it.
            mid = (start + end) / 2
            near = sorted(units, key=lambda u: abs(u[0] - mid))[:MIN_REFERENCE_UNITS]
            during = [cpu for _, cpu in near]
        if not during:
            raise GateFailure("reference: the reference process ran no unit")
        return (REFERENCE_UNIT_S / statistics.mean(during)) ** REFERENCE_EXPONENT

    try:
        if p.stdout.readline().strip() != "ready":
            raise GateFailure("reference: the reference process did not start")
        yield scale
    finally:
        p.terminate()
        try:
            out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise GateFailure("reference: the reference process did not stop")
    if p.returncode != 0:
        raise GateFailure(f"reference: exit {p.returncode}: {err.strip()}")
    doc = json.loads(out.strip().splitlines()[-1])
    units.extend(zip(doc["unit_end_s"], doc["unit_cpu_s"]))


def timed_samples(exe, workload, seed, deadline, force):
    """Untraced runs, one process each, until `deadline` (a time.monotonic()
    instant): another run starts only if a typical one still fits."""
    samples, took = [], []
    while len(samples) < MIN_TIMED or (
            time.monotonic() + statistics.median(took) <= deadline):
        t0 = time.monotonic()
        _, r = probe(exe, "timed", workload, seed, *force)
        took.append(time.monotonic() - t0)
        if samples:
            same_exact("repeatability", samples[0]["exact"], r["exact"])
        samples.append(r)
    if force == ["--force-fail", "repeatability"]:
        raise GateFailure("repeatability: forced")
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def at_reference_speed(samples, scale):
    """The timed samples with their CPU seconds scaled by reference(): the
    one-tick calls by the units that ran during them, the full call by the
    units that ran during it."""
    return [{**t,
             "setup_cpu_s": t["setup_cpu_s"] * scale(t["window_start_s"], t["run_start_s"]),
             "cpu_s": t["cpu_s"] * scale(t["run_start_s"], t["window_end_s"])}
            for t in samples]


def run_cost(samples):
    """Wall and CPU seconds of the full call minus the warm one-tick call,
    as medians over the timed processes: the timed run, set-up excluded."""
    med = statistics.median
    return (med(t["wall_s"] for t in samples) - med(t["setup_wall_s"] for t in samples),
            med(t["cpu_s"] for t in samples) - med(t["setup_cpu_s"] for t in samples))


def measure_end_to_end(exe, workload, seed, seconds, force=()):
    """The --trace 0 run, about `seconds` long: the traced exact pass, then
    untraced timed runs for the rest of the time."""
    force = list(force)
    deadline = time.monotonic() + seconds
    # hotspot's exact pass runs on several workers, so comparing it with the
    # one-worker timed runs checks thread invariance.
    parallel = ["--threads", str(PARALLEL_THREADS)] if workload == "hotspot" else []
    meta, traced = probe(exe, "traced", workload, seed, *parallel, *force)
    with reference(exe) as scale:
        host = timed_samples(exe, workload, seed, deadline, force)
    timed = at_reference_speed(host, scale)
    check = "thread_invariance" if workload == "hotspot" else "trace_invariance"
    if force == ["--force-fail", check]:
        raise GateFailure(f"{check}: forced")
    same_exact(check, traced["exact"], timed[0]["exact"])

    med = statistics.median
    model = traced["modelled"]
    # The timed worker shares its CPU with the reference, so its host time is
    # its own CPU time, which also leaves out time the host stole.
    run_cpu = run_cost(timed)[1]
    values = {
        "calls_per_s": timed[0]["exact"]["offered_calls"] / run_cpu,
        "cpu_s": run_cpu,
        "setup_s": med(t["setup_cpu_s"] for t in timed),
        "peak_rss_mib": med(t["peak_rss_bytes"] for t in timed) / 2**20,
        "blocked_frac": model["blocked_frac"],
        "acq_delay_T_mean": model["acq_delay_T_mean"],
        "acq_delay_T_p999": model["acq_delay_T_p999"],
        "msgs_per_call": model["msgs_per_call"],
    }
    detail = {
        "timed_runs": len(timed),
        "host_cpu_s": [t["cpu_s"] - t["setup_cpu_s"] for t in host],
        "reference_scale": [scale(t["run_start_s"], t["window_end_s"]) for t in host],
        "modelled": model,
        "probe": meta,
    }
    # An operation is one simulated run whose outputs passed every gate.
    return values, detail, len(timed) + model["replicas"], 0


def measure_per_layer(exe, workload, seed, seconds, force=()):
    """The --trace 1 run: untraced, traced and (hotspot) multi-worker runs,
    alternated for about `seconds`; per-layer metrics, host figures in plain
    host seconds."""
    force = list(force)
    deadline = time.monotonic() + seconds
    meta, setup = probe(exe, "setup", workload, seed, *force)
    untraced, traced, parallel, took = [], [], [], []
    while not traced or time.monotonic() + statistics.median(took) <= deadline:
        t0 = time.monotonic()
        untraced.append(probe(exe, "timed", workload, seed, *force)[1])
        traced.append(probe(exe, "traced", workload, seed, "--replicas", "1", "--tooling",
                            *force)[1])
        if workload == "hotspot":
            parallel.append(probe(exe, "timed", workload, seed, "--threads",
                                  str(PARALLEL_THREADS), *force)[1])
        took.append(time.monotonic() - t0)
    ref = untraced[0]["exact"]
    for r in untraced + traced:
        same_exact("repeatability", ref, r["exact"])
    for r in parallel:
        same_exact("thread_invariance", ref, r["exact"])
    # Crash recovery: churn's per-layer run adds one traced run with MSS
    # crashes (see README.md) for the metrics.* figures.
    crash = ref
    if workload == "churn":
        crash = probe(exe, "traced", "churn-crash", seed, "--replicas", "1", *force)[1]["exact"]

    med = statistics.median
    ex = ref
    tr = traced[0]
    run_wall = run_cost(untraced)[0]
    # The multi-core figures come from the runs on several workers, where the
    # workload has them.
    busy = parallel or untraced
    busy_wall, busy_cpu = run_cost(busy)
    threads = busy[0]["threads"]
    msgs, events = ex["total_messages"], ex["events"]
    by_kind = ex["messages_by_kind"]
    cells = untraced[0]["cells"]
    conf_s = med(t["conformance_s"] for t in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.events": events,
        "sim.events_per_call": ratio(events, ex["offered_calls"]),
        "sim.events_per_s": events / run_wall,
        "sim.worker_busy_frac": busy_cpu / (busy_wall * threads),
        "sim.thread_speedup": run_wall / busy_wall,
        "sim.fold_ms_p50": med(t["fold_ms_p50"] for t in traced),
        "sim.fold_ms_p99": med(t["fold_ms_p99"] for t in traced),
        "sim.trace_events": tr["trace_events"],
        "sim.trace_overhead": med(t["wall_s"] for t in traced) / med(u["wall_s"] for u in untraced),
        "net.msgs": msgs,
        "net.msgs_per_event": ratio(msgs, events),
    }
    for kind, ids in MSG_KINDS.items():
        m[f"net.msgs.{kind}"] = sum(by_kind[f"k{i}"] for i in ids)
    m.update({
        "net.cross_shard_msgs": ex["cross_shard_messages"],
        "net.cross_shard_frac": ratio(ex["cross_shard_messages"], msgs),
        "net.retransmissions": ex["retransmissions"],
        "net.acks": ex["acks_sent"],
        "net.frames_dropped": ex["frames_dropped"],
        "net.retx_per_msg": ratio(ex["retransmissions"], msgs),
        "net.links": setup["links"],
        "net.link_table_build_s": setup["link_table_build_s"],
        "cell.grid_build_s": setup["grid_build_s"],
        "traffic.offered": ex["offered_calls"],
        "traffic.handoffs": ex["handoff_offered"],
        "traffic.handoff_fail_frac": ratio(ex["handoff_failures"], ex["handoff_offered"]),
        "proto.xi_local": ex["xi1"],
        "proto.xi_update": ex["xi2"],
        "proto.xi_search": ex["xi3"],
        "proto.update_attempts_mean": ex["mean_update_attempts"],
        "proto.search_rounds": tr["search_starts"],
        "proto.search_success_frac": ratio(tr["search_success"], tr["search_starts"]),
        "proto.timeouts": tr["timeouts"],
        "proto.acq_delay_T_p50": tr["acq_delay_T_p50"],
        "core.n_borrow_mean": ex["n_borrow_mean"],
        "core.n_search_mean": ex["n_search_mean"],
        "metrics.crashes": crash["crashes"],
        "metrics.uptime_frac":
            1.0 - (crash["down_us"] + crash["resync_us"]) / (tr["duration_us"] * cells),
        "metrics.resync_s_mean": ratio(crash["resync_us"] / 1e6, crash["resyncs"]),
        "runner.kib_per_cell": med(u["peak_rss_bytes"] for u in untraced) / 1024 / cells,
        "runner.conformance_s": conf_s,
        "runner.conformance_events_per_s": ratio(tr["conformance_events"], conf_s),
        "runner.trace_jsonl_s": med(t["trace_jsonl_s"] for t in traced),
    })
    detail = {"rounds": len(traced), "threads": threads, "probe": meta}
    return m, detail, len(untraced) + len(traced) + len(parallel) + (crash is not ref), 0


# -- fingerprint ---------------------------------------------------------------

def source_digest(root):
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def source_root(build):
    """The checkout a perfbench build directory was configured from."""
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.dirname(line.split("=", 1)[1].strip())
    return ROOT


def fingerprint(meta, seed, root=ROOT):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        p = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        rev = p.stdout.strip() or None
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "cpuset": sorted(os.sched_getaffinity(0)),
        "compiler": meta.get("compiler"),
        "build_type": meta.get("build_type"),
        "git_rev": rev,
        "source_sha256": source_digest(root),
        "seed": seed,
    }


# -- A/B -----------------------------------------------------------------------

def verdict(a, b, better, bound):
    """choosing-metrics §8: B gains when it wins >= 9/10 of the pairs (ties
    count for neither) and the medians differ by more than A's quartile
    spread. A regression is a median worse than A's by more than `bound`.
    Either is unresolved when a side's spread is wider than the bound,
    unless every B run is better (or worse) than every A run."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[1] - qa[0]) / abs(med_a) if med_a else 0.0,
                 (qb[1] - qb[0]) / abs(med_b) if med_b else 0.0)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if wins >= 0.9 * len(a) and abs(med_b - med_a) > qa[1] - qa[0] and change > 0:
        result = "gain"
    elif all_better:
        result = "gain"
    elif all_worse or (change < -bound and spread <= bound):
        result = "regression"
    elif spread > bound:
        result = "unresolved"
    else:
        result = "no change"
    return {"a": {"median": med_a, "q1": qa[0], "q3": qa[1]},
            "b": {"median": med_b, "q1": qb[0], "q3": qb[1]},
            "b_wins": wins, "pairs": len(a), "change": change, "spread": spread,
            "verdict": result}


def ab(args):
    end_to_end = load_spec()["end_to_end"]
    builds = dict(zip("AB", args.ab))
    exes = {side: os.path.join(d, PROBE) for side, d in builds.items()}
    for side, exe in exes.items():
        if not os.access(exe, os.X_OK):
            log(f"perfbench: no {PROBE} in build directory {side}: {exe}")
            return 2
    report = {"seed": args.seed, "pairs": AB_PAIRS, "workloads": {}}
    fps = {}
    for workload in WORKLOADS:
        runs = {"A": [], "B": []}
        for i in range(AB_PAIRS):
            for side in ("AB" if i % 2 == 0 else "BA"):
                log(f"[ab] {workload} pair {i + 1}/{AB_PAIRS} side {side}")
                values, detail, _, _ = measure_end_to_end(exes[side], workload, args.seed,
                                                          args.seconds)
                fps[side] = fingerprint(detail["probe"], args.seed, source_root(builds[side]))
                runs[side].append(values)
        rows = {}
        for m in end_to_end:
            name, unit = m["name"], m["unit"]
            a = [r[name] for r in runs["A"]]
            b = [r[name] for r in runs["B"]]
            if name in EXACT_METRICS:
                rows[name] = {"unit": unit, "a": a[0], "b": b[0],
                              "verdict": "identical" if a[0] == b[0] else "changed"}
            else:
                rows[name] = {"unit": unit, **verdict(a, b, m["better"], m["bound"])}
        report["workloads"][workload] = rows
    report["fingerprint"] = fps
    for workload, rows in report["workloads"].items():
        print(f"== {workload}")
        for name, row in rows.items():
            if name not in EXACT_METRICS:
                print(f"  {name:18s} A {row['a']['median']:.6g}  B {row['b']['median']:.6g} "
                      f"{row['unit']:9s} wins {row['b_wins']}/{row['pairs']}  "
                      f"change {row['change']:+.3f}  spread {row['spread']:.3f}  "
                      f"{row['verdict']}")
            else:
                print(f"  {name:18s} A {row['a']:.6g}  B {row['b']:.6g} {row['unit']:9s} "
                      f"{row['verdict']}")
    print(json.dumps(report))
    return 0


# -- self-test -----------------------------------------------------------------

def self_test(exe):
    """Tiny configuration: the emitted metrics are exactly those
    BENCHMARK.json names, the exact metrics repeat across two runs, and
    forced gate failures exit non-zero."""
    spec = load_spec()
    problems = []
    runs = [measure_end_to_end(exe, "tiny", DEFAULT_SEED, 0)[0] for _ in range(2)]
    layers = measure_per_layer(exe, "tiny", DEFAULT_SEED, 0)[0]
    for kind, emitted in (("end_to_end", runs[0]), ("per_layer", layers)):
        declared = {e["name"] for e in spec[kind]}
        if declared != set(emitted):
            problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                            f"{sorted(declared ^ set(emitted))}")
    for name, value in runs[0].items():
        if not value > 0:
            problems.append(f"end-to-end metric {name} is not positive")
    for name in EXACT_METRICS:
        if runs[0][name] != runs[1][name]:
            problems.append(f"exact metric {name} differs between two runs")
    for check in ("theorem1", "conformance", "repeatability", "trace_invariance"):
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", "tiny",
                            "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "0",
                            "--force-fail", check], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        if p.returncode == 0 or check not in p.stderr or '"correct"' in p.stdout:
            problems.append(f"forced {check} failure did not fail the run")
    for problem in problems:
        log(f"self-test: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


# -- main ----------------------------------------------------------------------

def load_spec():
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("tiny",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-fail", metavar="CHECK",
                    help="fail the named correctness check on purpose")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--ab", nargs=2, metavar=("BUILD_A", "BUILD_B"),
                    help="interleaved A/B of two perfbench build directories")
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so that every child process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if args.ab:
        return ab(args)
    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.self_test:
        return self_test(exe)
    if not args.workload:
        ap.error("--workload is required")

    force = ["--force-fail", args.force_fail] if args.force_fail else []
    global run_deadline
    run_deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            values, detail, attempted, failed = measure_per_layer(
                exe, args.workload, args.seed, args.seconds, force)
        else:
            values, detail, attempted, failed = measure_end_to_end(
                exe, args.workload, args.seed, args.seconds, force)
    except GateFailure as e:
        log(f"perfbench gate failed: {e}")
        return 1
    units = {m["name"]: m["unit"]
             for m in load_spec()["end_to_end" if args.trace == 0 else "per_layer"]}
    detail["fingerprint"] = fingerprint(detail.pop("probe", {}), args.seed)
    detail["workload"] = args.workload
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
