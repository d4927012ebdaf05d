"""barrierkit benchmark: one workload per call, every output checked.

    python3 benchmark/run.py --workload mc_grid --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload mc_grid --seed 1 --seconds 20 --trace 1
    python3 benchmark/run.py --smoke

Run from anywhere; the program is imported from `src/` next to this
directory. A run repeats whole passes over the workload's ops until
`--seconds` is used up (at least two passes and 20 ops), checks every op,
and prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details (host,
configuration, sizes, failures, the tail percentile) go to the line
before it and to `.bench_out/`. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_grid", "breach_ties", "desk_closed", "cli")
SETUP_PROBES = 5
MIN_PASSES = 2
MIN_OPS = 20
RUN_CAP_S = 150.0  # stop starting passes after this, whatever the minimums
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Host speed drifts by tens of percent within seconds on a shared machine.
# The reference loop runs at least every REF_EVERY_S of op time and once
# at the end; each op's time is scaled by REF_SECONDS / (mean of the
# reference times just before and just after it), so end-to-end times
# read as if the host ran at one fixed speed.
REF_SECONDS = {False: 0.007, True: 0.011}  # by whether the loop streams memory
REF_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# counts and times are per traced pass; "-computed" units come from array
# shapes and step counts, not from a measurement
PER_LAYER = {
    "paths_per_s": "1/s",
    "fail_ratio": "ratio",
    "engine.simulate_paths.self_s": "s",
    "engine.words_drawn": "words-computed",
    "engine.ns_per_word": "ns/word",
    "engine.bytes_random": "bytes-computed",
    "engine.bytes_normal": "bytes-computed",
    "engine.bytes_bridge": "bytes-computed",
    "engine.ndtri.self_s": "s",
    "engine.ndtri.ns_per_element": "ns/element",
    "kernel.run_paths.calls": "count",
    "kernel.run_paths.self_s": "s",
    "kernel.path_steps": "steps-computed",
    "kernel.ns_per_path_step": "ns/step",
    "engine.alive_fraction": "ratio",
    "engine.resolve_tie.calls": "count",
    "engine.resolve_tie.self_s": "s",
    "engine.path_words.calls": "count",
    "engine.path_words.self_s": "s",
    "engine.tie_fraction": "ratio",
    "mc.mc_price.calls": "count",
    "mc.mc_price.self_s": "s",
    "passage.breach_prob_mc.self_s": "s",
    "passage.breach_prob_pde.calls": "count",
    "passage.breach_prob_pde.ms_per_call": "ms",
    "passage.solve_banded.calls_per_pde": "count",
    "critical.critical_prices.calls": "count",
    "critical.critical_prices.self_s": "s",
    "numerics.maximize_on_interval.calls": "count",
    "numerics.maximize_on_interval.self_s": "s",
    "numerics.maximize_on_interval.evals_per_call": "count",
    "numerics.std_normal_cdf.calls_per_op": "count",
    "closed.bs_vanilla.us_per_call": "us",
    "closed.down_and_out.us_per_call": "us",
    "closed.up_and_out.us_per_call": "us",
    "closed.double_knockout.us_per_call": "us",
    "closed.double_knockout.calls_per_price": "count",
    "classify.calls": "count",
    "classify.self_s": "s",
    "calibrate.numeric_critical_price.calls": "count",
    "calibrate.numeric_critical_price.self_s": "s",
    "calibrate.pricer_calls_per_search": "count",
    "calibrate.implied_nu.self_s": "s",
    "calibrate.reproduce_table1.self_s": "s",
    "import.python_s": "s",
    "import.barrierkit_s": "s",
    "import.scipy_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Import barrierkit from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import barrierkit
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import barrierkit from {src}: {exc}")
    if not Path(barrierkit.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"benchmark: barrierkit was imported from {barrierkit.__file__}, not {src}")
    return barrierkit


# -- checks ------------------------------------------------------------------

def digest(obj):
    """A hashable, bit-exact image of an op result."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (str, int, type(None))):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(digest(x) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__,) + tuple(digest(getattr(obj, f)) for f in obj.__dataclass_fields__)
    if hasattr(obj, "value") and hasattr(obj, "name"):  # enum
        return obj.name
    raise TypeError(f"cannot digest {type(obj).__name__}")


def first_nonfinite(obj) -> str | None:
    if isinstance(obj, float):
        return None if obj == obj and abs(obj) != float("inf") else f"non-finite number {obj}"
    if isinstance(obj, (tuple, list)):
        return next((m for m in map(first_nonfinite, obj) if m), None)
    if hasattr(obj, "__dataclass_fields__"):
        return first_nonfinite([getattr(obj, f) for f in obj.__dataclass_fields__])
    return None


# -- measurement -------------------------------------------------------------

def reference_loop(stream_memory: bool) -> float:
    """Seconds taken by fixed work that barrierkit never affects.

    NumPy random words and logs plus an interpreter loop; workloads whose
    ops stream large arrays also fill and sum a 16 MB array, because
    their slow-downs come with memory-bandwidth contention.
    """
    t0 = time.perf_counter()
    u = np.random.Generator(np.random.Philox(key=1)).random(100_000)
    acc = float(np.log(u).sum())
    for i in range(40_000):
        acc += math.erfc(i * 1e-5)
    if stream_memory:
        acc += float(np.ones(2_000_000).sum())
    return time.perf_counter() - t0


class Phase:
    """Latencies, pass times, failures and result digests of a series of passes."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.attempted = 0  # op executions
        self.failed = 0
        self.failed_ops: set = set()  # index in wl.ops of every op that failed in any pass
        self.wrong = 0  # failed ops that returned a wrong answer rather than raising
        self.passed_paths = 0
        self.failures: list[str] = []  # distinct messages, the first 20
        self.child_rss_kb = 0
        self.ref: list[float] = []  # reference-loop samples taken between ops
        self.ref_before: list[int] = []  # per op, index of the sample just before it
        self.scaled: list[float] = []  # latencies at the reference host speed
        self.scaled_pass_times: list[float] = []

    def rescale(self, ref_seconds: float) -> None:
        self.scaled = [dt * 2.0 * ref_seconds / (self.ref[j] + self.ref[j + 1])
                       for dt, j in zip(self.latencies, self.ref_before)]
        n = len(self.latencies) // len(self.pass_times)
        self.scaled_pass_times = [sum(self.scaled[i:i + n]) for i in range(0, len(self.scaled), n)]


def run_passes(wl, phase: Phase, reference: dict, *, seconds: float = 0.0,
               min_passes: int = MIN_PASSES, min_ops: int = MIN_OPS,
               passes: int | None = None, tracer=None) -> Phase:
    """Repeat whole passes over wl.ops.

    Without `passes`, runs until the next pass would end more than half a
    pass after `seconds`, and at least `min_passes` passes and `min_ops`
    ops. Time here is scaled to the reference host speed, so the number
    of passes, and with it the tail percentile, does not follow the
    host's drift. An op fails when it raises, returns a non-finite
    number, fails its check, or differs bit-wise from `reference` (the
    same op in an earlier pass, or the untraced run when tracing).
    """
    start = time.perf_counter()
    since_ref = math.inf
    clock = 0.0  # scaled by the latest sample; reported times bracket each op
    scaled_passes = []
    while True:
        pass_time = scaled_pass = 0.0
        for k, op in enumerate(wl.ops):
            if since_ref >= REF_EVERY_S:
                phase.ref.append(reference_loop(wl.streams_memory))
                scale = REF_SECONDS[wl.streams_memory] / phase.ref[-1]
                since_ref = 0.0
            phase.ref_before.append(len(phase.ref) - 1)
            if tracer is not None:
                tracer.op = phase.attempted
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if tracer is not None else nullcontext():
                    result = op.run()
            except Exception as exc:  # noqa: BLE001  any failure is counted, the run goes on
                result, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            dt = time.perf_counter() - t0
            pass_time += dt
            scaled_pass += dt * scale
            since_ref += dt
            phase.latencies.append(dt)
            phase.attempted += 1
            phase.child_rss_kb = max(phase.child_rss_kb, op.child_rss_kb)
            if err is None:
                err = first_nonfinite(result) or op.check(result)
                if err is None and reference.setdefault(k, digest(result)) != digest(result):
                    err = "result differs bit-wise from the same op in an earlier pass"
                phase.wrong += err is not None
            if err is None:
                phase.passed_paths += op.paths
            else:
                phase.failed += 1
                phase.failed_ops.add(k)
                msg = f"{op.name}: {err}"
                if len(phase.failures) < 20 and msg not in phase.failures:
                    phase.failures.append(msg)
        phase.pass_times.append(pass_time)
        scaled_passes.append(scaled_pass)
        clock += scaled_pass
        n = len(phase.pass_times)
        if passes is not None:
            done = n >= passes
        else:
            done = time.perf_counter() - start > RUN_CAP_S or (
                n >= min_passes and phase.attempted >= min_ops
                and clock + 0.5 * statistics.median(scaled_passes) >= seconds)
        if done:
            phase.ref.append(reference_loop(wl.streams_memory))
            phase.rescale(REF_SECONDS[wl.streams_memory])
            return phase


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = -(-round(pct * 10) * n // 1000)  # nearest rank, ceil(pct/100 * n), exact
        if rank >= 1 and n - rank >= 10:
            return pct, xs[rank - 1]
    return None


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Seconds from starting a fresh interpreter until set-up and one warm-up op are done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--size", size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return elapsed


def import_metrics(samples: int) -> dict:
    """Interpreter start, barrierkit import and scipy's share of it, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    python_s, bk_s, scipy_s = [], [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        python_s.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import barrierkit"],
                              check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        cum = scipy_self = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
            if name == "barrierkit":
                cum = cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
        bk_s.append(cum * 1e-6)
        scipy_s.append(scipy_self * 1e-6)
    return {"import.python_s": statistics.median(python_s),
            "import.barrierkit_s": statistics.median(bk_s),
            "import.scipy_s": statistics.median(scipy_s)}


def host_info(bk, nproc: int) -> dict:
    import scipy
    from barrierkit.pricing import engine

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    kernel = getattr(engine, "_kernel", None)
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "compiled_kernel": bool(getattr(bk, "HAVE_COMPILED_KERNEL", False)),
        "kernel_module": kernel.__name__ if kernel is not None else None,
    }


def peak_rss_mb(wl, phase: Phase) -> float:
    if wl.uses_children:
        return phase.child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    busy = sum(phase.scaled)
    t = tail(phase.scaled)
    metrics = {
        # set-up runs just before the passes: scaled by the host speed the
        # passes measured, since reference loops next to a process start
        # read noisily
        "setup_s": statistics.median(setup) * REF_SECONDS[wl.streams_memory]
        / statistics.median(phase.ref),
        "wall_s": statistics.median(phase.scaled_pass_times),
        "ops_per_s": (phase.attempted - phase.failed) / busy,
        "op_p50_ms": statistics.median(phase.scaled) * 1e3,
        "peak_rss_mb": peak_rss_mb(wl, phase),
    }
    if t is not None:  # omitted, not invented, when the run holds too few ops
        metrics["op_tail_ms"] = t[1] * 1e3
    raw_tail = tail(phase.latencies)
    extra = {
        "paths_per_s": phase.passed_paths / busy,
        "fail_ratio": phase.failed / phase.attempted,
        "op_tail_percentile": t[0] if t else None,
        "op_samples": len(phase.latencies),
        "passes": len(phase.pass_times),
        "reference_loop_median_s": statistics.median(phase.ref),
        "unscaled": {"wall_s": statistics.median(phase.pass_times),
                     "op_p50_ms": statistics.median(phase.latencies) * 1e3,
                     "op_tail_ms": raw_tail[1] * 1e3 if raw_tail else None,
                     "setup_s": statistics.median(setup)},
        "setup_samples_s": setup,
        "pass_times_s": phase.pass_times,
    }
    return metrics, extra


def per_layer(summary: dict, counts, passes: int, ops: int) -> dict:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for name in ("kernel.run_paths", "engine.resolve_tie", "engine.path_words", "mc.mc_price",
                 "passage.breach_prob_pde", "critical.critical_prices",
                 "numerics.maximize_on_interval", "classify",
                 "calibrate.numeric_critical_price"):
        m[name + ".calls"] = get(name, "calls") / passes
    for name in ("engine.simulate_paths", "engine.ndtri", "kernel.run_paths", "engine.resolve_tie",
                 "engine.path_words", "mc.mc_price", "passage.breach_prob_mc",
                 "critical.critical_prices", "numerics.maximize_on_interval", "classify",
                 "calibrate.numeric_critical_price", "calibrate.implied_nu",
                 "calibrate.reproduce_table1"):
        m[name + ".self_s"] = get(name, "self_s") / passes
    for name in ("bs_vanilla", "down_and_out", "up_and_out", "double_knockout"):
        span = "closed." + name
        m[span + ".us_per_call"] = ratio(get(span, "outer_s") * 1e6, get(span, "outer_calls"))
    words, steps, paths = counts["engine.words"], counts["engine.path_steps"], counts["engine.paths"]
    m.update({
        "engine.words_drawn": words / passes,
        "engine.ns_per_word": ratio(get("engine.simulate_paths", "self_s") * 1e9, words),
        "engine.bytes_random": counts["engine.bytes_random"] / passes,
        "engine.bytes_normal": counts["engine.bytes_normal"] / passes,
        "engine.bytes_bridge": counts["engine.bytes_bridge"] / passes,
        "engine.ndtri.ns_per_element": ratio(get("engine.ndtri", "self_s") * 1e9,
                                             counts["engine.ndtri.elements"]),
        "kernel.path_steps": steps / passes,
        "kernel.ns_per_path_step": ratio(get("kernel.run_paths", "self_s") * 1e9, steps),
        "engine.alive_fraction": ratio(counts["engine.alive"], paths),
        "engine.tie_fraction": ratio(get("engine.resolve_tie", "calls"), paths),
        "passage.breach_prob_pde.ms_per_call": ratio(get("passage.breach_prob_pde", "total_s") * 1e3,
                                                     get("passage.breach_prob_pde", "calls")),
        "passage.solve_banded.calls_per_pde": ratio(counts["passage.solve_banded"],
                                                    get("passage.breach_prob_pde", "calls")),
        "numerics.maximize_on_interval.evals_per_call": ratio(
            counts["numerics.maximize_on_interval.evals"], get("numerics.maximize_on_interval", "calls")),
        "numerics.std_normal_cdf.calls_per_op": ratio(counts["numerics.std_normal_cdf"], ops),
        "closed.double_knockout.calls_per_price": ratio(get("closed.double_knockout", "calls"),
                                                        get("closed.double_knockout", "outer_calls")),
        "calibrate.pricer_calls_per_search": ratio(counts["calibrate.pricer"],
                                                   get("calibrate.numeric_critical_price", "calls")),
    })
    return m


# -- a run -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 out_dir: Path | None = None) -> dict:
    bk = load_program()
    import workloads

    wl = workloads.build(name, seed, size, str(ROOT))
    cpus = os.sched_getaffinity(0)
    if wl.uses_children:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        return _run(wl, bk, seed, seconds, trace, size, out_dir, host_info(bk, len(cpus)))
    finally:
        os.sched_setaffinity(0, cpus)


def _run(wl, bk, seed: int, seconds: float, trace: bool, size: str, out_dir: Path | None,
         host: dict) -> dict:
    from tracer import Tracer

    name = wl.name
    wl.ops[0].run()  # warm-up
    references = wl.prepare() if wl.prepare else None
    reference: dict = {}
    toy = size == "toy"
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "sizes": wl.sizes, "notes": wl.notes, "host": host,
              "pinned_to_one_cpu": wl.uses_children}

    if not trace:
        setup = [probe_setup(name, seed, size) for _ in range(1 if toy else SETUP_PROBES)]
        phase = run_passes(wl, Phase(), reference, seconds=seconds,
                           min_ops=0 if toy else MIN_OPS)
        metrics, extra = end_to_end(wl, phase, setup)
        detail.update(extra)
    else:
        # the untraced half gives the reference bits, paths_per_s, fail_ratio
        # and the denominator of the tracing overhead
        phase = run_passes(wl, Phase(), reference, seconds=seconds / 2, min_passes=1, min_ops=0)
        tracer, prep_tracer = Tracer(), Tracer()
        if wl.prepare:
            with prep_tracer.instrument():
                traced_refs = wl.prepare()
            if digest(traced_refs) != digest(references):
                phase.failed += 1
                phase.failed_ops.add("prepare")
                phase.wrong += 1
                phase.failures.append("traced in-process references differ from untraced ones")
        with tracer.instrument():
            traced = run_passes(wl, Phase(), reference, passes=len(phase.pass_times), tracer=tracer)
        n_pass = len(traced.pass_times)
        metrics = per_layer(tracer.summarize(), tracer.counts, n_pass, traced.attempted)
        metrics.update(import_metrics(1 if toy else 3))
        metrics["cli.run.self_s"] = prep_tracer.summarize().get("cli.run", {}).get("self_s", 0.0)
        metrics["trace.overhead_ratio"] = (statistics.median(traced.scaled_pass_times)
                                           / statistics.median(phase.scaled_pass_times) - 1.0)
        metrics["paths_per_s"] = phase.passed_paths / sum(phase.scaled)
        metrics["fail_ratio"] = (phase.failed + traced.failed) / (phase.attempted + traced.attempted)
        detail.update({"untraced_passes": len(phase.pass_times), "traced_passes": n_pass,
                       "spans": len(tracer.spans), "uninstrumented": tracer.missing})
        phase.attempted += traced.attempted
        phase.failed += traced.failed
        phase.failed_ops |= traced.failed_ops
        phase.wrong += traced.wrong
        phase.failures += traced.failures
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(out_dir / f"{name}-seed{seed}.spans.csv.gz")

    detail["failures"] = phase.failures
    detail["op_executions"] = {"attempted": phase.attempted, "failed": phase.failed}
    result = {
        # a raised error or non-zero exit is a failure, not a wrong answer
        "correct": phase.wrong == 0,
        # counted per distinct op of the seeded pass (an op fails if it failed
        # in any pass), so the counts depend on the seed, not on how many
        # passes the time allowed; executions are in the detail line
        "attempted": len(wl.ops) + (1 if trace and wl.prepare else 0),
        "failed": len(phase.failed_ops),
        "metrics": {k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
            json.dump({"result": result, "detail": detail}, fh, indent=1)
    return {"result": result, "detail": detail}


def print_run(run: dict) -> None:
    result, detail = run["result"], run["detail"]
    host = detail["host"]
    print(f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(nproc={host['nproc']}, compiled_kernel={host['compiled_kernel']})")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


# -- smoke mode --------------------------------------------------------------

def smoke() -> int:
    """Every workload at toy size, untraced and traced; names checked against BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    out_dir = ROOT / ".bench_out" / "smoke"
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, seed=1, seconds=0.0, trace=trace, size="toy", out_dir=out_dir)
            result = run["result"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = dict(declared[str(int(trace))])
            if not trace and run["detail"]["op_samples"] < MIN_OPS:
                want.pop("op_tail_ms")  # too few toy ops for a tail
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if result["failed"]:  # toy inputs hit no known failure
                problems.append(f"{name} trace={int(trace)}: {run['detail']['failures'][:3]}")
            print(f"smoke {name} trace={int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, all workloads, name check")
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.smoke:
        load_program()
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        load_program()
        import workloads

        workloads.build(args.workload, args.seed, args.size, str(ROOT)).ops[0].run()
        print("ready", flush=True)
        return 0
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                       out_dir=ROOT / ".bench_out")
    print_run(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
