"""cablecal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up (timed as ``setup_s``), then repeats the
workload in pairs of iterations until ``--seconds`` have been measured.
Both iterations of a pair use the same sub-seed, derived from ``--seed``,
and must produce byte-identical artifacts.  With ``--trace 0`` both are
untraced and the end-to-end metrics are printed; with ``--trace 1`` the
second of each pair runs with every probed entry point wrapped in a span,
and the per-layer metrics are printed, plus ``trace.overhead_s`` (traced
minus untraced median iteration time).

Stdout ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``attempted``/``failed`` count correctness checks.  The lines before
it print every metric by name and unit, and the environment.  Spans and
the full result are written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the run then uses one thread in all, which keeps it within
# nproc and makes repeated runs on a shared machine comparable.  Must be set
# before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH = Path(__file__).resolve().parent

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 7


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int):
    """p99, or when too few samples the highest of p95/p90 with at least
    10 samples beyond it."""
    for p in (99.0, 95.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


# --------------------------------------------------------------------------
# environment


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "load_avg_1_5_15": list(os.getloadavg()),
        "cpu_model": None,
        "blas": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        env["blas"] = deps.get("blas")
    except (TypeError, KeyError):
        pass
    return env


# --------------------------------------------------------------------------
# one run


def measure_setup(workload, seed: int) -> float:
    """Median of a fresh interpreter importing the package, plus median of
    this workload's input construction."""
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cablecal, cablecal.cli"],
                       cwd=ROOT, env=child_env, check=True)
        imports.append(time.perf_counter() - t0)
    construct = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        workload.inputs(sub_seed(seed, 0))
        construct.append(time.perf_counter() - t0)
    return median(imports) + median(construct)


def run_iteration(workload, seed: int, recorder, probe_list, run_id: str):
    """Construct inputs, time the body's steps (with every probe wrapped
    when ``recorder`` is set), then check.  Returns (step times, Outcome,
    probes restored)."""
    from probes import cablecal_modules
    from spans import install
    from workloads import Steps
    inp = workload.inputs(seed)
    step = Steps()
    if recorder is None:
        out = workload.body(inp, step)
        return step.times, workload.check(inp, out), True
    recorder.run = run_id
    try:
        with install(recorder, probe_list, cablecal_modules()) as inst:
            out = workload.body(inp, step, recorder)
    finally:
        recorder.run = None
    return step.times, workload.check(inp, out), inst.restored()


def memory_probe(workload) -> dict:
    """tracemalloc peaks of one load_bag and one save_bag of the last bag."""
    from cablecal import data
    bag_dir = workload.bag_dir()
    if bag_dir is None:
        return {"data.load_bag_peak_mb": 0.0, "data.save_bag_peak_mb": 0.0}
    tracemalloc.start()
    try:
        bag = data.load_bag(bag_dir)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        data.save_bag(bag, workload.workdir / "probe_bag")
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"data.load_bag_peak_mb": load_peak / 1e6,
            "data.save_bag_peak_mb": save_peak / 1e6}


class Tally:
    """Correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def schedule(seed: int, trace: bool):
    """(sub-seed, traced, repeats the previous sub-seed) per iteration.

    Untraced runs repeat only the first sub-seed, to check that one seed
    gives one artifact; every later iteration takes a new sub-seed, so the
    run's RMSE ratio pools many inputs.  Traced runs follow each untraced
    iteration with a traced one on the same sub-seed."""
    k = 0
    while True:
        s = sub_seed(seed, k)
        yield s, False, False
        if trace or k == 0:
            yield s, trace, True
        k += 1


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from probes import layer_metrics, probes
    from spans import SpanRecorder
    from workloads import WORKLOADS

    env = environment()  # first, so the load average is the one at start
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[workload_name](workdir)
    tally = Tally()
    recorder = SpanRecorder() if trace else None
    probe_list = probes() if trace else None
    steps, traced_steps, outcomes, layers = [], [], [], []

    try:
        setup_s = measure_setup(workload, seed)
        # Untimed warm-up: the first iteration in a process pays one-off
        # costs (heap growth, first calls) that later ones do not.
        run_iteration(workload, sub_seed(seed, 0), None, None, "warmup")
        start = last = time.perf_counter()
        previous = None
        for i, (s, traced, repeat) in enumerate(schedule(seed, trace)):
            now = time.perf_counter()
            # stop before a new sub-seed whose iterations would overrun
            group = 2 if trace else 1
            if (not repeat and outcomes
                    and now - start + group * (now - last) > seconds):
                break
            last = now
            try:
                times, outcome, restored = run_iteration(
                    workload, s, recorder if traced else None, probe_list,
                    str(i))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.add(f"{i}:raised", False)
                break
            for name, ok in outcome.checks.items():
                tally.add(f"{i}:{name}", ok)
            if repeat:
                tally.add(f"{i}:same_seed_same_sha256",
                          outcome.digest == previous.digest)
            if traced:
                tally.add(f"{i}:originals_restored", restored)
                traced_steps.append(times)
                layers.append(layer_metrics(recorder, str(i)))
            else:
                steps.append(times)
                outcomes.append(outcome)
            previous = outcome
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        memory = memory_probe(workload) if trace and outcomes else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarise(setup_s, steps, outcomes, peak_rss_mb)
    if trace and layers:
        for name in layers[0]:
            summary[name] = median([m[name] for m in layers])
        summary.update(memory)
        summary["trace.overhead_s"] = step_wall(traced_steps) - step_wall(steps)
    return {"workload": workload_name, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": env, "iterations": len(steps),
            "traced_iterations": len(traced_steps), "steps": steps,
            "attempted": tally.attempted, "failures": tally.failures,
            "summary": summary, "spans": recorder.to_records() if trace else []}


def step_wall(steps: list) -> float:
    """Sum over a body's steps of the median time of each step.

    On a shared machine whose speed wanders, this read slightly steadier
    across runs than the median of whole iterations (the table prints
    that too, as ``iteration_s``)."""
    return sum(median([t[name] for t in steps]) for name in steps[0]) if steps else 0.0


def rmse_ratio(outcomes) -> float:
    """Headline model RMSE / fixed-offset RMSE over all held-out rows of
    the run's distinct sub-seeds, per joint, then the mean over joints."""
    seen = {o.digest: o.headline for o in outcomes if o.headline is not None}
    if not seen:
        return 0.0
    sse_model = sum(m ** 2 * n for m, _, n in seen.values())
    sse_offset = sum(b ** 2 * n for _, b, n in seen.values())
    return float(np.mean(np.sqrt(sse_model / sse_offset)))


def summarise(setup_s, steps, outcomes, peak_rss_mb) -> dict:
    """Every user-visible number of the run's untraced iterations, each
    with its sample count under ``<name>.n``."""
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    if not outcomes:
        return out
    out["wall_s"] = step_wall(steps)
    out["wall_s.n"] = len(steps)
    out["iteration_s"] = median([sum(t.values()) for t in steps])
    out["rows_per_s"] = median([o.rows for o in outcomes]) / out["wall_s"]
    out["rmse_ratio"] = rmse_ratio(outcomes)
    out["rmse_ratio.n"] = len({o.digest for o in outcomes})
    for name in {k for o in outcomes for k in o.extra}:
        values = [o.extra[name] for o in outcomes if name in o.extra]
        out[name] = median(values)
        out[f"{name}.n"] = len(values)
    for kind in ("linear", "mlp"):
        lat = [ns for o in outcomes for ns in o.latencies_ns.get(kind, ())]
        if not lat:
            continue
        out[f"{kind}_predict_p50_us"] = statistics.median(lat) / 1e3
        out[f"{kind}_predict_p50_us.n"] = len(lat)
        p = tail_percentile(len(lat))
        if p is not None:
            out[f"{kind}_predict_p99_us"] = _percentile(lat, p) / 1e3
            out[f"{kind}_predict_p99_us.n"] = len(lat)
            out[f"{kind}_predict_p99_us.percentile"] = p
    return out


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# output


def metric_units() -> tuple:
    """(end-to-end, per-layer) dicts of metric name -> unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the default seed in "
                         "perfbench/workloads.json)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cablecal").is_dir():
        print(f"perfbench: no cablecal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    with open(BENCH / "workloads.json") as fh:
        catalogue = json.load(fh)
    if args.workload not in catalogue["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(catalogue['workloads'])}", file=sys.stderr)
        return 2
    seed = catalogue["default_seed"] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2

    end_to_end, per_layer = metric_units()
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    summary = result["summary"]
    units = {**end_to_end, **per_layer, "iteration_s": "s"}
    metrics = {name: {"value": summary.get(name, 0.0), "unit": unit}
               for name, unit in (per_layer if args.trace else end_to_end).items()}
    failed = len(result["failures"])
    line = {"correct": failed == 0 and result["iterations"] > 0,
            "attempted": max(result["attempted"], 1), "failed": failed,
            "metrics": metrics}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    spans = result.pop("spans")
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if spans:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"{args.workload} seed {seed}: {result['iterations']} untraced, "
          f"{result['traced_iterations']} traced iterations; "
          f"{result['attempted']} checks, {failed} failed "
          f"{result['failures'][:5]}")
    for name in sorted(summary):
        if not name.endswith((".n", ".percentile")):
            n = summary.get(f"{name}.n")
            p = summary.get(f"{name}.percentile")
            print(f"  {name:32s} {summary[name]:.6g} {units.get(name, '')}"
                  + (f"  (n={n})" if n is not None else "")
                  + (f"  (p{p:g})" if p is not None else ""))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
