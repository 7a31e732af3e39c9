"""Benchmark for wctsv: one seeded workload per run, untraced or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload backtest --seed 0 --seconds 30 --trace 0

Workloads (reasons in BENCHMARK.json, layer predictions in
perfbench/predictions.json):

* ``backtest``: the bundled panel with the default BacktestConfig, all five
  models, i.e. what ``wctsv backtest`` runs;
* ``backtest-wide``: a seeded 30-ticker x 2000-row panel, window 755,
  models MV, TSV and M_TSV_S;
* ``verify``: ``wctsv verify`` on the symmetric family, 200 tuples
  unconstrained then 200 constrained, budget 20000, ``--seed`` = the seed.

The workload runs in this one process, BLAS capped at one thread.  Set-up
is timed before measuring: the import of wctsv (numpy, scipy, click) in
this process and in four fresh child processes, then several rounds of
loading the inputs plus one warm-up op; set-up time is the median import
plus the median round.  A run then repeats whole passes of the workload
until ``--seconds`` of pass time have elapsed (at least two passes),
gating every pass's outputs and requiring all passes to be byte-identical.

Times are reported at reference speed: a fixed kernel (calibrate.py) is
timed every 100 ms between ops, and each measured interval is divided by
the local ratio of kernel time to its nominal 1 ms.  This removes the
host's speed swings, which on a shared VM reach 1.8x within minutes.
``ops_per_s`` is completed ops over the passes' time; the latency
percentiles are over ops, each taken at the fastest of its repeats (one
per pass).  The wall-clock values over every op of every pass are printed
too, on a line before the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced (spans and leaf counters from spans.py) and
prints the per-layer metrics, in wall time, including the tracing overhead
between the two halves; the spans are written to .bench_work/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
failed ops: a backtest day on which some model raised, a verify tuple
whose oracle found no feasible candidate or lies outside the CLI's
soundness bracket, every op of a pass that raised.  ``correct`` is false
when an output is wrong (a gate in workloads.py fails, passes differ, or
a verify row lies outside the bracket).  Exit status: 0 when correct, 1
when not (the JSON line is still printed) or when a workload cannot be set
up, 2 when the package source is missing.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"
os.environ.pop("WCTSV_SEED", None)  # the workload seed is the only seed

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("backtest", "backtest-wide", "verify")
SETUP_ROUNDS = 5
# imports timed in fresh child processes, besides this process's own
CHILD_IMPORTS = 4
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import wctsv.cli; print(time.perf_counter() - t)"
)
CALIBRATION_INTERVAL_MS = 100.0
MIN_PASSES = 2
# a second pass is skipped when it would push measuring past this
MAX_MEASURE_S = 120.0
WIDE_ROWS, WIDE_ASSETS, WIDE_WINDOW = 2000, 30, 755
WIDE_MODELS = ("MV", "TSV", "M_TSV_S")

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> str:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_text = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (
        f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} cpu={cpu!r} "
        f"python={platform.python_version()} numpy={np.__version__} blas={blas_text!r} "
        f"scipy={scipy.__version__} click={metadata.version('click')} {threads}"
    )


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def build_workload(name: str, seed: int):
    import importlib.resources

    from panel import panel_csv
    from wctsv.backtest import BacktestConfig
    from workloads import BacktestWorkload, VerifyWorkload

    if name == "backtest":
        sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
        return BacktestWorkload(Path(str(sample)), BacktestConfig(seed=seed)), []
    if name == "backtest-wide":
        text = panel_csv(seed, WIDE_ROWS, WIDE_ASSETS)
        errors = []
        if panel_csv(seed, WIDE_ROWS, WIDE_ASSETS) != text:
            errors.append("panel generator is not reproducible")
        path = WORK / f"wide-seed{seed}.csv"
        path.write_text(text, encoding="utf-8")
        cfg = BacktestConfig(window=WIDE_WINDOW, models=WIDE_MODELS, seed=seed)
        return BacktestWorkload(path, cfg), errors
    return VerifyWorkload(WORK, seed), []


def measure(workload, clock, seconds: float, min_passes: int, rec=None):
    """Whole passes until ``seconds`` of pass time (and ``min_passes``)."""
    from workloads import Probe

    probe = Probe(clock, rec)
    patches = workload.instrument(probe)
    passes = []
    timed = 0.0
    try:
        while not passes or timed < seconds or (
            len(passes) < min_passes and timed / len(passes) * (len(passes) + 1) <= MAX_MEASURE_S
        ):
            probe.reset()
            outcome = workload.run_pass(probe)
            passes.append(outcome)
            timed += pass_times(outcome, clock)[0]
    finally:
        patches.undo()
    return passes


def pass_times(p, clock) -> tuple[float, float]:
    """(wall s, reference s) of a pass's timed segments, kernel time excluded.

    Each op interval and each gap between ops is normalized by the speed
    factor around it.
    """
    wall = ref = 0.0
    for start, end in p.segments:
        inner = [t for op in zip(p.op_starts, p.op_ends) for t in op if start <= t <= end]
        points = [start, *inner, end]
        for a, b in zip(points, points[1:]):
            wall += (b - a - clock.kernel_ns(a, b)) / 1e9
            ref += clock.normalize(a, b)
    return wall, ref


def throughput(passes, clock, at_reference: bool = True) -> float:
    done = sum(p.attempted - p.failed for p in passes)
    return done / sum(pass_times(p, clock)[at_reference] for p in passes)


def wall_latencies_ms(passes) -> list[float]:
    return [(b - a) / 1e6 for p in passes for a, b in zip(p.op_starts, p.op_ends)]


def fastest_repeat_ms(passes, clock) -> list[float]:
    """Per op, its fastest latency over the passes, at reference speed.

    Every pass runs the same ops in the same order, so op i of each pass is
    one repeat of the same work; the fastest repeat drops bursts of host
    contention that the speed clock is too coarse to see.  Passes with a
    different op count (a failure cut them short) are left out.
    """
    per_pass = [
        [clock.normalize(a, b) * 1e3 for a, b in zip(p.op_starts, p.op_ends)] for p in passes
    ]
    n_ops = max(len(lat) for lat in per_pass)
    return [min(ops) for ops in zip(*(lat for lat in per_pass if len(lat) == n_ops))]


def end_to_end_metrics(passes, clock, setup_s: float) -> dict[str, float]:
    lat = fastest_repeat_ms(passes, clock)
    return {
        "ops_per_s": throughput(passes, clock),
        "op_p50_ms": percentile(lat, 50),
        "op_p90_ms": percentile(lat, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def time_setup(workload, clock, own_import: tuple[float, float]):
    """Set-up at reference speed: median import plus median round.

    Returns (setup s, median load s, raw setup s).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    raw_imports, imports = [own_import[0]], [own_import[1]]
    for _ in range(CHILD_IMPORTS):
        clock.sample()
        start = perf_counter_ns()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        mid = (start + perf_counter_ns()) // 2
        clock.sample()
        raw_imports.append(float(child.stdout.strip().splitlines()[-1]))
        imports.append(raw_imports[-1] / clock.factor_at(mid))
    rounds, raw_rounds, loads = [], [], []
    for _ in range(SETUP_ROUNDS):
        clock.sample()
        start = perf_counter_ns()
        loads.append(workload.setup_round())
        end = perf_counter_ns()
        clock.sample()
        rounds.append(clock.normalize(start, end))
        raw_rounds.append((end - start) / 1e9)
    return (
        statistics.median(imports) + statistics.median(rounds),
        statistics.median(loads),
        statistics.median(raw_imports) + statistics.median(raw_rounds),
    )


def layer_metrics(rec, clock, traced, base, load_s: float, is_backtest: bool):
    """Per-layer metrics from the traced half; see predictions.json.

    Times are wall time; shares are of the traced passes' wall time with
    the speed-clock kernel excluded.
    """
    total = sum(pass_times(p, clock)[0] for p in traced) * 1e9
    n_passes = len(traced)
    layer_self = rec.layer_self_ns()
    counters = rec.counters
    out: dict[str, tuple[float, str]] = {}

    def share(ns: float) -> float:
        return ns / total

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def span_stats(name: str, prefix: str = "ms"):
        ms = [ns / 1e6 for ns in rec.durations_ns(name)]
        out[f"{name}.{prefix}_p50"] = (percentile(ms, 50), "ms")
        out[f"{name}.{prefix}_p90"] = (percentile(ms, 90), "ms")
        return len(ms)

    def us_per_call(name: str) -> None:
        durations = rec.durations_ns(name)
        out[f"{name}.us_per_call"] = (ratio(sum(durations), len(durations)) / 1e3, "us")

    cf = "worst_case.wc_target_semivariance_constrained"
    cf_free = "worst_case.wc_target_semivariance"
    proj = "simplex.project_to_simplex"

    solver = "simplex.eep_tsv_s_portfolio"
    solves = span_stats(solver)
    out[f"{solver}.cf_calls_per_solve"] = (ratio(rec.leaf_totals(cf, solver)[0], solves), "count")
    out[f"{solver}.proj_calls_per_solve"] = (
        ratio(rec.leaf_totals(proj, solver)[0], solves), "count")
    out[f"{solver}.self_share"] = (share(rec.self_ns(solver)), "fraction")
    solver = "simplex.eep_tsv_portfolio"
    solves = span_stats(solver)
    out[f"{solver}.proj_calls_per_solve"] = (
        ratio(rec.leaf_totals(proj, solver)[0], solves), "count")
    calls, ns, _ = rec.leaf_totals(proj)
    out[f"{proj}.us_per_call"] = (ratio(ns, calls) / 1e3, "us")
    out["simplex.failures"] = (
        (counters["simplex.eep_tsv_portfolio.errors"]
         + counters["simplex.eep_tsv_s_portfolio.errors"]) / n_passes, "count")
    out["simplex.share"] = (share(layer_self["simplex"]), "fraction")

    cf_calls, cf_ns, cf_raised = (
        a + b for a, b in zip(rec.leaf_totals(cf), rec.leaf_totals(cf_free)))
    out["worst_case.calls"] = (cf_calls / n_passes, "count")
    out["worst_case.ns_per_call"] = (ratio(cf_ns, cf_calls), "ns")
    out["worst_case.share"] = (share(layer_self["worst_case"]), "fraction")
    out["worst_case.empty_set_frac"] = (ratio(cf_raised, cf_calls), "fraction")

    solver = "frontier.m_tsv_s_portfolio"
    solves = span_stats(solver)
    out[f"{solver}.cf_calls_per_solve"] = (
        ratio(rec.leaf_totals(cf_free, solver)[0], solves), "count")
    out[f"{solver}.self_share"] = (share(rec.self_ns(solver)), "fraction")
    for name in ("frontier.frontier_params", "frontier.classical_mv", "frontier.tsv_portfolio"):
        us_per_call(name)
    out["frontier.share"] = (share(layer_self["frontier"]), "fraction")

    out["market_data.load_price_panel.ms"] = (load_s * 1e3, "ms")
    us_per_call("market_data.estimate_moments")
    out["market_data.estimate_moments.share"] = (
        share(rec.self_ns("market_data.estimate_moments")), "fraction")

    span_stats("oracle.k5")
    span_stats("oracle.k6")
    search_ns = sum(rec.durations_ns("oracle.k5")) + sum(rec.durations_ns("oracle.k6"))
    out["oracle.evaluations"] = (counters["oracle.evaluations"] / n_passes, "count")
    out["oracle.evals_per_s"] = (ratio(counters["oracle.evaluations"], search_ns / 1e9), "1/s")
    out["oracle.budget_exhausted"] = (counters["oracle.budget_exhausted"] / n_passes, "count")
    out["oracle.share"] = (share(layer_self["oracle"]), "fraction")
    witness_calls = len(rec.durations_ns("oracle.witness"))
    out["oracle.witness.calls"] = (witness_calls / n_passes, "count")
    out["oracle.witness.no_witness_frac"] = (
        ratio(counters["oracle.witness.no_witness"], witness_calls), "fraction")

    out["backtest.engine.self_share"] = (
        share(rec.self_ns("backtest.engine") + rec.self_ns("backtest.day")), "fraction")
    out["backtest.render.ms"] = (sum(rec.durations_ns("backtest.render")) / n_passes / 1e6, "ms")
    out["cli.verify.self_share"] = (share(layer_self["cli"]), "fraction")
    out["trace.overhead_frac"] = (
        1.0 - ratio(throughput(traced, clock), throughput(base, clock)), "fraction")

    everything = base + traced
    quality = ratio(
        sum(p.quality_sum for p in everything), sum(p.quality_count for p in everything))
    out["backtest.objective_mean"] = (quality if is_backtest else 0.0, "loss_sq")
    out["oracle.gap_mean"] = (0.0 if is_backtest else quality, "fraction")
    shares = {layer: share(ns) for layer, ns in sorted(layer_self.items()) if layer != "bench"}
    return out, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wctsv" / "__init__.py").is_file():
        print(f"wctsv source not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = perf_counter_ns()
    import wctsv.cli  # noqa: F401  (numpy, scipy, click and every wctsv module)

    import_s = (perf_counter_ns() - start) / 1e9
    from calibrate import REF_NOMINAL_S, SpeedClock

    clock = SpeedClock(CALIBRATION_INTERVAL_MS)
    for _ in range(3):
        clock.sample()
    own_import = (import_s, import_s / clock.factor_at(perf_counter_ns()))

    from spans import Recorder

    WORK.mkdir(exist_ok=True)
    print(f"wctsv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment())
    try:
        workload, errors = build_workload(args.workload, args.seed)
        setup_s, load_s, raw_setup_s = time_setup(workload, clock, own_import)
    except Exception:
        traceback.print_exc()
        print("set-up failed", file=sys.stderr)
        return 1
    print(f"setup: {1 + CHILD_IMPORTS} imports and {SETUP_ROUNDS} rounds, "
          f"load {load_s * 1e3:.2f} ms (median)")

    if args.trace:
        rec = Recorder()
        base = measure(workload, clock, args.seconds / 2, 1)
        traced = measure(workload, clock, args.seconds / 2, 1, rec)
        passes = base + traced
    else:
        passes = measure(workload, clock, args.seconds, MIN_PASSES)

    for i, p in enumerate(passes):
        errors += [f"pass {i}: {e}" for e in p.errors]
        for note in p.notes:
            print(f"failed op, pass {i}: {note}", file=sys.stderr)
        if p.output != passes[0].output:
            errors.append(f"pass {i}: output differs from pass 0")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lat_wall = wall_latencies_ms(passes)
    factors = [d / 1e9 / REF_NOMINAL_S for d in clock.durations]
    print(f"passes: {len(passes)}, {sum(pass_times(p, clock)[0] for p in passes):.2f} s timed, "
          f"{attempted} ops attempted, {failed} failed, error_rate {failed / attempted:g} "
          f"fraction, {len(lat_wall)} latency samples")
    print(f"speed factor (kernel time / {REF_NOMINAL_S * 1e3:g} ms): median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f} "
          f"over {len(factors)} samples")
    print(f"wall clock, every op of every pass: ops_per_s "
          f"{throughput(passes, clock, at_reference=False):.6g} op/s, op_p50_ms "
          f"{percentile(lat_wall, 50):.6g} ms, op_p90_ms {percentile(lat_wall, 90):.6g} ms, "
          f"setup_s {raw_setup_s:.6g} s")
    if len(passes) < 2:
        print("warning: one pass only; determinism across passes unchecked", file=sys.stderr)

    if args.trace:
        metrics, layer_shares = layer_metrics(
            rec, clock, traced, base, load_s, args.workload != "verify")
        rec.write_jsonl(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print("layer self-time shares: "
              + ", ".join(f"{k} {v:.3f}" for k, v in layer_shares.items()))
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end_metrics(passes, clock, setup_s).items()
        }
        print("at reference speed, op latency = fastest repeat of each op:")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        errors.append("metric names or units differ from BENCHMARK.json")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in errors[:20]:
        print(f"gate failed: {error}", file=sys.stderr)
    for leftover in WORK.glob("*.csv"):
        leftover.unlink()

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
