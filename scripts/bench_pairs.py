"""Benchmark a change against its parent in alternated pairs of perfbench runs.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --pr N --change "what the change does"

The parent, ``HEAD``, is exported with ``git archive`` into a temporary
directory; the change is a copy of this checkout's working tree (tracked and
untracked files, less the ignored ones).  Pair ``i`` of a workload runs
``perfbench/run.py --workload W --seed i+1 --seconds 20 --trace 0`` once in
each tree, one run at a time, the parent first on even ``i``: 10 pairs on
``backtest``, then 10 on ``backtest-wide`` and 5 on ``verify``.

``BENCH_<PR>.json`` gets, per workload, each run's attempted
and failed ops, pass count, speed-factor median (kernel time over its
nominal, as run.py prints it) and correctness, and per end-to-end metric of
BENCHMARK.json the runs, median and inclusive quartiles of each side, the
pairs in which the change is better and the relative change of the medians.
The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
PLAN = (("backtest", 10), ("backtest-wide", 10), ("verify", 5))
COMMAND = f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0"
METHOD = (
    "parent and change each run from a clean copy of its tree, one run at a time, alternating "
    "which side runs first per pair; medians and quartiles (inclusive) over the pairs"
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", rev))
    dest.mkdir()
    shutil.unpack_archive(archive, dest)
    archive.unlink()


def copy_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / name.decode()
        if src.is_file():
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    out = proc.stdout
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["passes"] = int(re.search(r"^passes: (\d+)", out, re.M).group(1))
    result["speed_factor"] = float(re.search(r"^speed factor .*?median ([\d.]+)", out, re.M).group(1))
    result["env"] = re.search(r"^env: (.*)$", out, re.M).group(1)
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {
        "median": round(statistics.median(runs), 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "iqr": round(q3 - q1, 6),
        "runs": [round(r, 6) for r in runs],
    }


def workload_record(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    record = {
        "seeds": list(range(1, len(pairs) + 1)),
        "pairs": len(pairs),
        "order": "alternated; parent first on even pair index",
    }
    for key in ("attempted", "failed", "passes", "speed_factor"):
        record[key] = {side: [r[key] for r in runs] for side, runs in sides.items()}
    record["correct"] = {side: all(r["correct"] for r in runs) for side, runs in sides.items()}
    record["metrics"] = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
        better = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        parent, change = summary(values["parent"]), summary(values["change"])
        record["metrics"][name] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": better,
            "median_change": round(change["median"] / parent["median"] - 1.0, 4),
        }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    parser.add_argument("--change", required=True, help="one line saying what the change does")
    args = parser.parse_args()
    out = ROOT / f"BENCH_{args.pr}.json"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export("HEAD", trees["parent"])
        trees["change"].mkdir()
        copy_working_tree(trees["change"])
        report = {
            "change": args.change,
            "command": COMMAND,
            "machine": None,
            "method": METHOD,
            "workloads": {},
        }
        for workload, n_pairs in PLAN:
            pairs = []
            for i in range(n_pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: run_once(trees[side], workload, i + 1) for side in order}
                pairs.append((got["parent"], got["change"]))
                report["machine"] = report["machine"] or got["parent"]["env"]
                report["workloads"][workload] = workload_record(pairs, metrics)
                out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                ops = {side: round(got[side]["metrics"]["ops_per_s"]["value"], 1) for side in order}
                print(f"{workload} pair {i + 1}/{n_pairs}: ops_per_s {ops}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
