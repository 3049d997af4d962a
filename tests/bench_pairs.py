"""Run the benchmark, or single commands, on two revisions of this repository
in alternation, and summarize the pairs.

    python3 tests/bench_pairs.py --scratch DIR --parent REV [--change REV]
        [--pairs 10] [--first-seed 2601] [--seconds 25] [--out FILE]
    python3 tests/bench_pairs.py --scratch DIR --parent REV [--change REV]
        --processes N [--label NAME] [--out FILE] -- 'ARGV' ['ARGV' ...]
    python3 tests/bench_pairs.py --summarize FILE

Each side is exported with ``git archive`` into DIR/parent and DIR/change,
and in processes mode the parent again into DIR/control (a fresh copy, no
``__pycache__``).  Without --change the change side is the
working tree's tracked files (``git stash create``, which leaves the tree
alone), or HEAD when nothing is modified.

Pairs mode runs ``bench/run.py --workload all --seed S --seconds T`` once per
side for each of --pairs fresh seeds, the parent first in odd-numbered pairs,
with PYTHONUNBUFFERED=1 and PYTHONDONTWRITEBYTECODE=1.  It writes the
``summary`` of BENCH_21-24.json: per workload and end-to-end metric the
inclusive quartiles of each side, the pairs the change won, and the change's
median worse-by (positive is worse) beside the bound from BENCHMARK.json;
``unscaled`` holds the same for the values bench/run.py reports before host
scaling, and every run keeps its host speed.

Processes mode runs each ARGV (one shell-quoted string per command, given to
``python -m matula``) N times per side, interleaved command by command.  It
has a third side, the control: a second export of the parent, so that the
parent/control difference shows what two copies of one commit differ by (an
A/A control).  The side that goes first rotates each round.  It records wall
time and peak RSS per process, and the wall time scaled by bench/run.py's
reference program, timed just before each process; per metric it gives each
side's median and quartiles, the rounds the change won, the control's
difference beside the change's, and ``unresolved`` when the change's median
differs from the parent's by no more than the control's does; and whether
the sides printed the same bytes.

--out merges the result into a JSON file (pairs mode at the top level,
processes mode under ``processes.<label>``); without it the JSON goes to
stdout.  --summarize recomputes the summary of a file's ``runs`` and prints
the fields that differ from its recorded summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
ENV = {"PYTHONUNBUFFERED": "1", "PYTHONDONTWRITEBYTECODE": "1"}
LAUNCH_MARKER = "#matula-launch "  # as bench/launch.py writes it


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str | None, dest: Path) -> str:
    """Copy rev (None: the working tree's tracked files) into dest; return the
    git tree hash of its src/."""
    commit = _git("rev-parse", rev) if rev else (_git("stash", "create") or _git("rev-parse", "HEAD"))
    if dest.exists():
        subprocess.run(["rm", "-rf", str(dest)], check=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return _git("rev-parse", f"{commit}:src")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of each side, pairs won by the change and its median worse-by."""
    sign = 1 if better == "lower" else -1
    p, c = statistics.median(parent), statistics.median(change)
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "better": better,
        "median_worse_by": round(sign * (c - p) / p, 4),
    }


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    """(summary, unscaled summary) of pair runs, keyed workload.metric."""
    sides: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run
    pairs = sorted(sides["parent"])
    summary, unscaled = {}, {}
    for key in sorted(sides["parent"][pairs[0]]["result"]["metrics"]):
        workload, metric = key.split(".", 1)
        spec = METRICS[metric]
        values = {s: [sides[s][k]["result"]["metrics"][key]["value"] for k in pairs] for s in sides}
        summary[key] = {**compare(values["parent"], values["change"], spec["better"]),
                        "bound": spec["bound"]}
        if all("unscaled" in sides[s][k] for s in sides for k in pairs):
            raw = {s: [sides[s][k]["unscaled"][workload][metric] for k in pairs] for s in sides}
            unscaled[key] = compare(raw["parent"], raw["change"], spec["better"])
    return summary, unscaled


def bench_run(tree: Path, seed: int, seconds: float) -> dict:
    """One bench/run.py --workload all; its result line, unscaled values and host speeds."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env={**os.environ, **ENV}, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    reports = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
    return {
        "result": json.loads(lines[-1]),
        "unscaled": {r["workload"]: r["unscaled"] for r in reports},
        "host_speed": {r["workload"]: r["host_speed"] for r in reports},
    }


def run_pairs(trees: dict[str, Path], count: int, first_seed: int, seconds: float) -> dict:
    runs = []
    for pair in range(1, count + 1):
        seed = first_seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            start = time.perf_counter()
            run = bench_run(trees[side], seed, seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "runs_first": side == order[0],
                         **run})
            print(f"pair {pair} seed {seed} {side}: {time.perf_counter() - start:.0f} s",
                  file=sys.stderr)
    summary, unscaled = summarize(runs)
    failed = {s: f"{sum(r['result']['failed'] for r in runs if r['side'] == s)} of "
                 f"{sum(r['result']['attempted'] for r in runs if r['side'] == s)}"
              for s in trees}
    return {
        "command": f"python3 bench/run.py --workload all --seed SEED --seconds {seconds:g}, in a "
                   "fresh copy of each side, with PYTHONUNBUFFERED=1 and PYTHONDONTWRITEBYTECODE=1",
        "pairs": f"{count} alternating pairs on seeds {first_seed}-{first_seed + count - 1}; the "
                 "parent runs first in odd-numbered pairs; quartiles are inclusive; "
                 "median_worse_by is the change's median against the parent's, signed so that "
                 "positive is worse, next to the benchmark's bound",
        "failed_operations": failed,
        "all_outputs_correct": all(r["result"]["correct"] for r in runs),
        "summary": summary,
        "unscaled_summary": unscaled,
        "runs": runs,
    }


def one_process(tree: Path, cmd: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and a digest of the output of one program.

    It runs under the tree's bench/launch.py, a small process that times it
    and reads its own peak RSS, not this process's.  The program sees the tree's
    src, writes no bytecode and does not inherit the caller's buffering mode."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-S", "bench/launch.py", *cmd], cwd=tree, env=env, capture_output=True
    )
    err, _, marker = proc.stderr.rpartition(b"\n" + LAUNCH_MARKER.encode())
    wall, rss_kib, code = marker.split()
    digest = hashlib.sha256(proc.stdout + err + code).hexdigest()[:16]
    return float(wall), int(rss_kib) / 1024, digest


def run_processes(trees: dict[str, Path], rounds: int, commands: list[str]) -> dict:
    """Wall time, scaled wall time and peak RSS of ``python -m matula`` per command,
    ``rounds`` times per side, command by command, the side that goes first
    rotating each round.  Before each process the benchmark's reference program
    is timed, as bench/run.py does, and ``scaled_wall_s`` is the wall time times
    REF_NOMINAL_S over that reference time.  Per metric, the change and the
    control are each compared with the parent."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import REF_CODE, REF_NOMINAL_S

    metrics = ("wall_s", "scaled_wall_s", "peak_rss_mb")
    sides = tuple(trees)
    samples = {c: {s: {m: [] for m in metrics} | {"out": set()} for s in sides} for c in commands}
    for k in range(rounds):
        for command in commands:
            for side in sides[k % len(sides):] + sides[: k % len(sides)]:
                got = samples[command][side]
                ref = one_process(trees[side], [sys.executable, "-S", "-c", REF_CODE])[0]
                wall, rss, digest = one_process(
                    trees[side], [sys.executable, "-m", "matula", *shlex.split(command)])
                values = {"wall_s": wall, "scaled_wall_s": wall * REF_NOMINAL_S / ref,
                          "peak_rss_mb": rss}
                for metric in metrics:
                    got[metric].append(values[metric])
                got["out"].add(digest)
                shown = " ".join(f"{m} {v:.4f}" for m, v in values.items())
                print(f"{k + 1}/{rounds} {side} {command}: {shown}", file=sys.stderr)
    result = {}
    for command, got in samples.items():
        result[command] = {}
        for metric in metrics:
            parent, change, control = (got[s][metric] for s in ("parent", "change", "control"))
            vs_change = compare(parent, change, "lower")
            vs_control = compare(parent, control, "lower")
            result[command][metric] = {
                **vs_change,
                "control": vs_control["change"],
                "control_better_pairs": vs_control["change_better_pairs"],
                "control_median_worse_by": vs_control["median_worse_by"],
                "unresolved": abs(vs_change["median_worse_by"])
                <= abs(vs_control["median_worse_by"]),
            }
        result[command]["same_output"] = all(got[s]["out"] == got["parent"]["out"] for s in sides)
        for side in sides:
            result[command][f"{side}_{metrics[0]}"] = [round(v, 4) for v in got[side][metrics[0]]]
        result[command]["processes_per_side"] = rounds
    return result


def merge(path: Path | None, update: dict) -> None:
    if path is None:
        print(json.dumps(update, indent=1))
        return
    data = json.loads(path.read_text()) if path.exists() else {}
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path.write_text(json.dumps(data, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scratch", type=Path, help="where the two copies go")
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--change", help="the revision measured (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2601)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--processes", type=int, help="processes per side and command")
    parser.add_argument("--label", default="commands")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path, help="recheck a file's summary from its runs")
    parser.add_argument("commands", nargs="*")
    args = parser.parse_args()

    if args.summarize:
        data = json.loads(args.summarize.read_text())
        summary, _ = summarize(data["runs"])
        differ = [key for key in summary if summary[key] != data["summary"].get(key)]
        print("\n".join(differ) or f"{len(summary)} summary fields match")
        return 1 if differ else 0
    if not (args.scratch and args.parent):
        parser.error("--scratch and --parent are needed to run anything")
    revs = {"parent": args.parent, "change": args.change}
    if args.processes:
        if not args.commands:
            parser.error("--processes needs at least one command")
        revs["control"] = args.parent
    trees = {side: args.scratch / side for side in revs}
    src_tree = {side: export(rev, trees[side]) for side, rev in revs.items()}
    if args.processes:
        result = run_processes(trees, args.processes, args.commands)
        merge(args.out, {"processes": {args.label: {"src_tree": src_tree, **result}}})
    else:
        merge(args.out, {**run_pairs(trees, args.pairs, args.first_seed, args.seconds),
                         "src_tree": src_tree})
    return 0


if __name__ == "__main__":
    sys.exit(main())
