"""Benchmark of the matula command-line program.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is table_range, oneshot_cli, selftest_oracle, or all.  Every
operation is a fresh ``python -m matula`` process on the checkout's own
src/, spawned one at a time from this process.  Inputs come from the seed
(bench/inputs.py); every output is checked, outside the timed region.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 each process runs with its layers traced
(bench/tracer.py) and the metrics are the per-layer split, plus the
tracing overhead measured by replaying the same processes untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
from launch import LAUNCH_MARKER
from traced_matula import TRACE_MARKER
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("table_range", "oneshot_cli", "selftest_oracle")

#: query_tail_s is this percentile of the per-invocation wall times
TAIL_PERCENTILE = 75
#: a run keeps spawning past --seconds until it has this many invocations,
#: so that at least ten lie beyond the tail percentile
MIN_INVOCATIONS = 44
#: set-up is timed this many times per run and the median reported
SETUP_REPEATS = 11
#: a single invocation taking longer than this is killed and counted failed
INVOCATION_TIMEOUT_S = 60.0
#: no invocation starts once a run has taken this long
RUN_LIMIT_S = 120.0
#: A fixed CPU-bound program that does not use matula.  On a shared
#: 2-vCPU cloud host the processor's speed drifts by about +-20% over tens
#: of seconds, so the reference is timed before every measured invocation
#: and the run's invocation times are reported scaled by REF_NOMINAL_S over
#: its median time in the run: seconds on a host where the reference takes
#: REF_NOMINAL_S.  The report line keeps the unscaled values.
REF_CODE = """
def step(d, i):
    k = i & 1023
    d[k] = d.get(k, 0) + i * i
d = {}
for i in range(120000):
    step(d, i)
"""
REF_NOMINAL_S = 0.05

UNITS = {
    "ops_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Invocation:
    """One CLI process: its arguments, what it printed, and what it cost."""

    def __init__(self, argv: list[str], ops: int, spec=None):
        self.argv = argv
        self.ops = ops  # operations this invocation attempts
        self.spec = spec  # what the workload needs to check the output
        self.wall = self.rss_mb = 0.0
        self.code = None
        self.out = self.err = b""
        self.trace: dict | None = None
        self.ref = 0.0  # wall time of the reference program run just before


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(cmd: list[str]) -> tuple[float, float, int | None, bytes, bytes]:
    """Run cmd to completion; return wall seconds, peak RSS MB, exit code, stdout, stderr.

    The program runs under launch.py, which measures its wall time and
    peak RSS.  The exit code is None if the process had to be killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "launch.py"), *cmd],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    finished = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + INVOCATION_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    break
                for key, _ in sel.select(timeout=remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
            finished = not sel.get_map()
    finally:
        if not finished:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the program
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out, err = b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])
    err, sep, report = err.rpartition(b"\n" + LAUNCH_MARKER.encode())
    if not sep:
        return time.perf_counter() - start, 0.0, None, out, report
    wall, maxrss_kib, code = report.split()
    return float(wall), int(maxrss_kib) / 1024, int(code), out, err


def matula_cmd(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "traced_matula.py"), *argv]
    return [sys.executable, "-m", "matula", *argv]


def run_invocation(inv: Invocation, traced: bool) -> None:
    inv.wall, inv.rss_mb, inv.code, inv.out, inv.err = spawn(matula_cmd(inv.argv, traced))
    if traced:
        lines = inv.err.decode("utf-8", "replace").splitlines()
        trace_lines = [l for l in lines if l.startswith(TRACE_MARKER)]
        if trace_lines:
            inv.trace = json.loads(trace_lines[-1][len(TRACE_MARKER) :])
        inv.err = "\n".join(l for l in lines if not l.startswith(TRACE_MARKER)).encode()


def process_failed(inv: Invocation) -> bool:
    return inv.code != 0 or b"Traceback (most recent call last)" in inv.err


# -- workloads ---------------------------------------------------------------
#
# Each workload is an object with ``units()``, an endless iterator of lists
# of invocations run back to back, ``verify(invocations)``, which returns
# the number of failed operations, and ``properties(invocations)``, the
# input properties that decide which layer does the work.


class TableRange:
    """``matula table S 1 hi`` for S in V, W, WP, NK: the b-file use.

    Many small n share sub-results, so the memo, trial-division factorize,
    poly and output formatting do the work; the sieve stays at 10^6.
    """

    def __init__(self, seed: int):
        self.seed = seed
        record = json.loads((BENCH / "table_digests.json").read_text())
        self.digests = record["digests"]
        if record["block"] != inputs.TABLE_BLOCK or any(
            len(self.digests[name]) * inputs.TABLE_BLOCK < inputs.table_hi_max(name)
            for name in inputs.TABLE_STATS
        ):
            raise SystemExit("bench/table_digests.json does not match bench/inputs.py")
        self.count = 0

    def units(self):
        for job in inputs.table_rounds(self.seed):
            unit = []
            for name, hi in job:
                samples = inputs.table_samples(self.seed, self.count, hi)
                self.count += 1
                unit.append(Invocation(["table", name, "1", str(hi)], hi, samples))
            yield unit

    def verify(self, invocations):
        return sum(self.check(inv) for inv in invocations)

    def oracle(self, name: str, n: int) -> str:
        from matula import StatName, decode, oracle_stat

        return str(oracle_stat(StatName[name], decode(n)))

    def check(self, inv: Invocation) -> int:
        name, hi = inv.argv[1], inv.ops
        lines = inv.out.splitlines(keepends=True)
        if process_failed(inv) or len(lines) != hi:
            return hi
        want = self.digests[name]
        bad_blocks = {i for i, got in enumerate(inputs.block_digests(lines)) if got != want[i]}
        failed = len(bad_blocks) * inputs.TABLE_BLOCK
        for n in inv.spec:
            expected = f"{n} {self.oracle(name, n)}\n".encode()
            if lines[n - 1] != expected and (n - 1) // inputs.TABLE_BLOCK not in bad_blocks:
                failed += 1
        return failed

    def properties(self, invocations):
        return {
            "hi_range": {
                name: [min(his), max(his)]
                for name in inputs.TABLE_STATS
                if (his := [inv.ops for inv in invocations if inv.argv[1] == name])
            },
            "value_lines": sum(inv.ops for inv in invocations),
        }


class OneshotCli:
    """Fresh-process ``stat``, ``decode`` and ``encode`` queries on n <= 10^14.

    Interpreter start and sieve growth inside prime_index/factorize/nth_prime
    do the work; the memo gets almost no reuse.
    """

    def __init__(self, seed: int):
        self.table = inputs.PrimeTable()
        self.blocks = inputs.query_blocks(seed, self.table)

    def units(self):
        # Whole blocks, so that every run has the block's stratified mix.
        for block in self.blocks:
            yield [Invocation(query["argv"], 1, query) for query in block]

    def verify(self, invocations):
        from matula import StatName, oracle_stat, parse_canonical_string

        for inv in invocations:
            q = inv.spec
            if q["expected"] is None:
                t = parse_canonical_string(self.table.tree_string(q["n"], q["factors"]))
                alpha = None if q["alpha"] is None else Fraction(q["alpha"])
                q["expected"] = oracle_stat(StatName[q["stat"]], t, alpha=alpha, k=q["k"])
        return sum(self.check(inv) for inv in invocations)

    def check(self, inv: Invocation) -> int:
        if process_failed(inv):
            return 1
        expected = inv.spec["expected"]
        if isinstance(expected, float):
            try:
                got = float(inv.out)
            except ValueError:
                return 1
            return int(abs(got - expected) > 1e-9 * (1.0 + abs(expected)))
        if not isinstance(expected, str):
            expected = f"{expected}\n"
        return int(inv.out != expected.encode())

    def properties(self, invocations):
        largest = [max(inv.spec["factors"], default=1) for inv in invocations]
        kinds = {}
        for inv in invocations:
            kinds[inv.spec["kind"]] = kinds.get(inv.spec["kind"], 0) + 1
        return {
            "queries": len(invocations),
            "kinds": kinds,
            "share_largest_prime_above_initial_sieve": sum(
                p > inputs.INITIAL_SIEVE_BOUND for p in largest
            ) / len(largest),
            "largest_prime": max(largest),
        }


class SelftestOracle:
    """``matula selftest --max-n M --seed s``: the oracle's BFS and subset
    enumeration do most of the work, the engine less, the prime layer little."""

    def __init__(self, seed: int):
        self.seeds = inputs.selftest_seeds(seed)

    def units(self):
        m = inputs.SELFTEST_MAX_N
        for s in self.seeds:
            yield [Invocation(["selftest", "--max-n", str(m), "--seed", str(s)], m)]

    def verify(self, invocations):
        return sum(self.check(inv) for inv in invocations)

    def check(self, inv: Invocation) -> int:
        m = inv.ops
        primes = inputs.primes_upto(m)
        expected = (
            f"recursion vs oracle: n = 1..{m}, 0 mismatches\n"
            f"random split checks: {m - 1 - len(primes)} composites, 0 failures\n"
            "selftest OK\n"
        )
        if process_failed(inv) or inv.out != expected.encode():
            return m
        return 0

    def properties(self, invocations):
        return {"max_n": inputs.SELFTEST_MAX_N, "invocations": len(invocations)}


WORKLOAD_CLASSES = {
    "table_range": TableRange,
    "oneshot_cli": OneshotCli,
    "selftest_oracle": SelftestOracle,
}


# -- measuring -----------------------------------------------------------------


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter that imports matula and exits."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, _, code, _, err = spawn([sys.executable, "-c", "import matula"])
        if code != 0:
            raise SystemExit(f"import matula failed:\n{err.decode(errors='replace')}")
        walls.append(wall)
    return walls


def run_loop(workload, seconds: float, traced: bool, min_invocations: int) -> tuple[list, float]:
    """Run whole units until both the time and the invocation count are reached."""
    done: list[Invocation] = []
    start = time.perf_counter()
    for unit in workload.units():
        for inv in unit:
            if not traced:
                inv.ref = spawn([sys.executable, "-S", "-c", REF_CODE])[0]
            run_invocation(inv, traced)
            done.append(inv)
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and len(done) >= min_invocations):
            return done, elapsed
    raise AssertionError("workload units are endless")


def tail(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[TAIL_PERCENTILE - 1]


def host_speed(done: list[Invocation]) -> float:
    """REF_NOMINAL_S over the run's median reference time."""
    return REF_NOMINAL_S / statistics.median(inv.ref for inv in done)


def end_to_end_metrics(done: list[Invocation], setup: list[float], speed: float) -> dict:
    """The end-to-end metrics, with invocation times scaled by speed."""
    walls = [inv.wall * speed for inv in done]
    return {
        "ops_per_s": sum(inv.ops for inv in done) / sum(walls),
        "query_p50_s": statistics.median(walls),
        "query_tail_s": tail(walls),
        "peak_rss_mb": max(inv.rss_mb for inv in done),
        "setup_s": statistics.median(setup),
    }


def per_layer_metrics(done: list[Invocation], untraced_wall: float) -> dict:
    """Per-layer split, summed over the traced processes of one run."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    distinct = 0
    for inv in done:
        for name, (n, _, own) in inv.trace["spans"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        distinct += inv.trace["distinct"]["primes.factorize"]

    def total(prefix: str, table: dict):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    wall = sum(inv.wall for inv in done)
    import_s = sum(inv.trace["import_s"] for inv in done)
    # interpreter start and exit: the part of each process no span covers
    startup_s = wall - import_s - sum(inv.trace["spans"]["cli.main"][1] for inv in done)
    m = {
        "primes.factorize.calls": calls["primes.factorize"],
        "primes.factorize.self_s": self_s["primes.factorize"],
        "primes.factorize.distinct_ratio": distinct / max(calls["primes.factorize"], 1),
        "primes.prime_index.calls": calls["primes.prime_index"],
        "primes.prime_index.self_s": self_s["primes.prime_index"],
        "primes.nth_prime.calls": calls["primes.nth_prime"],
        "primes.nth_prime.self_s": self_s["primes.nth_prime"],
        "stats.compute.calls": calls["stats.compute"],
        "stats.compute.self_s": self_s["stats.compute"],
        "stats.composite_value.self_s": self_s["stats.composite_value"],
        "poly.ops": total("poly", calls),
        "tree.decode.self_s": self_s["tree.decode"],
        "tree.render.self_s": total("tree.render", self_s),
        "tree.parse.self_s": self_s["tree.parse"],
        "oracle.oracle_value.self_s": self_s["oracle.oracle_value"],
        "oracle.analyze.self_s": self_s["oracle.analyze"],
        "oracle.random_split_check.self_s": self_s["oracle.random_split_check"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.stdout_bytes": sum(len(inv.out) for inv in done),
        "cli.import_s": import_s,
        "cli.startup_s": startup_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(layer, self_s)
    # so that the layers' self times add up to the traced wall
    m["cli.self_s"] += import_s + startup_s
    m["trace.wall_s"] = wall
    m["trace.coverage"] = (sum(self_s.values()) + import_s) / wall
    m["trace.overhead_ratio"] = wall / untraced_wall - 1.0
    return m


def trace_sanity(done: list[Invocation], workload_name: str) -> list[str]:
    """Problems with the trace itself; empty when the accounting holds."""
    problems = []
    for inv in done:
        if inv.trace is None:
            problems.append(f"{inv.argv}: no trace (exit code {inv.code})")
            continue
        spans = inv.trace["spans"]
        self_sum = sum(own for _, _, own in spans.values())
        root = spans["cli.main"][1]
        if abs(self_sum - root) > 1e-6 * max(root, 1.0):
            problems.append(f"{inv.argv}: span self times sum to {self_sum}, cli.main took {root}")
        if any(name.split(".", 1)[0] not in LAYERS for name in spans):
            problems.append(f"{inv.argv}: span outside the known layers")
        if workload_name == "table_range" and spans["stats.compute"][0] != inv.ops:
            problems.append(
                f"{inv.argv}: stats.compute called {spans['stats.compute'][0]} times for {inv.ops} lines"
            )
    return problems


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; return (result object, report)."""
    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": loadavg(),
    }
    setup = [] if traced else measure_setup()
    workload = WORKLOAD_CLASSES[name](seed)
    done, elapsed = run_loop(workload, seconds, traced, 1 if traced else MIN_INVOCATIONS)
    failed = workload.verify(done)
    attempted = sum(inv.ops for inv in done)
    walls = [inv.wall for inv in done]
    cut = tail(walls) if len(walls) > 1 else 0.0
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "invocations": len(done),
        "measured_s": elapsed,
        "error_rate": failed / attempted,
        "tail_percentile": TAIL_PERCENTILE,
        "beyond_tail": sum(w > cut for w in walls),
        "setup_samples": len(setup),
        "properties": workload.properties(done),
    }
    if traced:
        problems = trace_sanity(done, name)
        if problems:
            raise SystemExit("trace check failed:\n" + "\n".join(problems[:10]))
        untraced = 0.0
        for inv in done:
            wall, _, _, _, _ = spawn(matula_cmd(inv.argv, traced=False))
            untraced += wall
        metrics = per_layer_metrics(done, untraced)
    else:
        speed = host_speed(done)
        metrics = end_to_end_metrics(done, setup, speed)
        report["host_speed"] = speed
        report["unscaled"] = end_to_end_metrics(done, setup, 1.0)
    context["loadavg_after"] = loadavg()
    report["context"] = context
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, report


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith((".calls", ".ops")):
        return "count"
    return "ratio"


def print_report(result: dict, report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"invocations {report['invocations']}  measured {report['measured_s']:.1f} s"
    )
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"error_rate {report['error_rate']:g}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print("report " + json.dumps(report))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matula" / "__init__.py").is_file():
        print(f"error: no matula sources under {SRC}", file=sys.stderr)
        return 2
    found = subprocess.run(
        [sys.executable, "-c", "import matula; print(matula.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    ).stdout.strip()
    if Path(found).resolve() != (SRC / "matula" / "__init__.py").resolve():
        print(f"error: python imports matula from {found!r}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result, report)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
