"""Tests of the benchmark itself: python -m pytest bench"""

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import run
from tracer import LAYERS, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oneshot():
    return run.OneshotCli(seed=1)


@pytest.fixture(scope="module")
def prime_table(oneshot):
    return oneshot.table


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_same_seed_same_inputs(prime_table):
    assert take(inputs.table_rounds(3), 5) == take(inputs.table_rounds(3), 5)
    assert take(inputs.table_rounds(3), 5) != take(inputs.table_rounds(4), 5)
    assert inputs.table_samples(3, 7, 8000) == inputs.table_samples(3, 7, 8000)
    assert take(inputs.selftest_seeds(3), 5) == take(inputs.selftest_seeds(3), 5)
    assert take(inputs.selftest_seeds(3), 5) != take(inputs.selftest_seeds(4), 5)
    first = take(inputs.query_blocks(3, prime_table), 2)
    assert first == take(inputs.query_blocks(3, prime_table), 2)
    assert first != take(inputs.query_blocks(4, prime_table), 2)


def test_queries_stay_in_range(prime_table):
    for block in take(inputs.query_blocks(5, prime_table), 4):
        for q in block:
            assert 1 <= len(q["factors"]) <= 4
            assert q["n"] <= inputs.N_MAX
            assert max(q["factors"]) < inputs.PRIME_LIMIT


def test_tree_strings_match_the_documented_examples(prime_table):
    assert prime_table.tree_string(4) == "(()())"
    assert prime_table.tree_string(60) == "(()()(())((())))"
    assert inputs.render_json(prime_table.tree(2)) == (
        '{\n  "matula": "2",\n  "children": [\n    {\n      "matula": "1",\n'
        '      "children": []\n    }\n  ]\n}'
    )
    assert inputs.render_dot(prime_table.tree(2)) == (
        'digraph matula {\n  n0 [label="2"];\n  n1 [label="1"];\n  n0 -> n1;\n}'
    )


def test_tracer_self_time_excludes_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def parent():
        now[0] += 1.0
        traced_leaf()
        now[0] += 3.0

    traced_leaf = tracer.wrap("a.leaf", leaf)
    tracer.wrap("b.parent", parent)()
    assert tracer.spans == {"a.leaf": [1, 2.0, 2.0], "b.parent": [1, 6.0, 4.0]}


def traced(argv):
    inv = run.Invocation(argv, 0)
    run.run_invocation(inv, traced=True)
    assert inv.code == 0 and inv.trace is not None
    return inv


def test_report_names_every_metric_with_its_unit():
    inv = traced(["table", "WP", "1", "300"])
    inv.ops = 300
    assert run.trace_sanity([inv], "table_range") == []
    layers = run.per_layer_metrics([inv], untraced_wall=inv.wall)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: run.unit_of(name) for name in layers
    }
    layer_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_total == pytest.approx(layers["trace.wall_s"])

    inv.ref = 2 * run.REF_NOMINAL_S
    e2e = run.end_to_end_metrics([inv] * 4, setup=[0.1, 0.2, 0.3], speed=run.host_speed([inv]))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: run.unit_of(name) for name in e2e
    }
    assert all(value > 0 for value in e2e.values())
    assert e2e["query_p50_s"] == pytest.approx(inv.wall / 2)


def test_trace_counts_one_compute_per_table_line():
    inv = traced(["table", "NK", "1", "200"])
    assert inv.trace["spans"]["stats.compute"][0] == 200
    inv.ops = 199
    assert run.trace_sanity([inv], "table_range")


def checked(argv, ops, spec=None):
    inv = run.Invocation(argv, ops, spec)
    run.run_invocation(inv, traced=False)
    return inv


def test_table_check_counts_planted_errors():
    workload = run.TableRange(seed=1)
    inv = checked(["table", "W", "1", "500"], 500, [3, 260, 499])
    assert workload.verify([inv]) == 0
    workload.digests = {"W": ["0" * 16] + workload.digests["W"][1:]}
    assert workload.verify([inv]) == inputs.TABLE_BLOCK
    workload.oracle = lambda name, n: "-1"
    assert workload.verify([inv]) == inputs.TABLE_BLOCK + 2


def test_oneshot_check_counts_a_planted_wrong_expected_value(oneshot):
    workload = oneshot
    good = {"n": 9, "factors": (3, 3), "stat": "W", "alpha": None, "k": None, "expected": None}
    bad = dict(good, expected=21)
    invs = [checked(["stat", "W", "9"], 1, q) for q in (good, bad)]
    assert workload.verify(invs) == 1
    assert good["expected"] == 20


def test_selftest_check_requires_the_ok_lines():
    workload = run.SelftestOracle(seed=1)
    inv = checked(["selftest", "--max-n", "30", "--seed", "1"], 30)
    assert workload.verify([inv]) == 0
    inv.out = inv.out.replace(b"selftest OK\n", b"")
    assert workload.verify([inv]) == 30
    inv.code = 1
    assert workload.check(inv) == 30


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table_range", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
