"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  The deeper sweeps (criteria 4-8) take about 11 s together.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from matula import oracle, primes, tree
from matula.cli import main as cli_main
from matula.oracle import analyze, compare_all, random_split_check
from matula.poly import IntPolynomial
from matula.stats import StatName, StatsEngine
from matula.tree import decode, encode

S = StatName
FIXTURES = Path(__file__).parent / "fixtures"


def _report(number: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_exit_distance_polynomial_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "matula", "stat", "EDP", "987654321"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout.strip() == "15 + 9*x + 5*x^2"
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"stat EDP 987654321 -> {proc.stdout.strip()!r} in {elapsed:.3f}s (< 1 s)",
    )


def test_criterion_2_factorization_and_prime_index():
    fz = primes.factorize(987654321)
    ok = fz.factors == ((3, 2), (17, 2), (379721, 1)) and fz.omega == 5
    ok = ok and primes.prime_index(379721) == 32277
    _report(2, ok, f"factorize(987654321) = {fz.factors}, omega={fz.omega}, "
                   f"prime_index(379721) = {primes.prime_index(379721)}")


def test_criterion_3_degree_sequence_polynomial_of_nine():
    got = StatsEngine().compute(S.DSP, 9)
    ok = got == IntPolynomial((0, 2, 3))
    _report(3, ok, f"DSP(9) = {got}")


def test_criterion_4_bijection_to_100000():
    tree._decode.cache_clear()
    start = time.perf_counter()
    bad = [n for n in range(1, 100001) if encode(decode(n)) != n]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _report(
        4,
        ok,
        f"encode(decode(n)) == n for n in 1..100000, {len(bad)} failures, "
        f"{elapsed:.2f}s (< 30 s)",
    )


def test_criterion_5_oracle_equivalence_to_5000(monkeypatch):
    answers = []  # what subset enumeration gave the oracle, one entry per tree
    enumerate_subtrees = oracle._subtrees_by_enumeration

    def recorded(an):
        answers.append(enumerate_subtrees(an))
        return answers[-1]

    monkeypatch.setattr(oracle, "_subtrees_by_enumeration", recorded)
    engine = StatsEngine()
    mismatches: list[str] = []
    for n in range(1, 5001):
        mismatches.extend(compare_all(n, engine))
    enumerated = sum(a is not None for a in answers)
    ok = not mismatches and len(answers) == enumerated == 5000
    _report(
        5,
        ok,
        f"every statistic vs oracle for n in 1..5000: {len(mismatches)} mismatches, "
        f"ST/RST enumerated on {enumerated} of {len(answers)} trees"
        + (f"; first: {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_6_identity_suite_to_5000():
    engine = StatsEngine()
    bad: list[str] = []
    for n in range(1, 5001):
        v = engine.compute(S.V, n)
        e = engine.compute(S.E, n)
        w = engine.compute(S.W, n)
        if e != v - 1:
            bad.append(f"E({n}) != V-1")
        nk = engine.compute(S.NK, n)
        if engine.compute(S.MZ1, n) != nk * nk:
            bad.append(f"MZ1({n}) != NK^2")
        if engine.compute(S.R_ALPHA, n, alpha=1) != engine.compute(S.Z2, n):
            bad.append(f"R_1({n}) != Z2")
        f = engine.compute(S.PWP, n)
        if (f.degree() or 0) != engine.compute(S.H, n):
            bad.append(f"H({n}) != deg PWP")
        if f.eval_at_one() != e:
            bad.append(f"E({n}) != PWP(1)")
        if f.derivative().eval_at_one() != engine.compute(S.PL, n):
            bad.append(f"PL({n}) != PWP'(1)")
        g = engine.compute(S.WP, n)
        if (g.degree() or 0) != engine.compute(S.DM, n):
            bad.append(f"DM({n}) != deg WP")
        if g.derivative().eval_at_one() != w:
            bad.append(f"W({n}) != WP'(1)")
        h = engine.compute(S.DSP, n)
        if h.eval_at_one() != v:
            bad.append(f"V({n}) != DSP(1)")
        if (h.degree() or 0) != engine.compute(S.MD, n):
            bad.append(f"MD({n}) != deg DSP")
        if h.coefficient(1) != engine.compute(S.PV, n):
            bad.append(f"PV({n}) != [x]DSP")
        bv = engine.compute(S.BV, n)
        if sum(h.coefficient(d) for d in range(3, len(h.coeffs))) != bv:
            bad.append(f"BV({n}) != DSP degree>=3 count")
        # the three-term form assumes no degree-0 vertex, i.e. n >= 2
        if n >= 2 and v - h.coefficient(1) - h.coefficient(2) != bv:
            bad.append(f"BV({n}) != DSP identity")
        if (
            engine.compute(S.SUM_EVEN, n) + engine.compute(S.SUM_ODD, n)
            != w
        ):
            bad.append(f"SUM_EVEN+SUM_ODD != W at {n}")
        coeffs = engine.compute(S.EDP, n).coeffs
        if any(a < b for a, b in zip(coeffs, coeffs[1:])):
            bad.append(f"EDP({n}) coefficients not nonincreasing")
        # sum of (d + d^2) / 2 over pairs at distance d, from WP's derivatives
        hyper = engine.compute(S.HYPER_W, n)
        if 2 * hyper != g.derivative().derivative().eval_at_one() + 2 * w:
            bad.append(f"2*HYPER_W({n}) != WP''(1) + 2*W")
    _report(6, not bad, f"identity suite for n in 1..5000: {len(bad)} failures"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_7_split_invariance_1000_composites():
    engine = StatsEngine()
    rng = random.Random(20260811)
    checked = 0
    failures = 0
    while checked < 1000:
        n = rng.randrange(4, 10**6)
        if primes.factorize(n).omega < 2:
            continue
        checked += 1
        if not random_split_check(n, rng.randrange(2**31), engine):
            failures += 1
    _report(7, failures == 0,
            f"random splits on {checked} composites <= 10^6: {failures} failures")


def test_criterion_8_subtree_counts_brute_force():
    engine = StatsEngine()
    enumerated = 0
    bad = 0
    for n in range(1, 2001):
        counts = oracle._subtrees_by_enumeration(analyze(decode(n)))
        if counts is None:
            continue
        enumerated += 1
        st, rst = counts
        if engine.compute(S.ST, n) != st or engine.compute(S.RST, n) != rst:
            bad += 1
    _report(8, bad == 0 and enumerated == 2000,
            f"ST/RST vs subset enumeration on {enumerated} of 2000 trees (n <= 2000): "
            f"{bad} failures")


def test_criterion_9_bfile_verification(capsys):
    results = {}
    for name, fname in (("V", "b061775_oracle.txt"), ("E", "b196050_oracle.txt")):
        code = cli_main(["verify", name, str(FIXTURES / fname)])
        out = capsys.readouterr().out
        results[name] = (code, out.strip())
    ok = all(code == 0 and "0 mismatches" in out for code, out in results.values())
    with capsys.disabled():
        _report(9, ok, f"verify V/E against 100-term oracle-derived b-files: "
                       f"{[v[1] for v in results.values()]}")
