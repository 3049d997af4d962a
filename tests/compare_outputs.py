"""Show that two source trees give byte-identical CLI output.

Usage: python3 tests/compare_outputs.py OLD_TREE NEW_TREE

Runs each command below with ``python -m matula`` against each tree's
``src`` and compares stdout, stderr and exit code; it also runs
record_output_digests.py (from this checkout) against each tree.  Every
command runs with PYTHONUNBUFFERED removed from its environment, so the
caller's buffering mode does not leak in.  Each ``table`` command runs a
second time per tree with PYTHONUNBUFFERED=1, and any byte difference
from the buffered run of the same tree is reported too.  Prints one line
per difference and exits 1 if there is any, else 0.

- ``table S 1 5000`` for every statistic, and A_ALPHA and R_ALPHA also
  at alpha 0, 1, 2, -1 and -1/2;
- ``selftest --max-n 300 --seed 0..2`` and ``selftest --max-n 2000``;
- ``decode 987654321`` in each format, ``encode "(()(()))"``;
- ``stat NK 987654321`` and ``stat HYPER_W 987654321``;
- polynomials past ``table``'s sizes: ``stat WP <2**2000>``, ``stat DSP
  <3**300>``, ``stat EDP <3**40 * 5**40 * 7**30>``, ``stat MULT_W
  <2**200>`` and ``table WP 100000 100500``, and the error of ``table WP 1
  3 --bfile``, which prints ``IntPolynomial(())``;
- long composite chains: ``stat S`` for S in V, DSP, NK, W and WP at
  ``2**2000``, ``3**300 * 5**200`` and ``2**3000 * 999999937``;
- the prime layer past the initial sieve: ``stat V``, ``decode`` and the
  ``encode`` of 999999937 (a prime near the 10**9 ceiling), ``stat V`` and
  ``stat NK`` of 999999866000004473 (the product of two such primes),
  ``decode 83528415823579`` and ``stat PV 52443337377833`` (semiprimes with a
  factor past 10**6), ``table V 2000000 2000300 --bfile`` (which indexes the
  primes in (10**6, 1000150]), the ``encode`` of the path of 14 edges (which
  indexes primes up to 9737333 and then stops at the ceiling), and the
  errors ``stat V 1000000007`` (a prime past the ceiling) and ``stat V
  <10**51 + 7>``.  A tree that sieves up to the prime it indexes takes 8-32 s
  per command on these.
- parameter handling: ``stat S 0``, ``stat S 0 --k 1`` and ``stat S 0
  --alpha 2`` for S in V, A_ALPHA, HYPER_W, POLARITY and LEVEL_COUNT,
  whose errors show which check comes first, and ``stat LEVEL_COUNT
  360``, ``table LEVEL_COUNT 1 5000 --k 2`` and ``table POLARITY 1 5000
  --k 0``;
- ``table``'s parameter errors, which it gives before its range pass:
  ``table LEVEL_COUNT 1 50``, ``table HYPER_W 1 50 --k 1``, ``table V 1 50
  --k 1``, ``table HYPER_W 1 50 --alpha 2 --k 1`` and ``table R_ALPHA 1 50
  --alpha <10**400>/3``;
- ``verify V`` and ``verify E`` on the b-files under ``tests/fixtures``;
- alphas past a float: ``stat R_ALPHA 9 --alpha <10**400>/3`` and ``stat
  A_ALPHA 3 --alpha 1100.5``;
- the parser's own output: ``--help`` and each command's ``--help``, no
  arguments, an unknown command, ``stat FOO 3``, ``stat V x``, ``decode 12
  --format xml`` and ``table V 5 1``;
- an oracle dump: the type and ``repr`` of ``oracle_value`` for every
  statistic over n <= 1200 and the trees of ``2**1000``, ``3**300`` and
  ``3**40 * 5**40 * 7**30`` (1001, 601 and 291 vertices), alpha
  statistics at alpha 0, +-1, +-2, +-1/2 (as floats and as Fractions) and
  k statistics at k = 0 .. height + 1;
- a parameter dump: for every statistic, every n, alpha and k of
  ``PARAM_DUMP`` (valid ones, spellings of one value, and values of the
  wrong type that equal a valid one, such as True, 2.0 and Decimal(1)),
  the value or the error of ``compute`` on a cold engine and on one warmed
  by ``fill``, of ``composite_value`` at 3 * 4 and of ``oracle_value`` on
  the tree of 12;
- a split dump: for every n <= 200 and every nontrivial divisor r of n
  (prime r only for BV and TW, whose rules need one), the ``repr`` of
  ``composite_value(S, r, n // r)`` or its error, for every statistic S
  with a composite rule, A_ALPHA and R_ALPHA at alpha 1, 2, -1, -1/2 (a
  ``Fraction``) and -0.5;
- a prime dump: for each ``PrimeSieve(b, c)`` with b in 4, 1000 and 10**6
  and c in 1000 and 10**9 (c >= b), first the ``repr`` or the error of
  ``factorize(n)`` for n in 1..3000, 1021**2, 1031**2, 1021 * 1031,
  ``2**400 * 3**5``, 10**6 +- 1..3, 999999937, ``1000003 *
  999999999999999989`` and 10**51 + 7, then of ``prime_index(p)`` for p
  within 3 of 1021, 1024, 1031, b and c, the primes on each side of 2*10**6
  and 2*10**7, and 999999929, 999999937 and 1000000007 (the primes around
  10**9), then of ``nth_prime(m)`` for m in
  170..175, 78497..78500 and within 1 of 148933, 1270607 and 50847534 (the
  indices of the primes below 2*10**6, 2*10**7 and 10**9).
"""

import os
import subprocess
import sys
from pathlib import Path

RECORDER = Path(__file__).resolve().parent / "record_output_digests.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# decode 999999937: encoding it needs nth_prime(50847534)
NEAR_CEILING_TREE = "((()(())(())(())(()()())((((())))(()(())(())((()))))))"
PATH_OF_14_EDGES = "(" * 15 + ")" * 15

ORACLE_DUMP = """
import sys
from fractions import Fraction
from matula.oracle import analyze, oracle_value
from matula.stats import STATISTICS, StatName
from matula.tree import decode
sys.set_int_max_str_digits(0)  # MULT_W(2**1000) has 150000 digits
alphas = (0, 1, -1, 2, -2, 0.5, -0.5, Fraction(1, 2), Fraction(-1, 2))
for n in [*range(1, 1201), 2**1000, 3**300, 3**40 * 5**40 * 7**30]:
    an = analyze(decode(n))
    height = oracle_value(an, StatName.H)
    for name, stat in STATISTICS.items():
        if stat.param == "alpha":
            cases = [{"alpha": a} for a in alphas]
        elif stat.param == "k":
            cases = [{"k": k} for k in range(height + 2)]
        else:
            cases = [{}]
        for kw in cases:
            v = oracle_value(an, name, **kw)
            print(n, name.value, kw, type(v).__name__, repr(v))
"""

PARAM_DUMP = """
from decimal import Decimal
from fractions import Fraction
from matula.oracle import analyze, oracle_value
from matula.stats import STATISTICS, StatsEngine
from matula.tree import decode
ns = (0, True, 2.0, 12)
alphas = (None, 0, 1, 1.0, Fraction(2, 2), 2, -1, -0.5, Fraction(-1, 2), True, "1", Decimal(1))
ks = (None, 0, 1, 3, -1, 2.0, True, "2")
an = analyze(decode(12))

def show(call, *args, **kw):
    try:
        v = call(*args, **kw)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{type(v).__name__} {v!r}"

for name in STATISTICS:
    warm = StatsEngine()
    warm.fill(name, 1, 20)
    for alpha in alphas:
        print(name.value, repr(alpha), "composite", show(StatsEngine().composite_value, name, 3, 4, alpha))
        for k in ks:
            print(name.value, repr(alpha), repr(k), "oracle", show(oracle_value, an, name, alpha=alpha, k=k))
            for n in ns:
                for label, engine in (("cold", StatsEngine()), ("warm", warm)):
                    print(name.value, repr(alpha), repr(k), repr(n), label,
                          show(engine.compute, name, n, alpha=alpha, k=k))
"""

SPLIT_DUMP = """
from fractions import Fraction
from matula.stats import STATISTICS, StatsEngine
engine = StatsEngine()
alphas = (1, 2, -1, Fraction(-1, 2), -0.5)
for n in range(4, 201):
    for r in range(2, n // 2 + 1):
        if n % r:
            continue
        for name, stat in STATISTICS.items():
            if stat.composite is None or stat.prime_split and any(r % d == 0 for d in range(2, r)):
                continue
            for alpha in alphas if stat.param == "alpha" else (None,):
                try:
                    v = repr(engine.composite_value(name, r, n // r, alpha))
                except Exception as exc:
                    v = f"{type(exc).__name__}: {exc}"
                print(n, r, name.value, repr(alpha), v)
"""

PRIME_DUMP = """
from matula.primes import PrimeSieve
ns = [*range(1, 3001), 1021**2, 1031**2, 1021 * 1031, 2**400 * 3**5,
      *(10**6 + d for d in (-3, -2, -1, 1, 2, 3)), 999999937,
      1000003 * 999999999999999989, 10**51 + 7]

def show(call, x):
    try:
        v = repr(call(x))
    except Exception as exc:
        v = f"{type(exc).__name__}: {exc} {getattr(exc, 'needed', None)}"
    print(b, c, call.__name__, x, v)

for b, c in ((4, 1000), (4, 10**9), (1000, 1000), (1000, 10**9), (10**6, 10**9)):
    sieve = PrimeSieve(b, c)
    for n in ns:
        show(sieve.factorize, n)
    for p in sorted({p for x in (1021, 1024, 1031, b, c) for p in range(x - 3, x + 4)}):
        show(sieve.prime_index, p)
    for p in (999999937, 1999993, 2000003, 19999999, 20000003, 999999929, 1000000007):
        show(sieve.prime_index, p)
    for m in (*range(170, 176), *range(78497, 78501), *(m + d for m in (148933, 1270607,
              50847534) for d in (-1, 0, 1))):
        show(sieve.nth_prime, m)
"""


def _run(tree: Path, argv: list[str], unbuffered: bool = False) -> tuple:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(tree / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=tree, capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def _commands(tree: Path) -> list[list[str]]:
    names = _run(tree, ["-c", "from matula.stats import STATISTICS as S\n"
                        "for s in S.values(): print(s.name, s.param)"])[1]
    commands = []
    for line in names.decode().splitlines():
        name, param = line.split()
        commands.append(["table", name, "1", "5000"])
        if param == "alpha":
            for alpha in ("0", "1", "2", "-1", "-1/2"):
                commands.append(["table", name, "1", "5000", f"--alpha={alpha}"])
    commands += [["selftest", "--max-n", "300", "--seed", str(s)] for s in range(3)]
    commands.append(["selftest", "--max-n", "2000"])
    commands += [["decode", "987654321", "--format", f] for f in ("paren", "json", "dot")]
    commands += [["encode", "(()(()))"], ["stat", "NK", "987654321"],
                 ["stat", "HYPER_W", "987654321"]]
    commands += [["stat", "WP", str(2**2000)], ["stat", "DSP", str(3**300)],
                 ["stat", "EDP", str(3**40 * 5**40 * 7**30)],
                 ["stat", "MULT_W", str(2**200)], ["table", "WP", "100000", "100500"],
                 ["table", "WP", "1", "3", "--bfile"]]
    commands += [["stat", name, str(n)] for n in (2**2000, 3**300 * 5**200, 2**3000 * 999999937)
                 for name in ("V", "DSP", "NK", "W", "WP")]
    commands += [["stat", "V", "999999937"], ["decode", "999999937"],
                 ["encode", NEAR_CEILING_TREE], ["stat", "V", "999999866000004473"],
                 ["stat", "NK", "999999866000004473"], ["table", "V", "2000000", "2000300", "--bfile"],
                 ["encode", PATH_OF_14_EDGES],
                 ["decode", "83528415823579"], ["stat", "PV", "52443337377833"],
                 ["stat", "V", "1000000007"], ["stat", "V", str(10**51 + 7)]]
    for name in ("V", "A_ALPHA", "HYPER_W", "POLARITY", "LEVEL_COUNT"):
        commands += [["stat", name, "0"], ["stat", name, "0", "--k", "1"],
                     ["stat", name, "0", "--alpha", "2"]]
    commands += [["stat", "LEVEL_COUNT", "360"], ["table", "LEVEL_COUNT", "1", "5000", "--k", "2"],
                 ["table", "POLARITY", "1", "5000", "--k", "0"]]
    commands += [["table", "LEVEL_COUNT", "1", "50"], ["table", "HYPER_W", "1", "50", "--k", "1"],
                 ["table", "V", "1", "50", "--k", "1"],
                 ["table", "HYPER_W", "1", "50", "--alpha", "2", "--k", "1"],
                 ["table", "R_ALPHA", "1", "50", "--alpha", f"{10**400}/3"]]
    commands += [["verify", "V", str(FIXTURES / "b061775_oracle.txt")],
                 ["verify", "E", str(FIXTURES / "b196050_oracle.txt")],
                 ["stat", "R_ALPHA", "9", "--alpha", f"{10**400}/3"],
                 ["stat", "A_ALPHA", "3", "--alpha", "1100.5"]]
    commands += [["--help"], *([c, "--help"] for c in ("decode", "encode", "stat", "table",
                                                        "verify", "selftest")),
                 [], ["bogus"], ["stat", "FOO", "3"], ["stat", "V", "x"],
                 ["decode", "12", "--format", "xml"], ["table", "V", "5", "1"]]
    return [["-m", "matula", *c] for c in commands] + [
        [str(RECORDER)], ["-c", ORACLE_DUMP], ["-c", PARAM_DUMP], ["-c", SPLIT_DUMP],
        ["-c", PRIME_DUMP]]


def main() -> int:
    old, new = (Path(p).resolve() for p in sys.argv[1:3])
    commands = _commands(old)
    differ = 0

    def report(label: str, argv: list[str], a: tuple, b: tuple) -> None:
        nonlocal differ
        if a != b:
            differ += 1
            fields = [f for f, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
            print(f"DIFFER {label}({', '.join(fields)}): {' '.join(argv)}")

    for argv in commands:
        a, b = _run(old, argv), _run(new, argv)
        report("", argv, a, b)
        if argv[2:3] == ["table"]:
            report("unbuffered OLD ", argv, a, _run(old, argv, unbuffered=True))
            report("unbuffered NEW ", argv, b, _run(new, argv, unbuffered=True))
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
