"""Record the output digests that test_output_digests checks.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/record_output_digests.py > tests/fixtures/output_digests.json

Prints one sha256 digest per statistic and parameter case for each
evaluation path, as JSON:

- "dense": the stdout of ``table S 1 3000`` (run in-process on a fresh
  default engine), for every statistic that ``table`` accepts, and for
  A_ALPHA and R_ALPHA also at alpha 2 and -1;
- "sparse": ``compute`` on a cold engine at a fixed seeded sample of 300
  n <= 10**7, one "n type value" line per n, for every statistic and
  parameter case.

Record only at a commit whose output is known to be right: the test
treats any later difference as an error.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from matula import cli, stats
from matula.stats import STATISTICS, StatsEngine

TABLE_HI = 3000
TABLE_ALPHAS = ("2", "-1")
SAMPLE = sorted(random.Random(2011).sample(range(1, 10**7 + 1), 300))
ALPHAS = (None, 0, 1, 2, -1, Fraction(-1, 2))
KS = (None, 0, 1, 2, 3)


def _cases():
    """(label, statistic, keywords) for every statistic and parameter case."""
    for name, stat in STATISTICS.items():
        if stat.param == "alpha":
            params = [{"alpha": a} for a in ALPHAS]
        elif stat.param == "k":
            params = [{"k": k} for k in KS if k is not None or stat.default is not None]
        else:
            params = [{}]
        for kw in params:
            label = " ".join([name.value, *(f"{p}={v}" for p, v in kw.items())])
            yield label, name, kw


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dense_digests() -> dict[str, str]:
    """Digest of ``table S 1 TABLE_HI`` stdout for each statistic table accepts."""
    digests = {}
    for name, stat in STATISTICS.items():
        alphas = (None, *TABLE_ALPHAS) if stat.param == "alpha" else (None,)
        for alpha in alphas:
            argv = ["table", name.value, "1", str(TABLE_HI)]
            if alpha is not None:
                argv += ["--alpha", alpha]
            stats._default_engine = StatsEngine()  # each table starts cold
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code == cli.EXIT_OK:
                digests[" ".join(argv[1:2] + argv[4:])] = _sha(out.getvalue())
    stats._default_engine = StatsEngine()
    return digests


def sparse_digests() -> dict[str, str]:
    """Digest of per-n ``compute`` over SAMPLE on a cold engine, per case."""
    digests = {}
    for label, name, kw in _cases():
        engine = StatsEngine()
        lines = []
        for n in SAMPLE:
            v = engine.compute(name, n, **kw)
            lines.append(f"{n} {type(v).__name__} {v}\n")
        digests[label] = _sha("".join(lines))
    return digests


def main() -> None:
    record = {"dense": dense_digests(), "sparse": sparse_digests()}
    sys.stdout.write(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
