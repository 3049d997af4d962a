import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matula import cli, stats
from matula.cli import EXIT_MISMATCH, EXIT_OK, main, parse_bfile
from matula.errors import MatulaError, ParseError
from matula.oracle import analyze, oracle_value
from matula.stats import STATISTICS, StatName, StatsEngine
from matula.tree import decode

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_paren(capsys):
    code, out, _ = run(capsys, "decode", "4")
    assert code == EXIT_OK
    assert out == "(()())\n"


def test_decode_json(capsys):
    code, out, _ = run(capsys, "decode", "4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["matula"] == "4"


def test_decode_json_layout(capsys):
    code, out, _ = run(capsys, "decode", "6", "--format", "json")
    assert code == EXIT_OK
    assert out == """{
  "matula": "6",
  "children": [
    {
      "matula": "1",
      "children": []
    },
    {
      "matula": "2",
      "children": [
        {
          "matula": "1",
          "children": []
        }
      ]
    }
  ]
}
"""


def test_decode_dot(capsys):
    code, out, _ = run(capsys, "decode", "4", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_encode(capsys):
    code, out, _ = run(capsys, "encode", "(()())")
    assert code == EXIT_OK
    assert out == "4\n"


def test_stat_polynomial(capsys):
    code, out, _ = run(capsys, "stat", "EDP", "987654321")
    assert code == EXIT_OK
    assert out == "15 + 9*x + 5*x^2\n"


def test_stat_scalar(capsys):
    code, out, _ = run(capsys, "stat", "V", "1")
    assert code == EXIT_OK
    assert out == "1\n"


def test_stat_case_insensitive(capsys):
    code, out, _ = run(capsys, "stat", "dsp", "9")
    assert code == EXIT_OK
    assert out == "2*x + 3*x^2\n"


def test_stat_alpha_rational(capsys):
    code, out, _ = run(capsys, "stat", "R_ALPHA", "9", "--alpha=-1")
    assert code == EXIT_OK
    assert out == "3/2\n"


def test_stat_alpha_float(capsys):
    # negative fractions need the --alpha=VALUE spelling
    code, out, _ = run(capsys, "stat", "R_ALPHA", "9", "--alpha=-1/2")
    assert code == EXIT_OK
    assert abs(float(out) - 2.414213562373095) < 1e-9


def test_stat_level_count_k(capsys):
    code, out, _ = run(capsys, "stat", "LEVEL_COUNT", "12", "--k", "1")
    assert code == EXIT_OK
    assert out == "3\n"


def test_stat_invalid_n_is_computation_error(capsys):
    code, _, err = run(capsys, "stat", "V", "0")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_stat_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stat", "NOPE", "9"])
    assert exc.value.code == 2


def test_bad_alpha_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stat", "R_ALPHA", "9", "--alpha", "zzz"])
    assert exc.value.code == 2


def test_table(capsys):
    code, out, _ = run(capsys, "table", "V", "1", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1", "2 2", "3 3", "4 3", "5 4"]


def test_table_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "W", "1", "40")
    _, second, _ = run(capsys, "table", "W", "1", "40")
    assert first == second


def test_table_bfile_roundtrips_through_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "E", "1", "60", "--bfile")
    assert code == EXIT_OK
    assert [i for i, _ in parse_bfile(out)] == list(range(1, 61))
    path = tmp_path / "b.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "E", str(path))
    assert code == EXIT_OK
    assert "0 mismatches" in out


def _per_n_table(name, lo, hi, bfile=False):
    """(exit code, stdout, stderr) of `table` computed one n at a time."""
    engine = StatsEngine()
    out = []
    try:
        for n in range(lo, hi + 1):
            value = engine.compute(name, n)
            if bfile and not isinstance(value, int):
                raise MatulaError(
                    "--bfile needs an integer-valued statistic, "
                    f"{name.value} gave {value!r}"
                )
            out.append(f"{n} {value}\n")
    except MatulaError as exc:
        return 1, "".join(out), f"error: {exc}\n"
    return EXIT_OK, "".join(out), ""


@pytest.mark.parametrize("lo, hi", [(1, 300), (250, 300)])
def test_table_range_pass_matches_per_n(capsys, monkeypatch, lo, hi):
    for name in StatName:
        monkeypatch.setattr(stats, "_default_engine", StatsEngine())  # a fresh engine
        got = run(capsys, "table", name.value, str(lo), str(hi))
        assert got == _per_n_table(name, lo, hi), name
    monkeypatch.setattr(stats, "_default_engine", StatsEngine())
    got = run(capsys, "table", "EDP", "1", "3", "--bfile")
    assert got == _per_n_table(StatName.EDP, 1, 3, bfile=True)
    assert got[0] == 1


def test_table_bfile_rejects_polynomials(capsys):
    code, _, err = run(capsys, "table", "EDP", "1", "3", "--bfile")
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize("name", [StatName.LEVEL_COUNT, StatName.POLARITY])
def test_table_k_matches_per_n_compute(capsys, monkeypatch, name):
    monkeypatch.setattr(stats, "_default_engine", StatsEngine())  # a fresh engine
    got = run(capsys, "table", name.value, "1", "300", "--k", "2")
    engine = StatsEngine()
    want = "".join(f"{n} {engine.compute(name, n, k=2)}\n" for n in range(1, 301))
    assert got == (EXIT_OK, want, "")


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_table_writes_in_batches(monkeypatch):
    monkeypatch.setattr(stats, "_default_engine", StatsEngine())
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["table", "V", "1", "5000"]) == EXIT_OK
    assert len(stdout.writes) <= -(-5000 // cli._BATCH_LINES) + 1
    assert "".join(stdout.writes) == _per_n_table(StatName.V, 1, 5000)[1]


def test_table_prints_the_lines_before_an_error(capsys, monkeypatch):
    # A_ALPHA at alpha -1 is 0 at n = 1, 1 at n = 2 and 1/2 at n = 3.
    argv = ["table", "A_ALPHA", "1", "10", "--bfile", "--alpha", "-1"]
    error = "error: --bfile needs an integer-valued statistic, A_ALPHA gave Fraction(1, 2)\n"
    monkeypatch.setattr(stats, "_default_engine", StatsEngine())
    assert run(capsys, *argv) == (1, "1 0\n2 1\n", error)
    proc = _run_matula(argv, "-u")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "1 0\n2 1\n", error)


@pytest.mark.parametrize("name", ["V", "WP"])
def test_unbuffered_table_matches_the_recorded_digest(name):
    proc = _run_matula(["table", name, "1", "3000"], "-u")
    assert (proc.returncode, proc.stderr) == (0, "")
    want = json.loads((FIXTURES / "output_digests.json").read_text())["dense"][name]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_table_quietly(flags):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "matula", "table", "V", "1", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline() == b"1 1\n"
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_table_k_on_a_statistic_without_k_fails_as_stat_does(capsys, monkeypatch):
    got = run(capsys, "table", "V", "1", "5", "--k", "1")
    assert got == run(capsys, "stat", "V", "1", "--k", "1")
    assert got == (1, "", "error: V takes no k parameter\n")
    # A bad k is refused before the range pass, which takes seconds here.
    filled = []
    monkeypatch.setattr(StatsEngine, "fill", lambda *args, **kw: filled.append(args))
    for argv, message in (
        (("LEVEL_COUNT", "1", "2000000"), "LEVEL_COUNT requires k"),
        (("HYPER_W", "1", "2000000", "--k", "1"), "HYPER_W takes no k parameter"),
        (("V", "1", "2000000", "--k", "1"), "V takes no k parameter"),
    ):
        assert run(capsys, "table", *argv) == (1, "", f"error: {message}\n")
    assert filled == []


def test_verify_fixture_vertknown(capsys):
    code, out, _ = run(capsys, "verify", "V", str(FIXTURES / "b061775_oracle.txt"))
    assert code == EXIT_OK
    assert "verified 100 terms" in out


def test_verify_fixture_edges(capsys):
    code, out, _ = run(capsys, "verify", "E", str(FIXTURES / "b196050_oracle.txt"))
    assert code == EXIT_OK


def test_verify_limit(capsys):
    code, out, _ = run(
        capsys, "verify", "V", str(FIXTURES / "b061775_oracle.txt"), "--limit", "10"
    )
    assert code == EXIT_OK
    assert "verified 10 terms" in out


def test_verify_limit_zero_checks_nothing(capsys):
    code, out, _ = run(
        capsys, "verify", "V", str(FIXTURES / "b061775_oracle.txt"), "--limit", "0"
    )
    assert code == EXIT_OK
    assert "verified 0 terms" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "V", str(FIXTURES / "b061775_oracle.txt"), "--limit", "-1"],
        ["verify", "V", str(FIXTURES / "b061775_oracle.txt"), "--limit", "x"],
        ["selftest", "--max-n", "0"],
        ["selftest", "--max-n", "-3"],
        ["selftest", "--max-n", "1.5"],
        ["table", "V", "0", "5"],
        ["table", "V", "1", "-2"],
        ["stat", "LEVEL_COUNT", "9", "--k", "-1"],
        ["table", "LEVEL_COUNT", "1", "9", "--k", "-1"],
    ],
)
def test_count_options_out_of_range_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err


def test_table_range_must_not_be_empty(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "V", "5", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lo <= hi" in captured.err


def test_verify_reports_mismatch(capsys, tmp_path):
    text = (FIXTURES / "b061775_oracle.txt").read_text()
    lines = text.splitlines()
    lines[10] = "7 999"  # line 10 holds n=7 (after the 4 comment lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "V", str(path))
    assert code == EXIT_MISMATCH
    assert "index 7" in out and "999" in out and "4" in out


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "V", "/no/such/file.txt")
    assert code == 1
    assert err.startswith("error:")


def test_verify_malformed_bfile(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("1 1\nbogus line here\n")
    code, _, err = run(capsys, "verify", "V", str(path))
    assert code == 1
    assert "error:" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "60", "--seed", "11")
    assert code == EXIT_OK
    assert "selftest OK" in out


def test_bfile_fixtures_are_oracle_derived():
    # Regenerate both fixtures from the explicit-tree oracle and compare.
    for fname, stat in (
        ("b061775_oracle.txt", StatName.V),
        ("b196050_oracle.txt", StatName.E),
    ):
        text = (FIXTURES / fname).read_text()
        assert "oracle" in text.splitlines()[1]
        entries = parse_bfile(text)
        assert len(entries) == 100
        for n, value in entries:
            assert value == oracle_value(analyze(decode(n)), stat)


def test_parse_bfile_skips_comments_and_blanks():
    entries = parse_bfile("# header\n\n1 5\n2 6\n\n# trailing\n3 7\n")
    assert entries == [(1, 5), (2, 6), (3, 7)]


def test_parse_bfile_rejects_bad_lines():
    with pytest.raises(ParseError):
        parse_bfile("1 2 3\n")
    with pytest.raises(ParseError):
        parse_bfile("1 x\n")
    with pytest.raises(ParseError) as exc:
        parse_bfile("1 5\n1 6\n")
    assert exc.value.offset == 4  # second line starts at byte 4


def test_parse_bfile_offsets_in_bytes():
    with pytest.raises(ParseError) as exc:
        parse_bfile("# ok\n1 1\nbroken\n")
    assert exc.value.offset == 9


def _run_matula(argv, *flags):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *flags, "-m", "matula", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["stat", "V", "0"],
        ["stat", "V", str(10**51 + 7)],
        ["stat", "V", str(3 * (10**51 + 7))],
        ["stat", "V", "1000000007"],
        ["stat", "A_ALPHA", "7", "--alpha", "2001/2"],
        ["stat", "A_ALPHA", "3", "--alpha", "1e12"],
        ["stat", "R_ALPHA", "9", "--alpha", f"{10**400}/3"],
    ],
    ids=[
        "zero",
        "10**51+7",
        "3*(10**51+7)",
        "prime-past-ceiling",
        "alpha-overflow",
        "int-alpha-too-large",
        "alpha-past-the-float-range",
    ],
)
def test_extreme_input_exits_without_traceback(argv):
    proc = _run_matula(argv)
    assert proc.returncode in (1, 2)
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


# The CLI's input surface, for the property test below: statistic names
# grouped by the parameter they take, then aliases and bogus names.
_NAMES = [
    ["A_ALPHA", "R_ALPHA", "a", " R ", "randic"],
    ["LEVEL_COUNT", "POLARITY", "level_count"],
    [name.value for name in StatName if STATISTICS[name].param is None],
    ["BOGUS", "", "V2"],
]
_INTS = ["0", "-1", "1", "12", "360", str(2**64), str(3**200), "999999937", "1000000007",
         "1.5", "abc", "1e3", "1_000", "\u0663"]
_ALPHAS = [f"{10**400}/3", f"1/{10**400}", "1100.5", "-1100.5", "1/0", "nan", "inf", "2",
           "-1/2", "0"]
_KS = ["-1", "0", "3"]
_BFILES = ["good", "malformed", "missing", "not-utf8"]  # made by the test


@st.composite
def _argv(draw):
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    command = pick(["stat", "table", "decode", "encode", "verify", "selftest", "bogus"])
    group = draw(st.integers(0, 3))
    name = pick(_NAMES[group])
    params = []  # mostly the one the name takes, sometimes the other
    if draw(st.integers(0, 3)) > (0 if group == 0 else 2):
        params += ["--alpha", pick(_ALPHAS)]
    if draw(st.integers(0, 3)) > (0 if group == 1 else 2):
        params += ["--k", pick(_KS)]
    if command == "decode":
        return [command, pick(_INTS), *pick([[], ["--format", "json"], ["--format", "dot"],
                                             ["--format", "xml"]])]
    if command == "encode":
        return [command, pick(["(()(()))", "()", "(()", "x", "", "(())()"])]
    if command == "stat":
        return [command, name, pick(_INTS), *params]
    if command == "table":  # at most 50 lines
        lo = pick(["-1", "0", "1", "97", "abc", str(2**64)])
        hi = str(int(lo) + draw(st.integers(-1, 49))) if lo != "abc" else "5"
        return [command, name, lo, hi, *params, *pick([[], ["--bfile"]])]
    if command == "verify":
        return [command, name, pick(_BFILES), *pick([[], ["--limit", "5"], ["--limit", "-1"]])]
    if command == "selftest":
        return [command, "--max-n", pick(["0", "1", "10", "x"]), "--seed", pick(["0", "-3", "x"])]
    return [command]


def _write_bfiles(folder: Path, name: str) -> dict:
    """The paths of _BFILES; the good one holds name's values over n <= 30."""
    lines = []
    try:
        for n in range(1, 31):
            lines.append(f"{n} {StatsEngine().compute(StatName.from_string(name), n)}\n")
    except MatulaError:  # verify fails at this n too (or rejects the name)
        lines.append(f"{n} 0\n")
    paths = {b: folder / b for b in _BFILES}
    paths["good"].write_text("".join(lines))
    paths["malformed"].write_text("1 1\n2\n")
    paths["not-utf8"].write_bytes(b"1 1\n2 \xff\n")
    return paths


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argv_exits_with_a_code_and_at_most_one_error_line(tmp_path, argv):
    if argv[0] == "verify":
        argv[2] = str(_write_bfiles(tmp_path, argv[1])[argv[2]])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    if code == 0 and argv[0] == "stat":
        args = cli.build_parser().parse_args(argv)
        want = StatsEngine().compute(args.name, args.n, alpha=args.alpha, k=args.k)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert out.getvalue() == f"{want}\n", argv
        finally:
            sys.set_int_max_str_digits(limit)


def test_fresh_process_answers_a_power_past_the_ceiling():
    # sqrt(2**400) is past the sieve ceiling, but 2 divides it out.
    proc = _run_matula(["stat", "V", str(2**400)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "401\n", "")


def test_answer_past_the_digit_limit_prints_in_full():
    # The star with 200 leaves: 19900 leaf pairs at distance 2.
    proc = _run_matula(["stat", "MULT_W", str(2**200)])
    assert (proc.returncode, proc.stderr) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(proc.stdout) == 2**19900
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_non_utf8_bfile_is_an_error(tmp_path):
    path = tmp_path / "b.txt"
    path.write_bytes(b"1 1\n2 \xff\n")
    proc = _run_matula(["verify", "V", str(path)])
    assert proc.returncode == 1
    assert proc.stderr == "error: b-file is not UTF-8 (at byte 6)\n"


def test_one_shot_commands_import_only_what_they_run():
    heavy = ("matula.oracle", "matula.stats", "matula.poly", "matula.tree", "fractions",
             "dataclasses", "inspect", "json")
    cases = [
        ([], []),
        (["decode", "360", "--format", "dot"], ["matula.tree"]),
        (["encode", "(()(()))"], ["matula.tree"]),
        (["stat", "A_ALPHA", "360", "--alpha", "1/2"], ["fractions", "matula.stats"]),
        (["table", "V", "1", "50"], ["fractions", "matula.stats"]),
        (["stat", "WP", "360"], ["fractions", "matula.poly", "matula.stats"]),
        (["stat", "HYPER_W", "360"], ["fractions", "matula.stats"]),
        (["table", "EXIT_SUM", "1", "5"], ["fractions", "matula.stats"]),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, loaded in cases:
        code = (
            "import sys, matula.cli\n"
            f"if {argv!r}: matula.cli.main({argv!r})\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, f"{loaded}\n"), argv


def test_encode_of_a_child_number_past_the_float_range_is_one_error_line(capsys):
    # The root's child is a star of 1100 leaves, numbered 2**1100: the root is
    # the prime of that index, which lies past the ceiling.
    code, out, err = run(capsys, "encode", "((" + "()" * 1100 + "))")
    assert (code, out) == (1, "")
    assert err == f"error: prime #{2**1100} lies beyond the sieve ceiling {10**9}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_one_error_line():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "matula", "stat", "V", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize(
    "n, value",
    [(999999937, "27"), (999999866000004473, "51")],
    ids=["prime-below-the-ceiling", "product-of-two-such-primes"],
)
def test_fresh_process_answers_near_the_ceiling(n, value):
    # Past the initial sieve: pi(x) for the index, Miller–Rabin and rho for
    # the factors; the sieve is never grown to the prime.
    proc = _run_matula(["stat", "V", str(n)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, value + "\n", "")


def test_selftest_loads_the_oracle_in_a_fresh_process():
    proc = _run_matula(["selftest", "--max-n", "5"])
    assert proc.returncode == 0
    assert proc.stdout.endswith("selftest OK\n")


def test_every_public_name_resolves():
    import matula

    for name in matula.__all__:
        assert getattr(matula, name) is not None, name
    namespace = {}
    exec("from matula import *", namespace)
    assert set(matula.__all__) <= set(namespace)


def test_outputs_match_the_recorded_digests(monkeypatch):
    # Both evaluation paths, every statistic: `table` output (dense) and
    # per-n `compute` on a cold engine (sparse); see record_output_digests.py.
    from record_output_digests import dense_digests, sparse_digests

    monkeypatch.setattr(stats, "_default_engine", StatsEngine())
    want = json.loads((FIXTURES / "output_digests.json").read_text())
    assert dense_digests() == want["dense"]
    assert sparse_digests() == want["sparse"]


# Run as `python -m matula` does, and report at exit how many objects are frozen.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("matula", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, code", [(["stat", "V", "12"], 0), (["stat", "V"], 2)], ids=["answer", "usage-error"]
)
def test_the_process_entry_freezes_the_heap_before_exit(argv, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "frozen" and int(last[1]) > 0, proc.stderr


def test_main_leaves_the_collector_alone(capsys):
    import gc

    before = gc.get_freeze_count()
    assert main(["stat", "V", "12"]) == EXIT_OK
    with pytest.raises(SystemExit):
        main(["stat", "V"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


_SUBCOMMANDS = [
    ("decode", "print the rooted tree for a Matula number"),
    ("encode", "print the Matula number of a parenthesized tree"),
    ("stat", "print one statistic of one Matula number"),
    ("table", "print 'n value' lines for a range of n"),
    ("verify", "check computed values against an OEIS b-file"),
    ("selftest", "recursion-vs-oracle and split-invariance checks"),
]


def test_help_lists_every_command_and_a_bad_one_names_every_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert [line for line in lines if tuple(line) in _SUBCOMMANDS] == [
        list(c) for c in _SUBCOMMANDS
    ]
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert re.findall(r"\w+", err.split("choose from", 1)[1]) == [c for c, _ in _SUBCOMMANDS]
