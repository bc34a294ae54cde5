import json
import math
import os
import struct
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch import cli

CMD = [sys.executable, "-m", "qwsearch"]
# the children import the same qwsearch as this process, installed or not
SRC = os.path.dirname(os.path.dirname(qw.__file__))


def run(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return subprocess.run(CMD + list(args), capture_output=True, env=full_env, timeout=120)


def parse_csv(raw: bytes):
    lines = raw.decode("utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline, UNIX line endings
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:-1]]


def test_spectrum_63():
    out = run("spectrum", "--n", "6", "--k", "3")
    assert out.returncode == 0
    rows = parse_csv(out.stdout)
    assert len(rows) == 4
    assert [r["lambda"] for r in rows] == ["9", "3", "-1", "-3"]
    assert [r["multiplicity"] for r in rows] == ["1", "5", "9", "5"]


@pytest.mark.parametrize("n,k", [(6, 3), (7, 2), (10, 4), (100, 3), (1000, 5), (37, 7)])
def test_spectrum_overlap_sq_is_the_rounded_ratio(n, k, capsys):
    # p_l^2 = m_l / N, correctly rounded; the square of a rounded sqrt
    # prints 0.049999999999999996 for 1/20 on J(6,3).
    assert cli.main(["spectrum", "--n", str(n), "--k", str(k)]) == 0
    rows = parse_csv(capsys.readouterr().out.encode())
    n_vert = math.comb(n, k)
    for row in rows:
        assert float(row["overlap_sq"]) == float(Fraction(int(row["multiplicity"]), n_vert))


def test_spectrum_rejects_small_n():
    out = run("spectrum", "--n", "3", "--k", "2")
    assert out.returncode == 2
    assert b"n >= 2k" in out.stderr


def test_spectrum_json():
    out = run("spectrum", "--n", "4", "--k", "2", "--format", "json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert len(rows) == 3
    assert sum(r["multiplicity"] for r in rows) == 6


def test_gamma_closed_form_column():
    out = run("gamma", "--n", "100", "--k", "3")
    assert out.returncode == 0
    row = parse_csv(out.stdout)[0]
    assert float(row["rel_diff"]) < 1e-12
    assert float(row["gamma_closed_form"]) == pytest.approx(
        float(row["gamma_star"]), rel=1e-12
    )


def test_gamma_without_closed_form():
    out = run("gamma", "--n", "10", "--k", "2")
    assert out.returncode == 0
    row = parse_csv(out.stdout)[0]
    assert row["gamma_closed_form"] == "" and row["rel_diff"] == ""
    assert float(row["gamma_star"]) > 0


def test_simulate_defaults():
    out = run("simulate", "--n", "100", "--k", "2")
    assert out.returncode == 0
    row = parse_csv(out.stdout)[0]
    assert float(row["t"]) == pytest.approx(100 * math.pi / (2 * math.sqrt(2)), rel=1e-15)
    assert 0.0 <= float(row["p_succ"]) <= 1.0


def test_simulate_t_zero_gives_uniform_probability():
    out = run("simulate", "--n", "6", "--k", "3", "--t", "0")
    assert out.returncode == 0
    assert float(parse_csv(out.stdout)[0]["p_succ"]) == pytest.approx(0.05, abs=1e-15)


def test_simulate_at_large_k_matches_a_high_precision_model():
    # J(100,40) at the float gamma*: 0.35025399126541845 from a 120-200-digit
    # model of the same matrix; a dense eigh printed 0.99250.
    out = run("simulate", "--n", "100", "--k", "40")
    assert abs(float(parse_csv(out.stdout)[0]["p_succ"]) - 0.35025399126541845) <= 1e-13


def test_simulate_explicit_gamma_matches_critical():
    # gamma_star(100, 1) = 99/10000 = 0.0099
    a = parse_csv(run("simulate", "--n", "100", "--k", "1").stdout)[0]
    b = parse_csv(run("simulate", "--n", "100", "--k", "1", "--gamma", "0.0099").stdout)[0]
    assert float(a["p_succ"]) == pytest.approx(float(b["p_succ"]), abs=1e-12)


def test_scan_endpoints():
    out = run("scan", "--n", "6", "--k", "3", "--m", "2")
    assert out.returncode == 0
    rows = parse_csv(out.stdout)
    assert len(rows) == 2
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["prob"]) == pytest.approx(1 / 20, rel=1e-12)
    assert run("scan", "--n", "6", "--k", "3", "--m", "1").returncode == 2


def test_validate_63():
    out = run("validate", "--n", "6", "--k", "3")
    assert out.returncode == 0
    rows = parse_csv(out.stdout)
    assert all(r["passed"] == "true" for r in rows)
    oracle = next(r for r in rows if r["check"] == "oracle_equivalence")
    assert float(oracle["residual"]) <= 1e-9


def test_validate_rejects_over_cap():
    out = run("validate", "--n", "40", "--k", "4")
    assert out.returncode == 2
    assert b"91390" in out.stderr


def test_a_dense_build_out_of_memory_is_a_domain_error(monkeypatch, capsys):
    # validate --n 2000 --k 2 --full-cap 2000000 would ask numpy for a
    # 29 TiB adjacency; the allocation's MemoryError is raised here instead.
    message = ("Unable to allocate 29.1 TiB for an array with shape (1999000, 1999000) "
               "and data type float64")

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(qw.validation, "_adjacency", no_memory)
    assert cli.main(["validate", "--n", "7", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("n, k, gamma, message", [
    (10, 3, "1e-150", None),
    (10, 3, "5.5e-155", None),
    (10, 3, "5.3e-155", "the secular equation of J(10,3) at gamma=5.3e-155 leaves binary64"),
    (10, 3, "1e-155", "the secular equation leaves binary64 at offset"),
    (1000, 3, "3.3e-154", None),
    (1000, 3, "3.1e-154", "the secular equation leaves binary64 at offset"),
    (6, 3, "5e-324", "gamma=5e-324 puts the levels of J(6,3) closer than binary64 resolves"),
])
def test_tiny_couplings_answer_down_to_the_solvers_limit(n, k, gamma, message, capsys):
    # The pole offsets are about gamma, so R_j ~ 1/gamma^2 overflows just
    # below 5.4e-155 at J(10,3) and 3.2e-154 at J(1000,3); each of the
    # solver's three refusals exits 3 with its own message.
    code = cli.main(["simulate", "--n", str(n), "--k", str(k), "--gamma", gamma])
    out, err = capsys.readouterr()
    if message is None:
        assert code == 0 and err == ""
        assert float(out.splitlines()[1].split(",")[2]) > 0.0
    else:
        assert code == 3 and out == ""
        assert err.startswith(f"numerical failure: {message}")


def test_validate_k2_trivial_instance():
    out = run("validate", "--n", "2", "--k", "1")
    assert out.returncode == 0
    rows = parse_csv(out.stdout)
    assert all(r["passed"] == "true" for r in rows)
    assert max(float(r["residual"]) for r in rows) <= 1e-11


def test_sweep_rows_and_roundtrip():
    out = run("sweep", "--k", "2", "--n-list", "100,1000,10000")
    assert out.returncode == 0
    rows = parse_csv(out.stdout)
    assert len(rows) == 3
    p = [float(r["p_at_trun"]) for r in rows]
    assert p[0] < p[1] < p[2]
    # 17 significant digits round-trip binary64 exactly
    recomputed = qw.convergence_sweep(2, [100, 1000, 10000])
    for row, ref in zip(rows, recomputed):
        assert int(row["n"]) == ref.n
        assert int(row["N"]) == ref.N
        for name in ("gamma_star", "t_run", "p_at_trun", "t_peak", "p_peak",
                     "gap", "gap_ratio", "phase", "s_overlap_sq", "w_overlap_sq"):
            assert float(row[name]) == getattr(ref, name)


def test_sweep_single_small_n():
    out = run("sweep", "--k", "1", "--n-list", "4")
    assert out.returncode == 0
    row = parse_csv(out.stdout)[0]
    assert float(row["gap"]) > 0 and float(row["phase"]) > 0


def test_sweep_empty_n_list():
    assert run("sweep", "--k", "2", "--n-list", "").returncode == 2


def test_sweep_byte_identical_across_runs_and_jobs():
    first = run("sweep", "--k", "3", "--n-list", "100,1000", "--format", "json")
    second = run("sweep", "--k", "3", "--n-list", "100,1000", "--format", "json")
    parallel = run("sweep", "--k", "3", "--n-list", "100,1000", "--format", "json", "--jobs", "4")
    assert first.returncode == second.returncode == parallel.returncode == 0
    assert first.stdout == second.stdout == parallel.stdout


# "$ qwsearch <arguments>" lines, each followed by that command's stdout.
# The bare-interpreter CI job diffs the same commands' output against this
# file on Python 3.10, 3.11 and 3.13.
_EXACT_COMMANDS = os.path.join(os.path.dirname(__file__), "exact_commands.txt")


def test_exact_commands_print_the_checked_in_bytes(capsys):
    # simulate and sweep sum their floats left to right, so every supported
    # interpreter prints these bytes; sum() compensates from Python 3.12 on.
    with open(_EXACT_COMMANDS, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    commands = [line.split()[2:] for line in expected.splitlines() if line.startswith("$ ")]
    printed = []
    for argv in commands:
        assert cli.main(argv) == 0
        printed.append(f"$ qwsearch {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(printed) == expected
    assert sorted(int(argv[2]) for argv in commands if argv[0] == "sweep") == list(range(1, 9))
    assert "simulate --n 100 --k 40".split() in commands


def test_out_file_and_dir_override(tmp_path):
    target = tmp_path / "report.csv"
    out = run("spectrum", "--n", "6", "--k", "3", "--out", str(target))
    assert out.returncode == 0 and out.stdout == b""
    direct = target.read_bytes()
    assert direct == run("spectrum", "--n", "6", "--k", "3").stdout

    subdir = tmp_path / "reports"
    subdir.mkdir()
    out = run("spectrum", "--n", "6", "--k", "3", "--out", "rel.csv",
              env={"QWSEARCH_OUT_DIR": str(subdir)})
    assert out.returncode == 0
    assert (subdir / "rel.csv").read_bytes() == direct


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "100", "--k", "3", "--t", "nan"),
        ("simulate", "--n", "100", "--k", "3", "--t", "inf"),
        ("simulate", "--n", "100", "--k", "3", "--gamma", "inf"),
        ("simulate", "--n", "6", "--k", "3", "--gamma", "1e308"),
        ("scan", "--n", "2", "--k", "1", "--gamma", "1e308", "--m", "3"),
        ("scan", "--n", "100", "--k", "3", "--t1", "inf"),
        ("scan", "--n", "100", "--k", "3", "--t0", "nan"),
        ("spectrum", "--n", "3000", "--k", "1000"),
        ("sweep", "--k", "3", "--n-list", "100", "--jobs", "0"),
        ("sweep", "--k", "3", "--n-list", "100", "--jobs", "-3"),
        ("scan", "--n", "6", "--k", "3", "--m", "2000000000"),
        ("gamma", "--n", "6", "--k", "3", "--out", "/nonexistent/x"),
        ("gamma", "--n", "6", "--k", "3", "--out", "."),
        ("simulate", "--n", "26", "--k", "8", "--gamma", "1e17", "--t", "1e308"),
        ("scan", "--n", "13", "--k", "1", "--gamma", "1e17", "--m", "3", "--t1", "1e308"),
        ("spectrum", "--n", "3000000", "--k", "300000"),
        ("simulate", "--n", "342", "--k", "171", "--gamma", "0.1"),
    ],
    ids=lambda argv: " ".join((argv[0], *argv[-2:])),
)
def test_bad_input_is_a_domain_error(argv):
    out = run(*argv)
    assert out.returncode == 2
    assert out.stderr.startswith(b"error: ")
    assert b"Traceback" not in out.stderr and b"Warning" not in out.stderr
    assert b"nan" not in out.stdout.lower()


@pytest.mark.parametrize("n, k", [(324, 162), (330, 165), (340, 170), (342, 171), (400, 200)])
def test_gamma_at_large_k_prints_the_correctly_rounded_sum(n, k):
    # gamma* is one exact integer ratio, so no k that GraphParams accepts
    # overflows it.
    out = run("gamma", "--n", str(n), "--k", str(k))
    assert out.returncode == 0 and out.stderr == b""
    exact = sum(
        Fraction(math.comb(n, l) - math.comb(n, l - 1), math.comb(n, k) * l * (n - l + 1))
        for l in range(1, k + 1)
    )
    assert parse_csv(out.stdout)[0]["gamma_star"] == format(float(exact), ".17g")


def test_usage_errors_exit_two():
    assert run("no-such-command").returncode == 2
    assert run("spectrum", "--n", "6").returncode == 2  # missing --k


def test_render_spells_every_cell_type():
    columns = ["i", "big", "r", "nz", "tiny", "t", "f", "none", "s"]
    row = (7, 2**70, 0.1, -0.0, 1e-300, True, False, None, "x_1")
    assert cli.render([row], columns, "csv") == (
        "i,big,r,nz,tiny,t,f,none,s\n"
        "7,1180591620717411303424,0.10000000000000001,-0,1e-300,true,false,,x_1\n"
    )
    assert cli.render([row], columns, "json") == (
        '[\n  {"i": 7, "big": 1180591620717411303424, "r": 0.10000000000000001, '
        '"nz": -0, "tiny": 1e-300, "t": true, "f": false, "none": null, "s": "x_1"}\n]\n'
    )


def test_render_spells_mixed_columns_cell_by_cell():
    # column b mixes True with 1, column x mixes 1 with 1.0 (and 2**70 with 0.5,
    # which neither %d nor %.17g alone spells as _cell does)
    rows = [(True, 1), (1, 1.0), (False, 2**70), (0, 0.5)]
    assert cli.render(rows, ["b", "x"], "csv") == (
        "b,x\ntrue,1\n1,1\nfalse,1180591620717411303424\n0,0.5\n"
    )
    assert cli.render(rows, ["b", "x"], "json") == (
        '[\n  {"b": true, "x": 1},\n  {"b": 1, "x": 1},\n'
        '  {"b": false, "x": 1180591620717411303424},\n  {"b": 0, "x": 0.5}\n]\n'
    )


def _spell_cell_by_cell(rows, columns, fmt):
    # render's reference: one _cell call per cell
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(cli._cell(v, fmt) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    body = ",\n".join(
        "  {" + ", ".join(f'"{c}": {cli._cell(v, fmt)}' for c, v in zip(columns, row)) + "}"
        for row in rows
    )
    return "[\n" + body + "\n]\n"


_CELL_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
)
_CELL_INTS = st.one_of(st.integers(), st.sampled_from([-1, 0, 2**70, -(2**70)]))
_CELL_OTHERS = st.one_of(
    st.booleans(), st.none(), st.text(alphabet="ab_1%,", max_size=6),
    _CELL_FLOATS.map(np.float64),
)
_CELL_COLUMNS = st.sampled_from(
    [_CELL_FLOATS, _CELL_INTS, st.booleans(), st.none(), _CELL_OTHERS,
     st.one_of(_CELL_FLOATS, _CELL_INTS), st.one_of(st.booleans(), _CELL_INTS),
     st.one_of(_CELL_FLOATS, _CELL_INTS, _CELL_OTHERS)]
)


@st.composite
def _report(draw):
    column_cells = draw(st.lists(_CELL_COLUMNS, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*column_cells), max_size=40))
    return rows, [f"c{j}" for j in range(len(column_cells))]


@settings(max_examples=300)
@given(report=_report(), fmt=st.sampled_from(["csv", "json"]))
def test_render_matches_cell_by_cell_spelling(report, fmt):
    rows, columns = report
    assert cli.render(iter(rows), columns, fmt) == _spell_cell_by_cell(rows, columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_large_scan_report_matches_cell_by_cell_spelling(fmt, capsys):
    capsys.readouterr()
    assert cli.main(["scan", "--n", "6", "--k", "3", "--m", "100001", "--format", fmt]) == 0
    params = qw.GraphParams(6, 3)
    res = qw.scan(params, qw.gamma_star(params), 0.0, 2 * qw.run_time(params), 100001)
    rows = list(zip(res.times.tolist(), res.probs.tolist()))
    assert capsys.readouterr().out == _spell_cell_by_cell(rows, ("t", "prob"), fmt)


# The array path spells every float64 cell by numpy arithmetic, exactly
# where 1e-280 <= |x| <= 1e280 and away from a rounding tie, and by
# '%.17g' % x elsewhere: both sides of every edge of that argument.
_POWERS_OF_TEN = [float(f"1e{i}") for i in range(-300, 301)]
_EDGE_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1.7976931348623157e308, math.inf, math.nan, 1e-280, 1e280, 1e-5, 1e16, 1e17]
_EDGE_FLOATS += [math.nextafter(v, to) for v in _EDGE_FLOATS[7:] + _POWERS_OF_TEN
                 for to in (0.0, math.inf)] + _POWERS_OF_TEN
_EDGE_FLOATS += [-v for v in _EDGE_FLOATS]
_ARRAY_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(1e-6, 1e18),
    st.integers(1, 2**20).flatmap(lambda m: st.integers(1, 60).map(lambda j: m / 2**j)),
)


@st.composite
def _array_report(draw):
    width = draw(st.integers(1, 3))
    cells = draw(st.lists(_ARRAY_CELLS, min_size=width, max_size=300 * width))
    a = np.array(cells[:len(cells) // width * width]).reshape(-1, width)
    return a, [f"c{j}" for j in range(width)]


@settings(max_examples=300, derandomize=True)
@given(report=_array_report(), fmt=st.sampled_from(["csv", "json"]))
def test_array_report_matches_cell_by_cell_spelling(report, fmt):
    a, columns = report
    assert cli.render(a, columns, fmt) == _spell_cell_by_cell(a.tolist(), columns, fmt)


def test_array_spelling_is_percent_17g_on_a_million_values():
    # Random bit patterns, values spread over 1e-6..1e18, powers of ten and
    # their neighbours, dyadic fractions (many of them ties at 17 digits),
    # the layout boundaries 1e-5, 1e-4, 1e16 and 1e17 with 50 neighbours on
    # each side, integers and a uniform grid of [0, 1].
    rng = np.random.default_rng(20211)
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    below, above = [edges], [edges]
    for _ in range(50):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    values = np.concatenate([
        rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-6, 18, 300_000) * rng.choice([-1.0, 1.0], 300_000),
        _EDGE_FLOATS,
        (np.arange(1, 10_001) / 2.0 ** np.arange(1, 61, 3)[:, None]).ravel(),
        *below, *above,
        np.arange(1.0, 200_001.0),
        np.linspace(0.0, 1.0, 10**5 + 1),
    ])
    assert values.size > 10**6
    got = cli.render(values[:, None], ["x"], "csv").split("\n")
    want = ["x", *("%.17g" % v for v in values.tolist()), ""]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_array_report_blocks_and_column_names(m, fmt):
    # An array report is spelled in blocks of 4096 rows; names may hold %
    # and non-ASCII text, and a name holding NUL takes the per-cell path.
    rng = np.random.default_rng(m)
    a = np.column_stack((np.linspace(0.0, 7.5, m), rng.random(m), -(10.0 ** rng.uniform(-9, 9, m))))
    for columns in (["t%", "prob", "p_é"], ["t", "a\0b", "c"]):
        assert cli.render(a, columns, fmt) == _spell_cell_by_cell(a.tolist(), columns, fmt)


# Small values are drawn as often as the full ranges, so that many examples
# are valid and reach the solvers.
_NS = st.one_of(st.integers(-2, 64), st.integers(-2, 10**15))
_KS = st.one_of(st.integers(-2, 8), st.integers(-2, 10**6))
_REALS = st.one_of(
    st.floats(0.0, 1e3),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324, 1e-310, 0.0]),
)


def _option(name, values):
    # "--name=value" lets negative values reach the option's type.
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v!r}"]))


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(["spectrum", "gamma", "simulate", "scan", "validate", "sweep"])
    )
    argv = [command, "--format=" + draw(st.sampled_from(["csv", "json"]))]
    if command == "sweep":
        n_list = draw(st.lists(_NS, min_size=1, max_size=4))
        argv += [f"--k={draw(_KS)}", "--n-list=" + ",".join(map(str, n_list))]
        return argv + draw(_option("jobs", st.integers(-2, 4)))
    argv += [f"--n={draw(_NS)}", f"--k={draw(_KS)}"]
    if command in ("simulate", "scan"):
        argv += draw(_option("gamma", _REALS))
    if command == "simulate":
        argv += draw(_option("t", _REALS))
    if command == "scan":
        argv += draw(_option("t0", _REALS)) + draw(_option("t1", _REALS))
        argv += draw(_option("m", st.integers(-2, 10**4)))
    if command == "validate":
        argv += draw(_option("w", st.integers(-2, 400)))
        argv.append(f"--full-cap={draw(st.integers(-2, 300))}")
    return argv


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_arguments_give_an_exit_code_and_no_nan(argv, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert "nan" not in out and "inf" not in out


@pytest.mark.parametrize("m", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_template_blocks_and_escaped_names(m, fmt):
    # the template is joined from blocks of rows, and a column name may hold %
    rows = [(0.1 * i, i, "x%s" if i % 2 else None) for i in range(m)]
    columns = ["t%", "100%d", "s"]
    assert cli.render(iter(rows), columns, fmt) == _spell_cell_by_cell(rows, columns, fmt)
