import json
import math
import os
import subprocess
import sys

import pytest

import qwsearch as qw

CMD = [sys.executable, "-m", "qwsearch"]
# the children import the same qwsearch as this process, installed or not
SRC = os.path.dirname(os.path.dirname(qw.__file__))


def run(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return subprocess.run(CMD + list(args), capture_output=True, env=full_env)


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
    ],
    ids=lambda argv: " ".join((argv[0], *argv[-2:])),
)
def test_bad_input_is_a_domain_error(argv):
    out = run(*argv)
    assert out.returncode == 2
    assert out.stderr.startswith(b"error: ")
    assert b"Traceback" not in out.stderr and b"Warning" not in out.stderr
    assert b"nan" not in out.stdout.lower()


def test_usage_errors_exit_two():
    assert run("no-such-command").returncode == 2
    assert run("spectrum", "--n", "6").returncode == 2  # missing --k
