"""Command-line interface: spectra, couplings, simulations, validation, sweeps.

Reports are CSV (default) or JSON, written to stdout or ``--out PATH``.
Every real number is printed with 17 significant digits, which round-trips
binary64 exactly, so identical invocations produce byte-identical reports.

Exit codes: 0 success, 1 a validation check failed, 2 usage or domain
error, 3 numerical failure.
"""

import argparse
import os
import sys
from dataclasses import asdict

from . import coupling, dynamics, validation
from .errors import DomainError, NumericalError
from .johnson import DEFAULT_FULL_CAP, GraphParams
from .spectral import eigenvalue, multiplicity, overlap

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_real(value)
    return str(value)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, int):
        return str(value)
    return '"' + str(value) + '"'


def render(rows, columns, fmt: str) -> str:
    """Rows (dicts) to CSV or JSON text with deterministic formatting."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    body = ",\n".join(
        "  {" + ", ".join(f'"{c}": {_json_scalar(row[c])}' for c in columns) + "}"
        for row in rows
    )
    return "[\n" + body + "\n]\n"


def _write(text: str, out):
    if out is None:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get("QWSEARCH_OUT_DIR")
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _params(args) -> GraphParams:
    return GraphParams(n=args.n, k=args.k)


def cmd_spectrum(args) -> int:
    params = _params(args)
    rows = [
        {
            "ell": ell,
            "lambda": eigenvalue(params, ell),
            "multiplicity": multiplicity(params, ell),
            "overlap_sq": overlap(params, ell) ** 2,
        }
        for ell in range(params.k + 1)
    ]
    _write(render(rows, ["ell", "lambda", "multiplicity", "overlap_sq"], args.format), args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    params = _params(args)
    star = coupling.gamma_star(params)
    closed = rel = None
    if params.k in (3, 4, 5):
        closed = coupling.gamma_closed_form(coupling.from_graph(params))
        rel = abs(closed - star) / star
    rows = [
        {"n": params.n, "k": params.k, "gamma_star": star,
         "gamma_closed_form": closed, "rel_diff": rel}
    ]
    _write(
        render(rows, ["n", "k", "gamma_star", "gamma_closed_form", "rel_diff"], args.format),
        args.out,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _params(args)
    gamma = args.gamma if args.gamma is not None else coupling.gamma_star(params)
    t = args.t if args.t is not None else dynamics.run_time(params)
    rows = [{"gamma": gamma, "t": t,
             "p_succ": dynamics.success_probability(params, gamma, t)}]
    _write(render(rows, ["gamma", "t", "p_succ"], args.format), args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    params = _params(args)
    gamma = args.gamma if args.gamma is not None else coupling.gamma_star(params)
    t1 = args.t1 if args.t1 is not None else 2.0 * dynamics.run_time(params)
    result = dynamics.scan(params, gamma, args.t0, t1, args.m)
    rows = [
        {"t": float(t), "prob": float(p)}
        for t, p in zip(result.times, result.probs)
    ]
    _write(render(rows, ["t", "prob"], args.format), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    params = _params(args)
    report = validation.validate_instance(params, w=args.w, cap=args.full_cap)
    rows = [
        {"check": c.name, "passed": c.passed, "residual": c.residual,
         "threshold": c.threshold}
        for c in report.checks
    ]
    _write(render(rows, ["check", "passed", "residual", "threshold"], args.format), args.out)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    rows = [
        asdict(row)
        for row in validation.convergence_sweep(args.k, args.n_list, jobs=args.jobs)
    ]
    columns = [
        "n", "N", "gamma_star", "t_run", "p_at_trun", "t_peak", "p_peak",
        "gap", "gap_ratio", "phase", "s_overlap_sq", "w_overlap_sq",
    ]
    _write(render(rows, columns, args.format), args.out)
    return EXIT_OK


def _n_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("n-list must not be empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsearch",
        description="Quantum-walk spatial search on Johnson graphs J(n,k)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_nk=True):
        if with_nk:
            p.add_argument("--n", type=int, required=True, help="ground-set size")
            p.add_argument("--k", type=int, required=True, help="subset size")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="closed-form eigenvalues, multiplicities, overlaps")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gamma", help="critical hopping rate (and closed form for k=3,4,5)")
    add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("simulate", help="success probability at one time")
    add_common(p)
    p.add_argument("--gamma", type=float, default=None, help="hopping rate (default: critical)")
    p.add_argument("--t", type=float, default=None, help="time (default: run_time)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="success probability on a uniform time grid")
    add_common(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=None, help="default: 2*run_time")
    p.add_argument("--m", type=int, default=101, help="sample count")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("validate", help="full-space oracle checks for one instance")
    add_common(p)
    p.add_argument("--w", type=int, default=0, help="marked vertex id")
    p.add_argument("--full-cap", type=int, default=DEFAULT_FULL_CAP)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="convergence study over a list of n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", type=_n_list, required=True, help="comma-separated n values")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted, must be >= 1; rows are computed one after another")
    add_common(p, with_nk=False)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
