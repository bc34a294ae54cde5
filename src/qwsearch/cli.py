"""Command-line interface: spectra, couplings, simulations, validation, sweeps.

Reports are CSV (default) or JSON, written to stdout or ``--out PATH``, and
spelled in one ``%`` pass over a template of the whole report, header or
JSON brackets included, the same bytes as ``_cell`` on each cell: every
real number with 17 significant digits, which round-trips binary64 exactly,
so identical invocations give identical bytes.

Exit codes: 0 success, 1 a validation check failed, 2 usage or domain
error, 3 numerical failure.  Among the domain errors: a C(n,k) beyond
binary64, refused at once however large n and k are; a time t whose phase
bound (gamma*k(n-k) + 1)*t overflows; and a run time that overflows
binary64 (at every n from k = 171, and from n = 4176 at k = 170).

``spectrum`` and ``gamma`` are exact arithmetic, and ``simulate`` and
``sweep`` run on the reduced model's secular solve in plain floats
(:mod:`qwsearch.reduced`); none of the four loads numpy.  This module
imports the numerical layers inside the commands that use them.
"""

import argparse
import os
import sys
from dataclasses import astuple, fields
from itertools import chain

from . import coupling
from .domain import DEFAULT_FULL_CAP, GraphParams
from .errors import DomainError, NumericalError
from .spectral import eigenvalue, multiplicity

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
_SPECS = {frozenset([float]): "%.17g", frozenset([int]): "%d"}  # as _cell spells them
_TEMPLATE_BLOCK = 4096  # rows per repeated block of a report's template


def _cell(value, fmt: str) -> str:
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if fmt == "json" and not isinstance(value, int):
        return f'"{value}"'
    return str(value)


def render(rows, columns, fmt: str) -> str:
    """Rows (value sequences in column order, iterated once) to CSV or JSON text."""
    cells, width, specs = list(chain.from_iterable(rows)), len(columns), []
    for j in range(width):
        specs.append(_SPECS.get(frozenset(map(type, cells[j::width])), "%s"))
        if specs[-1] == "%s":
            cells[j::width] = [_cell(v, fmt) for v in cells[j::width]]
    m, cells = len(cells) // width, tuple(cells)
    names = [c.replace("%", "%%") for c in columns]
    if fmt == "csv":
        return _template(",".join(names) + "\n", ",".join(specs) + "\n", "", "", m) % cells
    row = "  {" + ", ".join([f'"{c}": {s}' for c, s in zip(names, specs)]) + "}"
    return _template("[\n", row, ",\n", "\n]\n", m) % cells


def _template(head, row, sep, tail, m: int) -> str:
    # head + sep.join([row] * m) + tail, the whole report's template, so the
    # report is spelled once and never copied to add its header or brackets.
    # It is joined from blocks of rows: no other report-sized string or list
    # is built.
    if m == 0:
        return head + tail
    q, r = divmod(m - 1, _TEMPLATE_BLOCK)
    block = (row + sep) * _TEMPLATE_BLOCK
    return "".join([head] + [block] * q + [(row + sep) * r, row, tail])


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


def cmd_spectrum(args):
    params = _params(args)
    # p_l^2 = m_l / N in one correctly rounded division, not via a sqrt.
    rows = []
    for ell in range(params.k + 1):
        m = multiplicity(params, ell)
        rows.append((ell, eigenvalue(params, ell), m, m / params.num_vertices))
    return ("ell", "lambda", "multiplicity", "overlap_sq"), rows, EXIT_OK


def cmd_gamma(args):
    params = _params(args)
    star = coupling.gamma_star(params)
    closed = rel = None
    if params.k in (3, 4, 5):
        closed = coupling.gamma_closed_form(coupling.from_graph(params))
        rel = abs(closed - star) / star
    columns = ("n", "k", "gamma_star", "gamma_closed_form", "rel_diff")
    return columns, [(params.n, params.k, star, closed, rel)], EXIT_OK


def cmd_simulate(args):
    from . import reduced

    params = _params(args)
    gamma = args.gamma if args.gamma is not None else coupling.gamma_star(params)
    t = args.t if args.t is not None else reduced.run_time(params)
    p = reduced.success_probability(params, gamma, t)
    return ("gamma", "t", "p_succ"), [(gamma, t, p)], EXIT_OK


def cmd_scan(args):
    from . import dynamics

    params = _params(args)
    gamma = args.gamma if args.gamma is not None else coupling.gamma_star(params)
    t1 = args.t1 if args.t1 is not None else 2.0 * dynamics.run_time(params)
    result = dynamics.scan(params, gamma, args.t0, t1, args.m)
    return ("t", "prob"), zip(result.times.tolist(), result.probs.tolist()), EXIT_OK


def cmd_validate(args):
    from . import validation

    params = _params(args)
    report = validation.validate_instance(params, w=args.w, cap=args.full_cap)
    rows = [(c.name, c.passed, c.residual, c.threshold) for c in report.checks]
    code = EXIT_OK if report.all_passed else EXIT_CHECK_FAILED
    return ("check", "passed", "residual", "threshold"), rows, code


def cmd_sweep(args):
    from . import reduced

    rows = reduced.convergence_sweep(args.k, args.n_list, jobs=args.jobs)
    columns = [f.name for f in fields(reduced.SweepRow)]
    return columns, [astuple(row) for row in rows], EXIT_OK


def _n_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from exc
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
                   help="an integer >= 1, otherwise ignored: rows are computed one after another")
    add_common(p, with_nk=False)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        columns, rows, code = args.func(args)
        _write(render(rows, columns, args.format), args.out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
