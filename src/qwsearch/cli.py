"""Command-line interface: spectra, couplings, simulations, validation, sweeps.

Reports are CSV (default) or JSON, written to stdout or ``--out PATH``, and
spelled in one ``%`` pass over a template of the whole report, header or
JSON brackets included, the same bytes as ``_cell`` on each cell: every
real number with 17 significant digits, which round-trips binary64 exactly,
so identical invocations give identical bytes, on every supported
interpreter: each float sum that reaches a report is taken left to right,
never with ``sum()``, which compensates from Python 3.12 on.  ``scan``
hands ``render`` its samples as one 2-D float64 array, whose cells are
spelled by numpy arithmetic in blocks of rows, byte for byte as
``'%.17g' % v``, with no Python float per sample.

Exit codes: 0 success, 1 a validation check failed, 2 usage or domain
error, 3 numerical failure.  Among the domain errors: a C(n,k) beyond
binary64, refused at once however large n and k are; a time t whose phase
bound (gamma*k(n-k) + 1)*t overflows; a run time that overflows
binary64 (at every n from k = 171, and from n = 4176 at k = 170); and a
dense build that does not fit in memory, such as ``validate --n 2000 --k 2
--full-cap 2000000``, whose N x N adjacency would take 29 TiB
(``MemoryError``).

``spectrum`` and ``gamma`` are exact arithmetic, and ``simulate`` and
``sweep`` run on the reduced model's secular solve in plain floats
(:mod:`qwsearch.reduced`); none of the four loads numpy.  This module
imports the numerical layers inside the commands that use them.
"""

import argparse
import os
import sys
from dataclasses import astuple, fields
from functools import lru_cache
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
_BLOCK = 4096  # rows per block of a report's template, or of an array report


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
    """Rows (value sequences in column order, iterated once) to CSV or JSON text.

    rows may also be a 2-D float64 array, one row per report row, spelled
    from the array in blocks of rows: the same bytes as its ``tolist()``.
    """
    if (getattr(rows, "dtype", None) == "float64" and rows.ndim == 2 and rows.size
            and "\0" not in "".join(columns)):
        return _spell_array(rows, columns, fmt)
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
    q, r = divmod(m - 1, _BLOCK)
    block = (row + sep) * _BLOCK
    return "".join([head] + [block] * q + [(row + sep) * r, row, tail])


# An array report is spelled without a Python float per cell.  Each block of
# rows is one uint8 array, a field per cell: the separator before the cell,
# right-aligned, then the cell in a _SLOT-byte slot, all padded with NUL,
# which one bytes.translate drops.  A float64 x with 1e-280 <= |x| <= 1e280
# is spelled as '%.17g' % x by whole-array arithmetic: y = |x| 10^(16-e),
# e = floor(log10|x|), is formed as hi + lo, hi = fl(|x| head) and lo its
# exact error (Dekker's split product) plus |x| tail, where head + tail is
# 10^(16-e) (head correctly rounded, tail the rounded remainder), so
# |hi + lo - y| < 2^-100 y < 2^-43.  Where y is outside [1e16, 1e17), e
# moves by one and y is formed again.  hi >= 2^53 is an integer, so y rounds
# to D = hi + floor(lo) (+1 above one half), the 17 digits, unless
# frac(lo) lies within 2^-30 of one half, too close to call.  Such near-ties,
# zeros, non-finite values and |x| outside the range are spelled by
# '%.17g' % x itself.
_SLOT = 24  # the longest '%.17g': -1.2345678901234567e-280
# A cell's spelling parts are 32 bytes, four little-endian words: 0..15 the
# 16 digits after the first (NUL past the last one printed), 16 the first
# digit, 17 the point (or NUL), 18 "0", 19 the sign (or NUL), and in
# exponential notation 20 "e", 21 the exponent's sign, 22..24 its digits
# (22 NUL below 100); 25 is NUL.  Each slot layout lists the parts it
# prints: layout e + 4 is fixed notation for -4 <= e < 17, layout 21
# exponential notation.
_DIGITS = [16, *range(16)]
_LAYOUTS = [row + [25] * (_SLOT - len(row)) for row in (
    [[19, 18, 17, *[18] * (z - 1), *_DIGITS] for z in (4, 3, 2, 1)]
    + [[19, *_DIGITS[:e + 1], 17, *_DIGITS[e + 1:]] for e in range(17)]
    + [[19, 16, 17, *range(16), 20, 21, 22, 23, 24]])]
_WHOLE_DIGITS = [0] * 4 + list(range(1, 18)) + [1]  # digits before the point, per layout
_BYTE_MASKS = [(1 << 8 * j) - 1 for j in range(8)] + [-1]  # the first j bytes of a word


@lru_cache(maxsize=None)
def _power_of_ten(s: int):
    # 10**s as head + tail, with head split in Dekker's halves; s stays in
    # -265..297, so the cache holds at most 563 entries
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    head = num / den
    p, q = head.as_integer_ratio()
    split = 134217729.0 * head
    upper = split - (split - head)
    return upper, head - upper, head, (num * q - p * den) / (den * q)


def _scaled(a, e):
    # (hi, lo): |x| 10^(16-e) = hi + lo within 2^-100 of it
    import numpy as np

    s = 16 - e
    first = int(s.min())
    table = np.array([_power_of_ten(v) for v in range(first, int(s.max()) + 1)]).T
    upper, lower, head, tail = table.take(s - first, axis=1)
    hi = a * head
    split = 134217729.0 * a
    a_upper = split - (split - a)
    a_lower = a - a_upper
    err = ((a_upper * upper - hi) + a_upper * lower + a_lower * upper) + a_lower * lower
    return hi, err + a * tail


def _spell_cells(x, fields):
    # '%.17g' % v of each cell of x into the last _SLOT bytes of its field
    import numpy as np

    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled(a[moved], e[moved])
    floor = np.floor(lo)
    frac = lo - floor
    fast &= np.abs(frac - 0.5) > 2.0**-30
    d = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    layout = np.where((e >= -4) & (e < 17), e + 4, 21)
    # digits 1..16 as two words of 8 digit bytes, split in lanes of 4, 2, 1
    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    words = np.stack((upper, d - upper * 10**8), axis=1)
    q = words // 10**4
    words = q | (words - q * 10**4) << 32
    q = words * 5243 >> 19 & 0x7F0000007F
    words = q | (words - q * 100) << 16
    q = words * 103 >> 10 & 0xF000F000F000F
    words = q | (words - q * 10) << 8
    # digits shown: through the last nonzero one, and all before the point
    zeros = 7 - (np.frexp(words.astype(np.float64))[1] - 1) // 8  # zero bytes ending a word
    whole = np.array(_WHOLE_DIGITS)[layout]
    shown = 17 - zeros[:, 1] - (words[:, 1] == 0) * zeros[:, 0]
    kept = np.maximum(shown, whole)
    kept = np.stack((kept - 1, kept - 9), axis=1).clip(0, 8)
    parts = np.empty((x.size, 4), "<i8")
    parts[:, :2] = (words | 0x3030303030303030) & np.array(_BYTE_MASKS).take(kept)
    parts[:, 2] = lead + 48 | (shown > whole) * 46 << 8 | 48 << 16 | (x < 0) * 45 << 24
    parts[:, 3] = 0
    layout[~fast] = len(_LAYOUTS)
    for k in np.flatnonzero(np.bincount(layout)).tolist():
        cells = np.flatnonzero(layout == k)
        if k == len(_LAYOUTS):
            text = b"".join(b"%-24.17g" % v for v in x[cells].tolist()).replace(b" ", b"\0")
            fields[cells, -_SLOT:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT)
            continue
        cell_parts = parts[cells]
        if k == 21:
            ex = e[cells]
            ab = np.abs(ex)
            cell_parts[:, 2] |= (101 | np.where(ex < 0, 45, 43) << 8
                                 | np.where(ab >= 100, ab // 100 + 48, 0) << 16
                                 | (ab // 10 % 10 + 48) << 24) << 32
            cell_parts[:, 3] = ab % 10 + 48
        fields[cells, -_SLOT:] = cell_parts.view(np.uint8)[:, _LAYOUTS[k]]


def _spell_array(a, columns, fmt: str) -> str:
    # render's path for a 2-D float64 array a: rows are spelled in blocks,
    # each block decoded once, and the text joined once
    import numpy as np

    rows, width = a.shape
    if fmt == "csv":
        head, seps, tail = ",".join(columns) + "\n", ["\n"] + [","] * (width - 1), "\n"
    else:
        first = f'"{columns[0]}": '
        head, tail = "[\n  {" + first, "}\n]\n"
        seps = ["},\n  {" + first] + [f', "{c}": ' for c in columns[1:]]
    seps = [s.encode() for s in seps]
    pad = max(map(len, seps))
    template = np.frombuffer(b"".join(s.rjust(pad, b"\0") + b"\0" * _SLOT for s in seps),
                             np.uint8)
    pieces = [head]
    for start in range(0, rows, _BLOCK):
        block = a[start:start + _BLOCK]
        fields = np.empty((block.shape[0], width * (pad + _SLOT)), np.uint8)
        fields[:] = template
        fields = fields.reshape(-1, pad + _SLOT)
        if start == 0:
            fields[0, :pad] = 0
        _spell_cells(block.ravel(), fields)
        pieces.append(fields.tobytes().translate(None, b"\0").decode())
    pieces.append(tail)
    return "".join(pieces)


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
    import numpy as np

    from . import dynamics

    params = _params(args)
    gamma = args.gamma if args.gamma is not None else coupling.gamma_star(params)
    t1 = args.t1 if args.t1 is not None else 2.0 * dynamics.run_time(params)
    result = dynamics.scan(params, gamma, args.t0, t1, args.m)
    return ("t", "prob"), np.column_stack((result.times, result.probs)), EXIT_OK


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
    except (DomainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
