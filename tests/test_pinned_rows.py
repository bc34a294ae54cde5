"""Every field of a sweep row, pinned bit for bit, and equal to the public
routes to the same numbers.

The table holds ``float.hex`` of each float field of
:func:`qwsearch.asymptotics_row` on rows from k = 1 to 6, n from 2k up to
the top of each k's accurate range (10^8, 10^6.4, 10^4.9, 10^3.7 and 10^2.8
for k = 2..6), and on the k = 5, 6 rows of the benchmark's sweep where the
most ripple arcs survive the peak search's cut.  Work that claims to leave the arithmetic alone must leave
it passing unchanged; only a change that states which digits move may
regenerate it.
"""

import math

import numpy as np
import pytest
from conftest import centred, peak_beta, scan_max
from hypothesis import given, settings
from hypothesis import strategies as st

import qwsearch as qw

_FIELDS = (
    "gamma_star", "t_run", "p_at_trun", "t_peak", "p_peak", "gap",
    "gap_ratio", "phase", "s_overlap_sq", "w_overlap_sq",
)

# (k, n, N, hex of each of _FIELDS)
_PINNED = [
    (1, 2, 2, (
        "0x1.0000000000000p-2", "0x1.1c5831add62e4p+1", "0x1.b76c8c541c53dp-1",
        "0x1.67aba6d20e485p+1", "0x1.cccccccccccccp-1", "0x1.1e3779b97f4a8p+0",
        "0x1.94c583ada5b53p-1", "0x1.3de825a69a3a4p+1", "0x1.727c9716ffb77p-1",
        "0x1.e4f92e2dff6edp-1",
    )),
    (1, 10000, 10000, (
        "0x1.a36371ea531a8p-14", "0x1.3a28c59d5433bp+7", "0x1.fffcb90b33a36p-1",
        "0x1.3a2bc9bc5df59p+7", "0x1.fffcb929011aap-1", "0x1.47aaef28958cap-6",
        "0x1.fffb15af69abcp-1", "0x1.921bd8fd0f6b0p+1", "0x1.0147b139d4e7cp-1",
        "0x1.03d702e65ddcbp-1",
    )),
    (1, 100000000, 100000000, (
        "0x1.5798ede9635e7p-27", "0x1.eadfb4c5d390cp+13", "0x1.ffffffea86714p-1",
        "0x1.eadfb4e4b5a45p+13", "0x1.ffffffea86714p-1", "0x1.a36e2e9760ccap-13",
        "0x1.ffffffdfc9a9dp-1", "0x1.921fb52af6292p+1", "0x1.000346dc5db14p-1",
        "0x1.0009d49517969p-1",
    )),
    (2, 4, 6, (
        "0x1.71c71c71c71c7p-3", "0x1.1c5831add62e4p+2", "0x1.cc4dab373338fp-1",
        "0x1.096a74a1760e0p+2", "0x1.d04454a67599bp-1", "0x1.8044ba66390e4p-1",
        "0x1.0fb805ec71a0cp+0", "0x1.aad0a0fb920ddp+1", "0x1.396da7a9bf218p-1",
        "0x1.8f9806854aea8p-1",
    )),
    (2, 1000, 499500, (
        "0x1.06edfd2a7a0a5p-11", "0x1.15ae2083c3292p+10", "0x1.fefce2b1ffed6p-1",
        "0x1.160f337e736c8p+10", "0x1.fefdb463383a3p-1", "0x1.728bcff57f9bap-9",
        "0x1.ffbfd848a4baep-1", "0x1.91ed521c2df64p+1", "0x1.002e975850cc8p-1",
        "0x1.0009fcb10e26dp-1",
    )),
    (2, 100000000, 4999999950000000, (
        "0x1.5798eecff8f31p-28", "0x1.a7b4d25d0daaap+26", "0x1.ffffff54338afp-1",
        "0x1.a7b4d2480a506p+26", "0x1.ffffff54338adp-1", "0x1.e5eb8a3412318p-26",
        "0x1.ffffffd50ce2dp-1", "0x1.921fb5228746bp+1", "0x1.0000001e4fb21p-1",
        "0x1.0000000544f61p-1",
    )),
    (3, 6, 20, (
        "0x1.b851eb851eb85p-4", "0x1.2d97c7f3321d3p+3", "0x1.97d546085bb20p-1",
        "0x1.f03d779440072p+2", "0x1.d5064c945d9ffp-1", "0x1.af574effa1785p-2",
        "0x1.43817b3fb91a5p+0", "0x1.fc296548cc5bap+1", "0x1.1fd5ec73897adp-1",
        "0x1.454c36f120c8bp-1",
    )),
    (3, 2511886, 2641484137996594540, (
        "0x1.1cfa06531c4edp-23", "0x1.30562df419546p+31", "0x1.fffff5fb3092bp-1",
        "0x1.3056250e219a2p+31", "0x1.fffff5fb31a97p-1", "0x1.5241962987dc2p-30",
        "0x1.000007839606dp+0", "0x1.921fc111d2a96p+1", "0x1.00000026f0fa2p-1",
        "0x1.fffff5b7e1c38p-2",
    )),
    (4, 8, 70, (
        "0x1.0ac628ba51217p-4", "0x1.48552f88091a8p+4", "0x1.01090c435d7a0p-1",
        "0x1.b003a397024ddp+3", "0x1.d74666172fcd9p-1", "0x1.cef36bf78af76p-3",
        "0x1.79ff6fc7d2375p+0", "0x1.28e0f78e5aec3p+2", "0x1.11adb35053d65p-1",
        "0x1.19072cddfaeb7p-1",
    )),
    (4, 79432, 1658585802711347510, (
        "0x1.a673e3f4672c1p-19", "0x1.e254c8e5d3c52p+30", "0x1.ffff441fc6d11p-1",
        "0x1.e250778509f01p+30", "0x1.ffff4439b2903p-1", "0x1.aadfba9e1cbc0p-30",
        "0x1.00024ab862a93p+0", "0x1.92234ee279840p+1", "0x1.fffffea01f5c7p-2",
        "0x1.ffff45a6e9b1ap-2",
    )),
    (5, 10, 252, (
        "0x1.580e236c5f688p-5", "0x1.6ac28706e24fdp+5", "0x1.430437805ea8ep-3",
        "0x1.391c7aa372d28p+6", "0x1.d5208d55dcd95p-1", "0x1.ebbd7a174b340p-4",
        "0x1.bb9a85982100dp+0", "0x1.5c67cbcccd442p+2", "0x1.097b090398275p-1",
        "0x1.03c3ed4f16651p-1",
    )),
    # J(2896,5), J(454,6) and J(585,6): the rows of the benchmark's sweep
    # where the most ripple arcs (5, 7 and 8) survive the peak search's cut.
    (5, 2896, 1691652397529424, (
        "0x1.22301e4e1ecd3p-14", "0x1.edc281bc5ef52p+25", "0x1.fff0e5b5b2ab1p-1",
        "0x1.ecef321594c13p+25", "0x1.fff1cddfbfcc0p-1", "0x1.a1ad5cfa358aep-25",
        "0x1.006dc01f0dd66p+0", "0x1.92cc1a8d00688p+1", "0x1.00000035b6d46p-1",
        "0x1.fff1cf1602b79p-2",
    )),
    (5, 5011, 26276881700275212, (
        "0x1.4f28ad4b31612p-15", "0x1.e6266a4cbfebcp+27", "0x1.fff781890e889p-1",
        "0x1.e5ae2529efceap+27", "0x1.fff7cf0013966p-1", "0x1.a7ea6244d506fp-27",
        "0x1.003f64fa7992ep+0", "0x1.928349afb35b6p+1", "0x1.0000002a4fb8cp-1",
        "0x1.fff7cf15701d1p-2",
    )),
    (6, 12, 924, (
        "0x1.d9a24cab30746p-6", "0x1.94a11bac50115p+6", "0x1.82a8e74497c8cp-8",
        "0x1.289ead1f9af9cp+7", "0x1.df13d4d6f565ep-1", "0x1.03ad7ffb5a6c6p-4",
        "0x1.054bb1a7d34fep+1", "0x1.9a713a283e103p+2", "0x1.04e44e3a6b402p-1",
        "0x1.f774bbe5a6db5p-2",
    )),
    (6, 454, 11765093687985, (
        "0x1.864529f3a5664p-12", "0x1.4e59959774f37p+22", "0x1.ff6199b92eba5p-1",
        "0x1.48f09377a7e1ap+22", "0x1.ffb90c859ee7ap-1", "0x1.38f4fa907f965p-21",
        "0x1.043611ede896ep+0", "0x1.98bd22f360010p+1", "0x1.00000272bb704p-1",
        "0x1.ffb91b3056a7ep-2",
    )),
    (6, 585, 54254014875060, (
        "0x1.2df0a1f9ef94bp-12", "0x1.65a9276870d26p+23", "0x1.ff94d530f7c61p-1",
        "0x1.612a1e2ce1fe6p+23", "0x1.ffc93b5824d6dp-1", "0x1.237d5b1e7e00ep-22",
        "0x1.03426c4ea2d60p+0", "0x1.973e6ab1b11d7p+1", "0x1.0000012416928p-1",
        "0x1.ffc9422c2be67p-2",
    )),
    (6, 630, 84789140638125, (
        "0x1.18288eedb3a36p-12", "0x1.beb5ac269fc9cp+23", "0x1.ffa01676cb1eep-1",
        "0x1.b97e5be650b41p+23", "0x1.ffcd3608cf39ep-1", "0x1.d257d78f56ad6p-23",
        "0x1.03064f4109862p+0", "0x1.96dffda041266p+1", "0x1.000000eaa113cp-1",
        "0x1.ffcd3b7d1d1dfp-2",
    )),
]


@pytest.mark.parametrize(
    "k, n, n_vert, pinned", _PINNED, ids=[f"k{k}-n{n}" for k, n, *_ in _PINNED]
)
def test_sweep_row_is_pinned_bit_for_bit(k, n, n_vert, pinned):
    row = qw.asymptotics_row(qw.GraphParams(n, k))
    assert (row.n, row.N) == (n, n_vert)
    assert tuple(getattr(row, f).hex() for f in _FIELDS) == pinned


# The pinned rows, and four where the 2001-point grid with golden section
# stopped on a ripple crest up to 4.0e-7 below the bracket's maximum.
_PEAK_ROWS = [(k, n) for k, n, *_ in _PINNED] + [(3, 633), (4, 1000), (6, 200), (3, 10**4)]


@pytest.mark.parametrize("k, n", _PEAK_ROWS, ids=[f"k{k}-n{n}" for k, n in _PEAK_ROWS])
def test_sweep_row_peak_is_within_beta_of_dense_scans(k, n):
    # No time of the bracket (0, 2 t_run) beats p_peak by more than beta:
    # neither p_at_trun, nor a 400001-point scan of the window where the
    # carriers' curve P2 is within 2 delta + beta of its top, nor a 20001-point
    # scan of the whole bracket.
    params = qw.GraphParams(n, k)
    row = qw.asymptotics_row(params)
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), row.gamma_star)
    t0, t1 = 0.0, 2 * qw.run_time(params)
    beta = peak_beta(levels, weights, t1)
    assert row.p_peak + beta >= row.p_at_trun
    w, e = np.abs(weights), centred(levels, weights)
    a, b = np.argsort(-w, kind="stable")[:2]
    rho = w.sum() - w[a] - w[b]
    delta = 2 * (w[a] + w[b]) * rho + rho * rho
    half = math.acos(max(1 - (2 * delta + beta) / (2 * w[a] * w[b]), -1)) / abs(e[b] - e[a])
    lo, hi = max(t0, row.t_peak - 2 * half), min(t1, row.t_peak + 2 * half)
    assert scan_max(levels, weights, lo, hi, 400_001) <= row.p_peak + beta
    assert scan_max(levels, weights, t0, t1, 20_001) <= row.p_peak + beta


# The largest n of the sweep benchmark per k, where rows meet their checks.
_SWEEP_TOP = {1: 10**8, 2: 10**8, 3: 2511886, 4: 79432, 5: 5011, 6: 630}
_instances = st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(2 * k, _SWEEP_TOP[k]))
)


@settings(max_examples=80)
@given(_instances)
def test_sweep_row_equals_the_public_routes(instance):
    # Compared with ==: the row shares its arithmetic with each route.
    k, n = instance
    params = qw.GraphParams(n, k)
    row = qw.asymptotics_row(params)
    gamma = qw.gamma_star(params)
    assert row.gamma_star == gamma
    assert row.t_run == qw.run_time(params)
    assert row.p_at_trun == qw.success_probability(params, gamma, row.t_run)
    assert (row.t_peak, row.p_peak) == qw.find_peak(params, gamma, (0.0, 2 * qw.run_time(params)))
    sd = qw.spectral_data(params)
    levels = range(k + 1)
    assert type(sd.lambdas) is tuple and type(sd.overlaps) is tuple
    assert list(sd.lambdas) == [float(qw.eigenvalue(params, l)) for l in levels]
    assert sd.mults == tuple(qw.multiplicity(params, l) for l in levels)
    assert list(sd.overlaps) == [qw.overlap(params, l) for l in levels]
