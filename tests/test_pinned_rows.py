"""Every field of a sweep row, pinned bit for bit, and equal to the public
routes to the same numbers.

The table holds ``float.hex`` of each float field of
:func:`qwsearch.asymptotics_row` on rows from k = 1 to 6, n from 2k up to
the top of each k's accurate range (10^8, 10^6.4, 10^4.9, 10^3.7 and 10^2.8
for k = 2..6).  Work that claims to leave the arithmetic alone must leave
it passing unchanged; only a change that states which digits move may
regenerate it.
"""

import pytest
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
        "0x1.0000000000000p-2", "0x1.1c5831add62e4p+1", "0x1.b76c8c541c539p-1",
        "0x1.67aba927cd83dp+1", "0x1.ccccccccccc72p-1", "0x1.1e3779b97f4a9p+0",
        "0x1.94c583ada5b55p-1", "0x1.3de825a69a3a5p+1", "0x1.727c9716ffb75p-1",
        "0x1.e4f92e2dff6ebp-1",
    )),
    (1, 10000, 10000, (
        "0x1.a36371ea531a9p-14", "0x1.3a28c59d5433bp+7", "0x1.fffcb90b33a3bp-1",
        "0x1.3a2bc877b21fdp+7", "0x1.fffcb92901157p-1", "0x1.47aaef28958c0p-6",
        "0x1.fffb15af69aacp-1", "0x1.921bd8fd0f6a4p+1", "0x1.0147b139d4e9ep-1",
        "0x1.03d702e65ddacp-1",
    )),
    (1, 100000000, 100000000, (
        "0x1.5798ede9635e6p-27", "0x1.eadfb4c5d390cp+13", "0x1.ffffffea86712p-1",
        "0x1.eadfb4c5d390cp+13", "0x1.ffffffea8670ep-1", "0x1.a36e2e9760000p-13",
        "0x1.ffffffdfc8b00p-1", "0x1.921fb52af564fp+1", "0x1.000346dc5d984p-1",
        "0x1.0009d49517af7p-1",
    )),
    (2, 4, 6, (
        "0x1.71c71c71c71c8p-3", "0x1.1c5831add62e4p+2", "0x1.cc4dab373338ep-1",
        "0x1.096a76e8b3818p+2", "0x1.d04454a6758b1p-1", "0x1.8044ba66390e6p-1",
        "0x1.0fb805ec71a0ep+0", "0x1.aad0a0fb920dfp+1", "0x1.396da7a9bf216p-1",
        "0x1.8f9806854aeaap-1",
    )),
    (2, 1000, 499500, (
        "0x1.06edfd2a7a0a4p-11", "0x1.15ae2083c3292p+10", "0x1.fefce2b1ffed5p-1",
        "0x1.160f33badae23p+10", "0x1.fefdb4633839dp-1", "0x1.728bcff57fa00p-9",
        "0x1.ffbfd848a4c0fp-1", "0x1.91ed521c2dfb0p+1", "0x1.002e975850b3ap-1",
        "0x1.0009fcb10e3fcp-1",
    )),
    (2, 100000000, 4999999950000000, (
        "0x1.5798eecff8f30p-28", "0x1.a7b4d25d0daaap+26", "0x1.ffffff54338a5p-1",
        "0x1.a7b4d25d0daaap+26", "0x1.ffffff54338a7p-1", "0x1.e5eb8a2000000p-26",
        "0x1.ffffffbfe6eb7p-1", "0x1.921fb511eb282p+1", "0x1.000000002039ep-1",
        "0x1.00000023746e0p-1",
    )),
    (3, 6, 20, (
        "0x1.b851eb851eb8ap-4", "0x1.2d97c7f3321d3p+3", "0x1.97d546085bb25p-1",
        "0x1.f03d75282fe87p+2", "0x1.d5064c945d988p-1", "0x1.af574effa1784p-2",
        "0x1.43817b3fb91a4p+0", "0x1.fc296548cc5b9p+1", "0x1.1fd5ec73897b4p-1",
        "0x1.454c36f120c85p-1",
    )),
    (3, 2511886, 2641484137996594540, (
        "0x1.1cfa06531c4eep-23", "0x1.30562df419546p+31", "0x1.fffff5fb30b27p-1",
        "0x1.30562a806a6c8p+31", "0x1.fffff5fb313e6p-1", "0x1.5241940000000p-30",
        "0x1.000005e0a9448p+0", "0x1.921fbe7fc6fcfp+1", "0x1.000002d872a76p-1",
        "0x1.fffff054de839p-2",
    )),
    (4, 8, 70, (
        "0x1.0ac628ba51215p-4", "0x1.48552f88091a8p+4", "0x1.01090c435d798p-1",
        "0x1.b003a026291e6p+3", "0x1.d74666172fb27p-1", "0x1.cef36bf78af78p-3",
        "0x1.79ff6fc7d2376p+0", "0x1.28e0f78e5aec4p+2", "0x1.11adb35053d5bp-1",
        "0x1.19072cddfaec0p-1",
    )),
    (4, 79432, 1658585802711347510, (
        "0x1.a673e3f4672c0p-19", "0x1.e254c8e5d3c52p+30", "0x1.ffff441fb6bafp-1",
        "0x1.e250746539575p+30", "0x1.ffff4439b2870p-1", "0x1.aadfbc0000000p-30",
        "0x1.00024b8c9f539p+0", "0x1.9223502fdb112p+1", "0x1.fffffcf03c724p-2",
        "0x1.ffff4756cbfd3p-2",
    )),
    (5, 10, 252, (
        "0x1.580e236c5f688p-5", "0x1.6ac28706e24fdp+5", "0x1.430437805ea47p-3",
        "0x1.391c7684eae2ap+6", "0x1.d5208d55dad3ep-1", "0x1.ebbd7a174b348p-4",
        "0x1.bb9a859821014p+0", "0x1.5c67cbcccd448p+2", "0x1.097b090398277p-1",
        "0x1.03c3ed4f1664ap-1",
    )),
    (5, 5011, 26276881700275212, (
        "0x1.4f28ad4b31612p-15", "0x1.e6266a4cbfebcp+27", "0x1.fff7818958bfbp-1",
        "0x1.e5ae198119dddp+27", "0x1.fff7cf00125b8p-1", "0x1.a7ea620000000p-27",
        "0x1.003f64d0de0cfp+0", "0x1.9283496e57fbbp+1", "0x1.0000002a73676p-1",
        "0x1.fff7cf1528c0fp-2",
    )),
    (6, 12, 924, (
        "0x1.d9a24cab3074ap-6", "0x1.94a11bac50115p+6", "0x1.82a8e74497bc6p-8",
        "0x1.289eb05be888cp+7", "0x1.df13d4d6f2e1ap-1", "0x1.03ad7ffb5a6c0p-4",
        "0x1.054bb1a7d34f8p+1", "0x1.9a713a283e0f9p+2", "0x1.04e44e3a6b423p-1",
        "0x1.f774bbe5a6d75p-2",
    )),
    (6, 630, 84789140638125, (
        "0x1.18288eedb3a35p-12", "0x1.beb5ac269fc9cp+23", "0x1.ffa01676cff3dp-1",
        "0x1.b97e028a74a3cp+23", "0x1.ffcd360896470p-1", "0x1.d257d79000000p-23",
        "0x1.03064f4167927p+0", "0x1.96dffda0d4e17p+1", "0x1.000000e889bf9p-1",
        "0x1.ffcd3b814b5bep-2",
    )),
]


@pytest.mark.parametrize(
    "k, n, n_vert, pinned", _PINNED, ids=[f"k{k}-n{n}" for k, n, *_ in _PINNED]
)
def test_sweep_row_is_pinned_bit_for_bit(k, n, n_vert, pinned):
    row = qw.asymptotics_row(qw.GraphParams(n, k))
    assert (row.n, row.N) == (n, n_vert)
    assert tuple(getattr(row, f).hex() for f in _FIELDS) == pinned


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
    assert row.gamma_star == gamma == qw.gamma_star_scaled(qw.from_graph(params))
    assert row.t_run == qw.run_time(params)
    assert row.p_at_trun == qw.success_probability(params, gamma, row.t_run)
    assert (row.t_peak, row.p_peak) == qw.find_peak(
        params, gamma, qw.dynamics.peak_bracket(params)
    )
    sd = qw.spectral_data(params)
    levels = range(k + 1)
    assert sd.lambdas.tolist() == [float(qw.eigenvalue(params, l)) for l in levels]
    assert sd.mults == tuple(qw.multiplicity(params, l) for l in levels)
    assert sd.overlaps.tolist() == [qw.overlap(params, l) for l in levels]
