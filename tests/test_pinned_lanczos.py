"""The Lanczos transitions of the full-space oracle, pinned bit for bit.

The table holds ``float.hex`` of the levels E_j and weights w_j that
``validation._lanczos`` returns for the marks w and w + 1 mod N of
``validate_instance`` at gamma*, on J(6,3) w = 0 and 5, J(9,4) w = 17 and
J(12,5) w = 100.  A product of A with the Lanczos block at N = 792 rounds
differently with the number of BLAS threads, so the transitions are
computed in a child process held to one thread.  Work that claims to leave
the Lanczos arithmetic alone must leave this passing unchanged.
"""

import json
import os
import subprocess
import sys

import qwsearch as qw

# (n, k, w): for the marks w and w + 1, (hex of E_j, hex of w_j)
_PINNED = {
    (6, 3, 0): (
        (
            (
                "-0x1.3488d98058c5bp+0", "-0x1.91660b80e0cf5p-1", "-0x1.1598338e9dab4p-3",
                "0x1.0f17bfc03619dp-2",
            ),
            (
                "0x1.31fe7121c0351p-1", "-0x1.6bdef0d9bb177p-2", "-0x1.12a1dfb4f44a6p-6",
                "-0x1.faa540769f44fp-10",
            ),
        ),
        (
            (
                "-0x1.3488d98058c5bp+0", "-0x1.91660b80e0cf5p-1", "-0x1.1598338e9dab3p-3",
                "0x1.0f17bfc03619dp-2",
            ),
            (
                "0x1.31fe7121c0351p-1", "-0x1.6bdef0d9bb177p-2", "-0x1.12a1dfb4f44a6p-6",
                "-0x1.faa540769f452p-10",
            ),
        ),
    ),
    (6, 3, 5): (
        (
            (
                "-0x1.3488d98058c5bp+0", "-0x1.91660b80e0cf6p-1", "-0x1.1598338e9dab3p-3",
                "0x1.0f17bfc03619ep-2",
            ),
            (
                "0x1.31fe7121c0351p-1", "-0x1.6bdef0d9bb172p-2", "-0x1.12a1dfb4f44abp-6",
                "-0x1.faa540769f467p-10",
            ),
        ),
        (
            (
                "-0x1.3488d98058c5bp+0", "-0x1.91660b80e0cf6p-1", "-0x1.1598338e9dab2p-3",
                "0x1.0f17bfc03619ep-2",
            ),
            (
                "0x1.31fe7121c0351p-1", "-0x1.6bdef0d9bb174p-2", "-0x1.12a1dfb4f44a8p-6",
                "-0x1.faa540769f45ap-10",
            ),
        ),
    ),
    (9, 4, 17): (
        (
            (
                "-0x1.237ac0accc73fp+0", "-0x1.f06c6b1a9120ap-1", "-0x1.020241b99da7bp-1",
                "-0x1.cc99b814e57dfp-4", "0x1.33ad97da248fbp-3",
            ),
            (
                "0x1.0d36d30775067p-1", "-0x1.b1e4158b8aa44p-2", "-0x1.4a4524950d7b3p-7",
                "-0x1.36eb380e346bcp-9", "-0x1.1fd84e88fc131p-11",
            ),
        ),
        (
            (
                "-0x1.237ac0accc73fp+0", "-0x1.f06c6b1a9120ap-1", "-0x1.020241b99da7dp-1",
                "-0x1.cc99b814e57d7p-4", "0x1.33ad97da24900p-3",
            ),
            (
                "0x1.0d36d30775069p-1", "-0x1.b1e4158b8aa44p-2", "-0x1.4a4524950d7b7p-7",
                "-0x1.36eb380e346b6p-9", "-0x1.1fd84e88fc13bp-11",
            ),
        ),
    ),
    (12, 5, 100): (
        (
            (
                "-0x1.1392d8c85305ep+0", "-0x1.020f645869af0p+0", "-0x1.5265fd10afd40p-1",
                "-0x1.61643f580699ep-2", "-0x1.6c50594d3862ep-4", "0x1.8af53b094687ap-4",
            ),
            (
                "0x1.00d0cbb074727p-1", "-0x1.d82c2fe77cc18p-2", "-0x1.b374d33256066p-9",
                "-0x1.14ed463ce895bp-10", "-0x1.c4d536e67e583p-12", "-0x1.2bcccca13f378p-13",
            ),
        ),
        (
            (
                "-0x1.1392d8c85305ep+0", "-0x1.020f645869af0p+0", "-0x1.5265fd10afd40p-1",
                "-0x1.61643f580699fp-2", "-0x1.6c50594d3862ep-4", "0x1.8af53b0946878p-4",
            ),
            (
                "0x1.00d0cbb074727p-1", "-0x1.d82c2fe77cc18p-2", "-0x1.b374d3325606cp-9",
                "-0x1.14ed463ce895dp-10", "-0x1.c4d536e67e57ep-12", "-0x1.2bcccca13f377p-13",
            ),
        ),
    ),
}

_CHILD = """
import json, sys
import qwsearch as qw
out = []
for n, k, w in json.loads(sys.argv[1]):
    params = qw.GraphParams(n, k)
    marks = (w, (w + 1) % params.num_vertices)
    a = qw.adjacency_matrix(params)
    transitions, _ = qw.validation._lanczos(a, qw.gamma_star(params), marks, params)
    out.append([[[float(x).hex() for x in dec.values], [float(x).hex() for x in weights]]
                for dec, weights in transitions])
print(json.dumps(out))
"""


def test_lanczos_transitions_are_pinned():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qw.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cases = list(_PINNED)
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(cases)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    got = json.loads(res.stdout)
    for case, curves in zip(cases, got):
        assert [tuple(map(tuple, c)) for c in curves] == list(_PINNED[case]), case
