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
                "-0x1.3488d98058c5ap+0", "-0x1.91660b80e0cf3p-1", "-0x1.1598338e9dab0p-3",
                "0x1.0f17bfc03619ap-2",
            ),
            (
                "0x1.31fe7121c0350p-1", "-0x1.6bdef0d9bb175p-2", "-0x1.12a1dfb4f44a6p-6",
                "-0x1.faa540769f44fp-10",
            ),
        ),
        (
            (
                "-0x1.3488d98058c5ap+0", "-0x1.91660b80e0cf3p-1", "-0x1.1598338e9dab1p-3",
                "0x1.0f17bfc03619ap-2",
            ),
            (
                "0x1.31fe7121c0350p-1", "-0x1.6bdef0d9bb173p-2", "-0x1.12a1dfb4f44a7p-6",
                "-0x1.faa540769f45ap-10",
            ),
        ),
    ),
    (6, 3, 5): (
        (
            (
                "-0x1.3488d98058c5ap+0", "-0x1.91660b80e0cf3p-1", "-0x1.1598338e9dab2p-3",
                "0x1.0f17bfc03619ap-2",
            ),
            (
                "0x1.31fe7121c0350p-1", "-0x1.6bdef0d9bb173p-2", "-0x1.12a1dfb4f44a7p-6",
                "-0x1.faa540769f450p-10",
            ),
        ),
        (
            (
                "-0x1.3488d98058c5ap+0", "-0x1.91660b80e0cf3p-1", "-0x1.1598338e9dab2p-3",
                "0x1.0f17bfc03619ap-2",
            ),
            (
                "0x1.31fe7121c0350p-1", "-0x1.6bdef0d9bb173p-2", "-0x1.12a1dfb4f44a6p-6",
                "-0x1.faa540769f45ap-10",
            ),
        ),
    ),
    (9, 4, 17): (
        (
            (
                "-0x1.237ac0accc73fp+0", "-0x1.f06c6b1a9120cp-1", "-0x1.020241b99da7dp-1",
                "-0x1.cc99b814e57dap-4", "0x1.33ad97da24900p-3",
            ),
            (
                "0x1.0d36d30775066p-1", "-0x1.b1e4158b8aa3ep-2", "-0x1.4a4524950d7aep-7",
                "-0x1.36eb380e346afp-9", "-0x1.1fd84e88fc136p-11",
            ),
        ),
        (
            (
                "-0x1.237ac0accc73fp+0", "-0x1.f06c6b1a9120cp-1", "-0x1.020241b99da7ep-1",
                "-0x1.cc99b814e57d9p-4", "0x1.33ad97da24901p-3",
            ),
            (
                "0x1.0d36d30775066p-1", "-0x1.b1e4158b8aa41p-2", "-0x1.4a4524950d7abp-7",
                "-0x1.36eb380e346b0p-9", "-0x1.1fd84e88fc13cp-11",
            ),
        ),
    ),
    (12, 5, 100): (
        (
            (
                "-0x1.1392d8c85305cp+0", "-0x1.020f645869aeep+0", "-0x1.5265fd10afd3fp-1",
                "-0x1.61643f580699cp-2", "-0x1.6c50594d38625p-4", "0x1.8af53b094687ap-4",
            ),
            (
                "0x1.00d0cbb074727p-1", "-0x1.d82c2fe77cc1bp-2", "-0x1.b374d33256070p-9",
                "-0x1.14ed463ce8954p-10", "-0x1.c4d536e67e57ap-12", "-0x1.2bcccca13f37cp-13",
            ),
        ),
        (
            (
                "-0x1.1392d8c85305cp+0", "-0x1.020f645869aeep+0", "-0x1.5265fd10afd3ep-1",
                "-0x1.61643f580699dp-2", "-0x1.6c50594d38625p-4", "0x1.8af53b0946876p-4",
            ),
            (
                "0x1.00d0cbb074727p-1", "-0x1.d82c2fe77cc18p-2", "-0x1.b374d33256067p-9",
                "-0x1.14ed463ce8954p-10", "-0x1.c4d536e67e57fp-12", "-0x1.2bcccca13f38cp-13",
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
