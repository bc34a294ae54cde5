"""The Lanczos transitions of the full-space oracle and its reports,
pinned bit for bit.

The first table holds ``float.hex`` of the levels E_j and weights w_j that
``validation._lanczos`` returns for the marks w and w + 1 mod N of
``validate_instance`` at gamma*, on J(5,2) w = 3, J(6,3) w = 0 and 5,
J(9,4) w = 17 and J(12,5) w = 100.  The second holds every check residual
that ``validate_instance`` reports on every mark of J(5,2) and J(6,3), the 30
instances of the ``oracle`` benchmark workload, and on J(9,4) w = 17 and
J(12,5) w = 100; the third the
bounds of ``compare_full_reduced`` (w = 0) and ``compare_marked_vertices``
(w = 0 against 5) on J(6,3) at 0.3 and 3 gamma*, t_max = 2*run_time.  A
product of A with the Lanczos block at N = 792 rounds differently with the
number of BLAS threads, so everything is computed in a child process held
to one thread.  Work that claims to leave the oracle's arithmetic alone
must leave this passing unchanged.
"""

import json
import os
import subprocess
import sys

import qwsearch as qw

# (n, k, w): for the marks w and w + 1, (hex of E_j, hex of w_j)
_PINNED = {
    (5, 2, 3): (
        (
            ("-0x1.3411d5a057472p+0", "-0x1.39142817d2308p-1", "0x1.a358345d9f8fap-4"),
            ("0x1.4ac69ef23db27p-1", "-0x1.4232fde5fd9b8p-2", "-0x1.f1213b3f27091p-7"),
        ),
        (
            ("-0x1.3411d5a057472p+0", "-0x1.39142817d2308p-1", "0x1.a358345d9f8fcp-4"),
            ("0x1.4ac69ef23db27p-1", "-0x1.4232fde5fd9b8p-2", "-0x1.f1213b3f27091p-7"),
        ),
    ),
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

# (n, k, w): (check name, hex of its residual) in report order
_REPORTS = {
    (5, 2, 0): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.23806bd56e0edp-45"),
        ("vertex_independence", "0x1.e6b4bb363d3d4p-46"),
    ),
    (5, 2, 1): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.269c75ae4f65ap-45"),
        ("vertex_independence", "0x1.27fc42ed45beep-45"),
    ),
    (5, 2, 2): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d02f6ba6e3746p-46"),
        ("vertex_independence", "0x1.d301198b0cca5p-46"),
    ),
    (5, 2, 3): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d3b55c32035bcp-46"),
        ("vertex_independence", "0x1.d929446df8490p-46"),
    ),
    (5, 2, 4): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d6d47fb283816p-46"),
        ("vertex_independence", "0x1.da3dde3fd037ap-46"),
    ),
    (5, 2, 5): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d51e27da6f550p-46"),
        ("vertex_independence", "0x1.d8e0774d2614cp-46"),
    ),
    (5, 2, 6): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d4fa2f9724d03p-46"),
        ("vertex_independence", "0x1.e322274cb89c4p-46"),
    ),
    (5, 2, 7): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.df5fd7da01dc8p-46"),
        ("vertex_independence", "0x1.e47db28d9c2eap-46"),
    ),
    (5, 2, 8): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d6942f6c62a9ap-46"),
        ("vertex_independence", "0x1.d6a6620248fcep-46"),
    ),
    (5, 2, 9): (
        ("spectrum_values", "0x1.8000000000000p-50"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-52"),
        ("oracle_equivalence", "0x1.d188874eaeaaep-46"),
        ("vertex_independence", "0x1.23a8bf6a8e5c0p-45"),
    ),
    (6, 3, 0): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.e518e3d2553b8p-45"),
        ("vertex_independence", "0x1.d31c16644db34p-45"),
    ),
    (6, 3, 1): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.e8ea73ff4345ep-45"),
        ("vertex_independence", "0x1.dc948b2a24e0ap-45"),
    ),
    (6, 3, 2): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.ee9158982c68ep-45"),
        ("vertex_independence", "0x1.ec1279ae86c31p-45"),
    ),
    (6, 3, 3): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.fa59e2ced1a90p-45"),
        ("vertex_independence", "0x1.f2ddcb6e14ff8p-45"),
    ),
    (6, 3, 4): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-55"),
        ("oracle_equivalence", "0x1.f36b2a0c8e24ap-45"),
        ("vertex_independence", "0x1.e48124ffd811cp-45"),
    ),
    (6, 3, 5): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-55"),
        ("oracle_equivalence", "0x1.ec4bd4ca3d51cp-45"),
        ("vertex_independence", "0x1.e7a79cecb4a55p-45"),
    ),
    (6, 3, 6): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.f6e03a63134eap-45"),
        ("vertex_independence", "0x1.e8ad210f10006p-45"),
    ),
    (6, 3, 7): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.ed7070f14b74ep-45"),
        ("vertex_independence", "0x1.eb0414b068bcdp-45"),
    ),
    (6, 3, 8): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.f8a491107c5eep-45"),
        ("vertex_independence", "0x1.f268ee85a3b94p-45"),
    ),
    (6, 3, 9): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-53"),
        ("oracle_equivalence", "0x1.f4d54ac686716p-45"),
        ("vertex_independence", "0x1.f501b2ff15883p-45"),
    ),
    (6, 3, 10): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-53"),
        ("oracle_equivalence", "0x1.fb29443c4de82p-45"),
        ("vertex_independence", "0x1.009705c282fc2p-44"),
    ),
    (6, 3, 11): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.006ded347c78dp-44"),
        ("vertex_independence", "0x1.fec7f58ac8d14p-45"),
    ),
    (6, 3, 12): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.f8c13cc1c5948p-45"),
        ("vertex_independence", "0x1.fcc41af0bf4a4p-45"),
    ),
    (6, 3, 13): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.fed039cdc2b8ap-45"),
        ("vertex_independence", "0x1.f28009437f560p-45"),
    ),
    (6, 3, 14): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-55"),
        ("oracle_equivalence", "0x1.ee7d2b1485a04p-45"),
        ("vertex_independence", "0x1.e90d890eb2779p-45"),
    ),
    (6, 3, 15): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-55"),
        ("oracle_equivalence", "0x1.f5619c998c332p-45"),
        ("vertex_independence", "0x1.e13a49eca9231p-45"),
    ),
    (6, 3, 16): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.e88a9105b4c4ap-45"),
        ("vertex_independence", "0x1.d621daf7e562bp-45"),
    ),
    (6, 3, 17): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.ea50f3a5f524cp-45"),
        ("vertex_independence", "0x1.d8f3f52315672p-45"),
    ),
    (6, 3, 18): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.eb54e52fb8172p-45"),
        ("vertex_independence", "0x1.e1d85a0177760p-45"),
    ),
    (6, 3, 19): (
        ("spectrum_values", "0x1.8000000000000p-49"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-54"),
        ("oracle_equivalence", "0x1.f356620955284p-45"),
        ("vertex_independence", "0x1.d9cbe1dde60e4p-45"),
    ),
    (9, 4, 17): (
        ("spectrum_values", "0x1.8000000000000p-46"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.0000000000000p-49"),
        ("oracle_equivalence", "0x1.92db203a37a7bp-43"),
        ("vertex_independence", "0x1.710a20254481ap-43"),
    ),
    (12, 5, 100): (
        ("spectrum_values", "0x1.7000000000000p-44"),
        ("spectrum_multiplicities", "0x0.0p+0"),
        ("overlap_consistency", "0x0.0p+0"),
        ("partition_invariance", "0x0.0p+0"),
        ("reduced_embedding", "0x1.f000000000000p-48"),
        ("oracle_equivalence", "0x1.522a1906af3bcp-40"),
        ("vertex_independence", "0x1.0a6f656cbf776p-39"),
    ),
}

# scale of gamma*: (compare_full_reduced, compare_marked_vertices) on J(6,3)
_COMPARES = {
    0.3: ("0x1.0e1f799c748bcp-47", "0x1.0d28cf3f0b855p-47"),
    3.0: ("0x1.b77eecdd3a1a4p-46", "0x1.c2ad9c1c67920p-46"),
}

_CHILD = """
import json, sys
import qwsearch as qw
out = []
for n, k, w in json.loads(sys.argv[1]):
    params = qw.GraphParams(n, k)
    marks = (w, (w + 1) % params.num_vertices)
    a = qw.adjacency_matrix(params)
    curves = qw.validation._lanczos(a, qw.gamma_star(params), marks, params)
    out.append([[[x.hex() for x in levels], [x.hex() for x in weights]]
                for levels, weights, beta in curves])
print(json.dumps(out))
"""

_REPORT_CHILD = """
import json, sys
import qwsearch as qw
cases, scales = json.loads(sys.argv[1])
reports = [
    [[c.name, c.residual.hex()] for c in qw.validate_instance(qw.GraphParams(n, k), w).checks]
    for n, k, w in cases
]
params = qw.GraphParams(6, 3)
t_max = 2 * qw.run_time(params)
compares = []
for scale in scales:
    gamma = scale * qw.gamma_star(params)
    compares.append([qw.compare_full_reduced(params, gamma, 0, t_max).hex(),
                     qw.compare_marked_vertices(params, gamma, 0, 5, t_max).hex()])
print(json.dumps([reports, compares]))
"""


def _one_thread_child(code, arg):
    # stdout of code run in a fresh interpreter held to one BLAS thread,
    # with arg as its first argument, read as JSON
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qw.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", code, json.dumps(arg)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    return json.loads(res.stdout)


def test_lanczos_transitions_are_pinned():
    cases = list(_PINNED)
    got = _one_thread_child(_CHILD, cases)
    for case, curves in zip(cases, got):
        assert [tuple(map(tuple, c)) for c in curves] == list(_PINNED[case]), case


def test_oracle_reports_are_pinned():
    cases, scales = list(_REPORTS), list(_COMPARES)
    reports, compares = _one_thread_child(_REPORT_CHILD, [cases, scales])
    for case, checks in zip(cases, reports):
        assert tuple(map(tuple, checks)) == _REPORTS[case], case
    for scale, bounds in zip(scales, compares):
        assert tuple(bounds) == _COMPARES[scale], scale
