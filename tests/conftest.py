import tempfile

from hypothesis import configuration, settings

# Every run draws the same examples and keeps no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis also caches the constants it reads from the tested source, at
# collection time; a temporary directory, removed at exit, keeps that cache
# out of the tree.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_STORAGE.name)


def centred(dec, weights):
    """dec with its energies shifted to the midpoint of the two levels of
    largest |w_j|, as find_peak evaluates the curve; p is unchanged, and the
    phases, and their rounding, stay small."""
    import numpy as np

    import qwsearch as qw

    a, b = np.argsort(-np.abs(weights), kind="stable")[:2]
    values = dec.values - (dec.values[a] + dec.values[b]) / 2
    return qw.dynamics.EigDecomp(values=values, vectors=dec.vectors)


def peak_beta(dec, weights, t1):
    """find_peak's stated bound beta = 12 eps m_0 (t1 m_1 + d + 5), with
    m_r = sum_j |w_j| |e_j|^r over the d centred levels e_j."""
    import numpy as np

    e = centred(dec, weights).values
    m0, m1 = np.sum(np.abs(weights)), np.sum(np.abs(weights * e))
    return float(12 * 2.0**-52 * m0 * (t1 * m1 + len(e) + 5))


def scan_max(dec, weights, t0, t1, m, chunk=50_001):
    """The largest p of the centred curve at the m times np.linspace(t0, t1,
    m), evaluated point by point (_probs_at) in chunks."""
    import numpy as np

    import qwsearch as qw

    times, cdec = np.linspace(t0, t1, m), centred(dec, weights)
    return max(
        float(qw.dynamics._probs_at(cdec, weights, times[i : i + chunk]).max())
        for i in range(0, m, chunk)
    )
