"""Shared numeric kernels: the pseudoinverse with the package's rank policy,
and counter-based RNG streams.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CnmaError

DEFAULT_PINV_RTOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``DEFAULT_PINV_RTOL`` times the largest singular
    value are treated as exactly zero.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise CnmaError("pinv requires finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(m.T)
    keep = s > DEFAULT_PINV_RTOL * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent counter-based RNG stream.

    Identical (seed, stream) pairs reproduce identical draws; distinct stream
    ids give statistically independent streams, so replicates and chains can
    own one each and run in parallel reproducibly.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))
