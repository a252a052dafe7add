"""Dense references for the tests: the treatment x component incidence, the
paper's contrast matrices U, the compound-symmetry structures Sigma and
Sigma*, a contrast block's sampling covariance, the stacked arrays of a
``ContrastDesign`` and the multivariate normal log-density, each as an
explicit matrix or built block by block, and a network's connectivity by
breadth-first search. The package computes the same quantities in closed form
or in one pass (see ``cnma.design``, the arm models' eps prior and
``Network.connected``); the tests check it against these.
"""

from collections import deque

import numpy as np

from cnma.errors import CnmaError


def incidence_rows(treatments, components) -> np.ndarray:
    """Treatment x component incidence, each row built on its own: entry
    (t, k) is 1 iff ``components[k]`` is one of treatment t's components."""
    rows = [[float(c in t.components) for c in components] for t in treatments]
    return np.array(rows).reshape(len(rows), len(components))


def contrast_design_arrays(blocks, components) -> dict:
    """A ``ContrastDesign``'s stacked arrays, built block by block: rows
    U_i V_i, contrasts y*_i, each block's first row and index, its shared
    variance se_b^2 and each contrast's se^2 - se_b^2."""
    X, y, starts, study, shared, within = [], [], [], [], [], []
    at = 0
    for i, b in enumerate(blocks):
        m = b.y_star.size
        X.append(build_U(b.n_arms) @ incidence_rows(b.treatments, components))
        y.append(b.y_star)
        starts.append(at)
        study += [i] * m
        shared.append(b.se_baseline**2)
        within.append(b.se**2 - b.se_baseline**2)
        at += m
    return {
        "X": np.vstack(X), "y": np.concatenate(y), "starts": np.array(starts),
        "study": np.array(study), "shared": np.array(shared),
        "within": np.concatenate(within),
    }


def build_U(a: int, mode: str = "baseline", baseline_arm: int = 0) -> np.ndarray:
    """Contrast matrix over a study's arms.

    ``allpairs``: a(a-1)/2 rows in lexicographic pair order, arm k minus arm j
    for j < k. ``baseline``: a-1 rows, each non-baseline arm (in arm order)
    minus the baseline arm, whose column is all -1. The package's baseline is
    always arm 1 (``baseline_arm=0``); ``cnma.network.arm_to_contrast`` moves
    the chosen arm there, and the tests check that against other values.
    """
    if a < 2:
        raise CnmaError("contrasts need >= 2 arms")
    if mode == "allpairs":
        rows = []
        for j in range(a):
            for k in range(j + 1, a):
                row = np.zeros(a)
                row[j], row[k] = -1.0, 1.0
                rows.append(row)
        return np.array(rows)
    if mode == "baseline":
        if not 0 <= baseline_arm < a:
            raise CnmaError("baseline arm out of range")
        rows = []
        for j in range(a):
            if j == baseline_arm:
                continue
            row = np.zeros(a)
            row[baseline_arm], row[j] = -1.0, 1.0
            rows.append(row)
        return np.array(rows)
    raise CnmaError(f"unknown contrast mode {mode!r}")


def build_Sigma(a: int) -> np.ndarray:
    """Compound-symmetry heterogeneity structure: unit diagonal, 1/2 elsewhere."""
    if a < 2:
        raise CnmaError("Sigma needs >= 2 arms")
    sigma = np.full((a, a), 0.5)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def build_Sigma_star(a: int) -> np.ndarray:
    """Compound symmetry on the a-1 baseline contrasts of an a-arm study."""
    if a < 2:
        raise CnmaError("Sigma* needs >= 2 arms")
    m = a - 1
    sigma = np.full((m, m), 0.5)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def stacked_Sigma_star(blocks) -> np.ndarray:
    """The block-diagonal Sigma* of the stacked contrasts of ``blocks``."""
    sizes = [b.y_star.size for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for b, m in zip(blocks, sizes):
        out[at : at + m, at : at + m] = build_Sigma_star(b.n_arms)
        at += m
    return out


def block_covariance(block) -> np.ndarray:
    """A contrast block's (a-1)x(a-1) sampling covariance: se^2 on the
    diagonal, se_baseline^2 off it."""
    m = block.y_star.size
    cov = np.full((m, m), block.se_baseline**2)
    np.fill_diagonal(cov, block.se**2)
    return cov


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Exact multivariate normal log-density, computed through a Cholesky factor."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    k = x.size
    if mean.size != k or cov.shape != (k, k):
        raise CnmaError("mvn_logpdf dimension mismatch")
    lower = np.linalg.cholesky(cov)
    z = np.linalg.solve(lower, x - mean)
    logdet = 2.0 * np.sum(np.log(np.diag(lower)))
    return float(-0.5 * (k * np.log(2.0 * np.pi) + logdet + z @ z))


def treatments_connected(network) -> bool:
    """Whether a breadth-first search over ``Treatment``s, stepping between two
    that share a study, reaches every treatment of the network from the first
    one; False for a network without studies."""
    neighbours: dict = {}
    for study in network.studies:
        for t in study.treatments:
            neighbours.setdefault(t, set()).update(study.treatments)
    if not neighbours:
        return False
    start = next(iter(neighbours))
    seen, queue = {start}, deque([start])
    while queue:
        for t in neighbours[queue.popleft()] - seen:
            seen.add(t)
            queue.append(t)
    return len(seen) == len(neighbours)
