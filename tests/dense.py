"""Dense references for the tests: the treatment x component incidence, the
paper's contrast matrices U, the compound-symmetry structures Sigma and
Sigma*, a contrast block's sampling covariance, the stacked arrays of a
``ContrastDesign`` and the multivariate normal log-density, each as an
explicit matrix or built block by block, a network's connectivity by
breadth-first search, the exact posterior moments of the contrast-level
model by quadrature over sigma, and an arm model's per-study partial log
posteriors in plain scalar arithmetic. The package computes the same
quantities in closed form, in one pass or by sampling (see ``cnma.design``,
the arm models' eps prior, ``Network.connected`` and ``cnma.bayes``); the
tests check it against these.
"""

import math
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


def stacked_covariance(blocks, tau2: float) -> np.ndarray:
    """The block-diagonal S* + tau2 Sigma* of the stacked contrasts of ``blocks``."""
    cov = tau2 * stacked_Sigma_star(blocks)
    at = 0
    for b in blocks:
        m = b.y_star.size
        cov[at : at + m, at : at + m] += block_covariance(b)
        at += m
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


def contrast_marginals(blocks, components, d_variance: float, sigmas):
    """The contrast-level model at each heterogeneity SD of ``sigmas``, with
    the effects d ~ N(0, d_variance I) integrated out exactly: one (m, A,
    log p(y* | sigma)) per sigma, where d | y*, sigma ~ N(m, A^-1) with
    A = X'WX + I/v, m = A^-1 X'Wy* and W = (S* + sigma^2 Sigma*)^-1. The
    evidence is the integrand at its mode times the Gaussian volume of A:
    log N(y*; Xm, S* + sigma^2 Sigma*) + log N(m; 0, vI) + k/2 log 2 pi
    - 1/2 log det A."""
    arrays = contrast_design_arrays(blocks, components)
    X, y = arrays["X"], arrays["y"]
    k = X.shape[1]
    sampling, Sigma_star = stacked_covariance(blocks, 0.0), stacked_Sigma_star(blocks)
    prior = d_variance * np.eye(k)
    out = []
    for sigma in sigmas:
        cov = sampling + sigma**2 * Sigma_star
        W = np.linalg.inv(cov)
        A = X.T @ W @ X + np.eye(k) / d_variance
        mode = np.linalg.solve(A, X.T @ W @ y)
        log_evidence = (
            mvn_logpdf(y, X @ mode, cov)
            + mvn_logpdf(mode, np.zeros(k), prior)
            + 0.5 * k * np.log(2.0 * np.pi)
            - 0.5 * np.linalg.slogdet(A)[1]
        )
        out.append((mode, A, log_evidence))
    return out


def contrast_posterior_moments(blocks, components, d_variance: float,
                               sigma_upper: float, cells: int = 400):
    """Posterior means and SDs of (d, sigma) under the random-effects
    contrast-level model with sigma ~ U(0, sigma_upper): midpoint quadrature
    over sigma on ``cells`` equal cells, with d | sigma exactly normal
    (``contrast_marginals``). The last entry of each array is sigma's."""
    sigmas = (np.arange(cells) + 0.5) * sigma_upper / cells
    parts = contrast_marginals(blocks, components, d_variance, sigmas)
    log_w = np.array([log_evidence for _, _, log_evidence in parts])
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    d_mean = sum(wi * m for wi, (m, _, _) in zip(w, parts))
    d_second = sum(wi * (np.linalg.inv(A) + np.outer(m, m)) for wi, (m, A, _) in zip(w, parts))
    d_sd = np.sqrt(np.diag(d_second) - d_mean**2)
    sigma_mean = w @ sigmas
    sigma_sd = np.sqrt(w @ sigmas**2 - sigma_mean**2)
    return np.append(d_mean, sigma_mean), np.append(d_sd, sigma_sd)


def arm_study_partials(study, names, x, alpha_variance: float):
    """The partials of ``study``'s alpha and eps blocks in an arm model whose
    parameters are ``names``, at x in the sampling parameterization, one
    scalar operation at a time: study i's binomial log likelihood without its
    constant, plus alpha_i's prior term -a^2 / (2 alpha_variance) with a the
    reported baseline, or plus eps_i's quadratic form -(sum v^2 - (sum v)^2
    / n_arms) / sigma^2. The eps partial is None without eps names (fixed
    effects).

    Each logit starts at the baseline a_i; on a later arm it adds, in the
    order of the effects' names, X entry * d for each nonzero entry of X (the
    arm's incidence minus the first arm's, so +-1), then the arm's latent.
    The total starts at 0.0 and adds r * logit - n * softplus(logit) arm by
    arm, softplus on the branch that keeps exp from overflowing. The reported
    baseline is a_i less the effects of the first arm's components, in the
    same order. Coordinates are read by name; an anchored model's anchor has
    no effect name, so it drops out of X and of V.
    """
    col = {name: p for p, name in enumerate(names)}
    effects = [name[2:-1] for name in names if name.startswith("d[")]
    values = [float(v) for v in x]
    first = study.arms[0].treatment.components
    alpha = values[col[f"alpha[{study.id}]"]]
    random_effects = "sigma" in col
    eps = [values[col[f"eps[{study.id}:{j}]"]] for j in range(1, study.n_arms)
           if random_effects]
    total = 0.0
    for j, arm in enumerate(study.arms):
        logit = alpha
        if j > 0:
            for c in effects:
                entry = float(c in arm.treatment.components) - float(c in first)
                if entry != 0.0:
                    logit += entry * values[col[f"d[{c}]"]]
            if random_effects:
                logit += eps[j - 1]
        if logit >= 0.0:
            softplus = logit + math.log1p(math.exp(-logit))
        else:
            softplus = math.log1p(math.exp(logit))
        total += float(arm.events) * logit - float(arm.total) * softplus
    a = alpha
    for c in effects:
        if c in first:
            a -= values[col[f"d[{c}]"]]
    alpha_partial = total - 0.5 * a * a / alpha_variance
    if not random_effects:
        return alpha_partial, None
    s = ss = 0.0
    for v in eps:
        s += v
        ss += v * v
    sigma2 = math.exp(2.0 * values[col["sigma"]])
    return alpha_partial, total - (ss - s * s / float(study.n_arms)) / sigma2
