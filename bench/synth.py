"""Seeded synthetic networks with a known additive truth.

Four components A, B, C, D; the single-component treatment A is the anchor,
so the true component effects are relative to A (d_A = 0) and every model
kind in ``cnma`` is correctly specified for the generated data. Each study
draws a baseline log-odds, takes its arms from a fixed pool of single and
combined treatments, adds compound-symmetry random effects of SD ``tau`` to
the non-baseline arms, and draws binomial events. A study that includes the
anchor has it as its baseline arm, so the anchor arm carries no random
effect, as the anchored model assumes.

A draw is rejected, and the next one taken from the same generator, when the
network is disconnected at the treatment level or when the stacked contrast
design ``stack_X`` has rank below the number of components: without full
rank the anchor-free kinds would be identified by their vague prior alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cnma import design, effects, network as cnet
from cnma.network import ArmRecord, Network, Study, Treatment, parse_treatment

ANCHOR = parse_treatment("A")
POOL = tuple(
    parse_treatment(label)
    for label in ("A", "B", "C", "D", "B+C", "B+D", "C+D", "B+C+D")
)
MAX_DRAWS = 100


@dataclass(frozen=True)
class Scenario:
    studies: tuple[Study, ...]
    network: Network
    anchor: Treatment
    d_true: np.ndarray  # component effects in ``network.components`` order
    true_contrasts: dict[Treatment, float]  # each treatment versus the anchor


def simulate(
    seed,
    n_studies: int,
    multi_frac: float,
    four_arm_frac: float = 0.0,
    tau: float = 0.2,
    arm_size: int = 150,
) -> Scenario:
    """Draw a connected, full-rank network of ``n_studies`` studies.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, such as an
    int or a list of ints.

    Exactly ``round(multi_frac * n_studies)`` studies are multi-arm, and
    ``round(four_arm_frac * n_multi)`` of those have four arms, the rest
    three; only which studies they are depends on the seed, so the size of
    the problem is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        scenario = _draw(rng, n_studies, multi_frac, four_arm_frac, tau, arm_size)
        if scenario is not None:
            return scenario
    raise ValueError(f"no connected full-rank network in {MAX_DRAWS} draws")


def _draw(rng, n_studies, multi_frac, four_arm_frac, tau, arm_size):
    component_effect = dict(zip("BCD", rng.uniform(-0.6, 0.6, size=3)))
    component_effect["A"] = 0.0
    n_multi = round(multi_frac * n_studies)
    n_four = round(four_arm_frac * n_multi)
    n_arms = np.full(n_studies, 2)
    multi = rng.permutation(n_studies)[:n_multi]
    n_arms[multi[:n_four]] = 4
    n_arms[multi[n_four:]] = 3

    studies = []
    for i, a in enumerate(n_arms):
        if rng.random() < 0.5:
            picks = [0, *rng.choice(np.arange(1, len(POOL)), size=a - 1, replace=False)]
        else:
            picks = sorted(rng.choice(len(POOL), size=a, replace=False), key=lambda j: j != 0)
        treatments = [POOL[j] for j in picks]
        level = np.array([sum(component_effect[c] for c in t.components) for t in treatments])
        delta = np.zeros(a)
        m = a - 1
        sigma_star = np.full((m, m), 0.5) + 0.5 * np.eye(m)
        delta[1:] = rng.multivariate_normal(np.zeros(m), tau**2 * sigma_star)
        logits = rng.normal(-0.8, 0.4) + (level - level[0]) + delta
        totals = rng.integers(arm_size // 2, 3 * arm_size // 2 + 1, size=a)
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(-logits)))
        arms = tuple(
            ArmRecord(t, int(r), int(n)) for t, r, n in zip(treatments, events, totals)
        )
        studies.append(Study(id=f"s{i}", arms=arms))

    network = cnet.build_network(studies)
    if not network.connected:
        return None
    if np.linalg.matrix_rank(design.stack_X(network)) < network.n_components:
        return None
    d_true = np.array([component_effect[c] for c in network.components])
    truth = {
        t: float(effects.contrast_vector(ANCHOR, t, network.components) @ d_true)
        for t in network.treatments
    }
    return Scenario(tuple(studies), network, ANCHOR, d_true, truth)
