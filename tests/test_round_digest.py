"""The digest that tools/round_digest.py prints per call: equal for equal
answers, different after one flipped bit; and its per-kind subtotals. No
benchmark round is run."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cnma import bayes
from cnma.freq import gls_fit, p_scores
from cnma.mcmc import McmcConfig
from cnma.network import arm_to_contrast, build_network
from test_bayes import EFFECT, additive_studies

TOOL = Path(__file__).resolve().parent.parent / "tools" / "round_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("round_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest(tool):
    return tool.digest


@pytest.fixture(scope="module")
def answers():
    """Two of each kind of answer a round gives, each pair from equal calls."""
    studies = additive_studies(EFFECT)
    network = build_network(studies)
    blocks = [arm_to_contrast(s, 0, "cc05") for s in studies]
    spec = bayes.ModelSpec("unanchored-contrast", "random")
    config = McmcConfig(burn_in=20, keep=10, seed=3)
    gls = [gls_fit(blocks, network) for _ in range(2)]
    return {
        "bayes": [bayes.fit(spec, blocks, network, config) for _ in range(2)],
        "gls": gls,
        "scores": [p_scores(fit, network.treatments) for fit in gls],
    }


def flip_last_bit(x) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.reshape(-1).view(np.uint64)[-1] ^= 1
    return out


def flipped(kind, answer):
    if kind == "bayes":
        sample = dataclasses.replace(answer.sample, draws=flip_last_bit(answer.sample.draws))
        return dataclasses.replace(answer, sample=sample)
    if kind == "gls":
        return dataclasses.replace(answer, cov_d=flip_last_bit(answer.cov_d))
    last = list(answer)[-1]
    return {**answer, last: float(flip_last_bit(answer[last]))}


@pytest.mark.parametrize("kind", ["bayes", "gls", "scores"])
def test_equal_answers_equal_digests_and_one_bit_changes_it(digest, answers, kind):
    first, second = answers[kind]
    assert first is not second
    assert digest(first) == digest(second)
    assert digest(flipped(kind, first)) != digest(first)


def test_unknown_answer_refused(digest):
    with pytest.raises(TypeError):
        digest("not an answer")


def test_subtotals_hash_each_kind_as_the_total_is(tool):
    whats = ["gls-random", "gls-fixed", "unanchored-arm", "gls-random", "new-kind"]
    lines = [f"{i:064x} sim-small 1 {what}" for i, what in enumerate(whats)]
    subtotals = tool.subtotals(whats, lines)
    kinds = [line.split(":")[0] for line in subtotals]
    assert kinds == [
        "anchored-arm", "unanchored-arm", "unanchored-contrast",
        "gls-random", "gls-fixed", "sucra", "p_scores", "new-kind",
    ]
    random = [lines[0], lines[3]]
    sha = hashlib.sha256("\n".join(random).encode()).hexdigest()
    assert subtotals[3] == f"gls-random: 2 calls, subtotal {sha}"
    # a kind with no calls hashes nothing; the subtotals of a one-kind round
    # hash what its total hashes
    empty = hashlib.sha256(b"").hexdigest()
    assert subtotals[0] == f"anchored-arm: 0 calls, subtotal {empty}"
    assert tool.subtotals(whats[:1], lines[:1])[3].endswith(tool._sha(lines[:1]))
    # a changed line changes its own kind's subtotal and no other
    changed = lines[:2] + ["f" + lines[2][1:]] + lines[3:]
    moved = [a != b for a, b in zip(subtotals, tool.subtotals(whats, changed))]
    assert moved == [k == "unanchored-arm" for k in kinds]
