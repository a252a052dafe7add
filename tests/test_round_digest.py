"""The digest that tools/round_digest.py prints per call: equal for equal
answers, different after one flipped bit. No benchmark round is run."""

import dataclasses
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
def digest():
    spec = importlib.util.spec_from_file_location("round_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digest


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
