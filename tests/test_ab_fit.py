"""tools/ab_fit.py: the other checkout loads as a package of its own, and a
run of two kinds on two seeds with both sides set to this checkout draws
bit-identical samples, with no difference between paired draws and equal
acceptance rates, on each seed's line and on each kind's summary line; each
seed's line gives both sides' retained KB per fit, which agree, and their
non-draw KB, above 0 and at most the retained KB."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import cnma.bayes
import cnma.network

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_fit.py"


def test_ab_fit_against_itself_draws_identical_samples():
    kinds = ("unanchored-contrast", "anchored-arm")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--seed", "3", "4", "--kind", *kinds,
         "--calls", "2"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert len(out) == 6
    for kind, lines in zip(kinds, (out[:3], out[3:])):
        for seed, line in zip((3, 4), lines):
            assert line.startswith(f"seed {seed}: ratio this/other ")
            assert line.endswith(
                ", draws bit-identical True, max |diff| 0.0, acceptance rates equal True"
            )
            words = line.split("retained KB per fit this ")[1].split(",")[0].split()
            assert words[1] == "other"
            this_kb, other_kb = float(words[0]), float(words[2])
            assert this_kb > 0.0 and other_kb == pytest.approx(this_kb, rel=0.2)
            words = line.split("non-draw KB this ")[1].split(",")[0].split()
            assert words[1] == "other"
            assert 0.0 < float(words[0]) <= this_kb and 0.0 < float(words[2]) <= other_kb
        summary = lines[2]
        assert summary.startswith(f"{kind} on sim-small, seeds 3 4, 2 calls per seed and side: ")
        assert float(summary.split("ratio this/other ")[1].split(",")[0]) > 0.0
        assert summary.endswith(", worst max |diff| 0.0, acceptance rates equal True")


def test_other_checkout_loads_as_its_own_package():
    spec = importlib.util.spec_from_file_location("ab_fit", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    try:
        other = tool.load_other(ROOT)
        assert other.__name__ == "cnma_other"
        assert other.bayes.__name__ == "cnma_other.bayes"
        assert other.bayes is not cnma.bayes
        assert other.network.Study is not cnma.network.Study
        assert Path(other.bayes.__file__) == ROOT / "src" / "cnma" / "bayes.py"
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "cnma_other"]:
            del sys.modules[name]
