"""tools/ab_fit.py: the other checkout loads as a package of its own, and a
run with both sides set to this checkout draws bit-identical samples."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import cnma.bayes
import cnma.network

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_fit.py"


def test_ab_fit_against_itself_draws_identical_samples():
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--calls", "2"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert out[0] == "unanchored-contrast on sim-small, seed 3: 2 calls per side"
    assert [line.split()[0] for line in out[1:3]] == ["this", "other"]
    assert out[3].startswith("  ratio this/other ")
    assert float(out[3].split()[-1]) > 0.0
    assert out[4] == "  draws bit-identical: True"


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
