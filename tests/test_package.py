import os
import subprocess
import sys
from pathlib import Path

import cnma


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs tens of MB of memory at import; cnma needs only scipy.special
    code = (
        "import sys, cnma, cnma.bayes, cnma.design, cnma.effects, cnma.freq, "
        "cnma.mcmc, cnma.network, cnma.numerics; "
        "print('scipy.stats' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cnma.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
