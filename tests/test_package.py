import ast
import os
import subprocess
import sys
from pathlib import Path

import cnma
from cnma import errors


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


def test_every_error_type_is_raised():
    # an exception class that no code raises is dead: every class in
    # cnma.errors appears in some ``raise`` in the package's source
    package = Path(cnma.__file__).resolve().parent
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert declared - raised == set()
