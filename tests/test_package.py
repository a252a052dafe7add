import ast
import os
import subprocess
import sys
from pathlib import Path

import cnma
from cnma import errors

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the user entry points that no module of the package or the benchmark calls
ENTRY_POINTS = {"dic"}
# the parameters whose defaults a user sets for each analysis: the ranking
# direction and the interval level
USER_CHOICES = {"direction", "level"}


def test_import_leaves_scipy_out():
    # the package needs numpy and the standard library only: scipy.special
    # alone costs about 25 MB of memory and a third of a second at import
    code = (
        "import sys, cnma, cnma.bayes, cnma.design, cnma.effects, cnma.errors, cnma.freq, "
        "cnma.mcmc, cnma.network; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cnma.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


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


def test_module_level_imports_are_used():
    # a name a module imports and never reads is what a deletion leaves behind
    package = Path(cnma.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_public_classes_and_functions_have_docstrings():
    # every public module-level class and function says what it is for
    package = Path(cnma.__file__).resolve().parent
    missing = [
        f"{path.name}: {node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        and ast.get_docstring(node) is None
    ]
    assert missing == []


def test_every_public_name_has_a_reader():
    # a public function or class that only tests read is surface no caller
    # needs: each is read by name outside its own definition, in the package
    # or in bench/, or is an entry point
    package = Path(cnma.__file__).resolve().parent
    paths = sorted(package.glob("*.py")) + sorted((package.parents[1] / "bench").glob("*.py"))
    public, reads = {}, set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)  # set on def and class statements
            if isinstance(stmt, DEFINITIONS) and path.parent == package:
                if not owner.startswith("_"):
                    public[owner] = path
            reads.update(
                (path, owner, node.id if isinstance(node, ast.Name) else node.attr)
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            )
    read = {name for path, owner, name in reads if (path, owner) != (public.get(name), name)}
    assert set(public) - read == ENTRY_POINTS


def _defaults(function: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each parameter of ``function`` that has a default, mapped to its
    position among the arguments a call passes (None if keyword-only)."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(method) :]
    first = len(positional) - len(args.defaults)
    out = {name: i for i, name in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default)
    return out


def test_every_parameter_default_is_set_by_a_caller():
    # an option that only tests set is surface no caller needs: each parameter
    # with a default, of a public function or a public method of a public
    # class, is passed by keyword or by position in some call in the package
    # or in bench/, unless it is a choice a user makes for each analysis
    package = Path(cnma.__file__).resolve().parent
    paths = sorted(package.glob("*.py")) + sorted((package.parents[1] / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    options = set()  # (function name, parameter, its position or None)
    for path in sorted(package.glob("*.py")):
        for stmt in trees[path].body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
                continue
            # a class's public methods: no public class has a static or class method
            functions = [(stmt, False)] if not isinstance(stmt, ast.ClassDef) else [
                (node, True) for node in stmt.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
            for function, method in functions:
                options.update(
                    (function.name, name, at) for name, at in _defaults(function, method).items()
                )
    passed = set()
    for call in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(call, ast.Call):
            called = getattr(call.func, "id", getattr(call.func, "attr", None))
            passed.update((called, k.arg) for k in call.keywords)
            passed.update((called, i) for i in range(len(call.args)))
    unset = {
        f"{function}({name}=)"
        for function, name, at in options
        if name not in USER_CHOICES and not {(function, name), (function, at)} & passed
    }
    assert unset == set()
