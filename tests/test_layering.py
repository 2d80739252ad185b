import ast
import os
import subprocess
import sys
from pathlib import Path

import calibench

SRC = Path(calibench.__file__).parent


def _imports_from_calibench():
    """(file name, line, module, imported name) of every ``from calibench.<module>
    import <name>`` in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("calibench."):
                yield from ((path.name, node.lineno, node.module, a.name) for a in node.names)


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore is private to its module; sharing it
    # means it belongs in the public interface or in the importing module
    found = [f"{f}:{line} {mod}.{name}" for f, line, mod, name in _imports_from_calibench()
             if name.startswith("_")]
    assert not found, found


def test_only_the_cli_imports_catalog_builders():
    # the library takes forms as arguments; choosing which catalog form to
    # build is the front end's job
    found = [f"{f}:{line} {mod}.{name}" for f, line, mod, name in _imports_from_calibench()
             if mod == "calibench.catalog" and name.startswith("build_") and f not in ("catalog.py", "cli.py")]
    assert not found, found


def test_exact_suite_leaves_numpy_random_out():
    # the exact lane draws its inputs from the standard library's random
    script = ("import sys; from calibench import cli; rep = cli.run_suite('exact', 0); "
              "print(rep.passed, 'numpy.random' in sys.modules)")
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
