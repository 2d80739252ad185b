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


# RealForm's storage and its adopting constructor, private to forms.py
_FORM_STORAGE = frozenset({"_d", "_terms", "_own", "_float_view", "_grades"})


def _own_slots(tree):
    """Names that the classes of one module declare in ``__slots__``: the
    module's own storage, which it may read under any name (Octonion keeps
    its denominator in ``_d`` too)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            names.update(e.value for e in node.value.elts)
    return names


def _private_attribute_reads():
    """(file name, line, expression) of every attribute read in the package
    that crosses into another module's private names: ``X._name`` (dunders
    excepted) where X is a calibench module or a name imported from one, and
    any RealForm storage attribute outside forms.py that the file's own
    classes do not declare."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        form_storage = _FORM_STORAGE - _own_slots(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "calibench":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or "calibench" for a in node.names if a.name.split(".")[0] == "calibench")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_") or node.attr.endswith("__"):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if ((isinstance(root, ast.Name) and root.id in imported)
                    or (node.attr in form_storage and path.name != "forms.py")):
                yield path.name, node.lineno, ast.unparse(node)


def test_no_module_reads_another_modules_private_attributes():
    # the import test above sees only ``from calibench.x import _y``; a read
    # such as ``clifford._GENS`` or ``form._terms`` crosses the same boundary
    found = [f"{f}:{line} {expr}" for f, line, expr in sorted(_private_attribute_reads())]
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
