import ast
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
