import ast
from pathlib import Path

import calibench

SRC = Path(calibench.__file__).parent


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore is private to its module; sharing it
    # means it belongs in the public interface or in the importing module
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("calibench."):
                found += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found, found
