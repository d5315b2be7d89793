"""Every module under src/rotkit uses each name it imports.

No linter runs on this code, so this is its unused-import check, on the
standard library's ast alone: code deleted from a module must not leave
its imports behind.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rotkit"


def _annotations(tree):
    # every annotation node: arguments, returns and annotated assignments
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield node.returns
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(source: str) -> list:
    """The names a module imports and never uses, in the order imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    trees = [tree]
    # a string annotation, such as "np.random.Generator", uses its names too
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_unused_imports():
    source = (
        "import os\nimport numpy as np\nimport xml.sax\nfrom typing import List, Tuple\n"
        "def f(x: 'np.ndarray') -> Tuple[int]:\n    return os.sep\n"
    )
    assert _unused_imports(source) == ["xml", "List"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
