"""AST scans that need no linter. Every imported name is used in the
package, the tests and the demos: an import on a line marked `# noqa` or a
name listed in `__all__` counts as used; `from __future__` imports are
skipped. And the package has no check that `python -O` strips."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/tocc/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


def exported(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    """(line, name) of each name an import statement in path binds and the
    module never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                bound.setdefault(alias.asname or alias.name.split(".")[0],
                                 node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    assert len(SOURCES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SOURCES for line, name in unused_imports(path)]
    assert unused == []


def test_no_assert_in_package():
    """No assert statement and no __debug__ test under src/tocc: python -O
    drops both, and the package's checks must hold there too."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(ROOT.glob("src/tocc/**/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_models_import_no_harness():
    """classifier and featsel fit and predict models; the method registry,
    the glass study, file I/O and the CLI are built on them, never the
    other way round."""
    above = {"evaluation", "glass", "io_utils", "cli"}
    found = [f"{name}.py:{node.lineno}: {node.module}"
             for name in ("classifier", "featsel")
             for node in ast.walk(ast.parse(
                 (ROOT / "src" / "tocc" / f"{name}.py").read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").rpartition(".")[2] in above]
    assert found == []
