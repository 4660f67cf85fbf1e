"""Static checks of the sources: no unused imports or error types, no
public name that only the tests use, and no private name that nothing in
the package, the demos or the benchmark reads."""

import ast
import re
from pathlib import Path

import pytest

import selfjump
from selfjump import config

SOURCES = sorted(Path(selfjump.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# the code that uses the package: its own modules, the demos and the benchmark
USERS = SOURCES + sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("bench/*.py"))


def unused_imports(path):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_every_error_type_is_named_outside_errors():
    # an exception class that no other module names is never raised
    errors_py = next(p for p in SOURCES if p.name == "errors.py")
    defined = {node.name for node in ast.parse(errors_py.read_text()).body
               if isinstance(node, ast.ClassDef)}
    named = set()
    for path in SOURCES:
        if path != errors_py:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.Name):
                    named.add(node.id)
    assert sorted(defined - named) == []


def names_read(tree):
    """Names a module reads, each outside the function or class defining it.

    A read is a loaded variable, an attribute, or a string constant (a name
    looked up with getattr, as the CLI's solver table does).
    """
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in defining:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return read


def module_names(path):
    """Module-level functions, classes and constants of a module, and the
    methods of its public classes."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                targets = target.elts if isinstance(target, ast.Tuple) else [target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def unread_names(private):
    """path:name of each private (or each public) name of ``module_names``
    that no user reads; dunder names are left out."""
    read = set()
    for path in USERS:
        read |= names_read(ast.parse(path.read_text()))
    assert len(USERS) > len(SOURCES)
    return [f"{path.name}:{name}" for path in SOURCES for name in module_names(path)
            if name.startswith("_") == private and not name.startswith("__")
            and name not in read]


def test_every_public_name_is_used_outside_the_tests():
    # library surface that only tests reach belongs in the tests
    assert unread_names(private=False) == []


def test_every_private_name_is_read_by_the_package():
    # a helper, class or constant that only tests read belongs in the tests
    assert unread_names(private=True) == []


def test_readme_run_file_reference_names_every_key():
    # the run-file reference in README must follow the parser's key tables,
    # both ways: every key is documented and every documented key exists
    text = (REPO / "README.md").read_text()
    reference = text.split("\n## Run-file reference\n", 1)[1].split("\n## ", 1)[0]
    keys = ["field.family"] + [f"field.{key}" for key in config._FIELD_KEYS]
    keys += [f"{name}.{key}" for name, table in config.SECTIONS.items() for key in table]
    assert [key for key in keys if f"`{key}`" not in reference] == []
    sections = "|".join(["field", *config.SECTIONS])
    named = re.findall(rf"`((?:{sections})\.\w+)`", reference)
    assert sorted(set(named) - set(keys)) == []
