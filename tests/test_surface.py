"""Every public function and class of the library has a user outside tests.

A public module-level function or class in `src/semicon/` must be named
somewhere in `src/`, `scripts/` or `perfbench/` other than its own
definition: as a name, an attribute, an import, or a string (the
benchmark's tracer looks functions up by name). What only tests reach
is deleted, unless it is listed in `TEST_ONLY` with the reason it stays.
A private module-level function or class must be named somewhere in
`src/` other than its own definition, so a refactor leaves no dead
helper behind.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
USER_DIRS = ("src", "scripts", "perfbench")

# name -> why it stays although only tests name it
TEST_ONLY = {
    "canonical_json": "the timing-free report form in which the golden "
                      "fixture and the byte-identical-report promise are checked",
}


def referenced(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def definitions(private=False):
    """(module.name, name, names used inside the definition itself) of
    the public, or the private, module-level functions and classes."""
    for path in sorted((ROOT / "src" / "semicon").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                yield f"{path.stem}.{node.name}", node.name, referenced(node)


def names_in(*directories):
    names = Counter()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            names += referenced(ast.parse(path.read_text()))
    return names


@pytest.fixture(scope="module")
def used():
    return names_in(*USER_DIRS)


def test_every_public_definition_has_a_user(used):
    unused = [where for where, name, own in definitions()
              if used[name] <= own[name] and name not in TEST_ONLY]
    assert not unused, f"only tests reach {unused}: delete them or list them"


def test_test_only_list_is_current(used):
    own_only = {name for _, name, own in definitions()
                if used[name] <= own[name]}
    assert set(TEST_ONLY) <= own_only, "a listed name is gone or has a user now"


def test_every_private_helper_has_a_user_in_src():
    used_in_src = names_in("src")
    dead = [where for where, name, own in definitions(private=True)
            if used_in_src[name] <= own[name]]
    assert not dead, f"nothing in src/ uses {dead}: delete them"
