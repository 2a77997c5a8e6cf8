"""Every public function and class of the library has a user outside tests.

A public module-level function or class in `src/semicon/` must be named
somewhere in `src/`, `scripts/` or `perfbench/` other than its own
definition: as a name, an attribute, an import, or a string (the
benchmark's tracer looks functions up by name). What only tests reach
is deleted, unless it is listed in `TEST_ONLY` with the reason it stays.
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
    "expected_steps": "the ceil(N / |B_s|) step-count contract that the "
                      "trainer and stream tests hold every method to",
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


def public_definitions():
    """(module.name, name, names used inside the definition itself)."""
    for path in sorted((ROOT / "src" / "semicon").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name, referenced(node)


@pytest.fixture(scope="module")
def used():
    names = Counter()
    for directory in USER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names += referenced(ast.parse(path.read_text()))
    return names


def test_every_public_definition_has_a_user(used):
    unused = [where for where, name, own in public_definitions()
              if used[name] <= own[name] and name not in TEST_ONLY]
    assert not unused, f"only tests reach {unused}: delete them or list them"


def test_test_only_list_is_current(used):
    own_only = {name for _, name, own in public_definitions()
                if used[name] <= own[name]}
    assert set(TEST_ONLY) <= own_only, "a listed name is gone or has a user now"
