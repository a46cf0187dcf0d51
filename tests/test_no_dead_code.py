"""Every function, class, method and property in ``src/mcrl`` has a use in ``src/``.

A name counts as used when ``src/`` mentions it outside its own definition:
as a name, an attribute, or a string (``getattr(ops, "relu")`` dispatch).
Names are matched by spelling alone, so a method shares its uses with every
same-named definition. Dunder methods are called by Python itself and are
not checked.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mcrl"

# kept without a caller in src/, each for one reason
ALLOWED = {
    "fd_gradient": "the finite-difference oracle the gradient tests compare against",
    "tabular_optimal_return": "the value-iteration oracle the evaluation tests compare against",
    "read_metadata": "reads seed<k>.meta.txt back; tests assert its keys through it",
    "softplus_inverse": "sets param-reg weights to a chosen starting penalty",
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, node) for module-level defs and the defs directly inside classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS):
                    yield member.name, member


def _mentions(node) -> Counter:
    """Count of every name, attribute and string constant under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def unused_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_mentions(t) for t in trees.values()), Counter())
    unused = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _mentions(node)[name]:  # only its own body names it
                unused.append(f"{fname}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_in_src():
    unused = [u for u in unused_definitions() if u.split()[-1] not in ALLOWED]
    assert unused == [], "defined in src/mcrl but never used in src/: " + ", ".join(unused)


def test_allowlist_names_only_definitions_without_a_caller():
    # an allowlisted name that gained a caller, or lost its definition, leaves the list
    assert sorted(u.split()[-1] for u in unused_definitions()) == sorted(ALLOWED)
