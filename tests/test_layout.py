"""src/ is only the program: every name it defines is read by src/ itself
or by bench/.  A name that only tests read is a reference, and lives in
tests/ (grouplaw.py, psiref.py, conftest.py), or it is dead code."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {"__all__", "__version__"}


def _trees(folder):
    return [ast.parse(f.read_text()) for f in sorted((ROOT / folder).glob("*.py"))]


def _names(node, bench=False):
    """Names, attributes and keyword arguments read under node; for bench/,
    also those written, and strings that are dotted names (spans.py's
    targets)."""
    for n in ast.walk(node):
        if not bench and isinstance(getattr(n, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, (ast.Attribute, ast.keyword)):
            yield n.attr if isinstance(n, ast.Attribute) else n.arg
        elif bench and isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and re.fullmatch(r"[\w.]+", n.value):
            yield from n.value.split(".")


def _definitions(tree):
    """Top-level functions, classes and assignments, public methods and
    annotated class fields, each with the node that defines it."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Name):
                yield t.id, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name, item
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.target.id, item


def test_src_defines_no_name_that_only_tests_read():
    src = _trees("src/twistforge")
    loads = Counter(name for tree in src for name in _names(tree))
    bench = {name for tree in _trees("bench") for name in _names(tree, bench=True)}
    unread = sorted(name for tree in src for name, node in _definitions(tree)
                    if name not in EXEMPT | bench
                    and loads[name] == Counter(_names(node))[name])
    assert not unread, f"read only outside src/ and bench/: {unread}"
