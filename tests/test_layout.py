"""src/ is only the program: every name it defines is read by src/ itself
or by bench/, every parameter default it declares is overridden by some
call in src/ or bench/, and every exception class it defines is named by
some except clause in src/ or bench/.  A name that only tests read is a
reference, and lives in tests/ (grouplaw.py, psiref.py, conftest.py), or it
is dead code; so is an option that only tests pass, and an exception type
that only pytest.raises tells apart from its base."""

import ast
import builtins
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {"__all__", "__version__"}


def _trees(folder):
    return [ast.parse(f.read_text()) for f in sorted((ROOT / folder).glob("*.py"))]


def _names(node, bench=False):
    """Names and attributes read under node; for bench/, also those written,
    keyword arguments, and strings that are dotted names (spans.py's
    targets).  In src/ a keyword argument is a write: building a dataclass
    with marked=idx does not read its field marked."""
    for n in ast.walk(node):
        if not bench and isinstance(getattr(n, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif bench and isinstance(n, ast.keyword):
            yield n.arg
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


def _attributes(node):
    """Attributes read under node: obj.field, never a bare name."""
    return (n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_src_defines_no_name_that_only_tests_read():
    """An annotated class field is read in src/ only as obj.field: a local
    variable of the same name does not read it."""
    src = _trees("src/twistforge")
    loads = Counter(name for tree in src for name in _names(tree))
    attributes = Counter(name for tree in src for name in _attributes(tree))
    bench = {name for tree in _trees("bench") for name in _names(tree, bench=True)}
    unread = sorted(name for tree in src for name, node in _definitions(tree)
                    if name not in EXEMPT | bench
                    and ((attributes if isinstance(node, ast.AnnAssign) else loads)[name]
                         == Counter(_names(node))[name]))
    assert not unread, f"read only outside src/ and bench/: {unread}"


def _defaults(tree):
    """(function name, parameter, position or None) of every parameter with
    a default; a method's position counts self or cls."""
    methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a, shift = fn.args, -1 if fn in methods else 0
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield fn.name, positional[i].arg, i + shift
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _passes(call, fn, param, position):
    """Whether call is a call of fn that passes param: by keyword, by
    position, or through *args or **kwargs, which pass everything."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != fn:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_src_declares_no_default_that_only_tests_override():
    """A parameter with a default is an option; if no call in src/ or bench/
    passes it, only tests take the other branch."""
    calls = [n for tree in _trees("src/twistforge") + _trees("bench")
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = sorted({f"{fn}({param})" for tree in _trees("src/twistforge")
                       for fn, param, position in _defaults(tree)
                       if not any(_passes(c, fn, param, position) for c in calls)})
    assert not unpassed, f"defaults that no call in src/ or bench/ overrides: {unpassed}"


def _exception_classes(trees):
    """Top-level classes that derive, through src/ classes, from a builtin
    exception."""
    bases = {node.name: {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
             for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while new := {name for name in bases if bases[name] & exceptions} - exceptions:
        exceptions |= new
    return sorted(exceptions & bases.keys())


def test_src_defines_no_exception_that_nothing_catches():
    """An exception class is a type that a handler tells apart from its
    base; if no except clause in src/ or bench/ names it, the base serves,
    and raising it is no read of it."""
    src = _trees("src/twistforge")
    caught = {name for tree in src + _trees("bench") for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for name in _names(handler.type)}
    uncaught = [name for name in _exception_classes(src) if name not in caught]
    assert not uncaught, f"exception classes that no except clause in src/ or bench/ names: {uncaught}"
