"""Every defaulted parameter of the public API is passed by some call.

A default that no call ever overrides is a knob nobody turns, and it
belongs in a constant.  No linter runs on this repository, so this test is
the check.  The scan reads every call in ``src/``, ``tests/``, ``bench/``
and the README's Python block, and matches a call to a public function of
``snnconv.__all__`` by the name it calls (``f(...)`` or ``module.f(...)``).
A call with ``*args`` counts as passing every parameter.  A call with
``**kwargs`` passes a parameter only when that name is a key of a dict
literal, or a keyword of a ``dict(...)`` call, in the same source: a
``**`` call whose dicts never name a parameter does not turn its knob.
Dataclass, enum and exception constructors are skipped: their parameters
are fields, members or messages.
"""

import ast
import dataclasses
import enum
import inspect
import re
from pathlib import Path

import snnconv

ROOT = Path(__file__).resolve().parent.parent


def sources() -> list:
    """The project's Python sources and the README's Python block."""
    texts = [path.read_text() for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    return texts + re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                              flags=re.S)


def defaulted(function) -> list:
    """``(position, name)`` of each parameter with a default; the position
    is ``None`` for a keyword-only parameter."""
    params = list(inspect.signature(function).parameters.values())
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [(i if p.kind in positional else None, p.name)
            for i, p in enumerate(params) if p.default is not p.empty]


def dict_keys(tree: ast.AST) -> set:
    """The string keys of every dict literal and the keywords of every
    ``dict(...)`` call in ``tree``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys.update(k.arg for k in node.keywords if k.arg)
    return keys


def passes(call: ast.Call, keys: set, position, name: str) -> bool:
    """Whether ``call`` passes ``name``; ``keys`` are its source's
    :func:`dict_keys`, the names a ``**`` argument there can hold."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg == name or (k.arg is None and name in keys) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def never_passed(functions: dict, texts: list) -> dict:
    """Per function in ``functions`` (name to callable), its defaulted
    parameters that no call in ``texts`` passes."""
    calls = {}
    for text in texts:
        tree = ast.parse(text)
        keys = dict_keys(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append((node, keys))
    unset = {}
    for name, function in functions.items():
        params = [param for position, param in defaulted(function)
                  if not any(passes(call, keys, position, param)
                             for call, keys in calls.get(name, []))]
        if params:
            unset[name] = params
    return unset


def public_functions() -> dict:
    public = {}
    for name in snnconv.__all__:
        obj = getattr(snnconv, name)
        if inspect.isclass(obj) and (dataclasses.is_dataclass(obj)
                                     or issubclass(obj, (enum.Enum, BaseException))):
            continue
        if callable(obj):
            public[name] = obj
    return public


def test_every_default_is_passed_somewhere():
    assert never_passed(public_functions(), sources()) == {}


def test_scan_matches_calls():
    def f(a, b=1, *, c=2):
        pass

    def g(a, b=1):
        pass

    def h(a=0, b=1):
        pass

    texts = ["f(0, 1)\nm.g(0)\nh(*rest)\n", "f(0, c=3)\ng(0, **opts)\nopts = {'b': 2}\n"]
    assert never_passed({"f": f, "g": g, "h": h}, texts) == {}
    assert never_passed({"h": h}, ["h(**dict(a=1))\nh(**{'b': 2})\n"]) == {}
    assert never_passed({"f": f, "g": g, "h": h}, ["f(0)\nm.g(a=0)\nh(b=2)\n"]) == {
        "f": ["b", "c"], "g": ["b"], "h": ["a"]}
    # a ** call passes only the names that its source's dicts hold
    planted = ["opts = {'c': 3}\nf(0, **opts)\ng(0, **opts)\n"]
    assert never_passed({"f": f, "g": g}, planted) == {"f": ["b"], "g": ["b"]}
