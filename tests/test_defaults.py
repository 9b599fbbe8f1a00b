"""Every defaulted parameter of the public API is passed by some call.

A default that no call ever overrides is a knob nobody turns, and it
belongs in a constant.  No linter runs on this repository, so this test is
the check.  The scan reads every call in ``src/``, ``tests/``, ``bench/``
and the README's Python block, and matches a call to a public function of
``snnconv.__all__`` by the name it calls (``f(...)`` or ``module.f(...)``).
A call with ``*args`` or ``**kwargs`` counts as passing every parameter.
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


def passes(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def never_passed(functions: dict, texts: list) -> dict:
    """Per function in ``functions`` (name to callable), its defaulted
    parameters that no call in ``texts`` passes."""
    calls = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    unset = {}
    for name, function in functions.items():
        params = [param for position, param in defaulted(function)
                  if not any(passes(call, position, param) for call in calls.get(name, []))]
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

    texts = ["f(0, 1)\nm.g(0)\nh(*rest)\n", "f(0, c=3)\ng(0, **opts)\n"]
    assert never_passed({"f": f, "g": g, "h": h}, texts) == {}
    assert never_passed({"f": f, "g": g, "h": h}, ["f(0)\nm.g(a=0)\nh(b=2)\n"]) == {
        "f": ["b", "c"], "g": ["b"], "h": ["a"]}
