"""Every option a subcommand defines is read by that command.

No linter runs on this repository, so this test is the check.  The scan
starts at each subcommand's handler (its ``func`` default) and follows the
``cli`` functions the handler passes ``args`` to.  An option counts as read
when one of them reads ``args.<dest>`` or names it in ``_require``; any
other option is dead, since the command accepts it and ignores it.
"""

import argparse
import ast
import inspect

from snnconv import cli

EXEMPT = {"config", "help"}


def read_options(source: str, handler: str) -> set:
    """Option dests that ``handler`` in ``source`` reads, directly or through helpers."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    read, todo, done = set(), [(handler, "args")], set()
    while todo:
        name, param = todo.pop()
        if (name, param) in done:
            continue
        done.add((name, param))
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == param):
                read.add(node.attr)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            at = [i for i, arg in enumerate(node.args)
                  if isinstance(arg, ast.Name) and arg.id == param]
            if at and node.func.id == "_require":
                read.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
            elif at and node.func.id in functions:
                params = functions[node.func.id].args.args
                todo += [(node.func.id, params[i].arg) for i in at]
    return read


def dead_options(parser: argparse.ArgumentParser, source: str) -> dict:
    """Per subcommand, the options its handler never reads."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dead = {}
    for command, p in sub.choices.items():
        options = {a.dest for a in p._actions if a.option_strings} - EXEMPT
        unread = options - read_options(source, p.get_default("func").__name__)
        if unread:
            dead[command] = sorted(unread)
    return dead


def test_no_dead_options():
    assert dead_options(cli.build_parser(), inspect.getsource(cli)) == {}


def test_scan_follows_helpers():
    source = ("def cmd(args):\n"
              "    _require(args, 'model')\n"
              "    helper(1, args)\n"
              "    return lambda: args.out\n"
              "def helper(x, opts):\n"
              "    return opts.limit, args.ignored\n")
    assert read_options(source, "cmd") == {"model", "out", "limit"}
