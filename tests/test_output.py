"""``open_output``, the package's one write path, ``write_json`` and
``write_csv``, its one JSON and one CSV layout, and the lints that keep them
the only ones."""

import ast
import os
import stat
from pathlib import Path

import pytest

from snnconv.cli import EXIT_DATA, main
from snnconv.output import open_output

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "snnconv").glob("*.py") if p.name != "output.py")


def names(directory) -> list:
    return sorted(p.name for p in Path(directory).iterdir())


def test_overwrite_gives_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old contents\n")
    with open_output(path, newline="") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert names(tmp_path) == ["out.csv"]


def test_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    with open_output(path, "wb") as fh:
        fh.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"


@pytest.mark.parametrize("old", [b"old bytes", None])
def test_failed_write_leaves_previous_file(tmp_path, old):
    path = tmp_path / "out.bin"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="writer failed"):
        with open_output(path, "wb") as fh:
            fh.write(b"half")
            raise RuntimeError("writer failed")
    assert names(tmp_path) == ([] if old is None else ["out.bin"])
    if old is not None:
        assert path.read_bytes() == old


def test_symlink_updates_target(tmp_path):
    target = tmp_path / "real" / "out.json"
    target.parent.mkdir()
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with open_output(link) as fh:
        fh.write("new")
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "new"
    assert names(target.parent) == ["out.json"]


def test_hard_link_keeps_old_bytes(tmp_path):
    path, other = tmp_path / "out.txt", tmp_path / "other.txt"
    path.write_text("old")
    os.link(path, other)
    with open_output(path) as fh:
        fh.write("new")
    assert (path.read_text(), other.read_text()) == ("new", "old")


def test_new_file_mode_matches_open(tmp_path):
    previous = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        with open_output(tmp_path / "new") as fh:
            fh.write("x")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert mode == 0o644
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == mode


@pytest.mark.parametrize("name", [".", "missing" + os.sep])
def test_directory_path_raises(tmp_path, name):
    with pytest.raises(IsADirectoryError):
        with open_output(os.path.join(tmp_path, name)):
            pass
    assert names(tmp_path) == []


def test_directory_out_is_data_error(tmp_path, capsys):
    code = main(["verify-theorem", "--draws", "1", "--timesteps", "2", "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "Is a directory" in capsys.readouterr().err
    assert names(tmp_path) == []


# ---------------------------------------------------------------------------
# lint: no module but ``output`` opens a file for writing


def writes_in_place(source: str) -> list:
    """Lines that may open a file for writing: an ``open`` whose mode writes
    or cannot be read, and ``write_text`` / ``write_bytes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) against path.open(mode) and io.open(file, mode)
            modes = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:2]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_writes_in_place(path):
    assert writes_in_place(path.read_text()) == []


def test_lint_flags_each_write_form():
    source = "\n".join([
        'open(p, "rb")',
        'open(p, newline="")',
        'open(p, "w")',
        'open(p, "wb")',
        'open(p, mode="a")',
        'open(p, m)',
        'Path(p).open("r+")',
        'Path(p).write_text("x")',
        'p.write_bytes(b"x")',
        'open_output(p, "w")',
    ])
    assert writes_in_place(source) == [3, 4, 5, 6, 7, 8, 9]


# ---------------------------------------------------------------------------
# lint: no module but ``output`` lays out JSON or CSV itself


def format_writers(source: str) -> list:
    """Lines that call ``json.dump`` or ``csv.writer``, or import either by
    name; ``json.dumps`` builds a string and is not flagged."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
                (node.module, alias.name) in (("json", "dump"), ("csv", "writer"))
                for alias in node.names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and (node.func.value.id, node.func.attr) in (("json", "dump"), ("csv", "writer"))):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_lays_out_json_or_csv(path):
    assert format_writers(path.read_text()) == []


def test_lint_flags_each_format_writer():
    source = "\n".join([
        'json.dumps(header)',
        'json.dump(payload, fh)',
        'csv.writer(fh)',
        'from json import dump',
        'from csv import reader, writer',
        'csv.reader(fh)',
        'json.load(fh)',
        'write_json(path, payload)',
        'write_csv(path, header, rows)',
    ])
    assert format_writers(source) == [2, 3, 4, 5]
