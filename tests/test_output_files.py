"""Output files: one writer overwrites in place, and nothing else opens a file
for writing."""

import ast
import errno
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mgv
from mgv.cli import main
from mgv.config import validate_config, write_text
from mgv.runner import run

from test_acceptance import MODE_DOCS

(RECALL_DOC,) = [d for d in MODE_DOCS if d["mode"] == "recall_mdp"]
# The five files mgv writes: trace, summary, --emit-policy, --emit-threshold
# and ``mgv report --out``.
OUTPUTS = ("run.jsonl", "run.summary.json", "policy.json", "cutoffs.csv", "report.json")


def write_every_output(directory: Path, monkeypatch) -> dict[str, bytes]:
    # Relative paths, so the report's ``trace`` field is the same in any
    # directory.
    monkeypatch.chdir(directory)
    config = validate_config({**RECALL_DOC, "out": "run.jsonl"})
    run(config, emit_policy="policy.json", emit_threshold="cutoffs.csv")
    assert main(["report", "run.jsonl", "--out", "report.json"]) == 0
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("target", OUTPUTS)
def test_overwriting_an_output_gives_the_bytes_of_a_fresh_write(tmp_path, monkeypatch,
                                                                target, old):
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    fresh.mkdir()
    rerun.mkdir()
    expected = write_every_output(fresh, monkeypatch)
    assert sorted(expected) == sorted(OUTPUTS)
    size = len(expected[target])
    junk = b"junk\n" * size
    (rerun / target).write_bytes(junk[:size + 100] if old == "longer" else junk[:size // 2])
    assert write_every_output(rerun, monkeypatch) == expected


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_file_gets_mode_0o666_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text(tmp_path / "new.txt", ("x\n",))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o666 & ~umask


def test_a_symlinked_out_writes_its_target_and_keeps_the_link(tmp_path, monkeypatch):
    expected = write_every_output(tmp_path, monkeypatch)["report.json"]
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"junk\n" * len(expected))
    link.symlink_to(target.name)
    assert main(["report", "run.jsonl", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == expected


def failing_chunks():
    yield "new line\n"
    raise TypeError("chunk 2 does not encode")


def test_a_failed_write_through_a_symlink_removes_the_target(tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("an older and longer file\n" * 100)
    link.symlink_to(target)
    with pytest.raises(TypeError, match="chunk 2"):
        write_text(link, failing_chunks())
    assert not target.exists()


@pytest.mark.parametrize("fails", [False, True], ids=["writes", "fails"])
def test_a_fifo_is_written_but_never_truncated_or_removed(tmp_path, fails):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        if fails:
            with pytest.raises(TypeError, match="chunk 2"):
                write_text(fifo, failing_chunks())
        else:
            write_text(fifo, ("new ", "line\n"))
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"new line\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


# --- a failing clean-up never hides the error that writing raised -----------

def notes(exc: BaseException) -> str:
    return "\n".join(getattr(exc, "__notes__", ()))


@pytest.mark.parametrize("refused", [("unlink",), ("unlink", "truncate")],
                         ids=["emptied", "left"])
def test_a_file_that_cannot_be_removed_still_raises_the_first_error(tmp_path, monkeypatch,
                                                                    refused):
    # A read-only directory would refuse the unlink too, but not to root.
    out = tmp_path / "run.jsonl"
    out.write_text("an older and longer file\n" * 100)

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    for name in refused:
        monkeypatch.setattr(os, name, refuse)
    with pytest.raises(TypeError, match="chunk 2") as raised:
        write_text(out, failing_chunks())
    if "truncate" not in refused:
        assert out.read_bytes() == b""
    if sys.version_info >= (3, 11):
        assert notes(raised.value).count("PermissionError") == len(refused)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_close_that_fails_after_an_error_does_not_replace_it():
    # Writes to /dev/full fail with ENOSPC once the buffer is flushed at close.
    with pytest.raises(TypeError, match="chunk 2") as raised:
        write_text("/dev/full", failing_chunks())
    if sys.version_info >= (3, 11):
        assert "No space left on device" in notes(raised.value)


FILE_SIZE_LIMIT = """
import resource, signal, sys
from mgv.config import write_text
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_text(sys.argv[1], ["new line\\n"] * 500)
except OSError as exc:
    print(exc.errno, exc.__context__ is None, file=sys.stderr)
    raise SystemExit(3)
"""


def test_a_flush_that_fails_on_a_regular_file_removes_it_and_raises_once(tmp_path):
    # RLIMIT_FSIZE makes the real flush in truncate() fail with EFBIG, and
    # the flush that close() retries fails again.
    out = tmp_path / "run.jsonl"
    out.write_text("an older and longer file\n" * 400)
    env = {**os.environ, "PYTHONPATH": str(Path(mgv.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", FILE_SIZE_LIMIT, str(out)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stderr.split() == [str(errno.EFBIG), "True"]
    assert not out.exists()


# --- one writer ---------------------------------------------------------------

def file_writes(source: str, allowed: str | None = None) -> list[int]:
    """Lines of the calls in ``source`` that open a file for writing, outside
    the module-level function named ``allowed``.

    A write is ``.write_text``/``.write_bytes`` on an object (the helper is
    called by its bare name), any ``os.open``, and ``open`` or ``.open`` whose
    mode is not a constant free of "w", "a", "x" and "+".
    """
    tree = ast.parse(source)
    skip = {id(node) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == allowed}
    lines = []
    stack = [node for node in tree.body if id(node) not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call) and _writes(node):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return True
        if func.attr != "open":
            return False
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return True
        mode_at = 0  # Path.open(mode)
    elif isinstance(func, ast.Name) and func.id == "open":
        mode_at = 1  # open(file, mode)
    else:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[mode_at:mode_at + 1]
    if not modes:
        return False  # "r"
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


@pytest.mark.parametrize("source, writes", [
    ("Path(p).write_text(s)", True), ("p.write_bytes(b)", True),
    ("open(p, 'w')", True), ("open(p, mode='a')", True), ("open(p, 'r+')", True),
    ("open(p, m)", True), ("p.open('x')", True), ("os.open(p, os.O_RDONLY)", True),
    ("def write_text(p):\n    open(p, 'w')", False),
    ("def f(p):\n    open(p, 'w')", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("p.open()", False),
    ("p.read_text()", False), ("write_text(p, chunks)", False),
])
def test_the_guard_tells_writes_from_reads(source, writes):
    assert bool(file_writes(source, "write_text")) == writes


def test_only_config_write_text_opens_a_file_for_writing():
    src = Path(mgv.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in file_writes(path.read_text(encoding="utf-8"),
                                     "write_text" if path.name == "config.py" else None)]
    assert found == []
