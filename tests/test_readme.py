"""README.md runs as printed: the library quick start, and every
`$ groupcut ...` example that shows its output."""

import difflib
import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import groupcut
from groupcut import gmi, gom, md2
from groupcut.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> str:
    """The ```python blocks of text, joined."""
    lines, in_block = [], False
    for line in text.splitlines():
        if line == "```python":
            in_block = True
        elif line == "```":
            in_block = False
        elif in_block:
            lines.append(line)
    return "\n".join(lines) + "\n"


def _shell_chunks(text: str) -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each `$ ` line of the ```sh blocks."""
    chunks, in_block, printed = [], False, None
    for line in text.splitlines():
        if not in_block:
            in_block = line == "```sh"
        elif line == "```":
            in_block, printed = False, None
        elif line.startswith("$ "):
            printed = []
            chunks.append((line[2:], printed))
        elif printed is not None:
            printed.append(line)
    return chunks


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    """A working directory holding the function files the examples read."""
    (tmp_path / "gom54.json").write_text(gom(5, 4).to_json())
    (tmp_path / "gmi_half.json").write_text(gmi(Fraction(1, 2)).to_json())
    (tmp_path / "md2.json").write_text(md2(5, 4).to_json())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _diff(command: str, code: int, expected: str, got: str, err: str) -> str:
    lines = difflib.unified_diff(
        expected.splitlines(True), got.splitlines(True), "README", "stdout"
    )
    return f"$ {command}  (exit {code})\n{err}" + "".join(lines)


def test_quick_start_runs_as_printed():
    source = _python_blocks(README.read_text())
    assert source.strip(), "README has no python block"
    # optimize=0 keeps the quick start's own asserts under python -O
    exec(compile(source, str(README), "exec", optimize=0), {"__name__": "quickstart"})


def test_cli_examples_print_what_they_show(fixture_dir):
    """Each example runs in process through main; a `$ cat` block is written
    as the file it shows, before the commands that read it."""
    failures, ran = [], 0
    for command, printed in _shell_chunks(README.read_text()):
        argv = shlex.split(command, comments=True)
        if argv[0] == "cat":
            Path(argv[1]).write_text("\n".join(printed) + "\n")
        elif argv[0] == "groupcut" and printed:
            # newline=None reads stdout as a text-mode pipe would: the CSV
            # writer's \r\n comes out as \n
            out, err = io.StringIO(newline=None), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv[1:])
            expected = "\n".join(printed) + "\n"
            ran += 1
            if code or out.getvalue() != expected:
                failures.append(
                    _diff(command, code, expected, out.getvalue(), err.getvalue())
                )
    assert ran, "README shows no CLI example with output"
    assert not failures, "\n".join(failures)


def test_entry_point_prints_the_first_example(fixture_dir):
    """The first example through `python -m groupcut.cli`, in a subprocess."""
    command, printed = next(
        (command, printed)
        for command, printed in _shell_chunks(README.read_text())
        if command.startswith("groupcut ") and printed
    )
    src = str(Path(groupcut.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    argv = shlex.split(command, comments=True)[1:]
    done = subprocess.run(
        [sys.executable, "-m", "groupcut.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    expected = "\n".join(printed) + "\n"
    assert done.returncode == 0 and done.stdout == expected, _diff(
        command, done.returncode, expected, done.stdout, done.stderr
    )
