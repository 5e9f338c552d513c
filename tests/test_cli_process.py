"""The command-line front end as a process: `python -m latinpaths.cli`, and
the parser it builds once, on the first `main` call."""

import contextlib
import io
import subprocess
import sys

import pytest

from latinpaths.cli import main

from conftest import FIVE_VERTEX_TEXT, run_python, source_env


def test_parser_is_built_once_on_first_use():
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import latinpaths.cli as cli\n"
        "counts = [len(built)]\n"
        "for argv in (['words', '-n', '3', '--count-only'], ['words', '-n', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    at_import, after_first, after_second = map(int, done.stdout.split())
    assert at_import == 0
    assert after_first > 0
    assert after_second == after_first


@pytest.fixture(scope="module")
def five_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "five.txt"
    path.write_text(FIVE_VERTEX_TEXT)
    return str(path)


def test_module_answers_as_main_does(five_file):
    argv = ("hamiltonian", five_file, "--kind", "circuit", "--format", "json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    done = run_python("-m", "latinpaths.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), "")


def test_module_parse_error_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(FIVE_VERTEX_TEXT.replace("4 3 5", "4 3 5 7"))
    done = run_python("-m", "latinpaths.cli", "hamiltonian", str(path), "--kind", "path")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: line 8:")


def test_module_limit_exits_3(five_file):
    done = run_python("-m", "latinpaths.cli", "hamiltonian", five_file, "--kind", "path",
                      "--limit", "1")
    assert (done.returncode, done.stdout) == (3, "")
    assert "limit" in done.stderr


def test_closed_pipe_exits_quietly(tmp_path):
    """`latinpaths hamiltonian K7 --kind path | head -c 100`: the answer,
    105,840 bytes, outgrows the pipe's buffer, so the reader closes the
    pipe while the answer is still being written.  The run exits 0 and
    writes nothing on stderr."""
    names = [f"v{i}" for i in range(1, 8)]
    path = tmp_path / "k7.txt"
    path.write_text(
        "vertices: " + " ".join(names) + "\n"
        + "".join(f"{u} {v}\n" for u in names for v in names if u != v)
    )
    with subprocess.Popen(
        [sys.executable, "-m", "latinpaths.cli", "hamiltonian", str(path), "--kind", "path"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=source_env(),
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        try:
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert head.startswith(b"v1-v2-v3-v4-v5-v6-v7\nv1-v2-v3-v4-v5-v7-v6\n")
    assert (proc.returncode, stderr.decode()) == (0, "")
