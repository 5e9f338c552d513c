"""The command-line front end as a process: `python -m latinpaths.cli`, and
the parser it builds once, on the first `main` call."""

import contextlib
import io

import pytest

from latinpaths.cli import main

from conftest import FIVE_VERTEX_TEXT, run_python


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
