"""What each entry point loads.  The graph module and the DFS oracle stand
apart from the engine: importing them loads none of the word, language and
semiring algebra, so the oracle is independent ground truth.  The CLI
loads that algebra, the executable reference, only for `words`.  No module
on the query path loads `dataclasses`, nor what it pulls in."""

import contextlib
import io

import pytest

from latinpaths.cli import main

from conftest import run_python


def added_modules(*imports: str) -> set[str]:
    """The modules `imports` add to a fresh interpreter's, past what it
    holds at start-up (`site` and what that preloads)."""
    code = (
        "import sys\nbefore = set(sys.modules)\n"
        f"import {', '.join(imports)}\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "imports", [("latinpaths.cli",), ("latinpaths.graph", "latinpaths.bruteforce")]
)
def test_query_path_loads_no_dataclasses(imports):
    added = added_modules(*imports)
    assert set(imports) <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_graph_and_oracle_load_no_algebra():
    loaded = added_modules("latinpaths.graph", "latinpaths.bruteforce")
    assert "latinpaths.graph" in loaded and "latinpaths.bruteforce" in loaded
    for name in ("words", "languages", "semiring", "enumeration"):
        assert f"latinpaths.{name}" not in loaded


def test_cli_loads_no_reference():
    loaded = {m for m in added_modules("latinpaths.cli") if m.partition(".")[0] == "latinpaths"}
    assert loaded == {
        "latinpaths",
        "latinpaths.graph",
        "latinpaths.enumeration",
        "latinpaths.bruteforce",
        "latinpaths.cli",
    }


def test_words_command_loads_the_algebra_it_prints():
    done = run_python("-m", "latinpaths.cli", "words", "-n", "3")
    assert done.returncode == 0, done.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["words", "-n", "3"]) == 0
    assert done.stdout == out.getvalue()
    assert done.stdout.startswith("sigma: 31\n^\n1\n")
