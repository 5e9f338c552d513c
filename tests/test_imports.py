"""What each entry point loads.  The graph module and the DFS oracle stand
apart from the engine: importing them loads none of the word, language and
semiring algebra, so the oracle is independent ground truth.  The CLI
loads that algebra, the executable reference, only for `words`."""

import contextlib
import io

from latinpaths.cli import main

from conftest import run_python


def loaded_modules(*imports: str) -> set[str]:
    """The latinpaths modules a fresh interpreter holds after `imports`."""
    code = (
        f"import sys, {', '.join(imports)}\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'latinpaths'))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_graph_and_oracle_load_no_algebra():
    loaded = loaded_modules("latinpaths.graph", "latinpaths.bruteforce")
    assert "latinpaths.graph" in loaded and "latinpaths.bruteforce" in loaded
    for name in ("words", "languages", "semiring", "enumeration"):
        assert f"latinpaths.{name}" not in loaded


def test_cli_loads_no_reference():
    loaded = loaded_modules("latinpaths.cli")
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
