"""The graph module and the DFS oracle stand apart from the engine: importing
them loads none of the word, language and semiring algebra, so the oracle
is independent ground truth."""

from conftest import run_python


def test_graph_and_oracle_load_no_algebra():
    code = (
        "import sys, latinpaths.graph, latinpaths.bruteforce\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'latinpaths'))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "latinpaths.graph" in loaded and "latinpaths.bruteforce" in loaded
    for name in ("words", "languages", "semiring", "enumeration"):
        assert f"latinpaths.{name}" not in loaded
