"""The graph module and the DFS oracle stand apart from the engine: importing
them loads none of the word, language and semiring algebra, so the oracle
is independent ground truth."""

import os
import subprocess
import sys
from pathlib import Path

import latinpaths

SOURCE_ROOT = str(Path(latinpaths.__file__).resolve().parents[1])


def test_graph_and_oracle_load_no_algebra():
    code = (
        "import sys, latinpaths.graph, latinpaths.bruteforce\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'latinpaths'))"
    )
    path = os.pathsep.join(filter(None, (SOURCE_ROOT, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "latinpaths.graph" in loaded and "latinpaths.bruteforce" in loaded
    for name in ("words", "languages", "semiring", "enumeration"):
        assert f"latinpaths.{name}" not in loaded
