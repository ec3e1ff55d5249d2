"""The tools under ``tools/``, run as a user runs them: in a subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_of_cli_needs_the_corpus(tmp_path):
    # a root with the program and the workloads but no corpus/: the cli
    # jobs would silently lose their corpus fixtures
    for name in ("src", "bench"):
        (tmp_path / name).symlink_to(ROOT / name, target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--root", str(tmp_path),
         "--workload", "cli", "--seeds", "3"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "corpus" in lines[0]
