"""Suite-wide check: running the tests leaves the git tree as it found it.

The test run records ``git status --porcelain`` (with the bytes of every file
it lists) before the first test and again after the last one; if the suite
created, changed or deleted a file that git does not ignore, the run fails
and names the difference. Outside a git checkout of this repository the
check is skipped.
"""

import hashlib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_BEFORE = pytest.StashKey[set]()
_CHANGED = pytest.StashKey[tuple]()


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def tree_state() -> set[str] | None:
    """Each line of ``git status --porcelain`` with a digest of the file it
    names, or None outside a git checkout of this repository."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != ROOT:
        return None
    lines = set()
    for line in _git("status", "--porcelain", "--untracked-files=all").splitlines():
        path = ROOT / line[3:].split(" -> ")[-1].strip('"')
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "-"
        lines.add(f"{line}  {digest[:12]}")
    return lines


def pytest_sessionstart(session):
    session.config.stash[_BEFORE] = tree_state()


@pytest.hookimpl(tryfirst=True)  # before any plugin writes its report files
def pytest_sessionfinish(session, exitstatus):
    before = session.config.stash.get(_BEFORE, None)
    after = None if before is None else tree_state()
    if after is not None and after != before:
        session.config.stash[_CHANGED] = (sorted(before - after), sorted(after - before))
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _CHANGED not in terminalreporter.config.stash:
        return
    gone, new = terminalreporter.config.stash[_CHANGED]
    terminalreporter.write_sep("=", "the test suite changed files that git does not ignore", red=True)
    for line in gone:
        terminalreporter.write_line(f"  before: {line}")
    for line in new:
        terminalreporter.write_line(f"  after:  {line}")
