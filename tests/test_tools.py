"""The commit the timing tools record: tools/git_commit.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "git_commit.py"
_spec = importlib.util.spec_from_file_location("tools_git_commit", _PATH)
tools_git_commit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tools_git_commit)


@pytest.mark.parametrize("no_git", [False, True], ids=["not-a-checkout", "no-git"])
def test_commit_is_null_with_a_warning_outside_a_checkout(tmp_path, monkeypatch, capsys, no_git):
    # git looks for a checkout no further up than tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    if no_git:
        monkeypatch.setenv("PATH", str(tmp_path))
    assert tools_git_commit.git_commit(tmp_path) is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"warning: no git commit for {tmp_path} ")
