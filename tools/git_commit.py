"""The git commit a timing JSON records for its source tree.

    from git_commit import git_commit
    git_commit(root)  # "af67402", "af67402-dirty" or None
"""

import subprocess
import sys


def git_commit(root) -> str | None:
    """`git describe --always --dirty` at root (-dirty: uncommitted changes).

    None, with a one-line warning on stderr, when root is not in a git
    checkout or git cannot be run.
    """
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else ""
    except OSError:  # no git
        commit = ""
    if commit:
        return commit
    print(f"warning: no git commit for {root} (not a git checkout, or no git); "
          "recorded as null", file=sys.stderr)
    return None
