"""scripts/output_digest.py prints the pinned digests, so every program
output it covers is byte-identical to the one pinned here.

A change that alters one of these outputs on purpose edits its pinned line
and says why in CHANGES.md.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PINNED = """\
verifications      10 4cfa7348ef3514f1c0a085ecbe27141706b38b5ebf10571a4dc8442126c8ba4b
cli-certify       360 378f2e434734faefecd0e56e9450a80028c7870bb1709577e57ce027a742b3fc
global-witness     96 fcd8e21edccf95c9d11acc46ccc6b9684641cdaf1fc8014e62f14c1d0b53f047
laurent-linkage    48 11484e1737115c81ed35204e8aa464298790884659e4092088827e4ca2ef6142
global-decisions  180 e146710d5abe80e59e4b28aff4f45d3a0c492e530b0322e0d63a28addafd513a
certificates      180 0944aaf15ce1a51804da50387f2399d09fdff5d3515fe97ed8996bc2f94038ea
"""


def test_output_digests_are_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == PINNED.splitlines()
