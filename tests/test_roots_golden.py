"""Golden stdout of the `roots` commands: 51 runs, recorded once.

Each command runs the CLI in process, and the sha256 of its stdout must
match the digest in tests/data/roots_sha256.json.  The commands are
`roots check --all` at max rank 1 to 4, and `roots build` and every single
`roots check --weight` for each of the 12 supported systems.  A change to
the root-system layer that moves one byte of a root, weight, saturation or
witness list fails here.

To re-record after an intended change of the output:

    PYTHONPATH=src python tests/test_roots_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from latflow import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "roots_sha256.json")
SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
           ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)]
COMMANDS = ([f"check --all --max-rank {r}" for r in range(1, 5)]
            + [f"build --family {f} --rank {r}" for f, r in SYSTEMS]
            + [f"check --family {f} --rank {r} --weight {w}"
               for f, r in SYSTEMS for w in range(1, r + 1)])


def digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["roots"] + command.split())
    assert code == 0, command
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _recorded():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_command_is_recorded():
    assert len(COMMANDS) == 51
    assert sorted(_recorded()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_roots_stdout_matches_the_recorded_digest(command):
    assert digest(command) == _recorded()[command]


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump({c: digest(c) for c in COMMANDS}, fh, indent=2, sort_keys=True)
        fh.write("\n")
