"""Golden stdout of the dioph, dirichlet, kempf and `sim example` commands.

Each command runs the CLI in process, and the sha256 of its stdout must
match the digest in tests/data/commands_sha256.json.  The commands cover
every approximation target shape (1x1, 1x2 and 2x1 floats, a 2x2 rational,
a quadratic irrational), the exponent estimate, the W and W' probes on a
float and a rational target, the extended matrix at n = 4 and 8, both
Dirichlet forms and a several-delta probe, the three Kempf representations,
and the quadratic-field example at two D.  A change to the walks, the
records, the certificates or the instability optimum that moves one byte
of these outputs fails here.

To re-record after an intended change of the output:

    PYTHONPATH=src python tests/test_commands_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from latflow import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "commands_sha256.json")
COMMANDS = [
    "dioph approx --a 0.41421356237309503 --qmax 100000",
    "dioph approx --a 0.41421356,0.73205081 --qmax 300",
    "dioph approx --a 0.41421356;0.73205081 --qmax 300",
    "dioph approx --a 1/3,2/7;3/5,4/11 --qmax 40",
    "dioph approx --a 1r2 --qmax 100000",
    "dioph exponent --a 0.41421356237309503 --qmax 10000",
    "dioph probe --a 0.4142135 --r 1.5 --qmax 300 --target W",
    "dioph probe --a 0.4142135 --r 1.5 --qmax 300 --target Wprime",
    "dioph probe --a 3/7 --r 2 --qmax 100",
    "dioph ext --n 4 --a 1,2;3,4",
    "dioph ext --n 8 --a 1,2,3/4,r2,5,1-r2;2,-1,1/5,3,2r2,4",
    "dirichlet --x 0.41,0.73 --form vect --delta 0.5 --t 2,4,8",
    "dirichlet --x 0.41,0.73 --form lf --delta 1 --t 2,4,8",
    "dirichlet --x 0.4142135 --delta 1,0.5,0.1 --t 2,4,8,16",
    "kempf --v 1,2,0 --rep standard --n 3",
    "kempf --v 1,2,0,0,0,0 --rep wedge2 --n 4",
    "kempf --v 0,1;0,0 --rep adjoint --n 2",
    "sim example --n 4 --r 2 --D 2",
    "sim example --n 6 --r 3 --D 5",
]


def digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0, command
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _recorded():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_command_is_recorded():
    assert sorted(_recorded()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_the_recorded_digest(command):
    assert digest(command) == _recorded()[command]


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump({c: digest(c) for c in COMMANDS}, fh, indent=2, sort_keys=True)
        fh.write("\n")
