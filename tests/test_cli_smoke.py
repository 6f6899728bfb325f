"""Every command on every fixture ends in a documented exit code.

Runs `cli.main` in-process for each command on each spec fixture at budgets
2 and 3 and asserts that it returns 0, 1, 2 or 3 without raising: a malformed
or out-of-scope combination is bad input (2), never a traceback.
"""

import io
import os

import pytest

from hopfcross.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
COCYCLES = ["cocycle_b1.json", "cocycle_trivial.json"]
SPECS = sorted(name for name in os.listdir(FIXTURES)
               if name.endswith(".json") and name not in COCYCLES)
COMMANDS = ([["verify"], ["cohomology", "--degree", "1"],
             ["cohomology", "--degree", "2"], ["classify"],
             ["compare", "--samples", "2"]]
            + [["crossed-product", "--cocycle", os.path.join(FIXTURES, c)]
               for c in COCYCLES])


@pytest.mark.parametrize("budget", ["2", "3"])
@pytest.mark.parametrize("spec", SPECS)
def test_every_command_ends_in_an_exit_code(spec, budget):
    for command in COMMANDS:
        argv = [command[0], os.path.join(FIXTURES, spec), "--budget", budget,
                *command[1:]]
        assert main(argv, out=io.StringIO()) in (0, 1, 2, 3), argv
