"""`ucx envelope` and `ucx bruteforce` print the bytes stored under ``tests/golden``.

Seeded output must stay byte-identical from commit to commit.  Each file is
the stdout of one command line, written with

    python -c "import sys; from ucx.cli import main; sys.exit(main(sys.argv[1:]))" ARGV > tests/golden/NAME.txt

A change that moves a printed digit rewrites the file and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from ucx.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
EXPONENTS = ["1.04", "1.5", "2", "4", "30"]


def argvs():
    for p in EXPONENTS:
        # the p < 2 certificate needs an eps; it leaves the other columns as they are
        eps = ["--eps", "1"] if float(p) < 2.0 else []
        yield f"envelope_p{p}", ["envelope", "--p", p, *eps, "--grid-n", "25", "--n-per-face", "60"]
        yield f"bruteforce_p{p}", ["bruteforce", "--p", p, "--x", "1,0.5,0.7"]


@pytest.mark.parametrize("name, argv", list(argvs()), ids=[name for name, _ in argvs()])
def test_stdout_matches_the_stored_bytes(name, argv, capsys):
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
