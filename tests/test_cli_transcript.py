"""Golden CLI transcript: every subcommand on each builtin example.

tests/data/cli_transcript.json holds, for each argv list of ARGVS, the
exit code, stdout and stderr of ``qcsol.cli.run``.  The test runs them
again and compares the rendered transcript with the file byte for byte.

Regenerate the file after an intended change of the CLI output with

    PYTHONPATH=src python tests/test_cli_transcript.py

and name the entries that changed in the change's notes.
"""

import contextlib
import io
import json
from pathlib import Path

from qcsol.cli import run
from test_cli import _read_as_argparse, _subcommands

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"

_PLAIN = {
    "ex2_1": "1.5,0",
    "ex2_2": "-1,1",
    "ex2_3": "1,1",
    "ex2_4": "0,-1",
    "ex4_1": "0.5",
}
_MULTIPLIER_VARIANTS = (
    "SHATP1", "SHATP2", "SP1", "SP2", "SP3", "SP4", "SP5", "SHATPP1", "SHATPP2",
)


def _argvs():
    """About 140 argv lists at low resolution: the plain examples
    through every unconstrained subcommand, the constrained one through
    the multiplier subcommands, the anchor and input errors, and
    run-example under each tolerance flag."""
    argvs = []
    for name, point in _PLAIN.items():
        ex = ["--example", name]
        low = ["--resolution", "5"]
        argvs += [
            ["classify", *ex, *low],
            ["oracle", *ex, *low],
            *(["enumerate", *ex, "--variant", v, *low] for v in ("SHAT1", "STILDE", "S1", "T3")),
            *(["agreement", *ex, "--variant", v, *low] for v in ("SHAT2", "STILDE", "S1")),
            *(["verify-membership", *ex, "--variant", v, f"--point={point}"]
              for v in ("S2", "THAT1")),
            ["subdiff-check", *ex, "--route", "gp", f"--point={point}", *low],
            ["check-convexity", *ex, "--pairs", "20", "--t-steps", "3"],
            ["run-example", name],
            ["run-example", name, "--check", "all"],
        ]
    con = ["--example", "ex2_3_constrained"]
    argvs += [
        ["kkt-solve", *con],
        ["check-cq", *con],
        ["oracle", *con, "--resolution", "5"],
        ["check-convexity", *con, "--pairs", "20", "--t-steps", "3"],
        ["run-example", "ex2_3_constrained"],
        ["run-example", "ex2_3_constrained", "--check", "all"],
        *(["kkt-enumerate", *con, "--variant", v, "--resolution", "5"]
          for v in _MULTIPLIER_VARIANTS),
        # an anchor outside the constraint, and one outside the oracle set
        ["kkt-solve", *con, "--anchor", "1.1,1.1"],
        ["check-cq", *con, "--anchor", "1.1,1.1"],
        ["kkt-enumerate", *con, "--variant", "SP1", "--anchor", "1.1,1.1",
         "--resolution", "5"],
        ["agreement", "--example", "ex2_1", "--variant", "S1", "--anchor", "2,2",
         "--resolution", "5"],
        # the one-dimensional route, and refused inputs
        ["subdiff-check", "--example", "ex4_1", "--route", "ml", "--point", "0.5",
         "--resolution", "21"],
        ["subdiff-check", "--example", "ex2_1", "--route", "ml", "--point", "1.5,0"],
        ["kkt-solve", "--example", "ex2_1"],
        ["enumerate", "--example", "ex2_1", "--variant", "SP1", "--resolution", "5"],
        ["kkt-enumerate", *con, "--variant", "S1", "--resolution", "5"],
        ["verify-membership", "--example", "ex2_3", "--variant", "S1", "--point", "2,2"],
        ["classify", "--example", "ex2_3", "--resolution", "9"],
    ]
    # run-example under each tolerance flag; an eps_grad of 1e9 reads
    # every gradient as zero, so every plain example becomes alternative II
    for name in (*_PLAIN, "ex2_3_constrained"):
        all_checks = ["run-example", name, "--check", "all"]
        argvs += [
            *(all_checks + ["--eps-grad", v] for v in ("1e-3", "0.3", "1e9")),
            all_checks + ["--eps-dir", "0"],
            all_checks + ["--eps-feas", "0.01"],
            all_checks + ["--eps-act", "0.5"],
        ]
    return argvs


def _transcript() -> str:
    entries = []
    for argv in _argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        entries.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    return json.dumps(entries, indent=1) + "\n"


def test_cli_transcript_is_unchanged():
    assert _transcript() == TRANSCRIPT.read_text()


def test_transcript_covers_every_subcommand():
    covered = {entry["argv"][0] for entry in json.loads(TRANSCRIPT.read_text())}
    assert {name for name, _ in _subcommands()} <= covered


def test_the_reader_reads_every_argv_but_run_examples():
    # every other argv here is in the reader's common form; run-example's
    # positional goes to argparse
    argvs = [entry["argv"] for entry in json.loads(TRANSCRIPT.read_text())]
    assert all(_read_as_argparse(argv) == (argv[0] != "run-example") for argv in argvs)


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(_transcript())
