"""Digest what every ``goalpost`` subcommand prints on a fixed set of inputs.

    python tools/cli_digest.py                    # this checkout's src/
    python tools/cli_digest.py --src OTHER/src    # another tree's package

The inputs are the files of ``tests/data`` and the seed-1 inputs of the three
benchmark workloads (``perfbench/workloads.py``), written to a temporary
directory.  Every subcommand runs in this process (``goalpost.cli.main``) on
every input of its kind (instance or distribution) at each ``--k`` in
0..3; ``oracle`` runs once per objective.  Each invocation prints one line,
``sha256  argv``, the hash taken over its exit code, standard output and
standard error; files are named by their basenames, so two trees' digests
compare with ``diff``.  A last line hashes all the others.

Skipped, since each takes seconds to minutes: the oracle at ``--k`` >= 2 on
the 600-agent inputs, and the frontier commands at ``--k`` >= 2 on the
four-group ``fair.json``.  Standard library only, besides ``goalpost`` and
its dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KS = (0, 1, 2, 3)
DISTRIBUTIONS = ("mixture.json", "uniform01.json", "dist.json")
# Each subcommand's flags beyond --instance and --k.
FLAGS = {
    "solve": [()],
    "solve-lb": [("--n-lb", "1")],
    "sweep": [()],
    "pareto": [()],
    "maxmin": [()],
    "fptas": [("--epsilon", "1/2")],
    "fair-approx": [()],
    "factor": [()],
    "oracle": [("--objective", objective) for objective in ("welfare", "pareto", "maxmin")],
    "learn-bound": [("--epsilon", "1/2", "--delta", "1/10")],
    "learn-experiment": [("--epsilon", "1/2", "--delta", "1/10", "--trials", "5",
                          "--seed", "0")],
}
LEARN = ("learn-bound", "learn-experiment")
FRONTIER = ("pareto", "maxmin", "factor", "fptas")
# The inputs of 600 agents.
LARGE = ("dense.json", "fractional.json", "fair.json")


def write_inputs(work: Path) -> list[str]:
    """Writes every input into ``work``; returns their names."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        shutil.copy(path, work / path.name)
    for name in workloads.WORKLOADS:
        workloads.make(name, 1).write(work)
    return sorted(path.name for path in work.glob("*.json"))


def invocations(names: list[str]):
    """Every argv to run, in order."""
    for sub, variants in FLAGS.items():
        for name in names:
            if (sub in LEARN) != (name in DISTRIBUTIONS):
                continue
            for k in KS:
                if k >= 2 and (sub == "oracle" and name in LARGE
                               or sub in FRONTIER and name == "fair.json"):
                    continue
                for flags in variants:
                    yield [sub, "--instance", name, "--k", str(k), *flags]


def run(main, argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"{type(exc).__name__}: {exc}"
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import goalpost from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from goalpost.cli import main as goalpost

    total = hashlib.sha256()
    count = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        names = write_inputs(Path(work))
        # Inputs are named relative to the work directory, so that no
        # absolute path reaches the output.
        os.chdir(work)
        try:
            for call in invocations(names):
                digest = hashlib.sha256(run(goalpost, call)).hexdigest()
                line = f"{digest}  {' '.join(call)}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
                count += 1
        finally:
            os.chdir(here)
    print(f"{total.hexdigest()}  total of {count} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
