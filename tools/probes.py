"""Time the slow tails that no benchmark workload reaches.

    python tools/probes.py                  # every case, this checkout's src/
    python tools/probes.py --quick          # only the cases that end within a minute
    python tools/probes.py --src OTHER/src  # another tree's package
    python tools/probes.py solve-lb         # only the cases whose name holds a word

The inputs are written to a temporary directory:

- ``probe.json``: ``random.Random(1)``, 2,000 agents in one group, each at
  ``randint(0, 10**6)`` with capacity ``randint(1, 10**4)`` (m = 3,991, W = 64);
- ``n32000.json``: the same generator with 32,000 agents (m = 62,049, W = 693);
- ``fair.json`` and ``groups.json``: the seed-1 inputs of the small_exact and
  frontier_groups workloads (``perfbench/workloads.py``);
- ``wide.json``: ``random.Random(2)``, 10 agents at ``randint(0, 100)`` with
  capacity 7, agent i in group i, and 10^6 groups.

Each case runs as ``python -m goalpost`` in a child process, one after the
other, and prints one JSON line: its name and argv, the exit code, the wall
time from start to exit, the child's peak resident set (``ru_maxrss``) and
a hash of its standard output, so two trees' lines compare with ``diff``
once the times are set aside.  ``--quick`` runs only the cases that take
under a minute on a 2-CPU host and kills any child still running after 60 s
(its exit then reads -9).  The full set takes about ten minutes and, for the
``wide.json`` cases, about 1.7 GB.  Standard library only, besides
``goalpost`` and its dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK_SECONDS = 60

# (name, argv, quick): quick cases end within a minute.
CASES = [
    ("solve k3994 probe", ["solve", "--instance", "probe.json", "--k", "3994"], True),
    ("sweep k3994 probe", ["sweep", "--instance", "probe.json", "--k", "3994"], True),
    ("solve-lb k100 n-lb1 probe",
     ["solve-lb", "--instance", "probe.json", "--k", "100", "--n-lb", "1"], True),
    ("solve-lb k100 n-lb2 probe",
     ["solve-lb", "--instance", "probe.json", "--k", "100", "--n-lb", "2"], True),
    ("solve-lb k100 n-lb50 probe",
     ["solve-lb", "--instance", "probe.json", "--k", "100", "--n-lb", "50"], True),
    ("solve-lb k400 n-lb50 probe",
     ["solve-lb", "--instance", "probe.json", "--k", "400", "--n-lb", "50"], True),
    ("pareto k2 fair", ["pareto", "--instance", "fair.json", "--k", "2"], True),
    ("pareto k3 fair", ["pareto", "--instance", "fair.json", "--k", "3"], False),
    ("maxmin k3 fair", ["maxmin", "--instance", "fair.json", "--k", "3"], False),
    ("fptas k2 fair",
     ["fptas", "--instance", "fair.json", "--k", "2", "--epsilon", "1/2"], True),
    ("oracle k2 maxmin fair",
     ["oracle", "--instance", "fair.json", "--k", "2", "--objective", "maxmin"], True),
    ("solve k20 n32000", ["solve", "--instance", "n32000.json", "--k", "20"], True),
    ("maxmin k2 wide", ["maxmin", "--instance", "wide.json", "--k", "2"], False),
    ("factor k2 wide", ["factor", "--instance", "wide.json", "--k", "2"], False),
]


def _one_group(seed: int, n: int) -> dict:
    rng = random.Random(seed)
    return {"agents": [{"position": rng.randint(0, 10**6), "capacity": rng.randint(1, 10**4),
                        "group": 0} for _ in range(n)], "num_groups": 1}


def write_inputs(work: Path) -> None:
    """Writes every probe input into ``work``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    inputs = {"probe.json": _one_group(1, 2000), "n32000.json": _one_group(1, 32000)}
    rng = random.Random(2)
    inputs["wide.json"] = {
        "agents": [{"position": rng.randint(0, 100), "capacity": 7, "group": i}
                   for i in range(10)],
        "num_groups": 10**6,
    }
    for name, payload in inputs.items():
        (work / name).write_text(json.dumps(payload), encoding="utf-8")
    for name in ("small_exact", "frontier_groups"):
        workloads.make(name, 1).write(work)


def run(argv: list[str], src: Path, work: Path, timeout) -> dict:
    """Run one case in a child process; its exit, wall time, peak RSS and
    output hash."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile(dir=work) as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "goalpost", *argv], cwd=work,
                                 env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, child.kill) if timeout else None
        if killer:
            killer.start()
        # wait4, not wait: the child's own rusage, not every child's peak.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        if killer:
            killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    # ru_maxrss is in KiB on Linux.
    return {"exit": child.returncode, "wall_s": round(wall, 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1), "stdout_sha256": digest[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import goalpost from")
    parser.add_argument("--quick", action="store_true",
                        help="only the cases that end within a minute, each killed after 60 s")
    parser.add_argument("words", nargs="*",
                        help="run only the cases whose name holds one of these words")
    args = parser.parse_args(argv)
    cases = [(name, call) for name, call, quick in CASES
             if (quick or not args.quick)
             and (not args.words or any(word in name for word in args.words))]
    with tempfile.TemporaryDirectory() as work:
        write_inputs(Path(work))
        for name, call in cases:
            result = run(call, args.src.resolve(), Path(work),
                         QUICK_SECONDS if args.quick else None)
            print(json.dumps({"case": name, "argv": call, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
