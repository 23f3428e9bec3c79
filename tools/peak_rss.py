"""Peak RSS and wall time of a fresh-process ``synth`` and two 2-step ``register`` runs.

Writes a side-N ``synth`` pair (seed 7, 4 structures, B inverted, bumps
of 2.4 voxels) into a temporary directory, then registers it for 2 steps
with LNCC2 and with MIND_SSC. Each command runs in a fresh
``python -m deformreg.cli`` process, whose peak resident set
(``ru_maxrss``, read per child through ``os.wait4``) and wall time,
interpreter start-up included, the tool prints one line each. It exits
with the failing command's stderr if one exits non-zero, and removes its
directory either way.

Run: PYTHONPATH=src python3 tools/peak_rss.py [--dims 64]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the command lines after ``python -m deformreg.cli``, {d} standing for the directory
SYNTH = ("synth --out-dir {d}/pair --seed 7 --dims {n} --structures 4 --remap-b invert "
         "--amplitude-voxels 2.4")
REGISTER = ("register --source {d}/pair/a.nii --target {d}/pair/b.nii "
            "--config {d}/{kind}.json --out-dir {d}/{kind}")
KINDS = ("LNCC2", "MIND_SSC")


def run_fresh(args: list[str]) -> tuple[float, float]:
    """Run ``python -m deformreg.cli`` with ``args`` in a new process;
    return its peak RSS in MB (ru_maxrss / 1024) and its wall time in s."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "deformreg.cli", *args],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        sys.exit(f"peak_rss: '{' '.join(args)}' exited {proc.returncode}: {err.strip()}")
    return usage.ru_maxrss / 1024, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, default=64, help="cube side of the synth pair")
    n = parser.parse_args(argv).dims
    with tempfile.TemporaryDirectory() as d:
        for kind in KINDS:
            config = {"similarity": {"kind": kind}, "optimizer": {"steps": 2}}
            (Path(d) / f"{kind}.json").write_text(json.dumps(config))
        runs = [("synth", SYNTH, "")] + [(f"register {kind}", REGISTER, kind) for kind in KINDS]
        print(f"{n}^3, fresh process each")
        for name, command, kind in runs:
            peak, wall = run_fresh([token.format(d=d, n=n, kind=kind) for token in command.split()])
            print(f"{name:18}  peak {peak:8.1f} MB  wall {wall:6.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
