"""sha256 of every file a fixed chain of CLI commands writes.

Runs, through ``cli.main`` in-process, into the directory DIR:
- ``synth --dims 16`` (the pair, its truth and ``meta.json``);
- a 2-step ``register`` of that pair (fields, trace, report);
- ``evaluate`` with the registered field, then with the identity map;
- ``preprocess`` to a ``.nii`` and to a ``.raw`` volume.

It then prints one ``sha256  path`` line per file under DIR, the path
relative to DIR. A change that claims to write the same files leaves the
listing as it is. ``evaluate``'s config hash covers the paths it was
given, so compare two listings written to the same DIR: run the tool,
save its listing, empty DIR, then run it against the other checkout.

Run: PYTHONPATH=src python3 tools/cli_digest.py DIR   (DIR absent or empty)
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from deformreg import cli


TRUTH = ("--labels-a {d}/pair/labels_a.nii --labels-b {d}/pair/labels_b.nii "
         "--landmarks-a {d}/pair/landmarks_a.csv --landmarks-b {d}/pair/landmarks_b.csv")
# the command lines, {d} standing for DIR
CHAIN = ("synth --out-dir {d}/pair --dims 16",
         "register --source {d}/pair/a.nii --target {d}/pair/b.nii "
         "--config {d}/two_steps.json --out-dir {d}/reg",
         "evaluate --field {d}/reg/phi_ab.raw " + TRUTH + " --reference {d}/pair/a.nii "
         "--pair-id pair --out {d}/evaluate_field.json",
         "evaluate " + TRUTH + " --out {d}/evaluate_identity.json",
         "preprocess --input {d}/pair/a.nii --output {d}/preprocessed.nii",
         "preprocess --input {d}/pair/b.nii --output {d}/preprocessed.raw")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="where the chain writes; absent or empty")
    d = parser.parse_args(argv).dir.resolve()
    if d.exists() and any(d.iterdir()):
        parser.error(f"{d} is not empty")
    d.mkdir(parents=True, exist_ok=True)
    (d / "two_steps.json").write_text(json.dumps({"optimizer": {"steps": 2}}))
    for command in CHAIN:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([token.format(d=d) for token in command.split()])
        if rc != 0:
            sys.exit(f"cli_digest: '{command}' exited {rc}")
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(d)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
