"""Seeded mutation fuzzing of the command-line contract.

Writes a 16^3 ``synth`` pair once, then runs ``cli.main`` in-process on
mutated copies of its files. Each case keeps its command line fixed and
mutates file contents only:
- NIfTI header fields (interesting values, bit flips, truncation);
- raw volume and field sidecars (values, keys, non-objects) and payloads;
- landmark CSV lines;
- config values and structure;
- the encodings and byte-order marks of the CSV and JSON files.

Every case must keep the contract: the exit code is 0, 2, 3 or 4; no
exception escapes ``main``; and a non-zero exit prints exactly one stderr
line (a warning counts as one more) and leaves no output file or
directory. A mutated ``optimizer.steps`` above 2 becomes 2, so that no
case runs unbounded. A case draws its mutations from its own generator,
seeded by the seed and the case number, so a case reruns alone.

The tier-1 test ``tests/test_cli.py::TestContractFuzz`` runs a few
hundred cases of this generator; CI runs it at a fixed seed with more.

Run: PYTHONPATH=src python3 tools/fuzz_cli.py [--seed 0] [--cases 2000]
Prints each case that breaks the contract and exits 1 if there is one.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import numbers
import random
import shutil
import struct
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from deformreg import cli
from deformreg.fileio import HEADER_FIELDS, VOX_OFFSET
from deformreg.pipeline import RunConfig

EXIT_CODES = (0, 2, 3, 4)
STEPS_CAP = 2
INTS = (0, -1, 1, 2, 3, 4, 16, 17, 255, 32767, -32768, 2**31 - 1, -2**31, 2**63, 10**20)
FLOATS = (0.0, -0.0, -1.0, 1e-30, 1e-300, 0.1, 0.5, 1.5, 352.0, 353.7, 1e11, 1e30, 1e308,
          math.nan, math.inf, -math.inf)
STRINGS = ("", "CT", "MR-T1", "SYNTH-X", "SYNTH X", "SYNTH-" + "x" * 60, "modality=CT",
           "LNCC", "LNCC2", "MIND_SSC", "MSE", "float32", "float64", "volume", "field",
           "channel-major,x-fastest", "café", "\x00", "16")
OTHERS = (None, True, False, [], {}, [16, 16], [16, 16, 16], [1.0, 0.3, 0.1],
          [16, 16, 16, 1], [1, "a", 0], {"a": 1})


def elements(name: str, count: int) -> dict:
    """The first ``count`` elements of the array field ``name`` of
    ``fileio.HEADER_FIELDS`` as fields of their own: {"name[k]": (offset, format)}."""
    offset, fmt = HEADER_FIELDS[name]
    one = fmt[0] + fmt[-1]
    return {f"{name}[{k}]": (offset + k * struct.calcsize(one), one) for k in range(count)}


# (offset, struct format) of the header fields the reader parses, one per array element
NIFTI_FIELDS = {**{name: HEADER_FIELDS[name] for name in
                   ("sizeof_hdr", "datatype", "bitpix", "vox_offset", "magic", "descrip")},
                **elements("dim", 8), **elements("pixdim", 4), **elements("qoffset", 3)}
DESCRIPS = (b"", b"modality=CT", b"modality=", b"modality=\xff\xfe;preprocessed=1",
            b"modality=SYNTH-" + b"x" * 60, b"modality=MR;preprocessed=1", b"labels",
            b"modality=SYNTH X", b"modality=CT;modality=MR", b"preprocessed=2")
CSV_LINES = ("", "1,2", "1,2,3,4", "nan,1,2", "inf,0,0", "a,b,c", "1;2;3", " 1 , 2 , 3 ",
             "1e400,0,0", "0x10,1,2", "\x00", "1,2,3,", ",,", "-1e308,-1e308,-1e308",
             "3.5,4.5,5.5", "\ufeff1,2,3", "1_0,2,3")
ENCODINGS = ("utf-8-sig", "utf-16", "utf-32", "latin-1", "invalid", "nul")


def encode(text: str, rng: random.Random) -> tuple[bytes, str]:
    """``text`` as UTF-8, or (one time in five) in another encoding or
    with a byte-order mark, stray bytes or a NUL."""
    if rng.random() >= 0.2:
        return text.encode(), ""
    kind = rng.choice(ENCODINGS)
    if kind == "latin-1":
        return ("é" + text).encode("latin-1", errors="replace"), kind
    if kind == "invalid":
        at = rng.randrange(len(text) + 1)
        return text[:at].encode() + b"\xff\xfe\xfa" + text[at:].encode(), kind
    if kind == "nul":
        return b"\x00" + text.encode(), kind
    return text.encode(kind), kind


def pick_value(rng: random.Random, like=None):
    """An interesting value; more often than not one of the type of
    ``like`` (a list keeps its length and gets one element replaced)."""
    if isinstance(like, list) and like and rng.random() < 0.6:
        like = list(like)
        like[rng.randrange(len(like))] = pick_value(rng, like[0])
        return like
    for kind, values in ((bool, (True, False)), (numbers.Integral, INTS),
                         (float, FLOATS), (str, STRINGS)):
        if isinstance(like, kind) and rng.random() < 0.6:
            return rng.choice(values)
    return copy.deepcopy(rng.choice((rng.choice(INTS), rng.choice(FLOATS),
                                     rng.choice(STRINGS), rng.choice(OTHERS))))


def mutate_nifti(data: bytes, rng: random.Random) -> tuple[bytes, list]:
    """1-3 header fields set to interesting values or a header bit flipped;
    one file in ten is also truncated."""
    out, notes = bytearray(data), []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            bit = rng.randrange(VOX_OFFSET * 8)
            out[bit // 8] ^= 1 << (bit % 8)
            notes.append(f"bit {bit} flipped")
            continue
        name = rng.choice(sorted(NIFTI_FIELDS))
        offset, fmt = NIFTI_FIELDS[name]
        if name == "magic":
            value = rng.choice((b"n+2\x00", b"ni1\x00", b"\x00" * 4, b"n+1 "))
        elif name == "descrip":
            value = rng.choice(DESCRIPS)
        elif fmt == "<f":  # float32: 1e308 packs as the largest float32
            value = rng.choice(FLOATS)
            value = value if abs(value) < 3.4e38 else math.copysign(min(abs(value), 3.4e38), value)
        else:
            bits = 8 * struct.calcsize(fmt)
            value = max(-2**(bits - 1), min(2**(bits - 1) - 1, rng.choice(INTS)))
        struct.pack_into(fmt, out, offset, value)
        notes.append(f"{name} = {value!r}")
    if rng.random() < 0.1:
        size = rng.randrange(len(out))
        del out[size:]
        notes.append(f"truncated to {size} bytes")
    return bytes(out), notes


def mutate_payload(data: bytes, rng: random.Random) -> tuple[bytes, list]:
    """A float32 payload cut, extended or given a non-finite value."""
    kind = rng.choice(("cut", "extend", "non-finite"))
    if kind == "cut":
        size = rng.randrange(len(data))
        return data[:size], [f"payload cut to {size} bytes"]
    if kind == "extend":
        extra = rng.choice((1, 3, 4, 12))
        return data + b"\x00" * extra, [f"payload extended by {extra} bytes"]
    at, value = 4 * rng.randrange(len(data) // 4), rng.choice((math.nan, math.inf, -math.inf))
    return data[:at] + struct.pack("<f", value) + data[at + 4:], [f"payload value {value}"]


def mutate_object(obj: dict, rng: random.Random) -> tuple[object, list]:
    """1-2 of the keys of ``obj`` set to interesting values or removed, an
    unknown key added, or the whole object replaced by a non-object."""
    obj, notes, keys = copy.deepcopy(obj), [], sorted(obj) or ["unknown"]
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.03:
            obj = rng.choice(([], "volume", 5, None, [obj]))
            return obj, notes + [f"replaced by {obj!r}"]
        key = rng.choice(keys)
        if roll < 0.1:
            obj.pop(key, None)
            notes.append(f"{key} removed")
        elif roll < 0.15:
            obj["unknown"] = pick_value(rng)
            notes.append("unknown key added")
        else:
            obj[key] = pick_value(rng, obj.get(key))
            notes.append(f"{key} = {obj[key]!r}")
    return obj, notes


def json_text(obj, rng: random.Random, notes: list) -> bytes:
    text = json.dumps(obj)
    if rng.random() < 0.05:
        size = rng.randrange(len(text))
        text = text[:size]
        notes.append(f"JSON cut to {size} characters")
    data, kind = encode(text, rng)
    if kind:
        notes.append(f"encoded {kind}")
    return data


def mutate_sidecar(seed: dict[str, bytes], stem: str, rng: random.Random) -> tuple[dict, list]:
    """A raw volume's or field's sidecar, its payload, or both mutated."""
    sidecar, payload, notes = json.loads(seed[stem + ".json"]), seed[stem + ".raw"], []
    target = rng.choice(("sidecar", "payload", "both"))
    if target != "payload":
        sidecar, notes = mutate_object(sidecar, rng)
    if target != "sidecar":
        payload, more = mutate_payload(payload, rng)
        notes += more
    return {"v.json": json_text(sidecar, rng, notes), "v.raw": payload}, notes


def mutate_landmarks(text: str, rng: random.Random) -> tuple[bytes, list]:
    lines, notes = text.splitlines(), []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.1:
            lines = []
            notes.append("all lines removed")
        elif roll < 0.2 and lines:
            lines.pop(rng.randrange(len(lines)))
            notes.append("a line removed")
        else:
            line = rng.choice(CSV_LINES)
            lines.insert(rng.randrange(len(lines) + 1), line)
            notes.append(f"line {line!r} added")
    data, kind = encode("\n".join(lines) + "\n", rng)
    return data, notes + ([f"encoded {kind}"] if kind else [])


def cap_steps(config):
    """``optimizer.steps`` at most STEPS_CAP, where it is an integer."""
    optimizer = config.get("optimizer") if isinstance(config, dict) else None
    steps = optimizer.get("steps") if isinstance(optimizer, dict) else None
    if isinstance(steps, numbers.Integral) and not isinstance(steps, bool) and steps > STEPS_CAP:
        optimizer["steps"] = STEPS_CAP


def mutate_config(rng: random.Random) -> tuple[bytes, list]:
    """The default config with one step, 1-2 of its values, sections or
    keys mutated."""
    config = RunConfig().to_dict()
    config["optimizer"]["steps"] = 1
    notes = []
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.03:
            config = rng.choice(([], "config", 1, None))
            notes.append(f"replaced by {config!r}")
            break
        section = rng.choice(sorted(config))
        if roll < 0.08:
            config[section] = pick_value(rng)
            notes.append(f"{section} = {config[section]!r}")
        elif isinstance(config[section], dict):
            config[section], more = mutate_object(config[section], rng)
            notes += [f"{section}: {note}" for note in more]
    cap_steps(config)
    return json_text(config, rng, notes), notes


def make_case(seed_files: dict[str, bytes], seed: int, index: int):
    """Case ``index`` of ``seed``: (route, {file name: bytes}, notes)."""
    rng = random.Random(f"{seed}/{index}")
    route = rng.choice(sorted(ROUTES))
    if route in ("preprocess-nifti", "register-nifti"):
        data, notes = mutate_nifti(seed_files["a.nii"], rng)
        return route, {"v.nii": data}, notes
    if route == "evaluate-labels":
        data, notes = mutate_nifti(seed_files["labels_a.nii"], rng)
        return route, {"l.nii": data}, notes
    if route == "preprocess-raw":
        files, notes = mutate_sidecar(seed_files, "volume", rng)
        return route, files, notes
    if route == "evaluate-field":
        files, notes = mutate_sidecar(seed_files, "field", rng)
        return route, files, notes
    if route == "evaluate-landmarks":
        data, notes = mutate_landmarks(seed_files["landmarks_a.csv"].decode(), rng)
        return route, {"l.csv": data}, notes
    data, notes = mutate_config(rng)
    return route, {"c.json": data}, notes


# route: (argv with {case}, {pair} and {out} to fill in, the output it may leave)
ROUTES = {
    "preprocess-nifti": ("preprocess --input {case}/v.nii --output {out}/o.nii", "o.nii"),
    "register-nifti": ("register --source {case}/v.nii --target {pair}/b.nii "
                       "--config {pair}/one_step.json --out-dir {out}/reg", "reg"),
    "evaluate-labels": ("evaluate --labels-a {case}/l.nii --labels-b {pair}/labels_b.nii "
                        "--out {out}/r.json", "r.json"),
    "preprocess-raw": ("preprocess --input {case}/v.raw --output {out}/o.nii", "o.nii"),
    "evaluate-field": ("evaluate --field {case}/v.raw --labels-a {pair}/labels_a.nii "
                       "--labels-b {pair}/labels_b.nii --out {out}/r.json", "r.json"),
    "evaluate-landmarks": ("evaluate --field {pair}/truth_field.raw --landmarks-a {case}/l.csv "
                           "--landmarks-b {pair}/landmarks_b.csv --reference {pair}/a.nii "
                           "--out {out}/r.json", "r.json"),
    "register-config": ("register --source {pair}/a.nii --target {pair}/b.nii "
                        "--config {case}/c.json --out-dir {out}/reg", "reg"),
}


def call_main(argv: list[str]):
    """(exit code or None, stderr lines, the exception that escaped or None)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc, escaped = cli.main(argv), None
        except (Exception, SystemExit) as exc:  # any exception out of main breaks the contract
            rc, escaped = None, exc
    lines = err.getvalue().splitlines() + [f"warning: {w.message}" for w in caught]
    return rc, lines, escaped


def violation(rc, lines: list[str], escaped, left: bool) -> str | None:
    """What a case's outcome breaks of the contract, or None."""
    if escaped is not None:
        where = traceback.extract_tb(escaped.__traceback__)[-1]
        return (f"{type(escaped).__name__} escaped main at {Path(where.filename).name}:"
                f"{where.lineno}: {escaped}")
    if rc not in EXIT_CODES:
        return f"exit code {rc!r}"
    if rc != 0 and len(lines) != 1:
        return f"exit {rc} printed {len(lines)} stderr lines: {lines}"
    if rc != 0 and left:
        return f"exit {rc} left its output"
    return None


def prepare(workdir: Path) -> dict[str, bytes]:
    """Write the seed pair under ``workdir`` and return the seed files."""
    pair = workdir / "pair"
    for argv in (["synth", "--out-dir", str(pair), "--dims", "16"],
                 ["preprocess", "--input", str(pair / "a.nii"), "--output", str(pair / "volume.raw")]):
        rc, lines, escaped = call_main(argv)
        if rc != 0:
            raise RuntimeError(f"seed pair: {' '.join(argv)} failed: {escaped or lines}")
    (pair / "one_step.json").write_text(json.dumps({"optimizer": {"steps": 1}}))
    names = ("a.nii", "labels_a.nii", "landmarks_a.csv", "volume.json", "volume.raw")
    files = {name: (pair / name).read_bytes() for name in names}
    files.update({f"field{ext}": (pair / f"truth_field{ext}").read_bytes()
                  for ext in (".json", ".raw")})
    return files


def run(seed: int, cases: int, workdir) -> list[str]:
    """Run ``cases`` cases of ``seed`` under ``workdir``; one line per
    case that breaks the contract."""
    workdir = Path(workdir)
    seed_files = prepare(workdir)
    case_dir, out_dir = workdir / "case", workdir / "out"
    found = []
    for index in range(cases):
        route, files, notes = make_case(seed_files, seed, index)
        for path in (case_dir, out_dir):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir()
        for name, data in files.items():
            (case_dir / name).write_bytes(data)
        template, output = ROUTES[route]
        argv = [t.format(case=case_dir, pair=workdir / "pair", out=out_dir)
                for t in template.split()]
        rc, lines, escaped = call_main(argv)
        problem = violation(rc, lines, escaped, (out_dir / output).exists())
        if problem:
            found.append(f"case {index} ({route}; {'; '.join(notes)}): {problem}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="the seed of every case's mutations")
    parser.add_argument("--cases", type=int, default=2000, help="number of cases to run")
    args = parser.parse_args(argv)
    if args.cases < 1:
        parser.error("--cases must be >= 1")
    with tempfile.TemporaryDirectory() as workdir:
        found = run(args.seed, args.cases, workdir)
    for line in found:
        print(line)
    print(f"fuzz_cli: seed {args.seed}, {args.cases} cases, {len(found)} contract violations")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
