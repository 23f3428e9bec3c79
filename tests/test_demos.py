"""Every demo script and tool runs to completion against this checkout."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deformreg
from deformreg.tape import Tape

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_process(script, cwd, argv=(), **env_extra):
    # the subprocess imports the same deformreg as this test, installed or not
    env = dict(os.environ, **env_extra)
    src_dir = str(Path(deformreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=600)


def run_script(script, cwd, argv=(), **env_extra):
    proc = run_process(script, cwd, argv, **env_extra)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc.stdout


def test_demos_found():
    # the README's demo table names exactly the scripts in demos/
    section = (ROOT / "README.md").read_text().split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+\.py)` \|", section, flags=re.M)
    assert DEMOS and listed == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # temporary files the demo makes land in tmp, which it must empty
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    run_script(demo, tmp_path, TMPDIR=str(tmp))
    assert not any(tmp.iterdir())


@pytest.fixture(scope="module")
def trace_digest(tmp_path_factory):
    """The directory of trace_digest's four runs and the output of each:
    ``--save plain.npz`` (which prints what a run without it prints),
    ``--save memory.npz --memory``, ``--compare plain.npz``, and
    ``--compare partial.npz --memory``, where partial.npz is memory.npz
    without the last run's peak (as a file saved without --memory)."""
    d = tmp_path_factory.mktemp("trace_digest")
    script = ROOT / "tools" / "trace_digest.py"
    out = {"plain": run_script(script, d, argv=["--save", "plain.npz"]),
           "memory": run_script(script, d, argv=["--save", "memory.npz", "--memory"])}
    with np.load(d / "memory.npz") as stored:
        np.savez(d / "partial.npz",
                 **{key: stored[key] for key in stored.files if key != "21^3 MSE 6 steps peak"})
    out["compare"] = run_script(script, d, argv=["--compare", "plain.npz"])
    out["compare memory"] = run_script(script, d, argv=["--compare", "partial.npz", "--memory"])
    return d, out


def test_trace_digest_prints_six_digests(trace_digest):
    _, outs = trace_digest
    out = outs["plain"]
    assert len(re.findall(r": [0-9a-f]{16}$", out, flags=re.M)) == 6, out


def test_trace_digest_memory_adds_a_peak_and_leaves_the_digests(trace_digest):
    _, outs = trace_digest
    plain = re.findall(r": ([0-9a-f]{16})$", outs["plain"], flags=re.M)
    out = outs["memory"]
    runs = re.findall(r": ([0-9a-f]{16})  two-step peak (\d+\.\d\d) MB in \w+ (?:forward|vjp)$",
                      out, flags=re.M)
    assert [digest for digest, _ in runs] == plain and len(plain) == 6, out
    assert all(float(peak) > 0 for _, peak in runs), out


def test_trace_digest_memory_saves_and_compares_the_peaks(trace_digest):
    d, outs = trace_digest
    saved = outs["memory"]
    peaks = re.findall(r"two-step peak (\d+\.\d\d) MB in \w+ (?:forward|vjp)$", saved, flags=re.M)
    with np.load(d / "memory.npz") as stored:
        assert len(stored.files) == 24 and len(peaks) == 6
        kept = {key: stored[key] for key in stored.files if key != "21^3 MSE 6 steps peak"}
        assert [f"{float(kept[key]):.2f}" for key in kept if key.endswith(" peak")] == peaks[:5]
    # compared with partial.npz, which stores no peak for the last run
    out = outs["compare memory"]
    lines = out.splitlines()
    site = r" MB in \w+ (?:forward|vjp) "
    for line, peak in zip(lines[:5], peaks):
        assert re.search(f"two-step peak {peak}{site}\\(stored {peak} MB\\)$", line), out
    assert re.search(f"two-step peak {peaks[5]}{site}\\(none stored\\)$", lines[5]), out


def test_trace_digest_compare_to_own_save_reads_zero(trace_digest):
    d, outs = trace_digest
    with np.load(d / "plain.npz") as stored:
        assert len(stored.files) == 18
        assert all(stored[key].size for key in stored.files)
        assert stored["32^3 LNCC2 6 steps phi_ab"].shape == (32, 32, 32, 3)
    out = outs["compare"]
    zero = "trace abs 0 rel 0, phi_ab abs 0, phi_ba abs 0"
    lines = out.splitlines()
    assert all(line.endswith(f"  deviation {zero}") for line in lines[:6]), out
    assert lines[6:] == [f"largest deviation: {zero}"], out


def kernel_rows(tmp_path, side):
    """The names of kernel_times' rows with a vjp, then of those without."""
    out = run_script(ROOT / "tools" / "kernel_times.py", tmp_path,
                     argv=["--side", str(side), "--repeats", "1"])
    with_vjp = re.findall(r"^(trilinear C=\d|upsample_sum|mind_ssc_loss|lncc_map|consistency|"
                          r"box_mean \w+) .* vjp +\d+\.\d\d", out, flags=re.M)
    forward = re.findall(r"^(adam|phantom noise|make_phantom) +forward +\d+\.\d\d$",
                         out, flags=re.M)
    return with_vjp, forward, out


def test_kernel_times_prints_each_kernel(tmp_path):
    rows, forward, out = kernel_rows(tmp_path, 8)
    assert rows == ["trilinear C=1", "trilinear C=3", "trilinear C=4", "upsample_sum",
                    "mind_ssc_loss", "lncc_map", "consistency", "box_mean LNCC"], out
    # Adam's step is timed alone, the phantom is not differentiated: their
    # rows have a forward only, and the whole phantom's row starts at its
    # smallest side, 16
    assert forward == ["adam", "phantom noise"], out


def test_kernel_times_prints_the_phantom_from_side_16(tmp_path):
    rows, forward, out = kernel_rows(tmp_path, 16)
    assert len(rows) == 8, out
    assert forward == ["adam", "phantom noise", "make_phantom"], out


def test_kernel_times_rejects_a_side_below_the_smallest_model(tmp_path):
    # the adam row's build_model needs 8 nodes per axis
    proc = run_process(ROOT / "tools" / "kernel_times.py", tmp_path, argv=["--side", "7"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: kernel_times.py"), proc.stderr
    assert "--side must be >= 8" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_fuzz_cli_prints_its_summary(tmp_path):
    # its own temporary directory, which it removes; tmp stays empty
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = run_script(ROOT / "tools" / "fuzz_cli.py", tmp_path,
                     argv=["--seed", "2", "--cases", "20"], TMPDIR=str(tmp))
    assert out.splitlines() == ["fuzz_cli: seed 2, 20 cases, 0 contract violations"], out
    assert not any(tmp.iterdir())


def test_peak_rss_prints_each_fresh_run(tmp_path):
    # its own temporary directory, which it removes; tmp stays empty
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = run_script(ROOT / "tools" / "peak_rss.py", tmp_path, argv=["--dims", "16"],
                     TMPDIR=str(tmp))
    runs = re.findall(r"^(synth|register LNCC2|register MIND_SSC) +peak +(\d+\.\d) MB"
                      r"  wall +\d+\.\d\d s$", out, flags=re.M)
    assert [name for name, _ in runs] == ["synth", "register LNCC2", "register MIND_SSC"], out
    assert all(float(peak) > 0 for _, peak in runs), out
    assert not any(tmp.iterdir())


def test_cli_digest_lists_each_output_the_same_twice(tmp_path):
    # two runs into one directory: the same files, the same bits
    script, d = ROOT / "tools" / "cli_digest.py", tmp_path / "d"
    first = run_script(script, tmp_path, argv=[str(d)])
    shutil.rmtree(d)
    assert run_script(script, tmp_path, argv=[str(d)]) == first
    listed = re.findall(r"^[0-9a-f]{64}  (\S+)$", first, flags=re.M)
    assert len(listed) == len(first.splitlines()) == 21, first
    assert {"pair/meta.json", "reg/report.json", "evaluate_field.json", "evaluate_identity.json",
            "preprocessed.nii", "preprocessed.raw"} <= set(listed), first


def load_trace_digest():
    spec = importlib.util.spec_from_file_location("trace_digest", ROOT / "tools" / "trace_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_digest_compare_checks_the_archive_before_registering(tmp_path, monkeypatch):
    module = load_trace_digest()
    registered = []
    monkeypatch.setattr(module, "register", lambda *run: registered.append(run))
    archive = tmp_path / "one.npz"
    np.savez(archive, **{"32^3 LNCC2 6 steps trace": np.zeros(7)})
    with pytest.raises(SystemExit, match=r"one\.npz: no '32\^3 LNCC2 6 steps phi_ab' array"):
        module.main(["--compare", str(archive)])
    assert registered == []


def test_trace_digest_save_checks_the_path_before_registering(tmp_path, monkeypatch):
    module = load_trace_digest()
    registered = []
    monkeypatch.setattr(module, "register", lambda *run: registered.append(run))
    with pytest.raises(SystemExit, match=r"x\.npz: no such directory to save the archive in"):
        module.main(["--save", str(tmp_path / "no_such_dir" / "x.npz")])
    assert registered == []


@pytest.mark.parametrize("kind", ["LNCC2", "MIND_SSC"])
def test_trace_digest_peak_site_is_an_op_the_tape_records(kind, monkeypatch):
    # the site's op is one that the same two-step registration records, and
    # the site's run puts the package's Tape._append back
    module = load_trace_digest()
    append = vars(Tape)["_append"]
    a, b = module.pair(19)
    op, phase = module.peak_site(a, b, kind).rsplit(" ", 1)
    assert vars(Tape)["_append"] is append
    recorded = set()

    def collect(tape, name, *rest):
        recorded.add(name)
        return append(tape, name, *rest)

    monkeypatch.setattr(Tape, "_append", collect)
    module.register(a, b, kind, 2)
    assert phase in ("forward", "vjp") and op in recorded, (op, phase, recorded)


def test_trace_digest_deviation():
    module = load_trace_digest()
    deviation = module.deviation
    assert deviation([1.0, -2.0, 0.5], [1.0, -2.5, 0.25]) == (0.5, 1.0)
    assert deviation([3.0], [3.0]) == (0.0, 0.0)
    with pytest.raises(SystemExit, match="trace length 2 differs from the stored 3"):
        deviation([1.0, 2.0], [1.0, 2.0, 3.0])
    field_deviation = module.field_deviation
    field = np.zeros((2, 3, 4, 3))
    moved = field.copy()
    moved[1, 2, 3, 0] = -0.25
    assert field_deviation(moved, field) == 0.25
    assert field_deviation(field, field) == 0.0
    with pytest.raises(SystemExit, match=r"field shape \(2, 3, 4, 3\) differs"):
        field_deviation(field, np.zeros((2, 3, 5, 3)))
