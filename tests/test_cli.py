"""CLI subcommands, exit codes, and the end-to-end synth/register/evaluate path."""

import ctypes
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deformreg
from deformreg import cli
from deformreg.cli import FOLD_LIMIT_PCT, config_hash, main
from deformreg.fileio import read_nifti, write_field_raw, write_nifti, write_volume_raw
from deformreg.metrics import evaluate_pair
from deformreg.pipeline import RegistrationResult, RunConfig
from deformreg.tensor import Tensor3, grid_coordinates
from deformreg.transforms import DisplacementField
from deformreg.volume import Volume


def write_test_volume(path, seed=0, n=16, modality="SYNTH-A", preprocessed=True,
                      lo=0.1, hi=0.9):
    rng = np.random.default_rng(seed)
    v = Volume(Tensor3(rng.uniform(lo, hi, (n, n, n))), modality=modality,
               preprocessed=preprocessed)
    write_nifti(v, path)
    return v


class TestRegister:
    def test_self_registration_defaults(self, tmp_path):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=1)
        rc = main(["register", "--source", str(src), "--target", str(src),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["percent_neg_jacobian"] == 0.0
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 1 + 51  # header + steps + initial
        assert (tmp_path / "out" / "phi_ab.raw").exists()
        assert (tmp_path / "out" / "phi_ba.json").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimzer": {"steps": 3}}))
        rc = main(["register", "--source", str(src), "--target", str(src),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "optimzer" in capsys.readouterr().err

    def test_missing_input_exits_3(self, tmp_path):
        rc = main(["register", "--source", str(tmp_path / "nope.nii"),
                   "--target", str(tmp_path / "nope.nii"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_out_dir_is_a_file_exits_3(self, tmp_path, capsys):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=2)
        rc = main(["register", "--source", str(src), "--target", str(src),
                   "--out-dir", str(src)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("I/O error:")

    def test_numerical_abort_exits_4(self, tmp_path):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"steps": 3, "lr": 2e185}}))
        rc = main(["register", "--source", str(src), "--target", str(src),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 4

    def test_tripped_domain_guard_exits_4(self, tmp_path, capsys):
        # with a tiny (valid) eps, a flat window's variance rounds below
        # zero after warping, and sqrt rejects its radicand
        rng = np.random.default_rng(0)
        for name, flat in (("SYNTH-A", 0.3), ("SYNTH-B", 0.7)):
            values = rng.uniform(0.2, 0.8, (16,) * 3)
            values[:8] = flat
            write_nifti(Volume(Tensor3(values), modality=name, preprocessed=True),
                        tmp_path / f"{name}.nii")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"similarity": {"eps": 1e-20}, "optimizer": {"steps": 2}}))
        out = tmp_path / "out"
        rc = main(["register", "--source", str(tmp_path / "SYNTH-A.nii"),
                   "--target", str(tmp_path / "SYNTH-B.nii"),
                   "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert err.startswith("numerical abort: sqrt: non-positive radicand")
        assert "optimization step" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (out / "phi_ab.raw").exists()


@pytest.fixture(scope="module")
def synth_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "pair"
    assert main(["synth", "--out-dir", str(out), "--dims", "16"]) == 0
    return out


class TestDivergedRun:
    """A map that folds more than FOLD_LIMIT_PCT of its voxels is a numerical abort."""

    # lr 1e11 blows the loss up to ~1e25; lr 0.1 lowers it while folding a third of the map
    @pytest.mark.parametrize("optimizer", [{"lr": 1e11}, {"lr": 0.1}], ids=["lr1e11", "lr0.1"])
    def test_folded_map_exits_4(self, synth_pair, tmp_path, capsys, optimizer):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": optimizer}))
        out = tmp_path / "out"
        rc = main(["register", "--source", str(synth_pair / "a.nii"),
                   "--target", str(synth_pair / "b.nii"),
                   "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert err.startswith("numerical abort: %|J|<0 = ")
        assert f"above the {FOLD_LIMIT_PCT:g} % limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, reason", [
        ({"optimizer": {"steps": 2, "lr": 1e308, "stage_damping": [2, 0.3, 0.1]}},
         "non-finite values"),
        ({"loss": {"lambda": 1e200}, "optimizer": {"steps": 3}}, "overflow")],
        ids=["update", "second_moment"])
    def test_non_finite_adam_step_exits_4(self, synth_pair, tmp_path, capsys, config, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = main(["register", "--source", str(synth_pair / "a.nii"),
                   "--target", str(synth_pair / "b.nii"),
                   "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert err.startswith(f"numerical abort: Adam update of ab0: {reason}")
        assert "optimization step" in err and err.count("\n") == 1
        assert not out.exists()

    def test_folded_phi_ba_exits_4(self, synth_pair, tmp_path, capsys, monkeypatch):
        # phi_ab is the identity and phi_ba mirrors x (|J| = -1 at every voxel)
        def optimize(source, target, loss, optimizer):
            dims = source.grid.dims
            mirror = grid_coordinates(dims).data * np.array([-2.0, 0.0, 0.0])
            return RegistrationResult(DisplacementField.identity(dims),
                                      DisplacementField(Tensor3(mirror)), [1.0, 0.5])

        monkeypatch.setattr(cli, "instance_optimize", optimize)
        out = tmp_path / "out"
        rc = main(["register", "--source", str(synth_pair / "a.nii"),
                   "--target", str(synth_pair / "b.nii"), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert err == (f"numerical abort: %|J|<0 = 100 of phi_ba is above the "
                       f"{FOLD_LIMIT_PCT:g} % limit; no field written\n")
        assert not out.exists()

    def test_default_config_exits_0(self, synth_pair, tmp_path):
        out = tmp_path / "out"
        rc = main(["register", "--source", str(synth_pair / "a.nii"),
                   "--target", str(synth_pair / "b.nii"), "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["percent_neg_jacobian"] <= FOLD_LIMIT_PCT
        assert (out / "phi_ab.raw").exists()


def load_fuzz_cli():
    spec = importlib.util.spec_from_file_location(
        "fuzz_cli", Path(__file__).resolve().parents[1] / "tools" / "fuzz_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestContractFuzz:
    """Seeded mutations of a 16^3 pair's files keep the exit-code contract."""

    def test_seeded_cases_keep_the_contract(self, tmp_path):
        # tools/fuzz_cli.py's generator: exit 0, 2, 3 or 4, nothing escapes
        # main, a failure prints one stderr line and leaves no output
        assert load_fuzz_cli().run(seed=0, cases=300, workdir=tmp_path) == []

    def test_header_fields_pinned(self):
        # read from fileio.HEADER_FIELDS; the seeded cases move if these do
        assert load_fuzz_cli().NIFTI_FIELDS == {
            "sizeof_hdr": (0, "<i"), "datatype": (70, "<h"), "bitpix": (72, "<h"),
            "vox_offset": (108, "<f"), "magic": (344, "<4s"), "descrip": (148, "<80s"),
            "dim[0]": (40, "<h"), "dim[1]": (42, "<h"), "dim[2]": (44, "<h"),
            "dim[3]": (46, "<h"), "dim[4]": (48, "<h"), "dim[5]": (50, "<h"),
            "dim[6]": (52, "<h"), "dim[7]": (54, "<h"),
            "pixdim[0]": (76, "<f"), "pixdim[1]": (80, "<f"), "pixdim[2]": (84, "<f"),
            "pixdim[3]": (88, "<f"),
            "qoffset[0]": (268, "<f"), "qoffset[1]": (272, "<f"), "qoffset[2]": (276, "<f")}


class TestOutOfMemory:
    """An allocation the machine cannot make is exit 3 with one stderr line."""

    MESSAGE = "Unable to allocate 7.27 TiB for an array with shape (5000, 5000, 5000)"

    def fail(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    def test_synth_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_phantom", self.fail)
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--dims", "5000"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err == f"out of memory: {self.MESSAGE}\n"
        assert not out.exists()

    def test_register_exits_3(self, synth_pair, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "instance_optimize", self.fail)
        out = tmp_path / "out"
        rc = main(["register", "--source", str(synth_pair / "a.nii"),
                   "--target", str(synth_pair / "b.nii"), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err == f"out of memory: {self.MESSAGE}\n"
        assert not out.exists()


# every exception class the package defines, with the exit code main gives
# it and the prefix of its one stderr line; TapeError reaches main only
# wrapped in NumericalAbort (see TestRegister.test_tripped_domain_guard_exits_4)
EXIT_OF_ERROR = {
    "ConfigError": (2, "config error"),
    "AmplitudeError": (2, "config error"),
    "TensorError": (2, "config error"),
    "FormatError": (3, "I/O error"),
    "UnsupportedError": (3, "I/O error"),
    "NumericalAbort": (4, "numerical abort"),
    "TapeError": None,
}


def package_errors() -> dict[str, type]:
    """Each exception class defined in a deformreg module, by name."""
    found = {}
    for info in pkgutil.iter_modules(deformreg.__path__):
        module = importlib.import_module(f"deformreg.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


class TestExitCodeOfEachError:
    def test_table_lists_every_error_class(self):
        assert set(package_errors()) == set(EXIT_OF_ERROR)

    @pytest.mark.parametrize("name", sorted(k for k, v in EXIT_OF_ERROR.items() if v))
    def test_main_maps_the_class(self, name, tmp_path, capsys, monkeypatch):
        error = package_errors()[name]
        args = {"AmplitudeError": ("bad amplitude", 0.1), "NumericalAbort": (3, "bad step")}

        def fail(_):
            raise error(*args.get(name, ("bad input",)))

        monkeypatch.setattr(cli, "cmd_preprocess", fail)
        rc = main(["preprocess", "--input", str(tmp_path / "in.nii"),
                   "--output", str(tmp_path / "out.nii")])
        err = capsys.readouterr().err
        code, prefix = EXIT_OF_ERROR[name]
        assert rc == code, err
        assert err.startswith(prefix + ": ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err


# (config file content, text the error must name)
BAD_CONFIGS = {
    "steps-string": ({"optimizer": {"steps": "3"}}, "steps"),
    "steps-fraction": ({"optimizer": {"steps": 2.5}}, "steps"),
    "steps-negative": ({"optimizer": {"steps": -1}}, "steps"),
    "steps-bool": ({"optimizer": {"steps": True}}, "steps"),
    "lr-negative": ({"optimizer": {"lr": -1}}, "lr"),
    "lr-beyond-float": ({"optimizer": {"lr": 10**400}}, "lr"),
    # Adam's moment rates and guard are constants, not keys
    "beta1-above-1": ({"optimizer": {"beta1": 2.0}}, "unknown config key: config.optimizer.beta1"),
    "damping-string": ({"optimizer": {"stage_damping": "abcd"}}, "stage_damping"),
    "damping-negative": ({"optimizer": {"stage_damping": [1.0, -0.3, 0.1]}}, "stage_damping"),
    "damping-four-factors": ({"optimizer": {"stage_damping": [1.0, 0.3, 0.1, 0.1]}},
                             "stage_damping"),
    "lambda-string": ({"loss": {"lambda": "1.5"}}, "lambda"),
    "window-string": ({"similarity": {"window_radius": "2"}}, "window_radius"),
    "strategy-number": ({"strategy": 5}, "strategy"),
    "top-level-list": ([1, 2], "JSON object"),
    # the remaining fields and rules of the schema
    "beta2-one": ({"optimizer": {"beta2": 1.0}}, "unknown config key: config.optimizer.beta2"),
    "adam-eps-removed": ({"optimizer": {"eps": 1e-8}}, "unknown config key: config.optimizer.eps"),
    "lr-scale-removed": ({"optimizer": {"lr_scale": 100.0}}, "unknown config key"),
    "lambda-negative": ({"loss": {"lambda": -0.5}}, "lambda"),
    "regularizer-removed": ({"loss": {"use_regularizer": True}},
                            "unknown config key: config.loss.use_regularizer"),
    "kind-unknown": ({"similarity": {"kind": "NCC"}}, "kind"),
    "eps-nan": ({"similarity": {"eps": float("nan")}}, "eps"),
    "mind-radius-zero": ({"similarity": {"mind_patch_radius": 0}}, "mind_patch_radius"),
    "section-not-object": ({"optimizer": 3}, "config.optimizer"),
    "unknown-inner-key": ({"optimizer": {"stepz": 3}}, "config.optimizer.stepz"),
}


class TestConfigContract:
    # the ids name the command; register is the one that reads a config
    @pytest.mark.parametrize("name", BAD_CONFIGS, ids=[f"{n}-register" for n in BAD_CONFIGS])
    def test_bad_config_exits_2(self, tmp_path, capsys, name):
        config, key = BAD_CONFIGS[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=2)
        rc = main(["register", "--source", str(src), "--target", str(src),
                   "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    def test_config_hash_pinned(self):
        # reports are compared by this hash, so it moves only with the
        # schema: the default config and the three benchmark configs
        pinned = {
            "543022d0c463bd9f": {},
            "62e54ae575a7615e": {"similarity": {"kind": "LNCC2"}, "optimizer": {"steps": 10}},
            "c07356b85e6df714": {"similarity": {"kind": "MIND_SSC"}, "optimizer": {"steps": 10}},
            "a386229fa6d9ff56": {"similarity": {"kind": "LNCC2"}, "optimizer": {"steps": 6}},
        }
        for digest, overrides in pinned.items():
            assert config_hash(RunConfig.from_dict(overrides).to_dict()) == digest

    def test_readme_defaults_match_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"defaults[^`]*```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(block) == RunConfig().to_dict()


def _nan_voxel(tmp_path):
    path = tmp_path / "nan.nii"
    write_test_volume(path, seed=4)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 352 + 4 * 5, float("nan"))
    path.write_bytes(bytes(raw))
    return ["register", "--source", str(path), "--target", str(path)]


def _bad_landmarks(text):
    """Evaluate with both landmark files holding ``text``."""
    def make(tmp_path):
        ref, lm = tmp_path / "ref.nii", tmp_path / "lm.csv"
        write_test_volume(ref, seed=5)
        lm.write_text(text)
        return ["evaluate", "--reference", str(ref), "--landmarks-a", str(lm),
                "--landmarks-b", str(lm)]
    return make


def _bad_header_geometry(tmp_path):
    ref, lm = tmp_path / "ref.nii", tmp_path / "lm.csv"
    write_test_volume(ref, seed=6)
    raw = bytearray(ref.read_bytes())
    struct.pack_into("<f", raw, 80, float("inf"))  # pixdim[1]
    struct.pack_into("<f", raw, 268, float("nan"))  # qoffset[0]
    ref.write_bytes(bytes(raw))
    lm.write_text("1,2,3\n")
    return ["evaluate", "--reference", str(ref), "--landmarks-a", str(lm),
            "--landmarks-b", str(lm)]


def _unknown_descrip_modality(tmp_path):
    path = tmp_path / "v.nii"
    write_test_volume(path, seed=7)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<80s", raw, 148, b"modality=FOO;preprocessed=1")
    path.write_bytes(bytes(raw))
    return ["preprocess", "--input", str(path)]


def _bad_sidecar(sidecar):
    """A field's sidecar replaced by the text ``sidecar``, or a volume's
    sidecar with the keys of the dict ``sidecar`` overwritten."""
    def make(tmp_path):
        if isinstance(sidecar, str):
            write_field_raw(np.zeros((16, 16, 16, 3)), tmp_path / "f")
            (tmp_path / "f.json").write_text(sidecar)
            return ["evaluate", "--field", str(tmp_path / "f")]
        write_volume_raw(Volume(Tensor3(np.full((8, 8, 8), 0.5)), modality="SYNTH-A"),
                         tmp_path / "v")
        meta = json.loads((tmp_path / "v.json").read_text())
        (tmp_path / "v.json").write_text(json.dumps({**meta, **sidecar}))
        return ["preprocess", "--input", str(tmp_path / "v.raw")]
    return make


def _bad_vox_offset(value):
    """Preprocess a volume whose header's vox_offset reads ``value``."""
    def make(tmp_path):
        path = tmp_path / "v.nii"
        write_test_volume(path, seed=8)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, value)
        path.write_bytes(bytes(raw))
        return ["preprocess", "--input", str(path)]
    return make


def _bad_label(value):
    """Evaluate with a float32 label file holding ``value`` at one voxel."""
    def make(tmp_path):
        labels = np.zeros((16, 16, 16))
        labels[3, 4, 5] = value
        path = tmp_path / "labels.nii"
        write_nifti(Volume(Tensor3(labels), modality="SYNTH-A"), path)
        return ["evaluate", "--labels-a", str(path), "--labels-b", str(path)]
    return make


def _bad_label_header(corrupt):
    """Evaluate with a good first label file and a second one whose bytes
    ``corrupt`` maps to new ones; returns the argv and the bad file."""
    def make(tmp_path):
        good, bad = tmp_path / "labels_a.nii", tmp_path / "labels_b.nii"
        for path in (good, bad):
            write_nifti(Volume(Tensor3(np.zeros((8, 8, 8))), modality="SYNTH-A"), path)
        bad.write_bytes(bytes(corrupt(bytearray(bad.read_bytes()))))
        return ["evaluate", "--labels-a", str(good), "--labels-b", str(bad)], bad
    return make


def _packed(*fields):
    """A corruption that packs each (format, offset, value) into the header."""
    def corrupt(raw):
        for fmt, offset, value in fields:
            struct.pack_into(fmt, raw, offset, value)
        return raw
    return corrupt


def _bad_raw(kind, corrupt):
    """A raw volume (read by preprocess) or field (read by evaluate --field)
    of which ``corrupt(tmp_path)`` damages a file and returns it."""
    def make(tmp_path):
        if kind == "volume":
            write_volume_raw(Volume(Tensor3(np.full((8, 8, 8), 0.5)), modality="SYNTH-A"),
                             tmp_path / "v")
            argv = ["preprocess", "--input", str(tmp_path / "v.raw")]
        else:
            write_field_raw(np.zeros((8, 8, 8, 3)), tmp_path / "v")
            argv = ["evaluate", "--field", str(tmp_path / "v")]
        return argv, corrupt(tmp_path)
    return make


def _sidecar_key(key, value):
    def corrupt(tmp_path):
        sidecar = tmp_path / "v.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        return sidecar
    return corrupt


def _truncated_payload(tmp_path):
    payload = tmp_path / "v.raw"
    payload.write_bytes(payload.read_bytes()[:-8])
    return payload


# modality tags a NIfTI descrip cannot hold: not ASCII, over 55 characters,
# or holding a descrip separator
NIFTI_UNFIT_TAGS = ["SYNTH-\u00e9", "SYNTH-" + "x" * 70, "SYNTH-a;b", "SYNTH-a=b"]
NIFTI_UNFIT_IDS = ["non-ascii", "76-chars", "semicolon", "equals"]


class TestFormatErrorsExit3:
    @pytest.mark.parametrize("make_argv", [
        _nan_voxel, _bad_landmarks("1,2,3\n1,abc,3\n"), _bad_landmarks(""),
        _bad_landmarks("\n  \n"),
        _bad_header_geometry, _bad_sidecar("{bad"),
        _bad_sidecar('{"kind": "field", "dtype": "float32", "channels": 3}'),
        _bad_sidecar({"spacing": "abc"}), _bad_sidecar({"spacing": [1, 1]}),
        _bad_sidecar({"spacing": [1, float("nan"), 1]}),
        _bad_sidecar({"spacing": [1, 1, float("inf")]}), _bad_sidecar({"spacing": [1, 0, 1]}),
        _bad_sidecar({"origin": "xyz"}), _bad_sidecar({"origin": [0, float("nan"), 0]}),
        _bad_sidecar({"modality": 5}), _bad_sidecar({"modality": "FOO"}),
        _unknown_descrip_modality, _bad_sidecar({"preprocessed": "no"}),
        _bad_vox_offset(-100.0), _bad_vox_offset(float("nan")),
        _bad_vox_offset(float("inf")), _bad_vox_offset(0.0),
        _bad_label(-1.0), _bad_label(1e30),
        *(_bad_sidecar({"modality": tag}) for tag in NIFTI_UNFIT_TAGS),
    ], ids=["nan-voxel", "landmark-field", "landmarks-empty", "landmarks-blank",
            "header-geometry", "sidecar-not-json",
            "sidecar-no-dims", "sidecar-spacing-string", "sidecar-spacing-two",
            "sidecar-spacing-nan", "sidecar-spacing-inf", "sidecar-spacing-zero",
            "sidecar-origin-string", "sidecar-origin-nan", "sidecar-modality-number",
            "sidecar-modality-unknown", "nifti-modality-unknown",
            "sidecar-preprocessed-string", "vox-offset-negative", "vox-offset-nan",
            "vox-offset-inf", "vox-offset-zero", "label-negative", "label-huge",
            *(f"sidecar-modality-{name}" for name in NIFTI_UNFIT_IDS)])
    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr too
    def test_exits_3(self, tmp_path, capsys, make_argv):
        argv = make_argv(tmp_path)
        out = {"register": "--out-dir", "preprocess": "--output"}.get(argv[0], "--out")
        rc = main(argv + [out, str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("I/O error:") and "Traceback" not in err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make_case", [
        _bad_label_header(lambda raw: raw[:-10]), _bad_label_header(lambda raw: raw[:100]),
        _bad_label_header(_packed(("<i", 0, 100))),
        _bad_label_header(_packed(("<4s", 344, b"xyz\0"))),
        _bad_label_header(_packed(("<h", 40, 2))),
        _bad_label_header(_packed(("<h", 40, 4), ("<h", 48, 2))),
        _bad_label_header(_packed(("<h", 42, 0))),
        _bad_label_header(_packed(("<h", 70, 64))),
        _bad_raw("volume", _sidecar_key("dtype", "float64")),
        _bad_raw("volume", _truncated_payload),
        _bad_raw("volume", _sidecar_key("kind", "field")),
        _bad_raw("field", _sidecar_key("kind", "volume")),
    ], ids=["nifti-truncated", "nifti-short", "nifti-sizeof-hdr", "nifti-magic",
            "nifti-two-dims", "nifti-non-scalar", "nifti-zero-dim", "nifti-datatype",
            "raw-dtype", "raw-payload-size", "raw-volume-kind", "raw-field-kind"])
    def test_names_the_bad_file(self, tmp_path, capsys, make_case):
        argv, bad = make_case(tmp_path)
        out = "--output" if argv[0] == "preprocess" else "--out"
        rc = main(argv + [out, str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith(f"I/O error: {bad}: "), err

    def test_raw_payload_of_no_whole_value_count_exits_3(self, tmp_path, capsys):
        # 1,001 bytes are no whole number of float32 values: the reader
        # checks the byte length before it decodes a value
        write_test_volume(tmp_path / "v.nii", seed=6)
        assert main(["preprocess", "--input", str(tmp_path / "v.nii"),
                     "--output", str(tmp_path / "v.raw")]) == 0
        payload = tmp_path / "v.raw"
        payload.write_bytes(payload.read_bytes()[:1001])
        capsys.readouterr()
        rc = main(["preprocess", "--input", str(payload), "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith(f"I/O error: {payload}: ") and err.count("\n") == 1, err
        assert not list(tmp_path.glob("out*"))


class TestSynthRegisterEvaluate:
    def test_end_to_end_beats_identity(self, tmp_path):
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--seed", "7", "--dims", "16",
                   "--structures", "2", "--remap-b", "invert",
                   "--amplitude-voxels", "1.2"])
        assert rc == 0
        for name in ("a.nii", "b.nii", "labels_a.nii", "labels_b.nii",
                     "landmarks_a.csv", "landmarks_b.csv", "truth_field.raw", "meta.json"):
            assert (out / name).exists()

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"steps": 80}}))
        reg = tmp_path / "reg"
        rc = main(["register", "--source", str(out / "a.nii"),
                   "--target", str(out / "b.nii"),
                   "--config", str(cfg), "--out-dir", str(reg)])
        assert rc == 0

        rc = main(["evaluate", "--field", str(reg / "phi_ab"),
                   "--labels-a", str(out / "labels_a.nii"),
                   "--labels-b", str(out / "labels_b.nii"),
                   "--landmarks-a", str(out / "landmarks_a.csv"),
                   "--landmarks-b", str(out / "landmarks_b.csv"),
                   "--reference", str(out / "a.nii"),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 0
        registered = json.loads((tmp_path / "report.json").read_text())

        rc = main(["evaluate",
                   "--labels-a", str(out / "labels_a.nii"),
                   "--labels-b", str(out / "labels_b.nii"),
                   "--landmarks-a", str(out / "landmarks_a.csv"),
                   "--landmarks-b", str(out / "landmarks_b.csv"),
                   "--reference", str(out / "a.nii"),
                   "--out", str(tmp_path / "identity.json")])
        assert rc == 0
        identity = json.loads((tmp_path / "identity.json").read_text())

        assert registered["mtre_mm"] < identity["mtre_mm"]

    @pytest.mark.parametrize("flag", ["--remap-a", "--remap-b"])
    @pytest.mark.parametrize("kind", ["gamma", "piecewise"])
    def test_unknown_remap_exits_2(self, tmp_path, capsys, flag, kind):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", str(tmp_path / "pair"), "--dims", "16", flag, kind])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "pair").exists()

    def test_sigmoid_remap_writes_a_pair(self, tmp_path):
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--dims", "16", "--structures", "2",
                   "--remap-b", "sigmoid"])
        assert rc == 0
        assert (out / "a.nii").read_bytes() != (out / "b.nii").read_bytes()

    @pytest.mark.parametrize("amplitude", ["-100", "nan"])
    def test_amplitude_outside_bound_exits_2(self, tmp_path, capsys, amplitude):
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--seed", "5", "--dims", "16",
                   "--amplitude-voxels", amplitude])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and "bound" in err
        assert f"{amplitude} is not within +/-3.705 voxels" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_without_bumps_exits_2(self, tmp_path, capsys, amplitude):
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--dims", "16", "--bumps", "0",
                   "--amplitude-voxels", amplitude])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and "amplitude must be a finite number" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "pair"
        rc = main(["synth", "--out-dir", str(out), "--seed", "-1", "--dims", "16"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and "seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_meta_lists_its_options(self, tmp_path):
        out = tmp_path / "pair"
        assert main(["synth", "--out-dir", str(out), "--dims", "16", "--seed", "5"]) == 0
        meta = {"seed": 5, "dims": [16, 16, 16], "structures": 4, "remap_a": "identity",
                "remap_b": "invert", "amplitude_voxels": 2.0, "bumps": 2}
        assert (out / "meta.json").read_text() == json.dumps(meta, indent=1, sort_keys=True)

    def test_evaluate_hashes_its_inputs(self, synth_pair, tmp_path, monkeypatch):
        # every input but --out and --pair-id, the paths as given
        hashes = []

        def evaluate(*args, **kwargs):
            hashes.append(kwargs["config_hash"])
            return evaluate_pair(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_pair", evaluate)
        field = str(synth_pair / "truth_field.raw")
        labels_a, labels_b = str(synth_pair / "labels_a.nii"), str(synth_pair / "labels_b.nii")
        out = tmp_path / "r.json"
        assert main(["evaluate", "--field", field, "--labels-a", labels_a, "--labels-b", labels_b,
                     "--pair-id", "p", "--out", str(out)]) == 0
        invocation = {"command": "evaluate", "field": field, "labels_a": labels_a,
                      "labels_b": labels_b, "landmarks_a": None, "landmarks_b": None,
                      "reference": None}
        assert hashes == [config_hash(invocation)]
        assert json.loads(out.read_text())["config_hash"] == hashes[0]

    def test_evaluate_identity_on_identical_labels(self, tmp_path):
        out = tmp_path / "pair"
        main(["synth", "--out-dir", str(out), "--seed", "5", "--dims", "16",
              "--structures", "1", "--amplitude-voxels", "0"])
        rc = main(["evaluate",
                   "--labels-a", str(out / "labels_a.nii"),
                   "--labels-b", str(out / "labels_b.nii"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["mean_dice"] == 100.0


class TestPreprocess:
    def test_ct_clip_range(self, tmp_path, capsys):
        src = tmp_path / "raw.nii"
        write_test_volume(src, seed=6, modality="CT", preprocessed=False,
                          lo=-2000.0, hi=2000.0)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "out.nii")])
        assert rc == 0
        from deformreg.fileio import read_nifti

        out = read_nifti(tmp_path / "out.nii")
        assert out.values().min() == 0.0
        assert out.values().max() == 1.0
        assert out.preprocessed

    def test_raw_output_named_with_its_suffix_reads_back(self, tmp_path, capsys):
        src = tmp_path / "raw.nii"
        write_test_volume(src, seed=6, modality="CT", preprocessed=False,
                          lo=-2000.0, hi=2000.0)
        out = tmp_path / "v.raw"
        assert main(["preprocess", "--input", str(src), "--output", str(out)]) == 0
        assert f"wrote {out} " in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.nii", "v.json", "v.raw"]
        assert main(["preprocess", "--input", str(out), "--output", str(tmp_path / "w")]) == 0
        assert f"wrote {tmp_path / 'w.raw'} " in capsys.readouterr().out

    @pytest.mark.parametrize("tag", NIFTI_UNFIT_TAGS, ids=NIFTI_UNFIT_IDS)
    def test_modality_argument_nifti_cannot_hold_exits_2(self, tmp_path, capsys, tag):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=6, modality="CT", preprocessed=False)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "x.nii"),
                   "--modality", tag])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "x.nii").exists()

    def test_unknown_modality_argument_exits_2(self, tmp_path, capsys):
        src = tmp_path / "raw.nii"
        write_test_volume(src, seed=6, modality="CT", preprocessed=False)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "out.nii"),
                   "--modality", "FOO"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and "'FOO'" in err


def _foo_tagged_ct(tmp_path, suffix):
    """A CT volume in HU whose file carries the unknown modality tag FOO:
    in the NIfTI descrip or in the raw sidecar."""
    v = write_test_volume(tmp_path / "v.nii", seed=9, modality="CT", preprocessed=False,
                          lo=-2000.0, hi=2000.0)
    path = tmp_path / f"v{suffix}"
    if suffix == ".nii":
        raw = bytearray(path.read_bytes())
        struct.pack_into("<80s", raw, 148, b"modality=FOO;preprocessed=0")
        path.write_bytes(bytes(raw))
    else:
        write_volume_raw(v, tmp_path / "v")
        meta = json.loads((tmp_path / "v.json").read_text())
        (tmp_path / "v.json").write_text(json.dumps({**meta, "modality": "FOO"}))
    return path


class TestModalityOverride:
    """``preprocess --modality`` replaces an unknown tag read from the file."""

    @pytest.mark.parametrize("suffix", [".nii", ".raw"])
    def test_ct_override_preprocesses_as_ct(self, tmp_path, capsys, suffix):
        src = _foo_tagged_ct(tmp_path, suffix)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "out.nii"),
                   "--modality", "CT"])
        assert rc == 0, capsys.readouterr().err
        out = read_nifti(tmp_path / "out.nii")
        assert out.modality == "CT" and out.preprocessed
        assert out.values().min() == 0.0 and out.values().max() == 1.0

    @pytest.mark.parametrize("suffix", [".nii", ".raw"])
    def test_without_override_exits_3(self, tmp_path, capsys, suffix):
        src = _foo_tagged_ct(tmp_path, suffix)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "out.nii")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("I/O error:") and "'FOO'" in err

    @pytest.mark.parametrize("suffix", [".nii", ".raw"])
    def test_unknown_override_exits_2(self, tmp_path, capsys, suffix):
        src = _foo_tagged_ct(tmp_path, suffix)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "out.nii"),
                   "--modality", "FOO"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error:") and "'FOO'" in err


class TestModalityRuleMessage:
    """A tag refused for its form says what the rule is, wherever it is read."""

    RULE = ("is neither a CT or MR family name nor SYNTH followed by printable ASCII "
            "other than space, ';' and '=', 55 characters in all at most")
    TAG = "SYNTH-" + "x" * 70

    def test_modality_argument_exits_2(self, tmp_path, capsys):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=6, modality="CT", preprocessed=False)
        rc = main(["preprocess", "--input", str(src), "--output", str(tmp_path / "x.nii"),
                   "--modality", self.TAG])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err == f"config error: modality tag {self.TAG!r} {self.RULE}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.nii"]

    def test_raw_sidecar_exits_3(self, tmp_path, capsys):
        argv = _bad_sidecar({"modality": self.TAG})(tmp_path)
        rc = main(argv + ["--output", str(tmp_path / "x.nii")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err == f"I/O error: {tmp_path / 'v.json'}: modality tag {self.TAG!r} {self.RULE}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]

    def test_nifti_descrip_exits_3(self, tmp_path, capsys):
        argv = _unknown_descrip_modality(tmp_path)
        rc = main(argv + ["--output", str(tmp_path / "x.nii")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err == f"I/O error: {tmp_path / 'v.nii'}: descrip modality tag 'FOO' {self.RULE}\n"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        src = tmp_path / "v.nii"
        write_test_volume(src, seed=8, modality="CT", preprocessed=False, lo=-500, hi=500)
        # the subprocess imports the same deformreg as this test, installed or not
        env = dict(os.environ)
        src_dir = str(Path(deformreg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "deformreg.cli", "preprocess",
             "--input", str(src), "--output", str(tmp_path / "o.nii")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "preprocess" in proc.stdout


def _libc_loads() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


# one warm-up round, then 20 rounds that each allocate and free two 3 MiB arrays
_FAULT_ROUNDS = """
import resource
import numpy as np
from deformreg import cli
cli._keep_heap_resident()
for k in range(21):
    if k == 1:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(3 << 17)
    b = a + 1.0
    del a, b
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_loads(), reason="glibc cannot be loaded")
def test_heap_helper_keeps_freed_arrays_resident():
    # without the helper each round faults its 6 MiB in again: about 30,000
    env = dict(os.environ)
    src_dir = str(Path(deformreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAULT_ROUNDS], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) < 2000, proc.stdout
