"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The registration experiments (A3, A4, A7) share one 32-cube phantom with
a fold-free ground-truth deformation of about 2.4 voxels amplitude and
run 200 optimization steps each; they are the slow part of the suite.
Their fixtures take the CLI's process set-up and run two registrations
at a time, on two threads.
The MIND-SSC registration check runs 50 steps on the A3 pair.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from deformreg.cli import _keep_heap_resident
from deformreg.fileio import (
    read_field_raw,
    read_landmarks_csv,
    read_nifti,
    write_field_raw,
    write_landmarks_csv,
    write_nifti,
)
from deformreg.losses import (
    LossConfig,
    gradient_inverse_consistency,
    gradient_inverse_consistency_nodes,
)
from deformreg.metrics import mtre
from deformreg.pipeline import BoundPyramid, OptimizerConfig, build_model, instance_optimize
from deformreg.similarity import (
    SimilarityConfig,
    fixed_side,
    lncc_map,
    loss_similarity_nodes,
    mind_ssc_descriptor,
)
from deformreg.synthetic import ModalityRemap, make_deformation, make_phantom, render_pair
from deformreg.tape import Tape, grad_check
from deformreg.tensor import Tensor3, grid_coordinates
from deformreg.transforms import (
    DisplacementField,
    compose,
    jacobian_det_map,
    percent_neg_jac,
    warp_nodes,
)
from deformreg.volume import LandmarkSet, Volume, preprocess

from tests_helpers_interp import lerp3
from test_similarity import lncc_brute_force, mind_brute_force
from test_volume_io import sort_percentile_oracle


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- shared registration experiment (A3 / A4 / A7) -----------------------------

DIMS = (32, 32, 32)
PHANTOM_SEED = 7
DEFO_SEED = 9
AMPLITUDE_VOXELS = 2.4
STEPS = 200


@pytest.fixture(scope="module")
def experiment():
    # OpenBLAS on one thread, as in the CLI: otherwise its spinning thread
    # holds the second core that the registrations' pool runs on
    _keep_heap_resident()
    phantom = make_phantom(PHANTOM_SEED, DIMS, n_structures=4)
    defo = make_deformation(DEFO_SEED, DIMS, amplitude=AMPLITUDE_VOXELS / 31.0, n_bumps=2)
    assert percent_neg_jac(defo) == 0.0
    inv_pair = render_pair(phantom, ModalityRemap(), ModalityRemap("invert"), defo)
    mono_pair = render_pair(phantom, ModalityRemap(), ModalityRemap(), defo)
    geo = phantom.base.geometry
    truth = inv_pair[2]
    mtre_identity = mtre(truth.landmarks_a, truth.landmarks_b,
                         DisplacementField.identity(DIMS), geo)
    return {
        "phantom": phantom,
        "geo": geo,
        "truth": truth,
        "inv_pair": inv_pair,
        "mono_pair": mono_pair,
        "mtre_identity": mtre_identity,
    }


def run_io(pair, kind, lam=1.5, steps=STEPS):
    a, b, _ = pair
    cfg = LossConfig(lam=lam, similarity=SimilarityConfig(kind=kind))
    return instance_optimize(a, b, cfg, OptimizerConfig(steps=steps))


def run_two(*runs):
    """``run_io(*args)`` for each args of ``runs``, on a 2-worker pool; a
    worker's exception is raised here."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [future.result() for future in [pool.submit(run_io, *args) for args in runs]]


@pytest.fixture(scope="module")
def io_invert(experiment):
    """A3's LNCC2 and LNCC registrations of the inverted pair."""
    return run_two((experiment["inv_pair"], "LNCC2"), (experiment["inv_pair"], "LNCC"))


@pytest.fixture(scope="module")
def io_mono(experiment):
    """LNCC2 registrations of the mono pair at weights 1.5 (A4, A7) and 0 (A7)."""
    return run_two((experiment["mono_pair"], "LNCC2"), (experiment["mono_pair"], "LNCC2", 0.0))


# -- A1: gradient correctness ---------------------------------------------------


class TestA1GradientCorrectness:
    def test_a1(self):
        t0 = time.time()
        rng = np.random.default_rng(101)
        dims = (8, 8, 8)
        a_img = Tensor3(rng.uniform(0.1, 0.9, (*dims, 1)))
        b_img = Tensor3(rng.uniform(0.1, 0.9, (*dims, 1)))
        worst = {}

        def sim_loss_fn(kind):
            cfg = SimilarityConfig(kind=kind, window_radius=1)

            def f(u0):
                tape = Tape()
                u = tape.input(u0, parameter=True)
                warped = warp_nodes(tape, tape.input(a_img), u)
                loss = loss_similarity_nodes(tape, warped, fixed_side(b_img, cfg), cfg)
                grads = tape.backward(loss)
                return loss.value.item(), grads[u.id]

            return f

        u0 = Tensor3(rng.uniform(-0.03, 0.03, (*dims, 3)))
        for kind in ("LNCC", "LNCC2", "MIND_SSC"):
            worst[kind] = grad_check(sim_loss_fn(kind), u0, h=1e-6, seed=11)

        u_ba = Tensor3(rng.uniform(-0.03, 0.03, (*dims, 3)))

        def gicon_fn(u0):
            tape = Tape()
            u_ab = tape.input(u0, parameter=True)
            loss = gradient_inverse_consistency_nodes(tape, u_ab, tape.input(u_ba))
            grads = tape.backward(loss)
            return loss.value.item(), grads[u_ab.id]

        worst["inverse_consistency"] = grad_check(gicon_fn, u0, h=1e-6, seed=12)

        # full objectives: probe the full-resolution stage of the pyramid
        model = build_model(dims)
        for key in model.params:
            model.params[key] = Tensor3(
                rng.uniform(-0.01, 0.01, (*model.params[key].dims, 3))
            )
        vol_a = Volume(a_img, modality="SYNTH-A", preprocessed=True)
        vol_b = Volume(b_img, modality="SYNTH-B", preprocessed=True)
        loss_a = Volume(Tensor3(rng.uniform(0.1, 0.9, (*dims, 1))),
                        modality="SYNTH-A", preprocessed=True)
        loss_b = Volume(Tensor3(rng.uniform(0.1, 0.9, (*dims, 1))),
                        modality="SYNTH-B", preprocessed=True)
        cfg = LossConfig(similarity=SimilarityConfig(kind="LNCC2", window_radius=1))

        def objective_fn(la, lb):
            def f(x0):
                probe = model.copy()
                probe.params["ab2"] = x0
                tape = Tape()
                bound = BoundPyramid(tape, probe)
                from deformreg.losses import randomized_loss_nodes

                fa, fb = (fixed_side(v.grid, cfg.similarity) for v in (la, lb))
                total, _ = randomized_loss_nodes(tape, bound.evaluate("ab"), bound.evaluate("ba"),
                                                 fa, fb, cfg)
                grads = tape.backward(total)
                return total.value.item(), grads[bound.nodes["ab2"].id]

            return f

        x0 = model.params["ab2"]
        worst["symmetric_objective"] = grad_check(
            objective_fn(vol_a, vol_b), x0, h=1e-6, seed=13
        )
        worst["randomized_objective"] = grad_check(
            objective_fn(loss_a, loss_b), x0, h=1e-6, seed=14
        )

        elapsed = time.time() - t0
        peak = max(worst.values())
        detail = (
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
            + f"; runtime {elapsed:.1f}s"
        )
        report("A1 gradient correctness", peak < 1e-3 and elapsed < 60.0, detail)


# -- A2: oracle equivalence ------------------------------------------------------


class TestA2OracleEquivalence:
    def test_a2(self):
        rng = np.random.default_rng(202)
        errs = {}
        a = rng.uniform(0, 1, (8, 8, 8))
        b = rng.uniform(0, 1, (8, 8, 8))
        for radius in (1, 2):
            cfg = SimilarityConfig(kind="LNCC", window_radius=radius)
            got = lncc_map(Tensor3(a), Tensor3(b), cfg).data[..., 0]
            errs[f"lncc_r{radius}"] = float(
                np.max(np.abs(got - lncc_brute_force(a, b, radius, cfg.eps)))
            )

        phi1 = DisplacementField(Tensor3(rng.uniform(-0.05, 0.05, (5, 5, 5, 3))))
        phi2 = DisplacementField(Tensor3(rng.uniform(-0.05, 0.05, (5, 5, 5, 3))))
        out = compose(phi1, phi2)
        grid = grid_coordinates((5, 5, 5)).data
        worst = 0.0
        for idx in np.ndindex(5, 5, 5):
            x = grid[idx]
            y = x + phi2.u.data[idx]
            u1_at = np.array([lerp3(phi1.u.data[..., c], y) for c in range(3)])
            worst = max(worst, float(np.max(np.abs((y + u1_at) - (x + out.u.data[idx])))))
        errs["compose"] = worst

        n = 9
        gridn = grid_coordinates((n, n, n)).data
        u = np.zeros((n, n, n, 3))
        band = (gridn[..., 0] > 0.3) & (gridn[..., 0] < 0.7)
        u[..., 0] = np.where(band, -2.0 * gridn[..., 0], 0.0)
        phi = DisplacementField(Tensor3(u))
        det = jacobian_det_map(phi).data[..., 0]
        from test_transforms import jacobian_brute_force

        oracle = jacobian_brute_force(u)
        neg_match = int(np.count_nonzero(det < 0)) == int(np.count_nonzero(oracle < 0))
        errs["jacobian_neg_count"] = 0.0 if neg_match else 1.0

        vol = rng.uniform(0, 1, (9, 9, 9))
        cfg = SimilarityConfig(kind="MIND_SSC")
        got = mind_ssc_descriptor(Tensor3(vol), cfg).data
        errs["mind_ssc"] = float(
            np.max(np.abs(got - mind_brute_force(vol, cfg.mind_patch_radius, cfg.eps)))
        )

        ok = (
            errs["lncc_r1"] <= 1e-10
            and errs["lncc_r2"] <= 1e-10
            and errs["compose"] <= 1e-10
            and neg_match
            and errs["mind_ssc"] <= 1e-10
        )
        report("A2 oracle equivalence",
               ok, ", ".join(f"{k} {v:.2e}" for k, v in errs.items()))


# -- A3 / A4: the multimodal claim on phantoms -----------------------------------


class TestA3MultimodalClaim:
    def test_a3(self, experiment, io_invert):
        t0 = time.time()
        io_lncc2_invert, io_lncc_invert = io_invert
        geo = experiment["geo"]
        truth = experiment["truth"]
        base = experiment["mtre_identity"]
        m2 = mtre(truth.landmarks_a, truth.landmarks_b, io_lncc2_invert.phi_ab, geo)
        m1 = mtre(truth.landmarks_a, truth.landmarks_b, io_lncc_invert.phi_ab, geo)
        ok = (m2 <= 0.5 * base) and (m1 >= 0.9 * base)
        report(
            "A3 contrast-inverted phantom",
            ok,
            f"identity mTRE {base:.3f} mm; squared-correlation IO {m2:.3f} mm "
            f"({100 * m2 / base:.0f}%), plain-correlation IO {m1:.3f} mm "
            f"({100 * m1 / base:.0f}%)",
        )


class TestA4MonomodalSanity:
    def test_a4(self, experiment, io_mono):
        io_lncc2_mono = io_mono[0]
        geo = experiment["geo"]
        truth_m = experiment["mono_pair"][2]
        base = experiment["mtre_identity"]
        m = mtre(truth_m.landmarks_a, truth_m.landmarks_b, io_lncc2_mono.phi_ab, geo)
        folding = percent_neg_jac(io_lncc2_mono.phi_ab)
        ok = (m <= 0.3 * base) and (folding <= 0.5)
        report(
            "A4 monomodal sanity",
            ok,
            f"mTRE {m:.3f} mm ({100 * m / base:.0f}% of identity {base:.3f}), "
            f"%|J|<0 = {folding:.4f}",
        )


class TestMindSscRegistration:
    """MIND-SSC on the A3 contrast-inverted pair: the modality-independent
    term registers the pair in 50 steps without folding either map."""

    def test_contrast_inverted_pair(self, experiment):
        truth = experiment["truth"]
        base = experiment["mtre_identity"]
        result = run_io(experiment["inv_pair"], "MIND_SSC", steps=50)
        m = mtre(truth.landmarks_a, truth.landmarks_b, result.phi_ab, experiment["geo"])
        folding = [percent_neg_jac(phi) for phi in (result.phi_ab, result.phi_ba)]
        report(
            "MIND-SSC contrast-inverted phantom",
            m <= 0.5 * base and max(folding) <= 0.5,
            f"mTRE {m:.3f} mm ({100 * m / base:.1f}% of identity {base:.3f}), "
            f"%|J|<0 = {folding[0]:.4f} / {folding[1]:.4f}",
        )


# -- A7: inverse-consistency response ----------------------------------------------


class TestA7ConsistencyResponse:
    def test_a7(self, io_mono):
        io_lncc2_mono, io_lncc2_mono_lam0 = io_mono
        with_reg = gradient_inverse_consistency(io_lncc2_mono.phi_ab, io_lncc2_mono.phi_ba)
        without = gradient_inverse_consistency(io_lncc2_mono_lam0.phi_ab,
                                               io_lncc2_mono_lam0.phi_ba)
        ratio = with_reg / without if without > 0 else float("inf")
        report(
            "A7 inverse-consistency response",
            ratio <= 0.10,
            f"penalty {with_reg:.5f} with weight 1.5 vs {without:.5f} at weight 0 "
            f"(ratio {100 * ratio:.1f}%)",
        )


# -- A8: format round trips ----------------------------------------------------------


class TestA8Formats:
    def test_a8(self, tmp_path):
        rng = np.random.default_rng(808)
        data = rng.uniform(0, 1, (9, 8, 7)).astype(np.float32).astype(np.float64)
        vol = Volume(Tensor3(data), spacing=(0.7, 1.1, 1.9), origin=(2.0, -1.0, 0.5),
                     modality="T1w", preprocessed=True)
        write_nifti(vol, tmp_path / "v.nii")
        nifti_exact = np.array_equal(read_nifti(tmp_path / "v.nii").values(), data)

        pts = rng.uniform(-10, 10, (12, 3))
        write_landmarks_csv(LandmarkSet(pts), tmp_path / "lm.csv")
        lm_err = float(np.max(np.abs(read_landmarks_csv(tmp_path / "lm.csv").points - pts)))

        field = rng.uniform(-0.1, 0.1, (8, 8, 8, 3))
        write_field_raw(field, tmp_path / "field", {})
        field_err = float(np.max(np.abs(read_field_raw(tmp_path / "field") - field)))

        ok = nifti_exact and lm_err <= 1e-7 and field_err <= 1e-7
        report(
            "A8 format round trips",
            ok,
            f"volume bit-exact={nifti_exact}, landmark err {lm_err:.2e}, "
            f"field err {field_err:.2e}",
        )


# -- A9: preprocessing oracles ---------------------------------------------------------


class TestA9Preprocessing:
    def test_a9(self):
        rng = np.random.default_rng(909)
        ct_vals = rng.uniform(-2500, 2500, size=1000).reshape(10, 10, 10)
        ct = preprocess(Volume(Tensor3(ct_vals), modality="CT"))
        ct_expect = (np.clip(ct_vals, -1000.0, 1000.0) + 1000.0) / 2000.0
        ct_err = float(np.max(np.abs(ct.values() - ct_expect)))

        mr_vals = rng.gamma(2.0, 120.0, size=1000).reshape(10, 10, 10)
        p = sort_percentile_oracle(mr_vals, 99.0)
        mr = preprocess(Volume(Tensor3(mr_vals), modality="T2w"))
        mr_expect = np.clip(mr_vals, 0.0, p) / p
        mr_err = float(np.max(np.abs(mr.values() - mr_expect)))

        ok = ct_err == 0.0 and mr_err == 0.0
        report("A9 preprocessing oracles", ok,
               f"CT max dev {ct_err:.2e}, MR(99th pct {p:.4g}) max dev {mr_err:.2e}")
