"""Pair sampling strategies, weighting, and the aliasing regression guard."""

import csv

import numpy as np
import pytest

from deformreg.sampling import (
    DatasetManifest,
    GuardVerdict,
    InconclusiveError,
    PairPlan,
    Patient,
    SamplingError,
    Scan,
    build_plan,
    dataset_weights,
    epoch_plan,
    erratum_guard,
    read_manifest,
    write_manifest,
    write_plans_csv,
)
from tests_helpers_manifests import (
    intra_ct_patient,
    multi_patient,
    training_corpus,
    two_modality_dataset,
)


class TestManifest:
    def test_json_round_trip(self, tmp_path):
        m = two_modality_dataset(training_pct=12.5)
        p = tmp_path / "m.json"
        write_manifest(m, p)
        back = read_manifest(p)
        assert back == m

    def test_label_randomization_needs_distinct_modalities(self):
        with pytest.raises(SamplingError, match="duplicates"):
            DatasetManifest(
                name="bad", region="lung", pairing="intra-patient",
                patients=(intra_ct_patient("p0"),), label_randomization=True,
            )

    @pytest.mark.parametrize("text", ["{bad", '{"name": "m"}', "[]",
                                      '{"name": "m", "region": "brain", "pairing": "atlas",'
                                      ' "patients": [{"scans": []}]}'],
                             ids=["not-json", "no-keys", "not-object", "patient-no-id"])
    def test_malformed_file_is_sampling_error(self, tmp_path, text):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(SamplingError, match="m.json"):
            read_manifest(p)

    def test_empty_patient_rejected(self):
        with pytest.raises(SamplingError):
            DatasetManifest(
                name="bad", region="lung", pairing="inter-patient",
                patients=(Patient("p0", ()), Patient("p1", (Scan("CT"),))),
            )


class TestBuildPlan:
    def test_single_modality_collapses_strategies(self):
        m = two_modality_dataset(modalities=("CT",), label_randomization=True)
        for strategy in ("B", "F", "R"):
            plans = build_plan([m], strategy, 200, seed=1)
            for p in plans:
                assert p.input_modality_a == p.loss_modality_a == "CT"
                assert p.input_modality_b == p.loss_modality_b == "CT"

    def test_strategy_f_modalities_equal_and_uniform(self):
        m = two_modality_dataset()
        plans = build_plan([m], "F", 10_000, seed=2)
        mods = []
        for p in plans:
            assert p.loss_modality_a == p.loss_modality_b
            mods.append(p.loss_modality_a)
        frac_t1 = mods.count("T1w") / len(mods)
        assert abs(frac_t1 - 0.5) < 0.02

    def test_strategy_r_four_combinations_uniform(self):
        m = two_modality_dataset()
        plans = build_plan([m], "R", 10_000, seed=3)
        combos = {}
        for p in plans:
            combos[(p.loss_modality_a, p.loss_modality_b)] = (
                combos.get((p.loss_modality_a, p.loss_modality_b), 0) + 1
            )
        assert len(combos) == 4
        for count in combos.values():
            assert abs(count / len(plans) - 0.25) < 0.02

    def test_flag_off_forces_baseline(self):
        m = two_modality_dataset(label_randomization=False)
        plans = build_plan([m], "R", 500, seed=4)
        for p in plans:
            assert p.strategy == "B"
            assert p.loss_scan_a == p.input_scan_a and p.loss_scan_b == p.input_scan_b

    def test_strategy_f_empty_intersection_rejected(self):
        patients = (multi_patient("x", ("T1w",)), multi_patient("y", ("T2w",)))
        m = DatasetManifest(name="disjoint", region="brain", pairing="inter-patient",
                            patients=patients, label_randomization=True)
        with pytest.raises(SamplingError, match="shared modality"):
            build_plan([m], "F", 50, seed=5)

    def test_intra_patient_draws_two_distinct_scans(self):
        m = DatasetManifest(
            name="lung", region="lung", pairing="intra-patient",
            patients=tuple(intra_ct_patient(f"p{i}") for i in range(4)),
        )
        for p in build_plan([m], "B", 300, seed=6):
            assert p.patient_a == p.patient_b
            assert p.input_scan_a != p.input_scan_b

    def test_atlas_pairs_against_atlas_entry(self):
        m = DatasetManifest(
            name="ixi", region="brain", pairing="atlas",
            patients=tuple(multi_patient(f"p{i}", ("T1w",)) for i in range(5)),
            atlas_patient="p2",
        )
        for p in build_plan([m], "B", 200, seed=7):
            assert p.patient_b == "p2"
            assert p.patient_a != "p2"

    def test_seeded_determinism(self):
        m = two_modality_dataset()
        assert build_plan([m], "R", 100, seed=8) == build_plan([m], "R", 100, seed=8)

    def test_csv_round_trip(self, tmp_path):
        m = two_modality_dataset()
        plans = build_plan([m], "F", 50, seed=9)
        path = tmp_path / "plans.csv"
        write_plans_csv(plans, path)
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert tuple(reader.fieldnames) == PairPlan.CSV_FIELDS
            rows = list(reader)
        assert rows == [{k: str(v) for k, v in p.csv_row().items()} for p in plans]


class TestDatasetWeights:
    def test_single_dataset(self):
        m = two_modality_dataset()
        assert dataset_weights([m], "training") == {m.name: 1.0}

    def test_configured_percentages_take_precedence(self):
        manifests = training_corpus()
        w = dataset_weights(manifests, "training")
        assert w["COPDGene"] == pytest.approx(2.12 / 99.96, rel=1e-6)
        assert w["UKBiobank"] == pytest.approx(38.29 / 99.96, rel=1e-6)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_finetuning_region_rule(self):
        # two regions, three datasets (2 + 1): regions 0.5/0.5, then split
        a = two_modality_dataset(name="brainA", region="brain")
        b = two_modality_dataset(name="brainB", region="brain")
        c = two_modality_dataset(name="lungC", region="lung", modalities=("CT",),
                                 label_randomization=False)
        w = dataset_weights([a, b, c], "finetuning")
        assert w == {"brainA": 0.25, "brainB": 0.25, "lungC": 0.5}

    def test_training_equalizes_modality_region_groups(self):
        a = two_modality_dataset(name="brainA", region="brain")
        b = two_modality_dataset(name="brainB", region="brain")  # same group as a
        c = two_modality_dataset(name="kneeC", region="knee", modalities=("DESS",),
                                 label_randomization=False)
        w = dataset_weights([a, b, c], "training")
        assert w == {"brainA": 0.25, "brainB": 0.25, "kneeC": 0.5}


class TestEpochPlan:
    def test_single_pair(self):
        m = two_modality_dataset()
        plans = epoch_plan([m], {m.name: 1.0}, "B", pairs_per_epoch=1, seed=10)
        assert len(plans) == 1

    def test_weighted_frequencies(self):
        a = two_modality_dataset(name="big", region="brain")
        b = two_modality_dataset(name="small", region="knee", modalities=("DESS",),
                                 label_randomization=False)
        plans = epoch_plan([a, b], {"big": 0.9, "small": 0.1}, "B",
                           pairs_per_epoch=10_000, seed=11)
        count_big = sum(p.dataset == "big" for p in plans)
        assert abs(count_big - 9000) < 200

    def test_determinism(self):
        m = two_modality_dataset()
        first = epoch_plan([m], {m.name: 1.0}, "F", pairs_per_epoch=500, seed=12)
        second = epoch_plan([m], {m.name: 1.0}, "F", pairs_per_epoch=500, seed=12)
        assert first == second

    def test_pool_capped(self):
        m = two_modality_dataset(n_patients=3)
        plans = epoch_plan([m], {m.name: 1.0}, "B", pairs_per_epoch=100, seed=13,
                           pool_cap=4)
        distinct = {(p.patient_a, p.patient_b, p.input_scan_a, p.input_scan_b) for p in plans}
        assert len(distinct) <= 4

    def test_chi_square_convergence_to_configured_weights(self):
        manifests = training_corpus()
        weights = dataset_weights(manifests, "training")
        plans = epoch_plan(manifests, weights, "F", pairs_per_epoch=100_000, seed=14)
        counts = {m.name: 0 for m in manifests}
        for p in plans:
            counts[p.dataset] += 1
        chi2 = sum(
            (counts[name] - weights[name] * len(plans)) ** 2 / (weights[name] * len(plans))
            for name in counts
        )
        # critical value for 7 degrees of freedom at p = 0.01
        assert chi2 < 18.475


def aliased_sampler(manifest, n_plans, seed):
    """Test double reproducing the loss-pair aliasing bug: claims strategy F
    but feeds the input pair to the loss."""
    good = build_plan([manifest], "F", n_plans, seed)
    return [
        PairPlan(**{
            **p.csv_row(),
            "loss_scan_a": p.input_scan_a,
            "loss_scan_b": p.input_scan_b,
            "loss_modality_a": p.input_modality_a,
            "loss_modality_b": p.input_modality_b,
        })
        for p in good
    ]


class TestErratumGuard:
    def test_correct_f_plans_pass(self):
        m = two_modality_dataset()
        plans = build_plan([m], "F", 5000, seed=14)
        verdict = erratum_guard(plans, "F")
        assert verdict.passed
        # two modalities: loss differs from input in about half the sides
        assert abs((1 - verdict.observed_alias_fraction) - 0.5) < 0.03

    def test_correct_r_plans_pass(self):
        m = two_modality_dataset()
        verdict = erratum_guard(build_plan([m], "R", 5000, seed=15), "R")
        assert verdict.passed

    def test_b_plans_alias_exactly(self):
        m = two_modality_dataset()
        verdict = erratum_guard(build_plan([m], "B", 2000, seed=16), "B")
        assert verdict.passed
        assert verdict.observed_alias_fraction == 1.0

    def test_aliased_double_fails(self):
        m = two_modality_dataset()
        verdict = erratum_guard(aliased_sampler(m, 5000, seed=17), "F")
        assert not verdict.passed

    def test_too_few_plans_inconclusive(self):
        m = two_modality_dataset()
        with pytest.raises(InconclusiveError):
            erratum_guard(build_plan([m], "F", 100, seed=18), "F")

    def test_verdict_string(self):
        v = GuardVerdict(True, 0.5, 0.5, 1000, "")
        assert "PASS" in str(v)
