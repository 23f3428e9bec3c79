"""Dataset manifests and dataset balancing weights."""

import pytest

from deformreg.sampling import (
    DatasetManifest,
    Patient,
    SamplingError,
    Scan,
    dataset_weights,
    read_manifest,
    write_manifest,
)
from tests_helpers_manifests import intra_ct_patient, training_corpus, two_modality_dataset


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
