"""Dataset manifests."""

import pytest

from deformreg.sampling import (
    DatasetManifest,
    Patient,
    SamplingError,
    Scan,
    read_manifest,
    write_manifest,
)
from tests_helpers_manifests import intra_ct_patient, two_modality_dataset


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
