"""Dataset registry: training-dataset manifests.

A manifest describes one dataset: its anatomical region, pairing type
(intra-patient, inter-patient, or atlas), patients with their per-modality
scans, a label-randomization flag, and optional configured training and
finetuning percentages.

No command and no registration path reads this module: the pair sampler,
the loss-pair strategies, the aliasing guard and the balancing weights
that consumed it are deleted, and the manifests are the part of the
training-side code still to go.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

PAIRINGS = ("intra-patient", "inter-patient", "atlas")


class SamplingError(ValueError):
    """Bad manifest or weighting mode."""


@dataclass(frozen=True)
class Scan:
    modality: str
    path: str = ""


@dataclass(frozen=True)
class Patient:
    patient_id: str
    scans: tuple

    def modalities(self) -> list[str]:
        return [s.modality for s in self.scans]

    def modality_set(self) -> frozenset:
        return frozenset(self.modalities())


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    region: str
    pairing: str
    patients: tuple
    label_randomization: bool = False
    training_pct: float | None = None
    finetuning_pct: float | None = None
    atlas_patient: str | None = None

    def __post_init__(self):
        if self.pairing not in PAIRINGS:
            raise SamplingError(f"unknown pairing type {self.pairing!r}")
        if not self.patients:
            raise SamplingError(f"dataset {self.name!r} has no patients")
        for p in self.patients:
            if not p.scans:
                raise SamplingError(f"patient {p.patient_id!r} has no scans")
            if self.label_randomization and len(set(p.modalities())) != len(p.scans):
                raise SamplingError(
                    f"dataset {self.name!r}: loss randomization requires one scan "
                    f"per modality, patient {p.patient_id!r} duplicates a modality"
                )
        for pct in (self.training_pct, self.finetuning_pct):
            if pct is not None and pct < 0:
                raise SamplingError(f"negative weight percent in {self.name!r}")
        if self.pairing == "atlas":
            atlas = self.atlas_patient or self.patients[0].patient_id
            if atlas not in {p.patient_id for p in self.patients}:
                raise SamplingError(f"atlas patient {atlas!r} not in dataset {self.name!r}")
        if self.pairing == "inter-patient" and len(self.patients) < 2:
            raise SamplingError(f"inter-patient dataset {self.name!r} needs >= 2 patients")
        if self.pairing == "intra-patient" and not any(
            len(p.scans) >= 2 for p in self.patients
        ):
            raise SamplingError(
                f"intra-patient dataset {self.name!r} has no patient with >= 2 scans"
            )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "region": self.region,
            "pairing": self.pairing,
            "label_randomization": self.label_randomization,
            "training_pct": self.training_pct,
            "finetuning_pct": self.finetuning_pct,
            "atlas_patient": self.atlas_patient,
            "patients": [
                {
                    "patient_id": p.patient_id,
                    "scans": [{"modality": s.modality, "path": s.path} for s in p.scans],
                }
                for p in self.patients
            ],
        }

    @staticmethod
    def from_json_dict(raw: dict) -> "DatasetManifest":
        patients = tuple(
            Patient(
                patient_id=p["patient_id"],
                scans=tuple(Scan(s["modality"], s.get("path", "")) for s in p["scans"]),
            )
            for p in raw["patients"]
        )
        return DatasetManifest(
            name=raw["name"],
            region=raw["region"],
            pairing=raw["pairing"],
            patients=patients,
            label_randomization=raw.get("label_randomization", False),
            training_pct=raw.get("training_pct"),
            finetuning_pct=raw.get("finetuning_pct"),
            atlas_patient=raw.get("atlas_patient"),
        )


def write_manifest(manifest: DatasetManifest, path):
    Path(path).write_text(json.dumps(manifest.to_json_dict(), indent=1, sort_keys=True))


def read_manifest(path) -> DatasetManifest:
    try:
        return DatasetManifest.from_json_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, a missing key, a bad value
        raise SamplingError(f"bad manifest {path}: {exc!r}") from exc
