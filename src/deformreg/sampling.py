"""Dataset registry, pair sampling with loss randomization, and balancing.

A manifest describes one dataset: its anatomical region, pairing type
(intra-patient, inter-patient, or atlas), patients with their per-modality
scans, a label-randomization flag, and optional configured training and
finetuning percentages.

Sampling strategies for the loss pair:
  B: the loss pair is the input pair (baseline).
  F: one modality drawn uniformly from the intersection of the two
     patients' modality sets, used for both loss sides.
  R: loss scans drawn independently and uniformly per side.
Datasets whose label-randomization flag is off always sample as B.

The erratum guard re-checks the independence the strategies require: the
fraction of sides whose loss scan aliases the input scan must match the
combinatorial expectation (exactly 1 under B, mean of 1/#scans under F
and R), catching samplers that silently feed the input pair to the loss.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STRATEGIES = ("B", "F", "R")
PAIRINGS = ("intra-patient", "inter-patient", "atlas")
ALIAS_TOLERANCE = 0.03


class SamplingError(ValueError):
    """Bad manifest, configuration, or draw preconditions."""


class InconclusiveError(SamplingError):
    """Too few plans to judge the aliasing statistics."""


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

    def patient_by_id(self, pid: str) -> Patient:
        for p in self.patients:
            if p.patient_id == pid:
                return p
        raise SamplingError(f"unknown patient {pid!r} in {self.name!r}")

    def modality_union(self) -> frozenset:
        out: set = set()
        for p in self.patients:
            out |= p.modality_set()
        return frozenset(out)

    def available_pairs(self) -> int:
        n = len(self.patients)
        if self.pairing == "intra-patient":
            return sum(1 for p in self.patients if len(p.scans) >= 2)
        if self.pairing == "inter-patient":
            return n * (n - 1)
        return n - 1  # atlas: every other patient against the atlas entry

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


@dataclass(frozen=True)
class PairPlan:
    """One sampled pairing: which scans feed the model and which feed the
    similarity loss, plus the counts the aliasing statistics need."""

    dataset: str
    draw_index: int
    strategy: str  # effective strategy for this plan
    patient_a: str
    patient_b: str
    input_scan_a: int
    input_scan_b: int
    input_modality_a: str
    input_modality_b: str
    loss_scan_a: int
    loss_scan_b: int
    loss_modality_a: str
    loss_modality_b: str
    n_scans_a: int
    n_scans_b: int
    n_shared: int

    CSV_FIELDS = (
        "dataset", "draw_index", "strategy", "patient_a", "patient_b",
        "input_scan_a", "input_scan_b", "input_modality_a", "input_modality_b",
        "loss_scan_a", "loss_scan_b", "loss_modality_a", "loss_modality_b",
        "n_scans_a", "n_scans_b", "n_shared",
    )

    def csv_row(self) -> dict:
        return {k: getattr(self, k) for k in self.CSV_FIELDS}


def write_plans_csv(plans, path):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=PairPlan.CSV_FIELDS)
        writer.writeheader()
        for p in plans:
            writer.writerow(p.csv_row())


def _draw_patients(rng, manifest: DatasetManifest):
    """Patient pair plus input scans per the dataset's pairing type."""
    if manifest.pairing == "intra-patient":
        eligible = [p for p in manifest.patients if len(p.scans) >= 2]
        pa = pb = eligible[rng.integers(len(eligible))]
        ia, ib = rng.choice(len(pa.scans), size=2, replace=False)
        return pa, pb, int(ia), int(ib)
    if manifest.pairing == "inter-patient":
        idx_a, idx_b = rng.choice(len(manifest.patients), size=2, replace=False)
        pa, pb = manifest.patients[int(idx_a)], manifest.patients[int(idx_b)]
    else:  # atlas: a moving patient registered against the atlas entry
        atlas_id = manifest.atlas_patient or manifest.patients[0].patient_id
        others = [p for p in manifest.patients if p.patient_id != atlas_id]
        pa = others[rng.integers(len(others))]
        pb = manifest.patient_by_id(atlas_id)
    ia = int(rng.integers(len(pa.scans)))
    ib = int(rng.integers(len(pb.scans)))
    return pa, pb, ia, ib


def _draw_loss_scans(rng, manifest, strategy, pa, pb, ia, ib):
    """Loss scan indices per the effective strategy; returns (la, lb, shared)."""
    shared = sorted(pa.modality_set() & pb.modality_set())
    if strategy == "B":
        return ia, ib, len(shared)
    if strategy == "F":
        if not shared:
            raise SamplingError(
                f"dataset {manifest.name!r}: strategy F needs a shared modality "
                f"between {pa.patient_id!r} and {pb.patient_id!r}"
            )
        modality = shared[int(rng.integers(len(shared)))]
        la_candidates = [i for i, s in enumerate(pa.scans) if s.modality == modality]
        lb_candidates = [i for i, s in enumerate(pb.scans) if s.modality == modality]
        la = la_candidates[int(rng.integers(len(la_candidates)))]
        lb = lb_candidates[int(rng.integers(len(lb_candidates)))]
        return la, lb, len(shared)
    if strategy == "R":
        la = int(rng.integers(len(pa.scans)))
        lb = int(rng.integers(len(pb.scans)))
        return la, lb, len(shared)
    raise SamplingError(f"unknown strategy {strategy!r}")


def build_plan(manifests, strategy: str, n_pairs: int, seed: int) -> list[PairPlan]:
    """Sample n_pairs pairings; deterministic per seed.

    The dataset per plan is drawn uniformly over the given manifests (use
    epoch_plan for weighted balancing). Datasets with the
    label-randomization flag off are sampled with strategy B regardless
    of the requested strategy.
    """
    if strategy not in STRATEGIES:
        raise SamplingError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n_pairs < 1:
        raise SamplingError("n_pairs must be >= 1")
    manifests = list(manifests)
    if not manifests:
        raise SamplingError("need at least one manifest")
    rng = np.random.default_rng(seed)
    plans = []
    for draw in range(n_pairs):
        manifest = manifests[int(rng.integers(len(manifests)))]
        effective = strategy if manifest.label_randomization else "B"
        pa, pb, ia, ib = _draw_patients(rng, manifest)
        la, lb, n_shared = _draw_loss_scans(rng, manifest, effective, pa, pb, ia, ib)
        plans.append(
            PairPlan(
                dataset=manifest.name,
                draw_index=draw,
                strategy=effective,
                patient_a=pa.patient_id,
                patient_b=pb.patient_id,
                input_scan_a=ia,
                input_scan_b=ib,
                input_modality_a=pa.scans[ia].modality,
                input_modality_b=pb.scans[ib].modality,
                loss_scan_a=la,
                loss_scan_b=lb,
                loss_modality_a=pa.scans[la].modality,
                loss_modality_b=pb.scans[lb].modality,
                n_scans_a=len(pa.scans),
                n_scans_b=len(pb.scans),
                n_shared=n_shared,
            )
        )
    return plans


def dataset_weights(manifests, mode: str = "training") -> dict[str, float]:
    """Normalized sampling weights per dataset.

    Configured percentages (the registry's training/finetuning columns)
    take precedence when any are present. Otherwise weights are derived:
    training mode equalizes every (modality-set, region) combination;
    finetuning mode weights regions equally, then splits inside each
    region.
    """
    manifests = list(manifests)
    if not manifests:
        raise SamplingError("need at least one manifest")
    if mode not in ("training", "finetuning"):
        raise SamplingError(f"mode must be training or finetuning, got {mode!r}")
    key = "training_pct" if mode == "training" else "finetuning_pct"
    configured = [getattr(m, key) for m in manifests]
    if any(c is not None for c in configured):
        total = sum(c or 0.0 for c in configured)
        if total <= 0:
            raise SamplingError(f"configured {mode} percentages sum to zero")
        return {m.name: (c or 0.0) / total for m, c in zip(manifests, configured)}
    groups: dict = {}
    for m in manifests:
        group = (m.modality_union(), m.region) if mode == "training" else m.region
        groups.setdefault(group, []).append(m.name)
    weights = {}
    for members in groups.values():
        for name in members:
            weights[name] = 1.0 / (len(groups) * len(members))
    return weights


def epoch_plan(
    manifests,
    weights: dict[str, float],
    strategy: str,
    pairs_per_epoch: int = 4000,
    seed: int = 0,
    pool_cap: int = 4000,
) -> list[PairPlan]:
    """One epoch of weighted sampling with replacement.

    Each dataset first contributes a candidate pool capped at ``pool_cap``
    pairs; epoch entries then draw a dataset by weight and a pool element
    uniformly. Deterministic per seed.
    """
    manifests = list(manifests)
    total = sum(weights.get(m.name, 0.0) for m in manifests)
    if abs(total - 1.0) > 1e-9:
        raise SamplingError(f"weights must sum to 1, got {total}")
    if pairs_per_epoch < 1:
        raise SamplingError("pairs_per_epoch must be >= 1")
    rng = np.random.default_rng(seed)
    pools = []
    probs = []
    for m in manifests:
        pool_seed = int(rng.integers(2**63))
        pool_size = min(pool_cap, max(m.available_pairs(), 1))
        pools.append(build_plan([m], strategy, pool_size, seed=pool_seed))
        probs.append(weights.get(m.name, 0.0))
    probs_arr = np.asarray(probs)
    probs_arr = probs_arr / probs_arr.sum()
    picks = rng.choice(len(manifests), size=pairs_per_epoch, p=probs_arr)
    out = []
    for k, dataset_idx in enumerate(picks):
        pool = pools[int(dataset_idx)]
        plan = pool[int(rng.integers(len(pool)))]
        out.append(
            PairPlan(**{**plan.csv_row(), "draw_index": k})
        )
    return out


@dataclass(frozen=True)
class GuardVerdict:
    passed: bool
    observed_alias_fraction: float
    expected_alias_fraction: float
    n_sides: int
    reason: str

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: aliasing {self.observed_alias_fraction:.3f} observed vs "
            f"{self.expected_alias_fraction:.3f} expected over {self.n_sides} sides"
            + (f" ({self.reason})" if self.reason else "")
        )


def erratum_guard(plans, strategy: str) -> GuardVerdict:
    """Regression guard against loss-pair aliasing.

    Verifies that the loss pair is drawn independently of the input pair:
    under F and R the per-side aliasing fraction must match its
    combinatorial expectation within +/-3 percent (absolute); under B the
    loss pair must equal the input pair in every plan. A sampler that
    overwrites the loss pair with the input pair (or vice versa) fails.
    """
    plans = list(plans)
    if len(plans) < 1000:
        raise InconclusiveError(f"need >= 1000 plans for the guard, got {len(plans)}")
    if strategy not in STRATEGIES:
        raise SamplingError(f"unknown strategy {strategy!r}")
    aliased = 0
    expected = 0.0
    n_sides = 2 * len(plans)
    f_invariant_broken = False
    for p in plans:
        aliased += int(p.loss_scan_a == p.input_scan_a)
        aliased += int(p.loss_scan_b == p.input_scan_b)
        if p.strategy == "B":
            expected += 2.0
        else:
            expected += 1.0 / p.n_scans_a + 1.0 / p.n_scans_b
        if strategy == "F" and p.strategy == "F" and p.loss_modality_a != p.loss_modality_b:
            f_invariant_broken = True
    observed = aliased / n_sides
    expect = expected / n_sides
    if f_invariant_broken:
        return GuardVerdict(
            False, observed, expect, n_sides,
            "strategy F produced unequal loss modalities",
        )
    all_b = all(p.strategy == "B" for p in plans)
    if all_b:
        ok = aliased == n_sides
        reason = "" if ok else "strategy B must alias every side"
        return GuardVerdict(ok, observed, expect, n_sides, reason)
    ok = abs(observed - expect) <= ALIAS_TOLERANCE
    reason = "" if ok else "loss pair does not vary independently of the input pair"
    return GuardVerdict(ok, observed, expect, n_sides, reason)
