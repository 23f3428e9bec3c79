"""Shared dataset-registry fixtures mirroring the training-corpus schema."""

from deformreg.sampling import DatasetManifest, Patient, Scan


def multi_patient(pid, modalities):
    return Patient(pid, tuple(Scan(m) for m in modalities))


def intra_ct_patient(pid):
    # e.g. inspiration/expiration acquisitions of one patient
    return Patient(pid, (Scan("CT"), Scan("CT")))


def two_modality_dataset(name="brain-2mod", n_patients=6, modalities=("T1w", "T2w"),
                         region="brain", label_randomization=True, **kw):
    patients = tuple(multi_patient(f"p{i}", modalities) for i in range(n_patients))
    return DatasetManifest(
        name=name, region=region, pairing="inter-patient", patients=patients,
        label_randomization=label_randomization, **kw,
    )
