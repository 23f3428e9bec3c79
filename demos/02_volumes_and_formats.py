"""Volumes, intensity preprocessing, and the file formats.

Run: python3 demos/02_volumes_and_formats.py
"""

import tempfile
from pathlib import Path

import numpy as np

from deformreg import (
    LandmarkSet,
    Tensor3,
    Volume,
    invert_ct,
    preprocess,
    read_landmarks_csv,
    read_nifti,
    write_landmarks_csv,
    write_nifti,
)

rng = np.random.default_rng(1)

# A CT volume in Hounsfield units; preprocessing clips to [-1000, 1000]
# and maps onto [0, 1].
ct_raw = Volume(Tensor3(rng.uniform(-1800, 2400, (24, 24, 24))), modality="CT")
ct = preprocess(ct_raw)
print(f"CT range after preprocess: [{ct.values().min():.3f}, {ct.values().max():.3f}]")

# MR volumes clip at the 99th-percentile intensity instead.
mr_raw = Volume(Tensor3(rng.gamma(2.0, 120.0, (24, 24, 24))), modality="T1w")
mr = preprocess(mr_raw)
print(f"MR range after preprocess: [{mr.values().min():.3f}, {mr.values().max():.3f}]")

# Normalized CT scans can be intensity-inverted (an augmentation that
# makes CT resemble T1w MRI); applying it twice returns the original to
# within one floating-point ulp.
inv = invert_ct(ct)
back = invert_ct(inv)
print(f"invert twice max |diff|: {np.abs(back.values() - ct.values()).max():.2e}")

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)

    # NIfTI round trip is bit-exact for float32 payloads.
    write_nifti(ct, work / "ct.nii")
    again = read_nifti(work / "ct.nii")
    print(f"NIfTI round trip modality={again.modality}, "
          f"max |diff| = {np.abs(again.values() - ct.values().astype(np.float32)).max():.2e}")

    # Landmark CSV: one x,y,z line per point, millimetres, no header.
    lm = LandmarkSet(rng.uniform(2, 20, (5, 3)), frame="demo")
    write_landmarks_csv(lm, work / "lm.csv")
    lm2 = read_landmarks_csv(work / "lm.csv")
    print(f"landmark round trip max |diff| = {np.abs(lm2.points - lm.points).max():.2e}")
