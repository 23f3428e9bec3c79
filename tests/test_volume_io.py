"""Volume model, preprocessing rules, and file-format round trips."""

import struct

import numpy as np
import pytest

from deformreg.fileio import (
    FormatError,
    read_field_raw,
    read_landmarks_csv,
    read_nifti,
    read_nifti_labels,
    read_volume_raw,
    write_landmarks_csv,
    write_nifti,
    write_nifti_labels,
    write_field_raw,
    write_volume_raw,
)
from deformreg.tensor import ConfigError, Tensor3
from deformreg.volume import (
    LabelVolume,
    LandmarkSet,
    Volume,
    invert_ct,
    preprocess,
)


def make_volume(values, modality="CT", spacing=(1.0, 1.0, 1.0), preprocessed=False):
    return Volume(
        grid=Tensor3(np.asarray(values, dtype=np.float64)),
        spacing=spacing,
        modality=modality,
        preprocessed=preprocessed,
    )


def sort_percentile_oracle(values, q):
    """Independent percentile: rank q/100*(n-1), zero-based, linear interp."""
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    r = q / 100.0 * (s.size - 1)
    lo = int(np.floor(r))
    hi = min(lo + 1, s.size - 1)
    return s[lo] + (r - lo) * (s[hi] - s[lo])


class TestSpacingAndOrigin:
    BAD = [({"spacing": (float("nan"), 1.0, 1.0)}, "spacing"),
           ({"spacing": (1.0, 1.0)}, "spacing"),
           ({"spacing": (1.0, 0.0, 1.0)}, "spacing"),
           ({"spacing": (1.0, -2.0, 1.0)}, "spacing"),
           ({"spacing": (1.0, 1.0, "a")}, "spacing"),
           ({"origin": (0.0, float("inf"), 0.0)}, "origin"),
           ({"origin": (0.0, 0.0)}, "origin"),
           ({"origin": 0.0}, "origin")]

    @pytest.mark.parametrize("kwargs, name", BAD)
    def test_volume_rejects(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            Volume(Tensor3(np.zeros((4, 4, 4))), **kwargs)

    @pytest.mark.parametrize("kwargs, name", BAD)
    def test_label_volume_rejects(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            LabelVolume(np.zeros((4, 4, 4), dtype=np.int64), **kwargs)

    def test_integers_and_negative_origin_accepted(self):
        v = Volume(Tensor3(np.zeros((4, 4, 4))), spacing=(1, 2, 3), origin=(-1, 0, 1))
        assert v.geometry.extent_mm().tolist() == [3.0, 6.0, 9.0]
        LabelVolume(np.zeros((4, 4, 4), dtype=np.int64), spacing=(0.5, 1, 2), origin=(-4, 0, 0))


class TestConstructorChecks:
    def test_volume_needs_1_channel(self):
        with pytest.raises(ConfigError, match="volume grid must have 1 channel, got 3"):
            Volume(Tensor3.zeros((4, 4, 4), channels=3))

    @pytest.mark.parametrize("labels, message", [
        (np.zeros((4, 4), dtype=np.int64), r"labels must be a 3D array, got shape \(4, 4\)"),
        (np.zeros((4, 4, 4)), "labels must be integers, got dtype float64"),
        (np.full((4, 4, 4), -1, dtype=np.int64), "labels must be non-negative")],
        ids=["2d", "float", "negative"])
    def test_label_volume_rejects_labels(self, labels, message):
        with pytest.raises(ConfigError, match=message):
            LabelVolume(labels)

    def test_landmarks_need_3_coordinates(self):
        with pytest.raises(ConfigError, match=r"landmarks must be \(k, 3\), got shape \(2, 2\)"):
            LandmarkSet(np.zeros((2, 2)))


class TestPreprocess:
    def test_ct_clip_and_map(self):
        arr = np.zeros((10, 10, 10))
        arr[0, 0, 0] = 1500.0
        arr[0, 0, 1] = -1000.0
        arr[0, 0, 2] = -2000.0
        out = preprocess(make_volume(arr, "CT"))
        v = out.values()
        assert v[0, 0, 0] == pytest.approx(1.0, abs=0)
        assert v[0, 0, 1] == pytest.approx(0.0, abs=0)
        assert v[0, 0, 2] == pytest.approx(0.0, abs=0)
        assert out.preprocessed

    def test_ct_all_zero_maps_to_half(self):
        out = preprocess(make_volume(np.zeros((4, 4, 4)), "CT"))
        assert np.all(out.values() == 0.5)

    def test_mr_percentile_rule(self):
        vals = np.arange(1.0, 1001.0).reshape(10, 10, 10)
        p = sort_percentile_oracle(vals, 99.0)
        assert p == pytest.approx(990.01)
        out = preprocess(make_volume(vals, "T1w")).values()
        assert out.max() == pytest.approx(1.0, abs=1e-12)
        idx = np.argwhere(vals == 495.0)[0]
        assert out[tuple(idx)] == pytest.approx(495.0 / p, rel=1e-12)

    def test_mr_matches_sort_oracle_on_random_data(self):
        rng = np.random.default_rng(5)
        vals = rng.gamma(2.0, 50.0, size=(10, 10, 10))
        p = sort_percentile_oracle(vals, 99.0)
        out = preprocess(make_volume(vals, "T2w")).values()
        expect = np.clip(vals, 0.0, p) / p
        assert np.max(np.abs(out - expect)) == 0.0

    def test_mr_degenerate_zero_volume(self):
        with pytest.raises(ConfigError, match="99th-percentile intensity is 0.0; cannot"):
            preprocess(make_volume(np.zeros((4, 4, 4)), "FLAIR"))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        v = preprocess(make_volume(rng.uniform(-1500, 1500, (6, 6, 6)), "CT"))
        again = preprocess(v)
        assert np.max(np.abs(again.values() - v.values())) <= 1e-12

    def test_range_invariant(self):
        rng = np.random.default_rng(7)
        for modality in ("CT", "CBCT", "T1w", "FA"):
            v = preprocess(make_volume(rng.normal(100, 300, (6, 6, 6)), modality))
            assert v.values().min() >= 0.0 and v.values().max() <= 1.0


class TestInvertCT:
    def test_endpoints(self):
        arr = np.full((4, 4, 4), 0.25)
        arr[0, 0, 0] = 0.0
        arr[1, 0, 0] = 1.0
        out = invert_ct(make_volume(arr, "CT", preprocessed=True))
        assert out.values()[0, 0, 0] == 1.0
        assert out.values()[1, 0, 0] == 0.0

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(8)
        v = make_volume(rng.uniform(0, 1, (5, 5, 5)), "CBCT", preprocessed=True)
        twice = invert_ct(invert_ct(v))
        assert np.array_equal(twice.values(), v.values())

    def test_mean_linearity(self):
        rng = np.random.default_rng(9)
        v = make_volume(rng.uniform(0, 1, (5, 5, 5)), "CT", preprocessed=True)
        assert invert_ct(v).values().mean() == pytest.approx(1 - v.values().mean(), abs=1e-12)

    def test_rejects_mr(self):
        v = make_volume(np.full((4, 4, 4), 0.5), "T1w", preprocessed=True)
        with pytest.raises(ConfigError, match="intensity inversion applies to CT-family only"):
            invert_ct(v)

    def test_rejects_unpreprocessed(self):
        v = make_volume(np.full((4, 4, 4), 0.5), "CT")
        with pytest.raises(ConfigError, match=r"invert_ct expects a preprocessed \(range \[0,1\]\)"):
            invert_ct(v)


class TestNifti:
    def test_longest_modality_tag_round_trips(self, tmp_path):
        tag = "SYNTH-" + "x" * 49
        assert len(tag) == 55
        v = Volume(Tensor3(np.full((4, 4, 4), 0.5)), modality=tag, preprocessed=True)
        write_nifti(v, tmp_path / "v.nii")
        back = read_nifti(tmp_path / "v.nii")
        assert back.modality == tag and back.preprocessed
        with pytest.raises(ConfigError, match="modality tag 'SYNTH-x+' is neither"):
            Volume(Tensor3(np.full((4, 4, 4), 0.5)), modality=tag + "x")

    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.uniform(0, 1, (7, 6, 5)).astype(np.float32).astype(np.float64)
        v = Volume(Tensor3(data), spacing=(0.5, 1.5, 2.0), origin=(1.0, -2.0, 3.0),
                   modality="T1w", preprocessed=True)
        p = tmp_path / "v.nii"
        write_nifti(v, p)
        back = read_nifti(p)
        assert np.array_equal(back.values(), data)
        assert back.spacing == pytest.approx(v.spacing)
        assert back.origin == pytest.approx(v.origin)
        assert back.modality == "T1w"
        assert back.preprocessed

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        v = Volume(Tensor3(rng.uniform(0, 1, (4, 4, 4)).astype(np.float32)), modality="CT")
        p1, p2 = tmp_path / "a.nii", tmp_path / "b.nii"
        write_nifti(v, p1)
        write_nifti(read_nifti(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_external_header_construction(self, tmp_path):
        # byte-level writer independent of the package's packing code
        hdr = bytearray(348)
        struct.pack_into("<i", hdr, 0, 348)
        struct.pack_into("<8h", hdr, 40, 3, 8, 8, 8, 1, 1, 1, 1)
        struct.pack_into("<h", hdr, 70, 16)  # float32
        struct.pack_into("<h", hdr, 72, 32)
        struct.pack_into("<8f", hdr, 76, 0, 1.25, 1.5, 1.75, 0, 0, 0, 0)
        struct.pack_into("<f", hdr, 108, 352.0)
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        data = np.arange(512, dtype="<f4").tobytes()
        p = tmp_path / "ext.nii"
        p.write_bytes(bytes(hdr) + b"\x00" * 4 + data)
        v = read_nifti(p)
        assert v.dims == (8, 8, 8)
        assert v.spacing == pytest.approx((1.25, 1.5, 1.75))
        # x-fastest: flat index 1 is voxel (1,0,0)
        assert v.values()[1, 0, 0] == 1.0

    def test_bad_sizeof_hdr(self, tmp_path):
        p = tmp_path / "bad.nii"
        hdr = bytearray(352)
        struct.pack_into("<i", hdr, 0, 340)
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        p.write_bytes(bytes(hdr))
        with pytest.raises(FormatError, match="sizeof_hdr"):
            read_nifti(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nii"
        hdr = bytearray(352)
        struct.pack_into("<i", hdr, 0, 348)
        struct.pack_into("<4s", hdr, 344, b"ni1\x00")
        p.write_bytes(bytes(hdr))
        with pytest.raises(FormatError, match="magic"):
            read_nifti(p)

    def test_unsupported_datatype_names_code(self, tmp_path):
        p = tmp_path / "bad.nii"
        hdr = bytearray(352)
        struct.pack_into("<i", hdr, 0, 348)
        struct.pack_into("<8h", hdr, 40, 3, 2, 2, 2, 1, 1, 1, 1)
        struct.pack_into("<h", hdr, 70, 64)  # float64: not supported
        struct.pack_into("<f", hdr, 108, 352.0)
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        p.write_bytes(bytes(hdr) + b"\x00" * 68)
        with pytest.raises(FormatError, match="64"):
            read_nifti(p)

    @pytest.mark.parametrize("spacing, origin", [((1.0, 1.0, 1e308), (0.0, 0.0, 0.0)),
                                                 ((1.0, 1.0, 1.0), (0.0, -1e39, 0.0)),
                                                 ((1e-300, 1.0, 1.0), (0.0, 0.0, 0.0))])
    def test_geometry_beyond_float32_is_unsupported(self, tmp_path, spacing, origin):
        # the header's pixdim and qoffset are float32, where these spacings and
        # origins overflow or the spacing rounds to 0; nothing is written
        v = Volume(grid=Tensor3(np.ones((4, 4, 4))), spacing=spacing, origin=origin,
                   modality="CT")
        with pytest.raises(FormatError, match="float32"):
            write_nifti(v, tmp_path / "v.nii")
        assert not (tmp_path / "v.nii").exists()

    def test_axis_beyond_int16_is_format_error(self, tmp_path):
        # the header's dim field is int16; nothing is written for either writer
        grid = np.zeros((1, 32768, 1))
        with pytest.raises(FormatError, match="int16 dims"):
            write_nifti(make_volume(grid), tmp_path / "v.nii")
        with pytest.raises(FormatError, match="int16 dims"):
            write_nifti_labels(LabelVolume(grid.astype(np.int64)), tmp_path / "l.nii")
        assert not list(tmp_path.iterdir())

    def test_axis_of_int16_max_is_written(self, tmp_path):
        write_nifti(make_volume(np.zeros((32767, 1, 1))), tmp_path / "v.nii")
        assert read_nifti(tmp_path / "v.nii").dims == (32767, 1, 1)

    def test_origin_that_rounds_to_zero_in_float32_is_written(self, tmp_path):
        # plain float32 rounding: any origin is valid, a spacing of 0 is not
        v = Volume(grid=Tensor3(np.ones((4, 4, 4))), spacing=(1e-40, 1.0, 1.0),
                   origin=(1e-50, 0.0, 0.0), modality="CT")
        write_nifti(v, tmp_path / "v.nii")
        back = read_nifti(tmp_path / "v.nii")
        assert back.origin == (0.0, 0.0, 0.0)
        assert back.spacing == (float(np.float32(1e-40)), 1.0, 1.0)

    def test_non_finite_voxel_is_format_error(self, tmp_path):
        p = tmp_path / "nan.nii"
        write_nifti(make_volume(np.ones((4, 4, 4))), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<f", raw, 352 + 4 * 5, float("nan"))
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            read_nifti(p)

    @pytest.mark.parametrize("offset,value", [
        (80, float("inf")), (88, float("nan")), (268, float("nan")), (276, float("-inf")),
    ], ids=["pixdim1-inf", "pixdim3-nan", "qoffset0-nan", "qoffset2-neg-inf"])
    def test_non_finite_header_geometry_is_format_error(self, tmp_path, offset, value):
        p = tmp_path / "geom.nii"
        write_nifti(make_volume(np.ones((4, 4, 4))), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<f", raw, offset, value)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="pixdim or qoffset"):
            read_nifti(p)

    @pytest.mark.parametrize("value", [-100.0, float("nan"), float("inf"), 0.0, 351.0])
    def test_vox_offset_inside_header_or_not_finite_is_format_error(self, tmp_path, value):
        p = tmp_path / "offset.nii"
        write_nifti(make_volume(np.ones((4, 4, 4))), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<f", raw, 108, value)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset.nii: vox_offset"):
            read_nifti(p)

    def test_larger_vox_offset_reads_past_the_padding(self, tmp_path):
        data = np.arange(64, dtype=np.float64).reshape(4, 4, 4)
        p = tmp_path / "offset.nii"
        write_nifti(make_volume(data), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<f", raw, 108, 400.0)
        p.write_bytes(bytes(raw[:352]) + b"\xff" * 48 + bytes(raw[352:]))
        assert np.array_equal(read_nifti(p).values(), data)

    @pytest.mark.parametrize("value", [-1.0, 2.5, 2.0**31, 1e30])
    def test_label_outside_int32_ids_is_format_error(self, tmp_path, value):
        labels = np.zeros((4, 4, 4))
        labels[1, 2, 3] = value
        p = tmp_path / "labels.nii"
        write_nifti(make_volume(labels), p)
        with pytest.raises(FormatError, match="labels.nii: labels must be integers"):
            read_nifti_labels(p)

    def test_label_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        lv = LabelVolume(rng.integers(0, 5, size=(6, 6, 6)), spacing=(1.0, 1.0, 2.0))
        p = tmp_path / "labels.nii"
        write_nifti_labels(lv, p)
        back = read_nifti_labels(p)
        assert np.array_equal(back.labels, lv.labels)


class TestRawAndCsv:
    def test_label_ids_above_int16_rejected(self, tmp_path):
        labels = np.zeros((4, 4, 4), dtype=np.int64)
        labels[0, 0, 0] = 32768
        with pytest.raises(FormatError, match="label ids exceed int16 range"):
            write_nifti_labels(LabelVolume(labels), tmp_path / "labels.nii")
        assert not (tmp_path / "labels.nii").exists()

    def test_field_payload_needs_3_channels(self, tmp_path):
        with pytest.raises(FormatError, match=r"displacement payload must be \(nx,ny,nz,3\), "
                                              r"got \(4, 4, 4, 2\)"):
            write_field_raw(np.zeros((4, 4, 4, 2)), tmp_path / "field")
        assert not any(tmp_path.iterdir())

    def test_volume_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        data = rng.uniform(0, 1, (5, 4, 3)).astype(np.float32).astype(np.float64)
        v = Volume(Tensor3(data), spacing=(1, 2, 3), origin=(-1, 0, 1),
                   modality="SYNTH-BASE", preprocessed=True)
        write_volume_raw(v, tmp_path / "vol")
        back = read_volume_raw(tmp_path / "vol")
        assert np.array_equal(back.values(), data)
        assert back.modality == "SYNTH-BASE" and back.preprocessed

    def test_field_raw_is_channel_major_x_fastest(self, tmp_path):
        """float32 number c*nx*ny*nz + i + nx*j + nx*ny*k of the payload is
        channel c at voxel (i, j, k); a round trip cannot see the layout."""
        nx, ny, nz = 3, 4, 5
        i, j, k, c = np.indices((nx, ny, nz, 3))
        u = (c * nx * ny * nz + i + nx * j + nx * ny * k).astype(np.float64)
        write_field_raw(u, tmp_path / "f")
        payload = np.frombuffer((tmp_path / "f.raw").read_bytes(), dtype="<f4")
        assert np.array_equal(payload, np.arange(u.size))
        back = read_field_raw(tmp_path / "f")
        assert np.array_equal(back, u)
        assert back.dtype == np.float64 and back.flags.c_contiguous

    @pytest.mark.parametrize("given_to", ["writer", "reader"])
    @pytest.mark.parametrize("kind", ["volume", "field"])
    def test_payload_path_names_the_pair(self, tmp_path, kind, given_to):
        # X.raw and X both mean the files X.raw and X.json, never X.raw.raw
        volume = Volume(Tensor3(np.full((3, 4, 5), 0.5)), modality="SYNTH-BASE")
        field = np.full((3, 4, 5, 3), 0.25)
        write, read, data = {"volume": (write_volume_raw, read_volume_raw, volume),
                             "field": (write_field_raw, read_field_raw, field)}[kind]
        base, payload = tmp_path / "x", tmp_path / "x.raw"
        write(data, payload if given_to == "writer" else base)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.raw"]
        back = read(payload if given_to == "reader" else base)
        if kind == "volume":
            assert np.array_equal(back.values(), volume.values())
        else:
            assert np.array_equal(back, field)

    def test_landmark_round_trip(self, tmp_path):
        pts = np.array([[1.25, -3.5, 100.125], [0.0, 0.0, 0.0], [12.3456789, 7.1, -2.2]])
        lm = LandmarkSet(pts, frame="a")
        p = tmp_path / "lm.csv"
        write_landmarks_csv(lm, p)
        back = read_landmarks_csv(p, frame="a")
        assert np.max(np.abs(back.points - pts)) <= 1e-7
        # no header line
        assert p.read_text().splitlines()[0].count(",") == 2

    def test_non_finite_raw_payload_is_format_error(self, tmp_path):
        write_field_raw(np.zeros((3, 3, 3, 3)), tmp_path / "f")
        payload = np.zeros(81, dtype="<f4")
        payload[7] = np.inf
        (tmp_path / "f.raw").write_bytes(payload.tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            read_field_raw(tmp_path / "f")

    @pytest.mark.parametrize("sidecar", ["{bad", '{"kind": "field", "dtype": "float32"}',
                                         '{"dims": [3, 3, 0], "dtype": "float32"}', "[3, 3, 3]"],
                             ids=["not-json", "no-dims", "zero-dim", "not-object"])
    def test_bad_sidecar_is_format_error(self, tmp_path, sidecar):
        write_field_raw(np.zeros((3, 3, 3, 3)), tmp_path / "f")
        (tmp_path / "f.json").write_text(sidecar)
        with pytest.raises(FormatError, match="f.json"):
            read_field_raw(tmp_path / "f")

    # the last three are numerals to float() (digit separators, full-width
    # and Arabic-Indic digits) but not ASCII decimal ones
    @pytest.mark.parametrize("bad_line", ["1,abc,3", "1,nan,3", "1,2", "1,2,3,4",
                                          "1_0,2,3", "\uff11,2,3", "\u0661,2,3"])
    def test_bad_landmark_line_names_line_number(self, tmp_path, bad_line):
        p = tmp_path / "lm.csv"
        p.write_text(f"1,2,3\n\n{bad_line}\n")
        with pytest.raises(FormatError, match=r"lm\.csv:3: .*" + bad_line):
            read_landmarks_csv(p)

    def test_written_landmarks_read_back(self, tmp_path):
        # every magnitude the "%.10g" writer spells, in both notations
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((400, 3)) * 10.0 ** rng.integers(-300, 300, (400, 3))
        pts[:4] = [[0.0, -0.0, 1.0], [-7.0, 123456.0, 1e-5], [5e-324, 1.5e300, -2.5],
                   [1234567890123.0, 0.1, -1e10]]
        write_landmarks_csv(LandmarkSet(pts), tmp_path / "lm.csv")
        back = read_landmarks_csv(tmp_path / "lm.csv").points
        assert np.array_equal(back, [[float(f"{x:.10g}") for x in row] for row in pts])

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_landmarks_without_points_is_format_error(self, tmp_path, text):
        p = tmp_path / "lm.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=r"lm\.csv: no landmark lines"):
            read_landmarks_csv(p)

    def test_landmarks_inside_check(self):
        v = make_volume(np.zeros((5, 5, 5)) + 0.1, "CT", preprocessed=True)
        ok = LandmarkSet(np.array([[1.0, 2.0, 3.0]]))
        ok.assert_inside(v.geometry)
        bad = LandmarkSet(np.array([[10.0, 0.0, 0.0]]))
        with pytest.raises(ConfigError, match="leave the volume extent"):
            bad.assert_inside(v.geometry)
