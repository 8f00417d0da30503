import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from sara.errors import (CorruptFile, DimensionMismatch, DuplicateImageId,
                         MissingFile, NormalizationFailure, OutOfBoundsKeypoint)
from sara.features import (DatasetManifest, ImageFeatures, ManifestEntry,
                           load_features, load_manifest, read_features,
                           write_features, write_graph_report, write_manifest,
                           write_pair_list)
from sara.viewgraph import EdgeRole, ViewGraph


def make_features(image_id="img", n=12, d=128, d_g=64, size=(640, 480),
                  seed=0, with_scores=False, with_k=False):
    rng = np.random.default_rng(seed)
    kps = np.column_stack([
        rng.uniform(0, size[0] - 1, n), rng.uniform(0, size[1] - 1, n),
    ]).astype(np.float32)
    desc = rng.normal(size=(n, d)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    gdesc = rng.normal(size=d_g).astype(np.float32)
    gdesc /= np.linalg.norm(gdesc)
    scores = rng.uniform(0, 1, n).astype(np.float32) if with_scores else None
    K = np.array([[500.0, 0, 320], [0, 500, 240], [0, 0, 1]]) if with_k else None
    return ImageFeatures(image_id=image_id, keypoints=kps, descriptors=desc,
                         global_desc=gdesc, image_size=size, scores=scores,
                         intrinsics=K)


INVALID_K = [
    [[800.0, 0.0, 320.0], [0.0, 800.0, 240.0]],
    [[-800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]],
    [[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 0.0]],
    # cofactor expansion gives 2.8e-17 here, but LU elimination, which
    # np.linalg.inv runs, reaches an exact zero pivot
    [[1.0, 0.0, 0.1], [0.0, 1.0, 0.3], [1.0, 1.0, 0.4]],
]
INVALID_K_IDS = ["not_3x3", "negative_focal", "singular", "singular_in_lu"]


def write_dataset(tmp_path, n_images=3, d=128, d_g=64):
    entries = []
    for i in range(n_images):
        feats = make_features(f"img_{i}", seed=i, d=d, d_g=d_g)
        fpath = tmp_path / f"img_{i}.sarf"
        write_features(feats, fpath)
        entries.append(ManifestEntry(image_id=f"img_{i}", path=fpath))
    manifest = DatasetManifest(entries=tuple(entries), descriptor_dim=d, global_dim=d_g)
    mpath = tmp_path / "manifest.json"
    write_manifest(manifest, mpath)
    return mpath


class TestValidation:
    def test_out_of_bounds_keypoint(self):
        feats = make_features()
        feats.keypoints[0] = (-3.0, 10.0)
        with pytest.raises(OutOfBoundsKeypoint):
            feats.validate()

    def test_keypoint_at_width_rejected(self):
        feats = make_features(size=(640, 480))
        feats.keypoints[0] = (640.0, 10.0)   # domain is half-open
        with pytest.raises(OutOfBoundsKeypoint):
            feats.validate()

    def test_denormalized_descriptor(self):
        feats = make_features()
        feats.descriptors[3] *= 0.5
        with pytest.raises(NormalizationFailure):
            feats.validate()

    def test_denormalized_global(self):
        feats = make_features()
        feats.global_desc[:] = feats.global_desc * 1.01
        with pytest.raises(NormalizationFailure):
            feats.validate()

    def test_count_mismatch(self):
        feats = make_features()
        feats = ImageFeatures(image_id=feats.image_id,
                              keypoints=feats.keypoints[:5],
                              descriptors=feats.descriptors,
                              global_desc=feats.global_desc,
                              image_size=feats.image_size)
        with pytest.raises(ValueError):
            feats.validate()

    @pytest.mark.parametrize("change,message", [
        (lambda f: dict(keypoints=np.zeros((12, 3), np.float32)), "keypoints must be"),
        (lambda f: dict(scores=f.scores[:5]), "score count must match"),
        (lambda f: dict(image_size=(0, 480)), "image size must be positive"),
    ], ids=["keypoints_not_n_by_2", "score_count", "zero_width"])
    def test_shape_and_size_checks(self, change, message):
        feats = make_features(with_scores=True)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(feats, **change(feats)).validate()

    @pytest.mark.parametrize("d_g,shape", [(8, (4, 2)), (1, ())], ids=["2d", "0d"])
    def test_global_desc_not_1d_not_written(self, tmp_path, d_g, shape):
        # unit norm, so only the shape check can refuse it; a written (4, 2)
        # copy would record d_g = 4 and hold 8 values
        feats = make_features(d_g=d_g)
        feats = dataclasses.replace(feats, global_desc=feats.global_desc.reshape(shape))
        with pytest.raises(ValueError, match="1-D"):
            feats.validate()
        path = tmp_path / "f.sarf"
        with pytest.raises(ValueError, match="1-D"):
            write_features(feats, path)
        assert not path.exists()

    def test_score_range(self):
        feats = make_features(with_scores=True)
        feats.scores[0] = 1.5
        with pytest.raises(ValueError):
            feats.validate()

    def test_empty_image_is_valid(self):
        feats = make_features(n=0)
        feats.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field,array,index", [
        ("keypoint", "keypoints", (3, 1)),
        ("score", "scores", 5),
        ("local descriptor", "descriptors", (7, 9)),
        ("global descriptor", "global_desc", 11),
    ], ids=["keypoint", "score", "local_descriptor", "global_descriptor"])
    def test_non_finite_not_written(self, tmp_path, field, array, index, value):
        feats = make_features(with_scores=True)
        getattr(feats, array)[index] = value
        path = tmp_path / "f.sarf"
        with pytest.raises(ValueError, match=f"non-finite {field}"):
            write_features(feats, path)
        assert not path.exists()


class TestRoundTrip:
    @pytest.mark.parametrize("with_scores", [False, True])
    @pytest.mark.parametrize("with_k", [False, True])
    def test_bit_exact(self, tmp_path, with_scores, with_k):
        feats = make_features(with_scores=with_scores, with_k=with_k)
        path = tmp_path / "f.sarf"
        write_features(feats, path)
        loaded = read_features(path, image_id=feats.image_id)
        assert loaded.image_id == feats.image_id
        assert loaded.image_size == feats.image_size
        np.testing.assert_array_equal(loaded.keypoints, feats.keypoints)
        np.testing.assert_array_equal(loaded.descriptors, feats.descriptors)
        np.testing.assert_array_equal(loaded.global_desc, feats.global_desc)
        if with_scores:
            np.testing.assert_array_equal(loaded.scores, feats.scores)
        else:
            assert loaded.scores is None
        if with_k:
            np.testing.assert_array_equal(loaded.intrinsics, feats.intrinsics)
        else:
            assert loaded.intrinsics is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        feats = make_features(with_scores=True, with_k=True)
        p1, p2 = tmp_path / "a.sarf", tmp_path / "b.sarf"
        write_features(feats, p1)
        write_features(read_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_image_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "view_07.sarf"
        write_features(make_features(), path)
        assert read_features(path).image_id == "view_07"

    def test_empty_round_trip(self, tmp_path):
        feats = make_features(n=0)
        path = tmp_path / "empty.sarf"
        write_features(feats, path)
        loaded = read_features(path)
        assert loaded.n_keypoints == 0
        assert loaded.descriptors.shape == (0, 128)


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            read_features(tmp_path / "nope.sarf")

    def test_broken_symlink_is_a_missing_file(self, tmp_path):
        link = tmp_path / "f.sarf"
        link.symlink_to(tmp_path / "gone.sarf")
        with pytest.raises(MissingFile, match="f.sarf"):
            read_features(link)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            read_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptFile):
            read_features(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CorruptFile):
            read_features(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            read_features(path)


def overwrite_float32(path, offset, value):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))


class TestNonFinite:
    # make_features(n=12, d=128, d_g=64, with_scores=True): a 30-byte header,
    # then keypoints, scores, local descriptors and the global descriptor
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field,offset", [
        ("keypoint", 30 + 3 * 8 + 4),
        ("score", 30 + 12 * 8 + 5 * 4),
        ("local descriptor", 30 + 12 * 12 + (7 * 128 + 9) * 4),
        ("global descriptor", 30 + 12 * 12 + 12 * 128 * 4 + 11 * 4),
    ], ids=["keypoint", "score", "local_descriptor", "global_descriptor"])
    def test_rejected_at_load(self, tmp_path, field, offset, value):
        path = tmp_path / "f.sarf"
        write_features(make_features(with_scores=True), path)
        overwrite_float32(path, offset, value)
        with pytest.raises(CorruptFile, match=f"non-finite {field}"):
            read_features(path)


def scale_descriptor_row(path, row, factor):
    # make_features(n=12, d=128, d_g=64): a 30-byte header, then 12 keypoints
    # and, from byte 126, the local descriptors
    raw = bytearray(path.read_bytes())
    start = 126 + row * 128 * 4
    values = np.frombuffer(bytes(raw[start:start + 128 * 4]), dtype="<f4")
    raw[start:start + 128 * 4] = (values * np.float32(factor)).astype("<f4").tobytes()
    path.write_bytes(bytes(raw))


class TestReadChecks:
    @pytest.mark.parametrize("offset", [28, 29], ids=["has_intrinsics", "has_scores"])
    def test_flag_byte_beyond_one_rejected(self, tmp_path, offset):
        path = tmp_path / "f.sarf"
        write_features(make_features(with_scores=True, with_k=True), path)
        raw = bytearray(path.read_bytes())
        raw[offset] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="flag bytes"):
            read_features(path)

    def test_near_unit_descriptor_repaired(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        scale_descriptor_row(path, 5, 1 + 5e-4)
        norms = np.linalg.norm(read_features(path).descriptors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_off_norm_descriptor_rejected(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(), path)
        scale_descriptor_row(path, 5, 1 + 2e-3)
        with pytest.raises(NormalizationFailure):
            read_features(path)

    def test_keypoint_at_width_rejected(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(size=(640, 480)), path)
        overwrite_float32(path, 30 + 4 * 8, 640.0)
        with pytest.raises(OutOfBoundsKeypoint):
            read_features(path)

    def test_zero_focal_length_rejected(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(with_k=True), path)
        raw = bytearray(path.read_bytes())
        raw[30:38] = np.float64(0.0).tobytes()   # K[0, 0]
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="focal lengths must be positive"):
            read_features(path)

    def test_singular_intrinsics_rejected(self, tmp_path):
        path = tmp_path / "f.sarf"
        write_features(make_features(with_k=True), path)
        raw = bytearray(path.read_bytes())
        raw[78:102] = np.zeros(3).tobytes()   # K's last row
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="f.sarf: intrinsics must be invertible"):
            read_features(path)


def write_raw(path, desc, gdesc, scores=None, size=(640, 480)):
    """A feature file holding these arrays as they are, unchecked, with
    every keypoint at (0, 0)."""
    n, d = desc.shape
    parts = [b"SARF", struct.pack("<IIIIII", 1, n, d, len(gdesc), *size),
             struct.pack("<BB", 0, int(scores is not None)),
             np.zeros((n, 2), "<f4").tobytes()]
    if scores is not None:
        parts.append(np.asarray(scores, "<f4").tobytes())
    parts += [np.asarray(desc, "<f4").tobytes(), np.asarray(gdesc, "<f4").tobytes()]
    path.write_bytes(b"".join(parts))


# read_features' descriptor checks as they were before the one-pass screen,
# kept here as the reference the screen must reproduce byte for byte
def ref_non_finite(keypoints, scores, descriptors, global_desc):
    for what, values in (("keypoint", keypoints), ("score", scores),
                         ("local descriptor", descriptors), ("global descriptor", global_desc)):
        if values is not None and not np.isfinite(values).all():
            return what
    return None


def ref_renormalize(vectors, what, image_id):
    arr = np.atleast_2d(vectors)
    norms = np.linalg.norm(arr.astype(np.float64), axis=1)
    if arr.shape[0] and (np.abs(norms - 1.0) > 1e-3).any():
        worst = float(np.abs(norms - 1.0).max())
        raise NormalizationFailure(
            f"{image_id}: {what} norm off by {worst:.2e} (tolerance {1e-3})")
    if arr.shape[0] and (np.abs(norms - 1.0) > 1e-6).any():
        arr = (arr.astype(np.float64) / norms[:, None]).astype(np.float32)
    return arr.reshape(vectors.shape)


def ref_read(path, desc, gdesc, scores=None):
    bad = ref_non_finite(np.zeros((len(desc), 2), np.float32), scores, desc, gdesc)
    if bad:
        raise CorruptFile(f"{path}: non-finite {bad}")
    desc = ref_renormalize(desc, "local descriptor", path.stem) if len(desc) else desc
    gdesc = ref_renormalize(gdesc[None, :], "global descriptor", path.stem)[0]
    return desc, gdesc


def ref_validate_norms(feats):
    if feats.n_keypoints:
        norms = np.linalg.norm(feats.descriptors.astype(np.float64), axis=1)
        if np.abs(norms - 1.0).max() > 1e-4:
            raise NormalizationFailure(f"{feats.image_id}: local descriptors not unit norm")
    gnorm = float(np.linalg.norm(feats.global_desc.astype(np.float64)))
    if abs(gnorm - 1.0) > 1e-4:
        raise NormalizationFailure(f"{feats.image_id}: global descriptor not unit norm")


def outcome(fn):
    """fn's arrays as (dtype, shape, bytes), or its exception's type and message."""
    try:
        arrays = fn()
    except Exception as exc:   # compared, not swallowed
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def assert_read_as_reference(path, desc, gdesc, scores=None):
    write_raw(path, desc, gdesc, scores)

    def got():
        feats = read_features(path)
        return feats.descriptors, feats.global_desc

    assert outcome(got) == outcome(lambda: ref_read(path, desc.copy(), gdesc.copy(), scores))


def unit_vectors(rng, *shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def scaled(v, dev):
    """float32 copy of the unit float64 vector ``v`` with norm about 1 + dev."""
    return (v * (1.0 + dev)).astype(np.float32)


def norm_dev(row):
    return float(np.linalg.norm(row.astype(np.float64))) - 1.0


class TestDescriptorScreen:
    """A read gives the bytes, or the exception type and message, that the
    exact finiteness and norm checks give, on either side of every
    threshold and of the screen's own margin."""

    @pytest.mark.parametrize("dev,limit", [
        (0.9e-6, 1e-6), (1.1e-6, 1e-6), (-0.9e-6, 1e-6), (-1.1e-6, 1e-6),
        (0.99e-3, 1e-3), (1.01e-3, 1e-3), (-0.99e-3, 1e-3), (-1.01e-3, 1e-3),
    ])
    @pytest.mark.parametrize("where", ["local", "global"])
    def test_norm_thresholds(self, tmp_path, dev, limit, where):
        rng = np.random.default_rng(0)
        desc, gdesc = unit_vectors(rng, 12, 128).astype(np.float32), unit_vectors(rng, 64)
        if where == "local":
            desc[5] = scaled(unit_vectors(rng, 128), dev)
            off = norm_dev(desc[5])
        else:
            gdesc = scaled(gdesc, dev)
            off = norm_dev(gdesc)
        assert (abs(off) > limit) == (abs(dev) > limit)   # float32 rounding kept the side
        assert_read_as_reference(tmp_path / "f.sarf", desc, gdesc.astype(np.float32))

    def test_screen_margin(self, tmp_path):
        # squared norms on both sides of 1 + 1e-6, where a test of |s - 1|
        # against the repair tolerance would flip: every row is kept
        rng = np.random.default_rng(1)
        base = unit_vectors(rng, 128)
        gdesc = unit_vectors(rng, 64).astype(np.float32)
        for k, dev in enumerate(np.linspace(0.48e-6, 0.52e-6, 9)):
            desc = unit_vectors(rng, 12, 128).astype(np.float32)
            desc[3] = scaled(base, dev)
            s = float(np.einsum("i,i->", desc[3], desc[3], dtype=np.float64))
            assert abs(s - 1.0 - 1e-6) < 1e-7
            assert_read_as_reference(tmp_path / f"f{k}.sarf", desc, gdesc)

    @pytest.mark.parametrize("off", [None, "local_repair", "local_reject",
                                     "global_repair", "global_reject"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["local", "global", "both"])
    def test_non_finite_with_off_norm_rows(self, tmp_path, where, value, off):
        rng = np.random.default_rng(2)
        desc, gdesc = unit_vectors(rng, 12, 128).astype(np.float32), unit_vectors(rng, 64)
        if off is not None:
            dev = 5e-4 if off.endswith("repair") else 2e-3
            if off.startswith("local"):
                desc[7] = scaled(unit_vectors(rng, 128), dev)
            else:
                gdesc = scaled(gdesc, dev)
        gdesc = gdesc.astype(np.float32)
        if where in ("local", "both"):
            desc[2, 40] = value
        if where in ("global", "both"):
            gdesc[9] = value
        assert_read_as_reference(tmp_path / "f.sarf", desc, gdesc, scores=np.ones(12))

    @pytest.mark.parametrize("gdev", [0.0, 5e-4, 2e-3, np.nan],
                             ids=["unit", "repair", "reject", "nan"])
    def test_zero_keypoints(self, tmp_path, gdev):
        gdesc = unit_vectors(np.random.default_rng(3), 64)
        gdesc = np.full(64, np.nan, np.float32) if np.isnan(gdev) else scaled(gdesc, gdev)
        assert_read_as_reference(tmp_path / "f.sarf", np.zeros((0, 128), np.float32), gdesc)

    @pytest.mark.parametrize("values", [
        [1.0, -1.0, 1.0], [1.0, -(1 + 5e-4), 1.0], [1.0, 1.0, 1 + 2e-3], [1.0, 1 + 4e-7, -1.0],
        [1.0, np.inf, 1.0], [0.0, 1.0, 1.0],
    ], ids=["unit", "repair", "reject", "round_off", "inf", "zero"])
    def test_one_dimensional_descriptors(self, tmp_path, values):
        desc = np.array(values, np.float32)[:, None]
        assert_read_as_reference(tmp_path / "f.sarf", desc, np.array([1.0], np.float32))

    @pytest.mark.parametrize("dev", [0.5e-4, 0.9e-4, 1.1e-4, -0.9e-4, -1.1e-4])
    @pytest.mark.parametrize("where", ["local", "global", "local_float64"])
    def test_validate_tolerance(self, where, dev):
        rng = np.random.default_rng(4)
        feats = make_features()
        if where == "global":
            feats = dataclasses.replace(feats, global_desc=scaled(unit_vectors(rng, 64), dev))
        else:
            desc = feats.descriptors.astype(np.float64 if where == "local_float64" else np.float32)
            desc[4] = scaled(unit_vectors(rng, 128), dev)
            feats = dataclasses.replace(feats, descriptors=desc)

        def checked():
            feats.validate()
            return []

        def reference():
            ref_validate_norms(feats)
            return []

        assert outcome(checked) == outcome(reference)

    def test_read_peak_memory(self, tmp_path):
        # the file's bytes, the descriptor copy parsed from them and the
        # float64 squared norms; a float64 copy of the descriptors and its
        # square, as a norm of a cast makes, reach about 6x
        path = tmp_path / "f.sarf"
        write_features(make_features(n=2000, d=128), path)
        assert read_peak(path) < 2.5 * 2000 * 128 * 4

    def test_repair_peak_memory(self, tmp_path):
        # rows 2e-5 off unit norm are divided in place by the norms of the
        # same pass, so a repair costs what a plain read does; a float64
        # copy for the norms and another for the division reach about 6x
        path = tmp_path / "f.sarf"
        feats = make_features(n=2000, d=128)
        desc = scaled(feats.descriptors.astype(np.float64), 2e-5)
        assert_read_as_reference(path, desc, feats.global_desc)
        assert not np.array_equal(read_features(path).descriptors, desc)   # repaired
        assert read_peak(path) < 2.5 * desc.nbytes


def read_peak(path):
    """Traced peak bytes of one ``read_features(path)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        read_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestManifest:
    def test_load_ok(self, tmp_path):
        manifest = load_manifest(write_dataset(tmp_path))
        assert len(manifest) == 3
        assert manifest.image_ids == ["img_0", "img_1", "img_2"]
        assert manifest.descriptor_dim == 128

    def test_relative_paths(self, tmp_path):
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        assert all(not p["path"].startswith("/") for p in data["entries"])
        # loading still resolves them against the manifest directory
        feats = load_features(load_manifest(mpath), "img_1")
        assert feats.n_keypoints == 12

    def test_duplicate_id(self, tmp_path):
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        data["entries"].append(dict(data["entries"][0]))
        mpath.write_text(json.dumps(data))
        with pytest.raises(DuplicateImageId):
            load_manifest(mpath)

    def test_opens_no_feature_file(self, tmp_path):
        mpath = write_dataset(tmp_path)
        for i in range(3):
            (tmp_path / f"img_{i}.sarf").unlink()
        manifest = load_manifest(mpath)
        assert manifest.image_ids == ["img_0", "img_1", "img_2"]
        assert [e.path for e in manifest.entries] == [
            tmp_path / f"img_{i}.sarf" for i in range(3)]

    def test_missing_referenced_file(self, tmp_path):
        mpath = write_dataset(tmp_path)
        (tmp_path / "img_1.sarf").unlink()
        with pytest.raises(MissingFile, match="img_1"):
            load_features(load_manifest(mpath), "img_1")

    def test_dimension_mismatch(self, tmp_path):
        mpath = write_dataset(tmp_path)
        write_features(make_features("img_1", d=64, seed=1), tmp_path / "img_1.sarf")
        with pytest.raises(DimensionMismatch, match="img_1: descriptor dim 64 != manifest 128"):
            load_features(load_manifest(mpath), "img_1")

    def test_global_dim_mismatch(self, tmp_path):
        mpath = write_dataset(tmp_path)
        write_features(make_features("img_1", d_g=32, seed=1), tmp_path / "img_1.sarf")
        with pytest.raises(DimensionMismatch, match="img_1: global dim 32 != manifest 64"):
            load_features(load_manifest(mpath), "img_1")

    def test_manifest_intrinsics_override(self, tmp_path):
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        K = [[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]]
        data["entries"][0]["intrinsics"] = K
        mpath.write_text(json.dumps(data))
        feats = load_features(load_manifest(mpath), "img_0")
        np.testing.assert_array_equal(feats.intrinsics, np.asarray(K))

    @pytest.mark.parametrize("mutate", [
        lambda es: [es[0], {"image_id": "img_1"}, es[2]],
        lambda es: [es[0], {"path": "img_1.sarf"}, es[2]],
        lambda es: [es[0], {"image_id": 1, "path": "img_1.sarf"}, es[2]],
        lambda es: [es[0], "img_1.sarf", es[2]],
        lambda es: {e["image_id"]: e for e in es},
        lambda es: [es[0], dict(es[1], image_id="img 1"), es[2]],
        lambda es: [es[0], dict(es[1], image_id=""), es[2]],
        lambda es: [es[0], dict(es[1], intrinsics="eye"), es[2]],
        lambda es: [es[0], dict(es[1], intrinsics=[["900", "0", "512"], ["0", "900", "384"],
                                                   ["0", "0", "1"]]), es[2]],
        lambda es: [es[0], dict(es[1], intrinsics=[[900, 0, 512], [0, 900, 384],
                                                   [0, 0, True]]), es[2]],
    ], ids=["no_path", "no_image_id", "numeric_image_id", "entry_not_object",
            "entries_not_list", "whitespace_id", "empty_id", "intrinsics_not_numeric",
            "intrinsics_strings", "intrinsics_bool"])
    def test_malformed_entries(self, tmp_path, mutate):
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        data["entries"] = mutate(data["entries"])
        mpath.write_text(json.dumps(data))
        with pytest.raises(CorruptFile, match="manifest.json"):
            load_manifest(mpath)

    def test_write_manifest_round_trip_with_intrinsics(self, tmp_path):
        K = np.array([[800.0, 0.0, 320.5], [0.0, 810.0, 240.25], [0.0, 0.0, 1.0]])
        entries = (ManifestEntry("a", tmp_path / "a.sarf", intrinsics=K),
                   ManifestEntry("b", tmp_path / "b.sarf"))
        write_manifest(DatasetManifest(entries, descriptor_dim=128, global_dim=64),
                       tmp_path / "manifest.json")
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.image_ids == ["a", "b"]
        np.testing.assert_array_equal(manifest.entries[0].intrinsics, K)
        assert manifest.entries[1].intrinsics is None

    def test_write_manifest_outside_entry_is_absolute(self, tmp_path):
        outside = tmp_path / "elsewhere" / "a.sarf"
        outside.parent.mkdir()
        write_features(make_features("a"), outside)
        root = tmp_path / "ds"
        root.mkdir()
        write_features(make_features("b", seed=1), root / "b.sarf")
        entries = (ManifestEntry("a", outside), ManifestEntry("b", root / "b.sarf"))
        write_manifest(DatasetManifest(entries, descriptor_dim=128, global_dim=64),
                       root / "manifest.json")
        stored = [e["path"] for e in json.loads((root / "manifest.json").read_text())["entries"]]
        assert stored == [str(outside), "b.sarf"]
        manifest = load_manifest(root / "manifest.json")
        assert [e.path for e in manifest.entries] == [outside, root / "b.sarf"]
        np.testing.assert_array_equal(load_features(manifest, "a").keypoints,
                                      make_features("a").keypoints)

    @pytest.mark.parametrize("K", INVALID_K, ids=INVALID_K_IDS)
    def test_invalid_manifest_intrinsics(self, tmp_path, K):
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        data["entries"][0]["intrinsics"] = K
        mpath.write_text(json.dumps(data))
        with pytest.raises(CorruptFile, match="manifest.json: img_0: "):
            load_manifest(mpath)

    @pytest.mark.parametrize("K", INVALID_K, ids=INVALID_K_IDS)
    def test_invalid_intrinsics_refused_when_built_in_code(self, tmp_path, K):
        # refused where the entry is built, not as numpy's LinAlgError in
        # scoring; load_manifest reports the same message
        with pytest.raises(ValueError) as built:
            ManifestEntry("img_0", tmp_path / "img_0.sarf", intrinsics=np.array(K))
        mpath = write_dataset(tmp_path)
        data = json.loads(mpath.read_text())
        data["entries"][0]["intrinsics"] = K
        mpath.write_text(json.dumps(data))
        with pytest.raises(CorruptFile) as loaded:
            load_manifest(mpath)
        assert str(loaded.value) == f"{mpath}: img_0: {built.value}"

    def test_invalid_file_intrinsics_refused_despite_override(self, tmp_path):
        # load_features reads and checks the whole file before the manifest's
        # valid K replaces its singular one, so the file is refused
        mpath = write_dataset(tmp_path)
        path = tmp_path / "img_0.sarf"
        write_features(make_features("img_0", with_k=True), path)
        raw = bytearray(path.read_bytes())
        raw[78:102] = np.zeros(3).tobytes()   # K's last row
        path.write_bytes(bytes(raw))
        data = json.loads(mpath.read_text())
        data["entries"][0]["intrinsics"] = [[800.0, 0.0, 320.0], [0.0, 800.0, 240.0],
                                            [0.0, 0.0, 1.0]]
        mpath.write_text(json.dumps(data))
        manifest = load_manifest(mpath)
        with pytest.raises(CorruptFile, match="img_0.sarf: intrinsics must be invertible"):
            load_features(manifest, "img_0")

    def test_unknown_image_id(self, tmp_path):
        manifest = load_manifest(write_dataset(tmp_path))
        with pytest.raises(MissingFile):
            load_features(manifest, "img_9")

    def test_not_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{oops")
        with pytest.raises(CorruptFile):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(CorruptFile):
            load_manifest(path)

    @pytest.mark.parametrize("doc", [
        5,
        {"descriptor_dim": "wide", "global_dim": 64, "entries": []},
        {"descriptor_dim": 128, "global_dim": None, "entries": []},
        {"descriptor_dim": 32.7, "global_dim": 64, "entries": []},
        {"descriptor_dim": "128", "global_dim": 64, "entries": []},
        {"descriptor_dim": 128, "global_dim": True, "entries": []},
    ], ids=["top_level_number", "dim_not_numeric", "dim_null", "dim_fractional",
            "dim_numeric_string", "dim_bool"])
    def test_malformed_top_level(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile):
            load_manifest(path)


class TestPairList:
    def test_orders_within_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pair_list([("b.jpg", "a.jpg")], path)
        assert path.read_text() == "a.jpg b.jpg\n"

    def test_empty(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pair_list([], path)
        assert path.read_text() == ""

    def test_sorted_lines(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pair_list([("c", "b"), ("b", "a"), ("a", "c")], path)
        assert path.read_text().splitlines() == ["a b", "a c", "b c"]

    def test_self_pair_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pair_list([("a", "a")], tmp_path / "pairs.txt")

    def test_whitespace_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pair_list([("a b", "c")], tmp_path / "pairs.txt")

    def test_input_order_irrelevant(self, tmp_path):
        rng = np.random.default_rng(3)
        edges = [(f"v{i}", f"v{j}") for i in range(20) for j in range(i + 1, 20)]
        p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        write_pair_list(edges, p1)
        shuffled = [edges[i][::-1] for i in rng.permutation(len(edges))]
        write_pair_list(shuffled, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == len(edges)


class TestGraphReport:
    def test_selected_edge_without_score_writes_nothing(self, tmp_path):
        graph = ViewGraph(n_nodes=2, candidate_edges={(0, 1): 1.0},
                          selected_edges=[((0, 1), EdgeRole.TREE)], components=[[0, 1]])
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match=r"selected edge \(0, 1\) has no score"):
            write_graph_report(graph, {}, ["a", "b"], path)
        assert not path.exists()
