import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblgc import (
    ContourVariant,
    FeatureVector,
    FuzzifierRef,
    GrayImage,
    RawImage,
    block_features,
    block_values,
    entropy_features,
    extract,
    extract_many,
    normalize_unit,
    read_features_csv,
    write_features_csv,
)
from nblgc.features import pool_size
from oracles import naive_feature_vector

VARIANTS = list(ContourVariant)
REFS = list(FuzzifierRef)


def entropy_term(membership, contour):
    return float(entropy_features(np.array([membership]), np.array([contour]))[0])


@st.composite
def raw_images(draw):
    """Up to 9x9 PGM rasters at any depth: arbitrary, constant or two-level."""
    max_gray = draw(st.integers(1, 65535))
    width, height = 3 * draw(st.integers(1, 3)), 3 * draw(st.integers(1, 3))
    n = width * height
    gray = st.integers(0, max_gray)
    kind = draw(st.sampled_from(["any", "constant", "two-level"]))
    if kind == "constant":
        pixels = [draw(gray)] * n
    elif kind == "two-level":
        levels = draw(st.tuples(gray, gray))
        pixels = [levels[b] for b in draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
    else:
        pixels = draw(st.lists(gray, min_size=n, max_size=n))
    return RawImage(width, height, max_gray, np.array(pixels, dtype=np.uint16))


class TestPartition:
    def test_3x3_single_block(self):
        grid = np.arange(9, dtype=float).reshape(3, 3) / 8.0
        blocks = block_values(GrayImage(grid))
        assert len(blocks) == 1
        w = blocks[0]
        assert w[0] == grid[1, 1]
        assert tuple(w[1:]) == (
            grid[0, 0], grid[0, 1], grid[0, 2],
            grid[1, 2],
            grid[2, 2], grid[2, 1], grid[2, 0],
            grid[1, 0],
        )

    def test_6x3_two_blocks_draw_from_own_columns(self):
        # width 6, height 3, pixels 1..18 in raster order (scaled to [0,1])
        grid = (np.arange(1, 19, dtype=float) / 18.0).reshape(3, 6)
        blocks = block_values(GrayImage(grid))
        assert len(blocks) == 2
        s = 1 / 18.0
        assert blocks[0, 0] == pytest.approx(8 * s)
        assert blocks[0, 1:] == pytest.approx([v * s for v in (1, 2, 3, 9, 15, 14, 13, 7)])
        assert blocks[1, 0] == pytest.approx(11 * s)
        assert blocks[1, 1:] == pytest.approx([v * s for v in (4, 5, 6, 12, 18, 17, 16, 10)])

    def test_63x63_gives_441_blocks(self):
        rng = np.random.default_rng(2)
        blocks = block_values(GrayImage(rng.random((63, 63))))
        assert blocks.shape == (441, 9)

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5)])
    def test_rejects_non_multiple_of_three(self, shape):
        with pytest.raises(ValueError, match="multiples of 3"):
            block_values(GrayImage(np.zeros(shape)))


class TestEntropyFeature:
    def test_frozen_value(self):
        assert entropy_term(3.0, 1.4) == pytest.approx(-1.4131833938090939, rel=1e-12)

    def test_degenerate_inputs(self):
        assert entropy_term(0.0, 2.0) == 0.0
        assert entropy_term(3.0, 0.0) == 0.0
        # ln(1) = 0; keep the sign positive so CSVs never print -0
        result = entropy_term(3.0, 1.0)
        assert result == 0.0
        assert str(result) == "0.0"

    def test_sign_structure(self):
        # contour above 1 pulls the feature negative, below 1 positive
        assert entropy_term(2.0, 1.5) < 0.0
        assert entropy_term(2.0, 0.5) > 0.0


class TestBlockFeature:
    def test_symmetric_window_end_to_end(self):
        # weight 3.0, single-loop contour 1.6: -3.0 * 1.6 * ln(1.6)
        w = np.array([[0.3, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4]])
        assert block_features(w, ContourVariant.G1)[0] == pytest.approx(
            -2.2560174203795316, rel=1e-12
        )

    def test_constant_window_is_zero(self):
        w = np.full((1, 9), 0.7)
        for variant in VARIANTS:
            assert block_features(w, variant)[0] == 0.0


class TestExtract:
    def test_vector_shape_and_grid(self):
        rng = np.random.default_rng(3)
        fv = extract(GrayImage(rng.random((63, 63))))
        assert len(fv) == 441
        assert fv.block_grid == (21, 21)
        assert fv.variant is ContourVariant.G1
        assert fv.ref is FuzzifierRef.AVERAGE

    def test_values_equal_block_features_exactly(self):
        # each block row computed alone is bit-identical to its row of the batch
        rng = np.random.default_rng(4)
        img = GrayImage(rng.random((9, 12)))
        blocks = block_values(img)
        for variant in VARIANTS:
            for ref in REFS:
                fv = extract(img, variant, ref)
                expected = [block_features(blocks[i : i + 1], variant, ref)[0] for i in range(len(blocks))]
                assert fv.values.tolist() == expected

    def test_constant_image_gives_zero_vector(self):
        img = GrayImage(np.full((9, 9), 0.25))
        assert extract(img).values.tolist() == [0.0] * 9

    @settings(max_examples=150, deadline=None)
    @given(raw=raw_images())
    def test_matches_naive_end_to_end(self, raw):
        gray = normalize_unit(raw)
        for variant in VARIANTS:
            for ref in REFS:
                got = extract(gray, variant, ref).values
                want = np.array(naive_feature_vector(
                    raw.pixels.tolist(), raw.width, raw.height, variant.value, ref.value
                ))
                assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
                # CSVs must never print -0
                assert not np.any((got == 0.0) & np.signbit(got))

    def test_single_pixel_changes_at_most_one_feature(self):
        rng = np.random.default_rng(8)
        base = rng.random((9, 9))
        for _ in range(20):
            grid = base.copy()
            r, c = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            grid[r, c] = float(rng.random())
            before = extract(GrayImage(base)).values
            after = extract(GrayImage(grid)).values
            assert int((before != after).sum()) <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        img = GrayImage(rng.random((9, 9)))
        assert np.array_equal(extract(img).values, extract(img).values)

    def test_extract_many_matches_serial_across_workers(self):
        rng = np.random.default_rng(10)
        images = [GrayImage(rng.random((9, 9))) for _ in range(6)]
        serial = extract_many(images, workers=1)
        parallel = extract_many(images, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)


class TestPoolSize:
    # arithmetic only: no pool is started here
    @pytest.mark.parametrize(
        "workers,images,cores,expected",
        [(10**6, 400, 2, 2), (8, 3, 64, 3), (1, 400, 64, 1), (4, 1, 64, 1), (4, 0, 64, 0), (10**6, 400, None, 1)],
    )
    def test_clamps_to_images_and_cores(self, monkeypatch, workers, images, cores, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        assert pool_size(workers, images) == expected


class TestFeatureVectorType:
    def test_rejects_grid_mismatch(self):
        with pytest.raises(ValueError, match="block grid"):
            FeatureVector(np.zeros(5), ContourVariant.G1, FuzzifierRef.AVERAGE, (2, 3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureVector(
                np.array([1.0, np.inf]), ContourVariant.G1, FuzzifierRef.AVERAGE, (1, 2)
            )


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        imgs = [GrayImage(rng.random((6, 6))) for _ in range(3)]
        rows = [
            (f"/data/c{i}/img.pgm", f"c{i}", extract(img, ContourVariant.G2, FuzzifierRef.MAXIMUM))
            for i, img in enumerate(imgs)
        ]
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "path,class,variant,ref," + ",".join(f"v{i}" for i in range(4))
        back = read_features_csv(path)
        assert [b[1] for b in back] == ["c0", "c1", "c2"]
        for (src, label, fv), (bsrc, blabel, bvariant, bref, bvals) in zip(rows, back):
            assert (src, label) == (bsrc, blabel)
            assert bvariant is ContourVariant.G2
            assert bref is FuzzifierRef.MAXIMUM
            assert np.allclose(bvals, fv.values, rtol=1e-11, atol=1e-14)

    def test_twelve_significant_digits(self, tmp_path):
        fv = FeatureVector(
            np.array([0.12345678901234567, 100.0 / 3.0]),
            ContourVariant.G1,
            FuzzifierRef.AVERAGE,
            (1, 2),
        )
        path = tmp_path / "f.csv"
        write_features_csv(path, [("p", "c", fv)])
        row = path.read_text().splitlines()[1]
        assert row.endswith("0.123456789012,33.3333333333")

    def test_empty_needs_feature_count(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_features_csv(path, [], n_features=4)
        assert path.read_text().splitlines() == [
            "path,class,variant,ref," + ",".join(f"v{i}" for i in range(4))
        ]
        with pytest.raises(ValueError, match="n_features"):
            write_features_csv(tmp_path / "x.csv", [])

    def test_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(13)
        fv = extract(GrayImage(rng.random((6, 6))))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(a, [("p", "c", fv)])
        write_features_csv(b, [("p", "c", fv)])
        assert a.read_bytes() == b.read_bytes()

    def test_reader_rejects_other_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="not a feature CSV"):
            read_features_csv(path)
