import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblgc import (
    ContourVariant,
    DatasetError,
    FeatureVector,
    FuzzifierRef,
    GrayImage,
    RawImage,
    block_features,
    block_values,
    entropy_features,
    extract,
    extract_dataset,
    extract_many,
    load_dataset,
    normalize_unit,
    read_features_csv,
    write_features_csv,
)
from nblgc.image_io import pool_size
from conftest import make_pgm_tree
from oracles import naive_feature_vector

VARIANTS = list(ContourVariant)
REFS = list(FuzzifierRef)


def csv_row(source, label, fv, variant=ContourVariant.G1, ref=FuzzifierRef.AVERAGE):
    """A write_features_csv row: the shape read_features_csv returns."""
    return source, label, variant, ref, fv.values


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
        assert fv.values.shape == (21 * 21,)  # one value per block of the 21x21 grid

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


class TestExtractDataset:
    def test_matches_load_dataset_then_extract_many(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=3, per_class=4, size=(12, 6), seed=15)
        (root / "s02" / "img01.pgm").write_bytes(b"junk")
        with pytest.warns(UserWarning, match="skipping") as caught:
            entries = load_dataset(root, (9, 9), skip_errors=True)
        vectors = extract_many([e.image for e in entries], ContourVariant.G2, FuzzifierRef.MINIMUM)
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                paths, labels, matrix, notices = extract_dataset(
                    root, (9, 9), ContourVariant.G2, FuzzifierRef.MINIMUM, skip_errors=True, workers=workers)
            assert paths == [e.source_path for e in entries]
            assert labels == [e.class_label for e in entries]
            assert np.array_equal(matrix, np.stack([fv.values for fv in vectors]))
            assert notices == [str(w.message) for w in caught]

    @pytest.mark.parametrize("tree", ["a class with a corrupt file", "no class directories"])
    def test_both_readers_agree(self, tmp_path, tree):
        root = tmp_path / "ds"
        root.mkdir()
        if tree == "a class with a corrupt file":
            make_pgm_tree(root, n_classes=2, per_class=2, seed=18)
            (root / "s02" / "img00.pgm").write_bytes(b"P5\n9 9\n255\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = load_dataset(root, (9, 9), skip_errors=True)
        paths, labels, _, notices = extract_dataset(root, (9, 9), skip_errors=True)
        assert [(e.class_label, e.source_path) for e in entries] == list(zip(labels, paths))
        assert [str(w.message) for w in caught] == notices
        assert len(notices) == 1

    def test_bad_file_aborts_with_path(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=2, per_class=4, seed=16)
        (root / "s02" / "img03.pgm").write_bytes(b"P5\n9 9\n255\n")
        for workers in (1, 2):
            with pytest.raises(DatasetError, match="failed to load .*img03.pgm: truncated pixel data"):
                extract_dataset(root, (9, 9), workers=workers)

    def test_empty_root_is_a_notice(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths, labels, matrix, notices = extract_dataset(tmp_path, (9, 6))
        assert (paths, labels, matrix.shape) == ([], [], (0, 6))
        assert notices == [f"dataset root {tmp_path} contains no class directories"]


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
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureVector(np.array([1.0, np.inf]))


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        imgs = [GrayImage(rng.random((6, 6))) for _ in range(3)]
        rows = [
            csv_row(f"/data/c{i}/img.pgm", f"c{i}", extract(img, ContourVariant.G2, FuzzifierRef.MAXIMUM),
                    ContourVariant.G2, FuzzifierRef.MAXIMUM)
            for i, img in enumerate(imgs)
        ]
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "path,class,variant,ref," + ",".join(f"v{i}" for i in range(4))
        back = read_features_csv(path)
        assert [b[1] for b in back] == ["c0", "c1", "c2"]
        for (src, label, _, _, vals), (bsrc, blabel, bvariant, bref, bvals) in zip(rows, back):
            assert (src, label) == (bsrc, blabel)
            assert bvariant is ContourVariant.G2
            assert bref is FuzzifierRef.MAXIMUM
            assert np.allclose(bvals, vals, rtol=1e-11, atol=1e-14)

    def test_read_takes_the_exact_values_written(self, tmp_path):
        fv = FeatureVector(np.array([1.0]))
        path = tmp_path / "f.csv"
        write_features_csv(path, [csv_row("p", "c", fv, ContourVariant.G2, FuzzifierRef.MAXIMUM)])
        text = path.read_text()
        assert read_features_csv(path)[0][2:4] == (ContourVariant.G2, FuzzifierRef.MAXIMUM)
        for written, other in ((",g2,", ",G2,"), (",max,", ",MAX,"), (",max,", ", max,")):
            path.write_text(text.replace(written, other))
            with pytest.raises(ValueError, match="is not a valid"):
                read_features_csv(path)

    def test_twelve_significant_digits(self, tmp_path):
        fv = FeatureVector(np.array([0.12345678901234567, 100.0 / 3.0]))
        path = tmp_path / "f.csv"
        write_features_csv(path, [csv_row("p", "c", fv)])
        row = path.read_text().splitlines()[1]
        assert row.endswith("0.123456789012,33.3333333333")

    def test_values_format_like_numpy_scalars(self, tmp_path):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308, 1 / 3, 1e-5, 123456789012.5, 1234567890.125, 7.0, 1e15])
        fv = FeatureVector(values)
        path = tmp_path / "f.csv"
        write_features_csv(path, [csv_row("p", "c", fv)])
        expected = ",".join(["p", "c", "g1", "avg"] + [f"{v:.12g}" for v in values])
        assert path.read_bytes().split(b"\n")[1] == expected.encode()
        assert expected.endswith(",0,-0,4.94065645841e-324,-4.94065645841e-324,1.79769313486e+308,"
                                 "-1.79769313486e+308,0.333333333333,1e-05,123456789012,1234567890.12,7,1e+15")

    def test_matches_the_csv_module_writing_every_field(self, tmp_path):
        # the reference: csv.writer quotes and joins all fields, values formatted by str.format
        rng = np.random.default_rng(14)
        edge = np.array([-0.0, 5e-324, 1e308, 3.0, 123456789012.5, 1234567890.125, 0.5])
        rows = [csv_row(source, "c,1", FeatureVector(values), ContourVariant.G3, FuzzifierRef.MINIMUM)
                for source, values in (('a,"b"\nc.pgm', edge), ("plain.pgm", rng.random(7)))]
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["path", "class", "variant", "ref"] + [f"v{i}" for i in range(7)])
            for source, label, _, _, values in rows:
                writer.writerow([source, label, "g3", "min"] + ["{:.12g}".format(v) for v in values.tolist()])
        path = tmp_path / "f.csv"
        write_features_csv(path, rows)
        assert path.read_bytes() == expected.read_bytes()

    def test_writer_refuses_a_non_finite_value(self, tmp_path):
        fv = extract(GrayImage(np.random.default_rng(13).random((6, 6))))
        path = tmp_path / "f.csv"
        for bad in (np.nan, np.inf, -np.inf):
            values = np.r_[fv.values[:1], bad, fv.values[2:]]
            rows = [csv_row("p", "c", fv), ("q", "c", ContourVariant.G1, FuzzifierRef.AVERAGE, values)]
            with pytest.raises(ValueError, match="row 'q' must hold 4 finite feature values"):
                write_features_csv(path, rows)
            assert not path.exists()  # refused before the file is opened
        path.write_bytes(b"earlier contents\n")
        with pytest.raises(ValueError, match="row 'q' must hold 4 finite feature values"):
            write_features_csv(path, rows)
        assert path.read_bytes() == b"earlier contents\n"

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
        write_features_csv(a, [csv_row("p", "c", fv)])
        write_features_csv(b, [csv_row("p", "c", fv)])
        assert a.read_bytes() == b.read_bytes()

    def test_reader_rejects_other_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="not a feature CSV"):
            read_features_csv(path)
        # every row carries as many values as the header names, as write_features_csv requires
        header = "path,class,variant,ref,v0,v1\n"
        for row, fields in (("p,c,g1,avg,1,2,3", 7), ("p,c,g1,avg,1", 5), ("p,c,g1,avg", 4), ("p,c", 2), ("", 0)):
            path.write_text(header + "p,c,g1,avg,1,2\n" + row + "\n")
            with pytest.raises(ValueError, match=f"{path} line 3: {fields} fields, the header has 6"):
                read_features_csv(path)
        # and every value is finite, as write_features_csv writes them
        path.write_text(header + "p,c,g1,avg,1,2\np,c,g1,avg,nan,inf\n")
        with pytest.raises(ValueError, match=f"{path} line 3: feature values must be finite"):
            read_features_csv(path)
