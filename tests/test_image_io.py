import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_pgm_tree, random_raw, write_pgm
from nblgc import (
    DatasetError,
    FeatureVector,
    GrayImage,
    LabeledSample,
    PgmParseError,
    RawImage,
    load_dataset,
    normalize_unit,
    parse_pgm,
    resize_bilinear,
)
from nblgc.image_io import _owned, _resize_plan
from nblgc.options import MAX_RESIZE_PIXELS


class TestParsePgm:
    def test_p2_basic(self):
        raw = parse_pgm(b"P2\n2 2\n255\n0 128\n255 64\n")
        assert (raw.width, raw.height, raw.max_gray) == (2, 2, 255)
        assert raw.pixels.tolist() == [0, 128, 255, 64]

    def test_p5_single_byte(self):
        raw = parse_pgm(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        assert raw.pixels.tolist() == [0, 128, 255, 64]

    def test_p5_two_byte_big_endian(self):
        raw = parse_pgm(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0xFF, 0xFF]))
        assert raw.pixels.tolist() == [256, 65535]
        assert raw.max_gray == 65535

    def test_comments_between_header_tokens(self):
        data = b"P2 # magic done\n# full comment line\n2 # width\n1\n# before maxval\n255\n7 9\n"
        raw = parse_pgm(data)
        assert (raw.width, raw.height) == (2, 1)
        assert raw.pixels.tolist() == [7, 9]

    def test_comments_inside_p2_raster(self):
        raw = parse_pgm(b"P2\n2 1\n10\n3 # midway\n4\n")
        assert raw.pixels.tolist() == [3, 4]

    @pytest.mark.parametrize("data", [b"", b"P", b"P3\n1 1\n1\n0\n", b"XY junk", b"P2x1 1 1 0"])
    def test_malformed_magic(self, data):
        with pytest.raises(PgmParseError, match="magic"):
            parse_pgm(data)

    def test_non_numeric_header_token(self):
        with pytest.raises(PgmParseError, match="non-numeric width"):
            parse_pgm(b"P2\nab 2\n255\n0 0\n")

    def test_truncated_p2_raster(self):
        data = b"P2\n2 2\n255\n0 128 255\n"
        with pytest.raises(PgmParseError, match="truncated pixel data") as err:
            parse_pgm(data)
        assert err.value.offset == len(data)

    def test_truncated_p5_raster(self):
        with pytest.raises(PgmParseError, match="truncated pixel data"):
            parse_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_p2_pixel_exceeds_max_gray(self):
        with pytest.raises(PgmParseError, match="exceeds max_gray 10") as err:
            parse_pgm(b"P2\n1 1\n10\n11\n")
        assert err.value.offset == 10

    def test_p5_pixel_exceeds_max_gray(self):
        with pytest.raises(PgmParseError, match="exceeds max_gray 100"):
            parse_pgm(b"P5\n2 1\n100\n" + bytes([5, 200]))

    def test_errors_name_byte_offset(self):
        with pytest.raises(PgmParseError, match="byte offset"):
            parse_pgm(b"P2\n2 2\n255\n1 2\n")

    @pytest.mark.parametrize("max_gray", [0, 65536])
    def test_max_gray_out_of_range(self, max_gray):
        with pytest.raises(PgmParseError, match="max_gray"):
            parse_pgm(f"P2\n1 1\n{max_gray}\n0\n".encode())

    def test_zero_width_rejected(self):
        with pytest.raises(PgmParseError, match="width"):
            parse_pgm(b"P2\n0 2\n255\n")

    def test_p5_trailing_bytes_tolerated(self):
        raw = parse_pgm(b"P5\n1 1\n255\n" + bytes([9]) + b"\n")
        assert raw.pixels.tolist() == [9]

    def test_p2_huge_header_is_a_parse_error(self):
        with pytest.raises(PgmParseError, match="truncated pixel data"):
            parse_pgm(b"P2 99999999999 99999999999 255 1")

    @pytest.mark.parametrize(
        "data,pixels",
        [
            (b"P2\x0b2\x0c1\r\n9\r\n3\x0b4\x0c", [3, 4]),
            (b"P2 2 1 9\n3#c\n4\n", [3, 4]),
            (b"P2 2 1 9\n3 4 #no newline", [3, 4]),
            (b"P2 2 1 9\n" + b"0" * 24 + b"1 4\n", [1, 4]),
            (b"P2 2 1 9\n3 4", [3, 4]),
        ],
        ids=["vt-ff-crlf", "comment-glued", "comment-at-eof", "leading-zeros", "token-at-eof"],
    )
    def test_p2_noncanonical_layouts(self, data, pixels):
        assert parse_pgm(data).pixels.tolist() == pixels

    @pytest.mark.parametrize("head,offset", [(b"P2 ", 3), (b"P2 1 1 9\n", 9)], ids=["header", "raster"])
    def test_token_past_int_digit_limit(self, head, offset):
        with pytest.raises(PgmParseError, match="token of 4400 digits") as err:
            parse_pgm(head + b"1" * 4400 + b"\n")
        assert err.value.offset == offset

    def test_non_numeric_raster_token(self):
        # a token spelling "truncated" is non-numeric, not a truncated raster
        with pytest.raises(PgmParseError, match="non-numeric raster value token b'truncated'") as err:
            parse_pgm(b"P2 2 1 9\n1 truncated\n")
        assert err.value.offset == 11

    def test_p5_raster_follows_one_separator(self):
        assert parse_pgm(b"P5 1 1 255\n#").pixels.tolist() == [ord("#")]
        with pytest.raises(PgmParseError, match="truncated pixel data") as err:
            parse_pgm(b"P5 1 1 255#c\n\x07")
        assert err.value.offset == 10

    @pytest.mark.parametrize(
        "tokens",
        [[b"3", b"4", b"5", b"6"], [b"3", b"x", b"5", b"6"], [b"3", b"4", b"10", b"6"], [b"3", b"4", b"5"],
         [b"3", b"1" * 4400, b"5", b"6"], [b"3", b"0" * 6 + b"4", b"5", b"1" + b"0" * 5]],
        ids=["valid", "non-numeric", "exceeds-max-gray", "truncated", "too-long", "long-tokens"],
    )
    def test_p2_comments_change_no_pixel_and_no_offset(self, tokens):
        # each comment takes the place of as many whitespace bytes, the first at the raster's start
        plain = b"P2 2 2 9   \n" + b"".join(t + b"   \n" for t in tokens)
        commented = b"P2 2 2 9#x \n" + b"".join(t + b"#x \n" for t in tokens)
        assert _outcome(parse_pgm, commented) == _outcome(parse_pgm, plain) == _outcome(oracles.parse_pgm, plain)

    @pytest.mark.parametrize(
        "layout",
        [lambda b: b"P2 2 1 9\n1" + b + b"2\n", lambda b: b"P2 2 1 9\n1 2" + b, lambda b: b"P2 2 1 9\n1 2\n" + b + b"x"],
        ids=["separator", "glued-at-eof", "after-last-token"],
    )
    @pytest.mark.parametrize("byte", range(256))
    def test_p2_every_byte_classes_as_the_reference_decoder(self, byte, layout):
        # whitespace is exactly space, tab, LF, VT, FF and CR; a byte after the last needed token stays unread
        data = layout(bytes([byte]))
        assert _outcome(parse_pgm, data) == _outcome(oracles.parse_pgm, data)

    @pytest.mark.parametrize(
        "raster,pixels",
        [
            (b"65535 1", [65535, 1]),
            (b"065535 000001", [65535, 1]),
            (b"0065535 0000000", [65535, 0]),
            (b"7 0000000000000000000042", [7, 42]),
            (b"100000 1", None),
            (b"1 1000000", None),
            (b"0100000 1", None),
            (b"0065535 0100001", None),
            (b"1 x000001", None),
            (b"1 2 100000", [1, 2]),
            (b"1 2\n1234567", [1, 2]),
            (b"1 2 x", [1, 2]),
        ],
        ids=["5-digit", "6-digit-zero-leads", "7-digit-zero-leads", "22-digit-zero-leads", "6-digit-nonzero-lead",
             "7-digit-nonzero-lead", "inner-nonzero-lead", "second-long-token-bad", "non-numeric-lead", "6-digit-after-count",
             "7-digit-after-count", "non-numeric-after-count"],
    )
    def test_p2_tokens_longer_than_five_digits(self, raster, pixels):
        # at max_gray 65535 a token is read whole when only zeros stand before its last five digits
        data = b"P2 2 1 65535\n" + raster
        outcome = _outcome(parse_pgm, data)
        assert outcome == _outcome(oracles.parse_pgm, data)
        if pixels is None:
            assert outcome[0] is PgmParseError
        else:
            assert outcome[-1] == pixels

    def test_p2_memory_bounded_by_input(self):
        # the header promises 10**10 pixels; the input holds three
        tracemalloc.start()
        try:
            with pytest.raises(PgmParseError, match="truncated pixel data"):
                parse_pgm(b"P2 100000 100000 255\n1 2 3\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_p2_decode_memory_is_a_few_times_the_input(self):
        # an ORL-sized image; measured 11.4x with numpy 2.4, int32 digit places
        # and no byte-class translate (10.5x with the translate and uint8 places,
        # 14.9x with a 2*count int64 edges array, 35.0x for a bytes.split and an
        # int() per token)
        data = write_pgm(random_raw(np.random.default_rng(0), width=92, height=112))
        parse_pgm(data)
        tracemalloc.start()
        try:
            parse_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13 * len(data)


@st.composite
def raw_images(draw):
    max_gray = draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pixels = draw(st.lists(st.integers(0, max_gray), min_size=width * height, max_size=width * height))
    return RawImage(width, height, max_gray, np.array(pixels, dtype=np.uint16))


_PREFIXES = [b"", b"P2", b"P5", b"P2 ", b"P5\n", b"P2 2 2 255\n", b"P5 2 1 255\n", b"P5 2 1 65535\n", b"P2 3 1 9 #c\n",
             b"P2 2 1 9\n" + b"7" * 4400]


# whitespace runs, CRLF, comments glued to the token before them
_P2_SEP = st.lists(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b" \n ", b"#c\n", b" # x\r\n", b"#\r"]),
    min_size=1, max_size=3,
).map(b"".join)


def _n_digits(n, value, pattern, padded):
    """Zeros then at most five digits, or a repeated digit pattern (mostly >= 100000)."""
    return (str(value).zfill(n)[-n:] if padded else (pattern * n)[:n]).encode()


_P2_LONG = st.builds(_n_digits, st.sampled_from([5, 6, 18, 19, 20, 4300, 4301]), st.integers(0, 99999),
                     st.text("0123456789", min_size=1, max_size=6), st.booleans())
_P2_ODD = st.sampled_from([b"+5", b"-5", b"-0", b"\xb2", b"1\xff", b"\xd9\xa3", b"truncated", b"1_0", b"0x1", b"5.0"])


@st.composite
def p2_inputs(draw):
    """P2 bytes near the grammar's edges: most reach the raster, about a sixth parse."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    max_gray = draw(st.one_of(st.integers(1, 255), st.integers(256, 65535), st.sampled_from([255, 256, 65535])))
    token = st.one_of(
        st.integers(0, max_gray).map(b"%d".__mod__),
        st.sampled_from([max_gray, max_gray + 1, 65535, 65536, 99999, 100000]).map(b"%d".__mod__),
        st.tuples(st.integers(1, 25), st.integers(0, max_gray)).map(lambda t: b"0" * t[0] + b"%d" % t[1]),
        _P2_LONG,
        _P2_ODD,
    )
    count = width * height
    n_tokens = draw(st.sampled_from([count, count, count, count - 1, count + 1]))
    seps = [draw(_P2_SEP) for _ in range(n_tokens)]
    if seps and draw(st.booleans()):
        seps[-1] = b""  # the last token runs to EOF, or into the tail
    raster = b"".join(draw(token) + sep for sep in seps)
    tail = draw(st.sampled_from([b"", b"", b"#eof", b"\x00garbage\xff", b"99999999 -1"]))
    header = b"P2%s%d%s%d%s%d%s" % (draw(_P2_SEP), width, draw(_P2_SEP), height, draw(_P2_SEP), max_gray, draw(_P2_SEP))
    return header + raster + tail


def _outcome(parse, data):
    try:
        raw = parse(data)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None)
    return raw.width, raw.height, raw.max_gray, raw.pixels.dtype, raw.pixels.tolist()


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(raw=raw_images(), binary=st.booleans())
    def test_write_then_parse_is_identity(self, raw, binary):
        assert parse_pgm(write_pgm(raw, binary=binary)) == raw

    @settings(max_examples=400, deadline=None)
    @given(data=p2_inputs())
    def test_p2_matches_the_reference_decoder(self, data):
        assert _outcome(parse_pgm, data) == _outcome(oracles.parse_pgm, data)

    @settings(max_examples=500, deadline=None)
    @given(prefix=st.sampled_from(_PREFIXES), tail=st.binary(max_size=40))
    def test_arbitrary_bytes_raise_only_parse_errors(self, prefix, tail):
        try:
            parse_pgm(prefix + tail)
        except PgmParseError:
            pass


class TestRoundTrip:
    def test_write_pgm_bytes(self):
        raw = RawImage(3, 2, 65535, np.array([0, 7, 65535, 10, 255, 256], dtype=np.uint16))
        assert write_pgm(raw) == b"P2\n3 2\n65535\n0 7 65535\n10 255 256\n"
        assert write_pgm(raw, binary=True) == b"P5\n3 2\n65535\n\x00\x00\x00\x07\xff\xff\x00\x0a\x00\xff\x01\x00"
        one = RawImage(1, 1, 9, np.array([9], dtype=np.uint16))
        assert (write_pgm(one), write_pgm(one, binary=True)) == (b"P2\n1 1\n9\n9\n", b"P5\n1 1\n9\n\x09")

    def test_p2_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            raw = random_raw(rng, width=int(rng.integers(1, 8)), height=int(rng.integers(1, 8)))
            assert parse_pgm(write_pgm(raw)) == raw

    @pytest.mark.parametrize("max_gray", [255, 65535])
    def test_p5_roundtrip_both_depths(self, max_gray):
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = random_raw(rng, width=4, height=3, max_gray=max_gray)
            assert parse_pgm(write_pgm(raw, binary=True)) == raw


class TestNormalize:
    def test_divides_by_image_max_not_header(self):
        raw = RawImage(3, 1, 255, np.array([10, 20, 40], dtype=np.uint16))
        assert normalize_unit(raw).pixels.tolist() == [[0.25, 0.5, 1.0]]

    def test_example_values(self):
        raw = parse_pgm(b"P2\n2 2\n255\n0 128\n255 64\n")
        gray = normalize_unit(raw)
        assert gray.pixels[0, 0] == 0.0
        assert gray.pixels[1, 0] == 1.0
        assert gray.pixels[0, 1] == pytest.approx(128 / 255)

    def test_all_zero_image(self):
        raw = RawImage(2, 2, 255, np.zeros(4, dtype=np.uint16))
        assert normalize_unit(raw).pixels.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_peak_is_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = random_raw(rng, width=5, height=4)
            if int(raw.pixels.max()) == 0:
                continue
            gray = normalize_unit(raw)
            assert float(gray.pixels.max()) == 1.0
            assert float(gray.pixels.min()) >= 0.0


class TestResize:
    def test_identity_is_bit_identical(self):
        rng = np.random.default_rng(8)
        img = GrayImage(rng.random((6, 9)))
        out = resize_bilinear(img, 9, 6)
        assert np.array_equal(out.pixels, img.pixels)

    def test_two_pixel_upscale(self):
        img = GrayImage(np.array([[0.0, 1.0]]))
        out = resize_bilinear(img, 3, 1)
        assert out.pixels.tolist() == [[0.0, 0.5, 1.0]]

    def test_constant_stays_constant(self):
        img = GrayImage(np.full((4, 6), 0.5))
        out = resize_bilinear(img, 5, 7)
        assert (out.pixels == 0.5).all()

    def test_output_range(self):
        rng = np.random.default_rng(21)
        img = GrayImage(rng.random((12, 15)))
        for target in [(3, 3), (30, 24), (7, 11)]:
            out = resize_bilinear(img, *target)
            assert (out.pixels >= 0.0).all() and (out.pixels <= 1.0).all()
            assert (out.width, out.height) == target

    def test_rejects_non_positive_target(self):
        img = GrayImage(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            resize_bilinear(img, 0, 3)


def uncached_resize(image, out_width, out_height):
    """resize_bilinear's math, every index and weight computed afresh."""
    src = image.pixels
    xs = np.clip((np.arange(out_width) + 0.5) * (image.width / out_width) - 0.5, 0.0, image.width - 1)
    ys = np.clip((np.arange(out_height) + 0.5) * (image.height / out_height) - 0.5, 0.0, image.height - 1)
    x0, y0 = np.floor(xs).astype(np.intp), np.floor(ys).astype(np.intp)
    x1, y1 = np.minimum(x0 + 1, image.width - 1), np.minimum(y0 + 1, image.height - 1)
    fx, fy = xs - x0, (ys - y0)[:, None]
    top = src[y0][:, x0] + fx * (src[y0][:, x1] - src[y0][:, x0])
    bottom = src[y1][:, x0] + fx * (src[y1][:, x1] - src[y1][:, x0])
    return np.clip(top + fy * (bottom - top), 0.0, 1.0)


def fancy_index_resize(image, out_width, out_height):
    """resize_bilinear as it read before it ran in place: new arrays from
    fancy indexing, each lerp written v0 + f*(v1 - v0)."""
    src = image.pixels
    x0, x1, y0, y1, fx, fy = _resize_plan(image.width, image.height, out_width, out_height)
    c0 = src[:, x0]
    cols = c0 + fx * (src[:, x1] - c0)
    return np.clip(cols[y0] + fy * (cols[y1] - cols[y0]), 0.0, 1.0)


class TestResizeInPlace:
    @pytest.mark.parametrize("source,target", [((9, 6), (9, 6)), ((1, 1), (6, 9)), ((12, 15), (1, 1)),
                                               ((7, 5), (1, 4)), ((9, 6), (27, 21)), ((92, 112), (63, 63))],
                             ids=["identity", "1x1 up", "to 1x1", "to one column", "upscale", "downscale"])
    def test_same_bits_as_the_fancy_index_form(self, source, target):
        rng = np.random.default_rng(23)
        for pixels in (rng.random(source[::-1]), rng.integers(0, 2, source[::-1]) * 1.0):
            image = GrayImage(pixels)
            out = resize_bilinear(image, *target)
            assert out.pixels.tobytes() == fancy_index_resize(image, *target).tobytes()
            assert (out.width, out.height) == target and not out.pixels.flags.writeable


class TestResizePlan:
    @pytest.mark.parametrize("source,target", [((92, 112), (63, 63)), ((6, 9), (9, 6)), ((9, 6), (9, 6)),
                                               ((1, 2), (3, 1)), ((12, 15), (7, 11))])
    def test_cached_plan_gives_the_uncached_result(self, source, target):
        rng = np.random.default_rng(22)
        for _ in range(3):  # the later images of a size reuse its plan
            image = GrayImage(rng.random(source[::-1]))
            assert np.array_equal(resize_bilinear(image, *target).pixels, uncached_resize(image, *target))

    def test_plan_is_read_only(self):
        plan = _resize_plan(92, 112, 63, 63)
        assert plan is _resize_plan(92, 112, 63, 63)
        for array in plan:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestLoadDataset:
    def test_sorted_order_and_labels(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=3, per_class=2, seed=1)
        entries = load_dataset(root, resize_to=(9, 9))
        assert [e.class_label for e in entries] == ["s01", "s01", "s02", "s02", "s03", "s03"]
        assert [e.source_path for e in entries] == [str(root / c / f) for c in ("s01", "s02", "s03")
                                                    for f in ("img00.pgm", "img01.pgm")]
        assert all(e.image.width == 9 and e.image.height == 9 for e in entries)
        again = load_dataset(root, resize_to=(9, 9))
        assert [e.source_path for e in again] == [e.source_path for e in entries]

    def test_orl_layout_counts(self, tmp_path):
        root = tmp_path / "orl"
        make_pgm_tree(root, n_classes=40, per_class=10, size=(6, 6), seed=2)
        entries = load_dataset(root, resize_to=(9, 9))
        assert len(entries) == 400
        assert len({e.class_label for e in entries}) == 40

    def test_empty_root_warns(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.warns(UserWarning, match="no class directories"):
            assert load_dataset(root) == []

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            load_dataset(tmp_path / "nope")

    def test_bad_file_aborts_with_path(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=3)
        bad = root / "s01" / "broken.pgm"
        bad.write_bytes(b"P2\n2 2\n255\n1 2\n")
        with pytest.raises(DatasetError, match="broken.pgm"):
            load_dataset(root, resize_to=(9, 9))

    def test_skip_errors_downgrades(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=2, seed=3)
        (root / "s01" / "broken.pgm").write_bytes(b"junk")
        with pytest.warns(UserWarning, match="skipping"):
            entries = load_dataset(root, resize_to=(9, 9), skip_errors=True)
        assert [e.source_path for e in entries] == [str(root / "s01" / f) for f in ("img00.pgm", "img01.pgm")]

    def test_non_pgm_files_ignored(self, tmp_path):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=4)
        (root / "s01" / "notes.txt").write_text("not an image")
        assert len(load_dataset(root, resize_to=(9, 9))) == 1

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
    def test_rejects_labels_a_model_file_cannot_hold(self, tmp_path, name):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=6)
        (root / "s01").rename(root / name)
        with pytest.raises(DatasetError, match="tab or line break"):
            load_dataset(root, resize_to=(9, 9))

    @pytest.mark.parametrize("source, target, message", [
        ("s01", "s\udce9", "class label .* is not UTF-8"),
        ("s01/img00.pgm", "s01/img\udce9.pgm", "file name is not UTF-8"),
    ], ids=["class directory", "file"])
    def test_rejects_names_that_are_not_utf8(self, tmp_path, source, target, message):
        # the byte 0xe9 alone is not UTF-8: Python names the path with the lone surrogate U+DCE9
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=6)
        (root / source).rename(root / target)
        with pytest.raises(DatasetError, match=message):
            load_dataset(root, resize_to=(9, 9))

    @pytest.mark.parametrize("target", [(10, 9), (9, 10), (0, 9), (2, 2)])
    def test_rejects_bad_resize_target(self, tmp_path, target):
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=5)
        with pytest.raises(ValueError, match="multiples of 3"):
            load_dataset(root, resize_to=target)

    @pytest.mark.parametrize("target", [(258, 258), (999, 999), (30000, 30000)])
    def test_refuses_a_target_above_the_pixel_bound_before_reading(self, tmp_path, target):
        # the root does not exist, so the refusal cannot have read a file
        with pytest.raises(ValueError, match=f"<= {MAX_RESIZE_PIXELS} pixels"):
            load_dataset(tmp_path / "absent", resize_to=target)
        root = tmp_path / "ds"
        make_pgm_tree(root, n_classes=1, per_class=1, seed=5)
        (entry,) = load_dataset(root, resize_to=(255, 255))  # the largest square target
        assert entry.image.pixels.shape == (255, 255)


class TestTypes:
    def test_raw_image_validation(self):
        with pytest.raises(ValueError):
            RawImage(2, 2, 255, np.array([1, 2, 3], dtype=np.uint16))
        with pytest.raises(ValueError):
            RawImage(1, 1, 0, np.array([0], dtype=np.uint16))
        with pytest.raises(ValueError):
            RawImage(1, 1, 10, np.array([11], dtype=np.uint16))

    @pytest.mark.parametrize(
        "max_gray,pixels",
        [(255, np.array([65541])), (255, np.array([2.7])), (65535, np.array([-1])), (65535, [65541])],
        ids=["wraps-past-uint16", "fraction", "negative", "list-past-uint16"],
    )
    def test_raw_image_refuses_values_a_cast_would_change(self, max_gray, pixels):
        with pytest.raises(ValueError, match="pixel values must be integers in"):
            RawImage(1, 1, max_gray, pixels)

    def test_raw_image_takes_whole_values_of_any_numeric_dtype(self):
        for pixels in (np.array([0.0, 9.0]), np.array([0, 9], dtype=np.int64), [0, 9], np.array([False, True])):
            assert RawImage(2, 1, 9, pixels).pixels.dtype == np.uint16

    def test_gray_image_validation(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-0.1, 0.5]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4))

    def test_images_are_read_only(self):
        raw = RawImage(1, 1, 255, np.array([7], dtype=np.uint16))
        gray = GrayImage(np.zeros((2, 2)))
        # the parsed, normalized and resized arrays are frozen in place by image_io._owned
        p2 = parse_pgm(b"P2 2 1 9\n3 4\n")
        p5 = parse_pgm(b"P5 2 1 255\n" + bytes([3, 4]))
        unit = normalize_unit(p2)
        for image in (raw, gray, p2, p5, unit, resize_bilinear(unit, 5, 7)):
            with pytest.raises(ValueError, match="read-only"):
                image.pixels.flat[0] = 1

    def test_raw_images_compare_and_hash_by_value(self):
        raw, twin = (RawImage(2, 1, 255, np.array([7, 9], dtype=np.uint16)) for _ in range(2))
        assert raw == twin and hash(raw) == hash(twin)
        assert twin in {raw} and twin in [raw]
        for other in (RawImage(2, 1, 254, np.array([7, 9])), RawImage(1, 2, 255, np.array([7, 9])),
                      RawImage(2, 1, 255, np.array([7, 8]))):
            assert other != raw and other not in {raw}

    def test_gray_images_compare_and_hash_by_identity(self):
        gray, twin = GrayImage(np.zeros((2, 2))), GrayImage(np.zeros((2, 2)))
        assert gray == gray and gray != twin
        assert hash(gray) == hash(gray)
        assert gray in {gray} and twin not in {gray}
        assert gray in [twin, gray] and twin not in [gray]

    def test_owned_images_need_every_field(self):
        with pytest.raises(TypeError, match="takes exactly the fields"):
            _owned(RawImage, width=1, height=1, pixels=np.zeros(1, np.uint16))

    @pytest.mark.parametrize(
        "make,array",
        [
            (lambda a: RawImage(2, 1, 255, a), np.array([3, 4], dtype=np.uint16)),
            (lambda a: GrayImage(a), np.zeros((2, 2))),
            (lambda a: FeatureVector(a), np.zeros(2)),
            (lambda a: LabeledSample(a, "a"), np.zeros(2)),
        ],
        ids=["RawImage", "GrayImage", "FeatureVector", "LabeledSample"],
    )
    def test_constructors_leave_callers_array_writeable(self, make, array):
        before = array.copy()
        make(array)
        assert array.flags.writeable
        array.flat[0] = 1
        assert not np.array_equal(array, before)
