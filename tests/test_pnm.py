import io

import pytest
from hypothesis import given, settings, strategies as st

from stegosampler.pnm import (
    BadHeader,
    BadMagic,
    ImageGrid,
    MaxvalUnsupported,
    ShortData,
    read_image,
    write_image,
)


class TestRead:
    def test_p5_basic(self):
        g = read_image(b"P5 2 2 255\n" + bytes([0, 1, 2, 3]))
        assert (g.width, g.height, g.channels) == (2, 2, 1)
        assert bytes(g.data) == bytes([0, 1, 2, 3])

    def test_p6_single_pixel(self):
        g = read_image(b"P6 1 1 255\n" + bytes([10, 20, 30]))
        assert g.channels == 3
        assert bytes(g.data) == bytes([10, 20, 30])

    def test_comments_and_whitespace(self):
        raw = b"P5 # a comment\n#another\n  2\t1 # w h\n255\n\x05\x06"
        g = read_image(raw)
        assert bytes(g.data) == b"\x05\x06"

    def test_short_data(self):
        with pytest.raises(ShortData):
            read_image(b"P5 2 2 255\n\x00\x01\x02")

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_image(b"P4 2 2 255\n\x00")

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            read_image(b"P5 2 x 255\n\x00")

    def test_maxval(self):
        with pytest.raises(MaxvalUnsupported):
            read_image(b"P5 1 1 65535\n\x00\x00")

    def test_file_object(self):
        g = read_image(io.BytesIO(b"P5 1 1 255\n\x2a"))
        assert g.data[0] == 42


# a '#' comment runs to the newline, which it includes
COMMENTS = st.binary(max_size=8).map(lambda c: b"#" + c.replace(b"\n", b"") + b"\n")
# what may follow the magic, width and height: whitespace bytes and comments
GAPS = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c"]) | COMMENTS,
                min_size=1, max_size=2).map(b"".join)
# what may follow maxval: one whitespace byte, which may end a comment
ENDS = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]) | COMMENTS


class TestHeaderGrammar:
    def test_comment_after_maxval_is_not_raster(self):
        # the newline that ends the comment is the one whitespace byte before the raster
        assert read_image(b"P5 1 1 255#c\n*").data == b"*"

    @settings(max_examples=200)
    @given(st.sampled_from([(b"P5", 1), (b"P6", 3)]), st.integers(1, 3), st.integers(1, 3),
           st.lists(GAPS, min_size=3, max_size=3), ENDS, st.data())
    def test_any_legal_header_reads_the_raster_exactly(self, kind, w, h, gaps, end, data):
        (magic, channels), (g1, g2, g3) = kind, gaps
        raster = data.draw(st.binary(min_size=w * h * channels, max_size=w * h * channels))
        raw = magic + g1 + b"%d" % w + g2 + b"%d" % h + g3 + b"255" + end + raster
        g = read_image(raw)
        assert (g.width, g.height, g.channels, bytes(g.data)) == (w, h, channels, raster)

    @pytest.mark.parametrize("raw", [b" P5 1 1 255\n*", b"#c\nP5 1 1 255\n*"])
    def test_bytes_before_the_magic(self, raw):
        with pytest.raises(BadMagic):
            read_image(raw)

    @pytest.mark.parametrize("raw", [b"P5 +1 1 255\n*", b"P5 1_0 1 255\n" + bytes(10)])
    def test_numbers_are_plain_digits(self, raw):
        with pytest.raises(BadHeader):
            read_image(raw)

    def test_maxval_then_end_of_file(self):
        with pytest.raises(BadHeader):
            read_image(b"P5 1 1 255")


class TestWrite:
    def test_canonical_bytes(self):
        g = ImageGrid(2, 2, 1, bytearray([0, 1, 2, 3]))
        raw = write_image(g)
        assert raw == b"P5\n2 2\n255\n\x00\x01\x02\x03"
        assert len(raw) == 15

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            ImageGrid(2, 2, 2, bytearray(8))

    def test_rejects_data_of_another_length(self):
        with pytest.raises(ValueError, match="data length"):
            ImageGrid(2, 2, 3, bytearray(4))

    def test_file_roundtrip(self, tmp_path):
        g = ImageGrid(3, 1, 3, bytearray(range(9)))
        path = tmp_path / "x.ppm"
        write_image(g, path)
        assert read_image(path).data == g.data


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
def test_write_read_identity(w, h, c, rnd):
    data = bytearray(rnd.randrange(256) for _ in range(w * h * c))
    g = ImageGrid(w, h, c, data)
    back = read_image(write_image(g))
    assert (back.width, back.height, back.channels, back.data) == (w, h, c, data)
