import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispflow.fileio import (
    FormatError,
    read_csv,
    read_image,
    read_pgm,
    write_csv,
    write_image,
    write_pgm,
)
from dispflow.grid import GridError, ScalarField


class TestPGM:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        f = ScalarField(rng.uniform(-3.0, 7.0, size=(17, 23)), dx1=0.5, dx2=0.25)
        p = tmp_path / "f.pgm"
        write_pgm(p, f)
        g = read_pgm(p)
        assert g.shape == f.shape
        assert g.dx1 == f.dx1 and g.dx2 == f.dx2
        # 16-bit quantization over the recorded range
        step = (7.0 - (-3.0)) / 65535.0
        assert np.max(np.abs(g.values - f.values)) <= step

    def test_constant_field_round_trip(self, tmp_path):
        f = ScalarField(np.full((4, 5), 2.5))
        p = tmp_path / "c.pgm"
        write_pgm(p, f)
        assert np.allclose(read_pgm(p).values, 2.5)

    def test_header_is_p5_16bit(self, tmp_path):
        p = tmp_path / "h.pgm"
        write_pgm(p, ScalarField(np.zeros((3, 4))))
        data = p.read_bytes()
        assert data.startswith(b"P5")
        assert b"65535" in data
        # dimensions line is "width height" = "n2 n1"
        assert b"4 3" in data

    def test_rejects_ascii_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n65535\n0 0 0 0\n")
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_rejects_truncated_pixels(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n" + bytes(6))
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_rejects_8bit_maxval(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_pgm(p)

    @staticmethod
    def _with_comment(path, comment):
        path.write_bytes(b"P5\n" + comment + b"\n2 2\n65535\n" + bytes(8))
        return path

    @pytest.mark.parametrize(
        "comment",
        [b"# dispflow range 0.0 1.0 spacing 0.1", b"# dispflow range abc 1.0 spacing 0.1 0.1"],
        ids=["missing-spacing", "non-numeric-range"],
    )
    def test_rejects_malformed_dispflow_comment(self, tmp_path, comment):
        with pytest.raises(FormatError, match="malformed dispflow comment") as info:
            read_pgm(self._with_comment(tmp_path / "c.pgm", comment))
        assert "\n" not in str(info.value) and comment.decode() in str(info.value)

    def test_rejects_negative_spacing(self, tmp_path):
        # read as unset: the file gave spacing 1/n
        p = self._with_comment(tmp_path / "s.pgm", b"# dispflow range 0.0 1.0 spacing 0.1 -0.1")
        with pytest.raises(GridError, match=r"^dx2 must be non-negative and finite, got -0\.1$"):
            read_pgm(p)

    def test_rejects_unterminated_comment(self, tmp_path):
        p = tmp_path / "u.pgm"
        p.write_bytes(b"P5\n# no end of line")
        with pytest.raises(FormatError, match="^unterminated comment in PGM header: ") as info:
            read_pgm(p)
        assert str(info.value).endswith("'# no end of line'")

    def test_rejects_non_integer_width(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\nx 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="^non-integer width, height or maxval in PGM") as info:
            read_pgm(p)
        assert str(info.value).endswith("'x 2 65535'")

    def test_other_comments_are_ignored(self, tmp_path):
        g = read_pgm(self._with_comment(tmp_path / "c.pgm", b"# written by another tool"))
        assert np.array_equal(g.values, np.zeros((2, 2)))


class TestCSV:
    def test_lossless_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        f = ScalarField(rng.standard_normal((9, 6)), dx1=0.1, dx2=2.0)
        p = tmp_path / "f.csv"
        write_csv(p, f)
        g = read_csv(p)
        assert np.array_equal(g.values, f.values)
        assert g.dx1 == f.dx1 and g.dx2 == f.dx2

    def test_plain_csv_without_header(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,2,3\n4,5,6\n")
        g = read_csv(p)
        assert np.array_equal(g.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize(
        "header",
        ["# dispflow spacing 0.1", "# dispflow spacing 0.1 x"],
        ids=["missing-spacing", "non-numeric-spacing"],
    )
    def test_rejects_malformed_dispflow_header(self, tmp_path, header):
        p = tmp_path / "bad.csv"
        p.write_text(header + "\n1,2\n3,4\n")
        with pytest.raises(FormatError, match="^malformed dispflow comment in CSV header: ") as info:
            read_csv(p)
        assert str(info.value).endswith(repr(header))

    def test_rejects_negative_or_non_finite_spacing(self, tmp_path):
        # read as dx1 = 1/3 and dx2 = nan, and a flow on it ran
        p = tmp_path / "s.csv"
        p.write_text("# dispflow spacing -1 nan\n1,2\n3,4\n5,6\n")
        with pytest.raises(GridError, match=r"^dx1 must be non-negative and finite, got -1\.0$"):
            read_csv(p)
        p.write_text("# dispflow spacing 1 nan\n1,2\n3,4\n5,6\n")
        with pytest.raises(GridError, match=r"^dx2 must be non-negative and finite, got nan$"):
            read_csv(p)

    def test_single_row(self, tmp_path):
        p = tmp_path / "row.csv"
        p.write_text("1,2,3\n")
        assert read_csv(p).shape == (1, 3)

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_random(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        f = ScalarField(rng.uniform(-1e6, 1e6, size=(4, 4)))
        with tempfile.NamedTemporaryFile(suffix=".csv", mode="w", delete=False) as fh:
            pass
        write_csv(fh.name, f)
        assert np.array_equal(read_csv(fh.name).values, f.values)


class TestDispatch:
    def test_extension_dispatch(self, tmp_path):
        f = ScalarField(np.eye(3))
        write_image(tmp_path / "a.pgm", f)
        write_image(tmp_path / "a.csv", f)
        assert np.array_equal(read_image(tmp_path / "a.csv").values, np.eye(3))
        assert read_image(tmp_path / "a.pgm").shape == (3, 3)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(FormatError):
            write_image(tmp_path / "a.png", ScalarField(np.eye(2)))
        with pytest.raises(FormatError):
            read_image(tmp_path / "a.png")
