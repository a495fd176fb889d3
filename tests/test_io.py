import numpy as np
import pytest

from cvrpkit import (
    CvrpSweep,
    PolarizedPattern,
    SphericalMask,
    compare_sweeps,
    cvrp,
    cvrp_sweep,
    read_pattern,
    read_sweep_csv,
    trp,
    write_pattern,
    write_sweep_csv,
)
from cvrpkit.grid import AngularGrid, Convention, Direction
from cvrpkit.patternio import FORMAT_VERSION

TOY = """\
# format_version: cvrp-pattern/1
# frequency_hz: 2.8e+10
# convention: standard
# dtheta_deg: 90
# dphi_deg: 180
theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm
0,0,0,-inf
0,180,0,-inf
90,0,10,0
90,180,-inf,0
180,0,-10,-inf
180,180,-10,-inf
"""


BODY = TOY.partition("eirp_phi_dbm\n")[2]

# TOY on distributed axes: theta -90..90, phi 0..180.
DISTRIBUTED = TOY.replace("convention: standard", "convention: distributed").replace(
    "180,0,-10,-inf\n180,180,-10,-inf\n", "-90,0,-10,-inf\n-90,180,-10,-inf\n")
BODY_DISTRIBUTED = DISTRIBUTED.partition("eirp_phi_dbm\n")[2]

# TOY as the writer spells it: the writer prints 12 significant digits.
GOLDEN = TOY.replace("2.8e+10", "28000000000")


def write_toy(tmp_path, text=TOY, name="toy.csv"):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


class TestReadPattern:
    def test_toy_values(self, tmp_path):
        p = read_pattern(write_toy(tmp_path))
        assert p.grid.convention is Convention.STANDARD
        assert p.frequency_hz == 2.8e10
        np.testing.assert_allclose(p.grid.theta_deg, [0.0, 90.0, 180.0])
        np.testing.assert_allclose(p.grid.phi_deg, [0.0, 180.0])
        assert p.eirp_theta_mw[1, 0] == pytest.approx(10.0)
        assert p.eirp_phi_mw[1, 0] == pytest.approx(1.0)
        assert p.eirp_theta_mw[1, 1] == 0.0  # "-inf" reads as zero power
        assert p.eirp_theta_mw[2, 0] == pytest.approx(0.1)
        assert p.measured is None  # every cell present

    def test_missing_cells_unmeasured(self, tmp_path):
        text = "\n".join(TOY.splitlines()[:-1]) + "\n"  # drop last sample
        p = read_pattern(write_toy(tmp_path, text))
        assert p.measured is not None
        assert not p.measured[2, 1]
        assert p.measured.sum() == 5

    def test_duplicate_sample_rejected_with_line(self, tmp_path):
        text = TOY + "90,0,3,3\n"
        with pytest.raises(ValueError, match=r"toy\.csv:13: duplicate sample"):
            read_pattern(write_toy(tmp_path, text))

    def test_non_numeric_dbm_rejected_with_line(self, tmp_path):
        text = TOY.replace("90,0,10,0", "90,0,ten,0")
        with pytest.raises(ValueError, match=r"toy\.csv:9: non-numeric dBm"):
            read_pattern(write_toy(tmp_path, text))

    def test_nan_dbm_rejected(self, tmp_path):
        text = TOY.replace("90,0,10,0", "90,0,nan,0")
        with pytest.raises(ValueError, match="non-finite"):
            read_pattern(write_toy(tmp_path, text))

    def test_wrong_version_rejected(self, tmp_path):
        text = TOY.replace("cvrp-pattern/1", "cvrp-pattern/9")
        with pytest.raises(ValueError, match="format version"):
            read_pattern(write_toy(tmp_path, text))

    def test_bad_header_rejected(self, tmp_path):
        text = TOY.replace("theta_deg,phi_deg", "t,phi_deg")
        with pytest.raises(ValueError, match="column header"):
            read_pattern(write_toy(tmp_path, text))

    def test_off_grid_angle_rejected(self, tmp_path):
        text = TOY + "45,0,1,1\n"
        with pytest.raises(ValueError, match="inconsistent with step"):
            read_pattern(write_toy(tmp_path, text))

    @pytest.mark.parametrize("row, message", [
        ("90,0,10", r"toy\.csv:9: expected 4 columns, got 3"),
        ("90,0,10,0,0", r"toy\.csv:9: expected 4 columns, got 5"),
        ("ninety,0,10,0", r"toy\.csv:9: non-numeric angle"),
        ("90,nan,10,0", r"toy\.csv:9: non-finite angle"),
        ("90,0,1_0,0", r"toy\.csv:9: non-numeric dBm value '1_0'"),
        ("90,0,inf,0", r"toy\.csv:9: non-finite dBm value 'inf'"),
        ("90,0,+inf,0", r"toy\.csv:9: non-finite dBm value '\+inf'"),
        ("90,0,4000,0", r"toy\.csv:9: dBm value '4000' overflows linear power"),
    ])
    def test_bad_row_rejected_with_line(self, tmp_path, row, message):
        text = TOY.replace("90,0,10,0", row)
        with pytest.raises(ValueError, match=message):
            read_pattern(write_toy(tmp_path, text))

    def test_first_bad_row_reported(self, tmp_path):
        text = TOY.replace("0,180,0,-inf", "0,180,9999,-inf") + "90,0,10\n"
        with pytest.raises(ValueError, match=r"toy\.csv:8: dBm value '9999'"):
            read_pattern(write_toy(tmp_path, text))

    def test_near_duplicate_rejected(self, tmp_path):
        # lands on the same cell as line 9 within the 1e-9 deg tolerance
        text = TOY + "90.0000000001,0,3,3\n"
        with pytest.raises(ValueError, match=r"toy\.csv:13: duplicate sample"):
            read_pattern(write_toy(tmp_path, text))

    @pytest.mark.parametrize("token", ["-inf", "-Infinity", "-INF", " -inf ", "-1e400"])
    def test_negative_infinity_reads_as_zero_power(self, tmp_path, token):
        text = TOY.replace("90,180,-inf,0", f"90,180,{token},0")
        p = read_pattern(write_toy(tmp_path, text))
        assert p.eirp_theta_mw[1, 1] == 0.0
        assert p.measured is None

    def test_blank_and_comment_lines_in_body_ignored(self, tmp_path):
        lines = TOY.splitlines()
        text = "\n".join(lines[:8] + ["", "   ", "# note: skipped", "  # indented"]
                         + lines[8:] + ["", "# trailing"]) + "\n\n"
        p = read_pattern(write_toy(tmp_path, text))
        ref = read_pattern(write_toy(tmp_path, name="ref.csv"))
        np.testing.assert_array_equal(p.eirp_theta_mw, ref.eirp_theta_mw)
        np.testing.assert_array_equal(p.eirp_phi_mw, ref.eirp_phi_mw)
        assert p.label == "" and p.measured is None
        # skipped lines still count towards reported line numbers
        with pytest.raises(ValueError, match=r"toy\.csv:13: non-numeric dBm"):
            read_pattern(write_toy(tmp_path, text.replace("90,0,10,0", "90,0,ten,0")))

    def test_crlf_line_endings(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(TOY.replace("\n", "\r\n").encode("utf-8"))
        p = read_pattern(str(f))
        ref = read_pattern(write_toy(tmp_path))
        np.testing.assert_array_equal(p.eirp_theta_mw, ref.eirp_theta_mw)
        np.testing.assert_array_equal(p.eirp_phi_mw, ref.eirp_phi_mw)
        assert p.frequency_hz == ref.frequency_hz

    @pytest.mark.parametrize("old, new, message", [
        ("convention: standard", "convention: polar", r"toy\.csv: unknown convention 'polar'"),
        ("# dphi_deg: 180\n", "", "missing or invalid step/frequency metadata"),
        ("dtheta_deg: 90", "dtheta_deg: ninety", "missing or invalid step/frequency metadata"),
        ("frequency_hz: 2.8e+10", "frequency_hz: high", "missing or invalid step/frequency"),
        ("dtheta_deg: 90", "dtheta_deg: 0", r"toy\.csv: grid steps must be positive and finite"),
        ("dphi_deg: 180", "dphi_deg: -180", "must be positive"),
        ("dphi_deg: 180", "dphi_deg: nan", "must be positive"),
        ("frequency_hz: 2.8e+10", "frequency_hz: 0", r"toy\.csv: frequency_hz must be positive"),
        ("frequency_hz: 2.8e+10", "frequency_hz: -2.8e+10", r"toy\.csv: frequency_hz must be positive"),
        ("frequency_hz: 2.8e+10", "frequency_hz: nan", r"toy\.csv: frequency_hz must be positive"),
        ("frequency_hz: 2.8e+10", "frequency_hz: inf", r"toy\.csv: frequency_hz must be positive"),
        (BODY, "", r"toy\.csv: file contains no samples"),
        ("dtheta_deg: 90", "dtheta_deg: 70", r"toy\.csv: dtheta_deg=70 must divide 180 degrees"),
        ("dphi_deg: 180", "dphi_deg: 140", r"toy\.csv: dphi_deg=140 must divide 360 degrees"),
        # a grid of 3.6e14 phi nodes cannot be allocated
        ("dphi_deg: 180", "dphi_deg: 1e-12", r"toy\.csv: "),
    ])
    def test_bad_metadata_rejected(self, tmp_path, old, new, message):
        with pytest.raises(ValueError, match=message):
            read_pattern(write_toy(tmp_path, TOY.replace(old, new)))

    def test_partial_standard_file_on_full_sphere(self, tmp_path, std_grid):
        # An isotropic 1 mW pattern measured for theta <= 90 only: the file
        # leaves out the lower rows; in memory they are zero and unmeasured.
        upper = np.broadcast_to((std_grid.theta_deg <= 90.0)[:, None],
                                (std_grid.n_theta, std_grid.n_phi))
        p = PolarizedPattern(std_grid, np.where(upper, 1.0, 0.0),
                             np.zeros(upper.shape), measured=upper)
        full = tmp_path / "full.csv"
        write_pattern(p, str(full))
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines.index("theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm\n") + 1
        kept = [ln for ln in lines[header:] if float(ln.split(",")[0]) <= 90.0]
        assert len(kept) == upper.sum()
        half = tmp_path / "half.csv"
        half.write_text("".join(lines[:header] + kept), encoding="utf-8")

        q = read_pattern(str(half))
        assert np.array_equal(q.grid.theta_deg, std_grid.theta_deg)
        assert np.array_equal(q.grid.phi_deg, std_grid.phi_deg)
        assert np.array_equal(q.measured, upper)
        assert np.array_equal(q.total_mw, p.total_mw)
        cap = SphericalMask.cap(Direction(0.0, 0.0), 30.0)
        assert trp(q) == trp(p)
        assert cvrp(q, cap) == cvrp(p, cap)
        assert cvrp(q, cap) == pytest.approx(0.99994, abs=1e-5)

    @pytest.mark.parametrize("row, message", [
        ("270,0,0,0", r"toy\.csv:13: theta=270.0 lies outside \[0, 180\]"),
        ("90,360,0,0", r"toy\.csv:13: phi=360.0 lies outside \[0, 180\]"),
        ("-90,0,0,0", r"toy\.csv:13: theta=-90.0 lies outside \[0, 180\]"),
    ])
    def test_standard_row_off_sphere_rejected(self, tmp_path, row, message):
        with pytest.raises(ValueError, match=message):
            read_pattern(write_toy(tmp_path, TOY + row + "\n"))

    def test_distributed_convention(self, tmp_path):
        # A distributed file is read onto the full sphere of its steps; the
        # theta = -180 row it leaves out is unmeasured.
        p = read_pattern(write_toy(tmp_path, DISTRIBUTED))
        assert p.grid.convention is Convention.DISTRIBUTED
        assert p.grid.theta_deg.tolist() == [-180.0, -90.0, 0.0, 90.0]
        assert p.grid.phi_deg.tolist() == [0.0, 180.0]
        assert p.measured.tolist() == [[False, False], [True, True], [True, True], [True, True]]
        assert p.eirp_theta_mw[1, 0] == 0.1 and p.eirp_theta_mw[3, 0] == 10.0

    @pytest.mark.parametrize("text", [TOY, DISTRIBUTED])
    def test_fine_steps_rejected_before_allocation(self, tmp_path, text):
        # 1e-5 deg steps would be a grid of more than 6e14 cells.
        text = text.replace("dtheta_deg: 90", "dtheta_deg: 1e-5").replace("dphi_deg: 180",
                                                                         "dphi_deg: 1e-5")
        with pytest.raises(ValueError, match=r"toy\.csv: a 1e-05 x 1e-05 deg grid has \d+ cells, "
                                             r"more than the limit of 33554432"):
            read_pattern(write_toy(tmp_path, text))

    @pytest.mark.parametrize("old, new, message", [
        ("0,180,0,-inf", "45,180,0,-inf", r"toy\.csv:8: theta=45.0 lies outside \[-180, 90\] "
                                          r"or is inconsistent with step 90"),
        ("90,180,-inf,0", "90,100,-inf,0", r"toy\.csv:10: phi=100.0 lies outside \[0, 180\]"),
        ("90,180,-inf,0", "135,180,-inf,0", r"toy\.csv:10: theta=135.0 lies outside"),
    ])
    def test_distributed_off_step_row_rejected_with_line(self, tmp_path, old, new, message):
        with pytest.raises(ValueError, match=message):
            read_pattern(write_toy(tmp_path, DISTRIBUTED.replace(old, new)))

    @pytest.mark.parametrize("row, message", [
        ("9e9,0,0,0", r"toy\.csv:13: theta=9000000000.0 lies outside \[-180, 90\]"),
        ("-270,0,0,0", r"toy\.csv:13: theta=-270.0 lies outside"),
        ("180,0,0,0", r"toy\.csv:13: theta=180.0 lies outside"),
        ("0,-90,0,0", r"toy\.csv:13: phi=-90.0 lies outside \[0, 180\]"),
        ("0,270,0,0", r"toy\.csv:13: phi=270.0 lies outside"),
    ])
    def test_distributed_row_out_of_range_rejected_with_line(self, tmp_path, row, message):
        with pytest.raises(ValueError, match=message):
            read_pattern(write_toy(tmp_path, DISTRIBUTED + row + "\n"))

    def test_distributed_single_theta_reads(self, tmp_path):
        text = DISTRIBUTED.replace(BODY_DISTRIBUTED, "90,0,10,0\n90,180,-inf,0\n")
        p = read_pattern(write_toy(tmp_path, text))
        assert p.measured.tolist() == [[False, False]] * 3 + [[True, True]]
        assert p.eirp_theta_mw[3].tolist() == [10.0, 0.0]

    def test_non_utf8_rejected_with_path(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_bytes(TOY.encode("utf-8").replace(b"90,0,10,0", b"90,0,1\xff0,0"))
        with pytest.raises(ValueError, match=r"toy\.csv: not UTF-8 text"):
            read_pattern(str(f))


class TestRoundTrip:
    def test_golden_bytes(self, tmp_path):
        f = tmp_path / "out.csv"
        write_pattern(read_pattern(write_toy(tmp_path, GOLDEN)), str(f))
        assert f.read_bytes() == GOLDEN.encode("utf-8")

    def test_write_read_write_byte_identical(self, tmp_path, cosine_boresight):
        p = cosine_boresight.pattern
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        write_pattern(p, str(f1))
        p2 = read_pattern(str(f1))
        write_pattern(p2, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_values_survive_round_trip(self, tmp_path, cosine_boresight):
        p = cosine_boresight.pattern
        f = tmp_path / "p.csv"
        write_pattern(p, str(f))
        p2 = read_pattern(str(f))
        assert p2.label == p.label
        np.testing.assert_allclose(p2.eirp_theta_mw, p.eirp_theta_mw, rtol=1e-9)
        np.testing.assert_array_equal(p2.eirp_phi_mw, 0.0)

    def test_zero_power_round_trips_exactly(self, tmp_path, std_grid):
        z = np.zeros((std_grid.n_theta, std_grid.n_phi))
        p = PolarizedPattern(std_grid, z, z.copy())
        f = tmp_path / "z.csv"
        write_pattern(p, str(f))
        p2 = read_pattern(str(f))
        assert np.all(p2.total_mw == 0.0)

    def test_version_constant(self):
        assert FORMAT_VERSION == "cvrp-pattern/1"


class TestSweepCsv:
    def test_sweep_round_trip(self, tmp_path, iso_pattern):
        s = cvrp_sweep(iso_pattern, Direction(0, 0), (180.0, 90.0, 30.0))
        f = tmp_path / "s.csv"
        write_sweep_csv(s, str(f))
        s2 = read_sweep_csv(str(f))
        assert s2.fov_deg == s.fov_deg
        np.testing.assert_allclose(s2.cvrp_mw, s.cvrp_mw, rtol=1e-11)
        assert s2.pattern_label == s.pattern_label

    def test_sweep_header(self, tmp_path):
        s = CvrpSweep(((90.0, 1.0), (30.0, 0.5)), pattern_label="demo")
        f = tmp_path / "s.csv"
        write_sweep_csv(s, str(f))
        lines = f.read_text().splitlines()
        assert lines[0] == "# label: demo"
        assert lines[1] == "fov_deg,cvrp_dbm"

    def test_comparison_csv_columns(self, tmp_path):
        ref = CvrpSweep(((90.0, 1.0), (30.0, 1.0)))
        test = CvrpSweep(((90.0, 1.0), (30.0, 2.0)))
        f = tmp_path / "c.csv"
        write_sweep_csv(compare_sweeps(ref, test), str(f))
        lines = f.read_text().splitlines()
        assert lines[0] == "fov_deg,ref_dbm,test_dbm,delta_db,flagged"
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")

    def test_zero_power_written_as_inf_token(self, tmp_path):
        # sweep power is spelled as in pattern files: no -200 dBm floor
        s = CvrpSweep(((90.0, 1.0), (30.0, 1e-25), (0.0, 0.0)))
        f = tmp_path / "s.csv"
        write_sweep_csv(s, str(f))
        assert f.read_text().splitlines()[1:] == ["90,0", "30,-250", "0,-inf"]
        s2 = read_sweep_csv(str(f))
        assert s2.cvrp_mw[1] == pytest.approx(1e-25, rel=1e-12)
        assert s2.cvrp_mw[2] == 0.0

    def test_unknown_type_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        with pytest.raises(TypeError):
            write_sweep_csv([1, 2, 3], str(f))
        assert not f.exists()

    def test_comparison_csv_not_readable_as_sweep(self, tmp_path):
        ref = CvrpSweep(((90.0, 1.0),))
        f = tmp_path / "c.csv"
        write_sweep_csv(compare_sweeps(ref, ref), str(f))
        with pytest.raises(ValueError):
            read_sweep_csv(str(f))

    @pytest.mark.parametrize("rows, message", [
        ("abc,1", r"s\.csv:2: non-numeric angle 'abc'"),
        ("1_0,1", r"s\.csv:2: non-numeric angle '1_0'"),
        ("nan,1", r"s\.csv:2: non-finite angle"),
        ("200,1", r"s\.csv: sweep FoVs must lie in \[0, 180\]"),
        ("90,1\n120,1", r"s\.csv: sweep FoVs must be strictly decreasing"),
    ])
    def test_bad_fov_rejected_with_path(self, tmp_path, rows, message):
        f = tmp_path / "s.csv"
        f.write_text(f"fov_deg,cvrp_dbm\n{rows}\n")
        with pytest.raises(ValueError, match=message):
            read_sweep_csv(str(f))

    @pytest.mark.parametrize("text, message", [
        ("90,1\n30,1\n", r"s\.csv:1: unexpected column header '90,1'"),
        ("# label: x\n\n90,1\n", r"s\.csv:3: unexpected column header '90,1'"),
        ("fov_deg,cvrp_dbm\n90,1\nfov_deg,cvrp_dbm\n30,1\n",
         r"s\.csv:3: non-numeric angle 'fov_deg'"),
        ("fov_deg,cvrp_dbm\n90,1\n30,1,2\n", r"s\.csv:3: expected 2 columns, got 3"),
        ("fov_deg,cvrp_dbm\n\n90,1\n# note\n30\n", r"s\.csv:5: expected 2 columns, got 1"),
        ("fov_deg,cvrp_dbm\n90,one\n", r"s\.csv:2: non-numeric dBm value 'one'"),
        ("fov_deg,cvrp_dbm\n90,nan\n", r"s\.csv:2: non-finite dBm value 'nan'"),
        ("fov_deg,cvrp_dbm\n90,+inf\n", r"s\.csv:2: non-finite dBm value '\+inf'"),
        ("fov_deg,cvrp_dbm\n90,4000\n", r"s\.csv:2: dBm value '4000' overflows"),
        ("fov_deg,cvrp_dbm\n-inf,1\n", r"s\.csv:2: non-finite angle '-inf'"),
    ])
    def test_bad_sweep_file_rejected_with_line(self, tmp_path, text, message):
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_sweep_csv(str(f))

    def test_label_after_header_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("# label: before\nfov_deg,cvrp_dbm\n# label: after\n90,0\n")
        s = read_sweep_csv(str(f))
        assert s.pattern_label == "before"
        assert s.entries == ((90.0, 1.0),)

    def test_non_utf8_rejected_with_path(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"fov_deg,cvrp_dbm\n90,1\n\xff30,1\n")
        with pytest.raises(ValueError, match=r"s\.csv: not UTF-8 text"):
            read_sweep_csv(str(f))

    def test_empty_sweep_file_rejected(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("fov_deg,cvrp_dbm\n")
        with pytest.raises(ValueError, match="no sweep rows"):
            read_sweep_csv(str(f))
