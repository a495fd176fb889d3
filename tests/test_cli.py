import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvrpkit import (
    ArraySpec,
    CvrpSweep,
    ElementModel,
    SphericalMask,
    cvrp,
    fill_unmeasured,
    prp_preset,
    read_pattern,
    read_sweep_csv,
    rotate_about_y,
    synthesize_eirp,
    to_dbm,
    trp,
    write_sweep_csv,
)
from cvrpkit.cli import cli_main
from cvrpkit.grid import Direction

from oracles import analytic_cap_cvrp, distributed_axes, write_distributed


@pytest.fixture(scope="module")
def pattern_file(tmp_path_factory):
    """Synthesized boresight cosine-array pattern on disk."""
    path = str(tmp_path_factory.mktemp("cli") / "pattern.csv")
    assert cli_main(["synth", "--element", "cosine", "-o", path]) == 0
    return path


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fmt_power(name, mw):
    """Expected scalar display: 4 decimals, negative zero normalized."""
    dbm = round(to_dbm(mw), 4) + 0.0
    return f"{name}: {dbm:.4f} dBm ({round(mw, 4) + 0.0:.4f} mW)"


class TestSynth:
    def test_file_matches_library(self, pattern_file):
        p = read_pattern(pattern_file)
        ref = synthesize_eirp(ArraySpec(element=ElementModel.COSINE), 1.0).pattern
        np.testing.assert_allclose(p.eirp_theta_mw, ref.eirp_theta_mw, rtol=1e-9)
        assert p.label == ref.label

    def test_beam_flag_sets_scan(self, tmp_path, capsys):
        path = str(tmp_path / "b1.csv")
        code, out, _ = run(capsys, ["synth", "--element", "huygens",
                                    "--beam", "1", "-o", path])
        assert code == 0
        assert "scan -45 deg" in read_pattern(path).label

    def test_invalid_fe_is_domain_error(self, tmp_path, capsys):
        path = str(tmp_path / "x.csv")
        code, _, err = run(capsys, ["synth", "--element", "cosine",
                                    "--fe", "99", "-o", path])
        assert code == 1
        assert "error:" in err

    def test_zero_step_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(capsys, ["synth", "--element", "cosine", "--step-deg", "0",
                                    "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", [["synth", "--element", "cosine", "-o"],
                                         ["repro-fig5", "--outdir"],
                                         ["repro-fig6", "--outdir"]])
    @pytest.mark.parametrize("dbm, message", [
        ("4000", "--trp-ref-dbm 4000 overflows linear power"),
        ("3070", "EIRP values must be finite"),  # 1e307 mW times the peak gain is inf
        # 1.78e308 mW: only the nonzero cells overflow; no null cell becomes NaN
        ("3082.5", "EIRP values must be finite"),
        ("inf", "reference TRP must be positive and finite"),
        ("nan", "reference TRP must be positive and finite"),
    ])
    def test_huge_reference_is_domain_error(self, tmp_path, capsys, command, dbm, message):
        out = tmp_path / "out"
        code, _, err = run(capsys, command + [str(out), "--trp-ref-dbm", dbm])
        assert code == 1
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.is_file() and not (out.is_dir() and any(out.iterdir()))

    def test_unknown_element_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["synth", "--element", "patch",
                                  "-o", str(tmp_path / "x.csv")])
        assert code == 2


class TestScalarCommands:
    def test_trp_output_format(self, pattern_file, capsys):
        code, out, _ = run(capsys, ["trp", pattern_file])
        assert code == 0
        assert out == "TRP: 0.0000 dBm (1.0000 mW)\n"

    def test_trp_matches_library(self, pattern_file, capsys):
        p = read_pattern(pattern_file)
        code, out, _ = run(capsys, ["trp", pattern_file])
        assert out.strip() == fmt_power("TRP", trp(p))

    def test_prp_preset_matches_library(self, pattern_file, capsys):
        p = read_pattern(pattern_file)
        expect = prp_preset(p, "uhrp")
        code, out, _ = run(capsys, ["prp", pattern_file, "--preset", "uhrp"])
        assert code == 0
        assert out.strip() == fmt_power("PRP[uhrp]", expect)

    def test_prp_requires_band_or_preset(self, pattern_file, capsys):
        code, _, err = run(capsys, ["prp", pattern_file])
        assert code == 1
        assert "preset" in err

    def test_cvrp_cap_matches_library(self, pattern_file, capsys):
        p = read_pattern(pattern_file)
        expect = cvrp(p, SphericalMask.cap(Direction(0, 0), 30.0))
        code, out, _ = run(capsys, ["cvrp", pattern_file, "--cap", "30"])
        assert code == 0
        assert f"({expect:.4f} mW)" in out

    def test_cvrp_cap_180_equals_trp(self, pattern_file, capsys):
        _, out_cap, _ = run(capsys, ["cvrp", pattern_file, "--cap", "180"])
        _, out_trp, _ = run(capsys, ["trp", pattern_file])
        assert out_cap.split(":")[1] == out_trp.split(":")[1]

    def test_cvrp_window(self, pattern_file, capsys):
        p = read_pattern(pattern_file)
        expect = cvrp(p, SphericalMask.window(0.0, 30.0, 0.0, 360.0))
        code, out, _ = run(capsys, ["cvrp", pattern_file,
                                    "--window", "0,30,0,360"])
        assert code == 0
        assert f"({expect:.4f} mW)" in out

    def test_cvrp_point(self, pattern_file, capsys):
        code, out, _ = run(capsys, ["cvrp", pattern_file, "--point", "0,0"])
        assert code == 0
        assert "CVRP[point]" in out

    def test_cvrp_requires_one_region(self, pattern_file, capsys):
        code, _, err = run(capsys, ["cvrp", pattern_file])
        assert code == 1
        code, _, err = run(capsys, ["cvrp", pattern_file, "--cap", "30",
                                    "--point", "0,0"])
        assert code == 1

    @pytest.mark.parametrize("center", ["200,0", "-5,0", "nan,0", "0,inf"])
    def test_cvrp_center_out_of_range_is_domain_error(self, pattern_file, capsys, center):
        code, out, err = run(capsys, ["cvrp", pattern_file, "--cap", "30",
                                      f"--center={center}"])
        assert code == 1 and out == ""
        assert err.startswith("error: direction needs theta in [0, 180] deg")
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new, message", [
        ("90,0,10,0", "90,0,4000,0", "bad.csv:9: dBm value '4000' overflows"),
        ("dtheta_deg: 90", "dtheta_deg: 0", "bad.csv: grid steps must be positive and finite"),
        ("dtheta_deg: 90", "dtheta_deg: 70", "bad.csv: dtheta_deg=70 must divide 180 degrees"),
    ])
    def test_bad_number_in_file_is_domain_error(self, tmp_path, old, new, message):
        from test_io import TOY
        path = tmp_path / "bad.csv"
        path.write_text(TOY.replace(old, new), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "cvrpkit", "trp", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, ["trp", "/nonexistent/nope.csv"])
        assert code == 1
        assert "error:" in err


def blind_box_file(path):
    """A distributed 15 deg isotropic 1 mW file without the rows of theta
    30..60 and phi 60..90 deg."""
    theta, phi = distributed_axes(15.0, 15.0)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    half = np.full(tt.shape, 0.5)
    blind = (tt >= 30.0) & (tt <= 60.0) & (pp >= 60.0) & (pp <= 90.0)
    write_distributed(str(path), 15.0, 15.0, half, half, ~blind)
    return str(path)


class TestDistributedFiles:
    @pytest.mark.parametrize("argv", [
        ["trp", "{dist}"],
        ["prp", "{dist}", "--preset", "uhrp"],
        ["cvrp", "{dist}", "--cap", "30", "--center", "45,180"],
        ["sweep", "{dist}", "--center", "45,180", "--fovs", "180,90,45,0", "-o", "{out}"],
        ["rotate", "{dist}", "--about-y", "10", "-o", "{out}"],
    ], ids=["trp", "prp", "cvrp", "sweep", "rotate"])
    def test_command_reads_distributed_file_as_its_remap(self, tmp_path, capsys, argv):
        # each command prints and writes what it does on the remapped file
        dist = blind_box_file(tmp_path / "dist.csv")
        std = str(tmp_path / "std.csv")
        assert run(capsys, ["remap", dist, "-o", std])[0] == 0
        outputs = []
        for path in (dist, std):
            out = tmp_path / "out.csv"
            code, stdout, err = run(capsys, [a.format(dist=path, out=out) for a in argv])
            assert code == 0 and err == ""
            outputs.append((stdout, out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]

    def test_trp_equals_remap_then_trp_bitwise(self, tmp_path, capsys):
        dist = blind_box_file(tmp_path / "dist.csv")
        std = str(tmp_path / "std.csv")
        assert run(capsys, ["remap", dist, "-o", std])[0] == 0
        assert trp(read_pattern(dist)) == trp(read_pattern(std))

    def test_fill_keeps_blind_cells_of_distributed_file(self, tmp_path, capsys):
        # fill reads the blind box as unmeasured, so it fills it
        dist = blind_box_file(tmp_path / "dist.csv")
        filled = str(tmp_path / "filled.csv")
        assert run(capsys, ["fill", dist, "--fill-mw", "1", "-o", filled])[0] == 0
        want = trp(fill_unmeasured(read_pattern(dist), 1.0))
        assert trp(read_pattern(filled)) == want
        code, out, _ = run(capsys, ["trp", filled])
        assert code == 0 and out == fmt_power("TRP", want) + "\n"
        assert "(1.0282 mW)" in out

    def test_remap_of_standard_file_is_byte_identical(self, tmp_path, capsys):
        dist = blind_box_file(tmp_path / "dist.csv")
        once, twice = str(tmp_path / "once.csv"), str(tmp_path / "twice.csv")
        assert run(capsys, ["remap", dist, "-o", once])[0] == 0
        assert run(capsys, ["remap", once, "-o", twice])[0] == 0
        assert Path(once).read_bytes() == Path(twice).read_bytes()

    def test_conflicting_duplicate_names_path_and_line(self, tmp_path, capsys):
        # distributed (-30, 0) and (30, 180) are one direction; the later row conflicts
        dist = tmp_path / "dist.csv"
        lines = Path(blind_box_file(dist)).read_text(encoding="utf-8").splitlines()
        k = lines.index("30.0,180.0,-3.01029995664,-3.01029995664")
        lines[k] = "30.0,180.0,0,0"
        dist.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["trp", str(dist)])
        assert code == 1 and out == ""
        assert err == (f"error: {dist}:{k + 1}: conflicting duplicate samples "
                       f"at (theta=30.0, phi=180.0) deg\n")


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv, message", [
        (["synth", "--element", "cosine", "--step-deg", "{}", "-o", "{out}"],
         "grid steps must be positive and finite"),
        (["synth", "--element", "cosine", "--spacing-wl", "{}", "-o", "{out}"],
         "spacing_wl must be positive and finite"),
        (["rotate", "{pattern}", "--about-y", "{}", "-o", "{out}"],
         "rotation angle alpha_deg must be finite"),
        (["diagnose", "--ref", "{sweep}", "--test", "{sweep}", "--threshold-db", "{}",
          "-o", "{out}"],
         "threshold must be positive and finite"),
        (["repro-fig6", "--threshold-db", "{}", "--outdir", "{out}"],
         "threshold must be positive and finite"),
    ])
    def test_rejected_before_numpy(self, tmp_path, capsys, pattern_file, argv, message, value):
        sweep = tmp_path / "sweep.csv"
        write_sweep_csv(CvrpSweep(((90.0, 1.0), (30.0, 0.5))), str(sweep))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, [a.format(value, out=out, pattern=pattern_file,
                                                  sweep=sweep) for a in argv])
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out.is_file() and not (out.is_dir() and any(out.iterdir()))


class TestPipelines:
    def test_rotate_then_sweep(self, tmp_path, capsys):
        src = str(tmp_path / "scan.csv")
        rot = str(tmp_path / "aligned.csv")
        swp = str(tmp_path / "sweep.csv")
        assert cli_main(["synth", "--element", "cosine", "--scan", "-45",
                         "-o", src]) == 0
        assert cli_main(["rotate", src, "--about-y", "45", "-o", rot]) == 0
        assert cli_main(["sweep", rot, "--center", "0,0",
                         "--fovs", "180,90,30,0", "-o", swp]) == 0
        capsys.readouterr()
        sweep = read_sweep_csv(swp)
        assert sweep.fov_deg == (180.0, 90.0, 30.0, 0.0)
        # same numbers as the pure library pipeline
        spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-45.0)
        p = rotate_about_y(synthesize_eirp(spec, 1.0).pattern, 45.0)
        from cvrpkit import cvrp_sweep
        lib = cvrp_sweep(p, Direction(0, 0), (180.0, 90.0, 30.0, 0.0))
        np.testing.assert_allclose(sweep.cvrp_mw, lib.cvrp_mw, rtol=1e-9)

    @pytest.mark.parametrize("fovs", [",", ""], ids=["comma", "empty"])
    def test_sweep_empty_fov_list_is_domain_error(self, tmp_path, capsys, pattern_file, fovs):
        out = tmp_path / "sw.csv"
        code, stdout, err = run(capsys, ["sweep", pattern_file, "--fovs", fovs, "-o", str(out)])
        assert (code, stdout, err) == (1, "", "error: a sweep needs at least one FoV\n")
        assert not out.exists()

    def test_sweep_cap_between_pole_rings_names_cap_and_step(self, tmp_path, capsys):
        # on a 5 deg grid the default 3 deg cap at the pole holds only the
        # zero-weight pole ring
        pat = str(tmp_path / "coarse.csv")
        assert cli_main(["synth", "--element", "cosine", "--step-deg", "5", "-o", pat]) == 0
        code, _, err = run(capsys, ["sweep", pat, "-o", str(tmp_path / "s.csv")])
        assert code == 1
        assert err == ("error: a 3 deg cap at (0, 0) covers no grid cells with nonzero "
                       "quadrature weight on a 5 x 5 deg grid\n")

    def test_diagnose_flags_fault(self, tmp_path, capsys):
        ref = str(tmp_path / "ref.csv")
        bad = str(tmp_path / "bad.csv")
        for path, fe in ((ref, ""), (bad, "14,7")):
            pat = path + ".pat"
            assert cli_main(["synth", "--element", "cosine", "--scan", "-45",
                             "--fe", fe, "-o", pat]) == 0
            rot = path + ".rot"
            assert cli_main(["rotate", pat, "--about-y", "45", "-o", rot]) == 0
            assert cli_main(["sweep", rot, "-o", path]) == 0
        out_csv = str(tmp_path / "cmp.csv")
        code, out, _ = run(capsys, ["diagnose", "--ref", ref, "--test", bad,
                                    "-o", out_csv])
        assert code == 0
        assert "FLAGGED" in out
        header = Path(out_csv).read_text().splitlines()[0]
        assert header == "fov_deg,ref_dbm,test_dbm,delta_db,flagged"

    def test_diagnose_bad_fov_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("fov_deg,cvrp_dbm\nabc,1\n")
        code, _, err = run(capsys, ["diagnose", "--ref", str(bad), "--test", str(bad)])
        assert code == 1
        assert err.startswith(f"error: {bad}:2: non-numeric angle 'abc'")
        assert "Traceback" not in err

    def test_diagnose_zero_entry_unchanged(self, tmp_path, capsys):
        # A zero sweep entry is written "-inf" and reads back as 0 mW; the
        # comparison floors it at -200 dBm, as it did the old "-200" spelling.
        ref = tmp_path / "ref.csv"
        ref.write_text("fov_deg,cvrp_dbm\n90,0\n30,-3\n")
        new = tmp_path / "new.csv"
        write_sweep_csv(CvrpSweep(((90.0, 1.0), (30.0, 0.0))), str(new))
        assert new.read_text() == "fov_deg,cvrp_dbm\n90,0\n30,-inf\n"
        old = tmp_path / "old.csv"
        old.write_text("fov_deg,cvrp_dbm\n90,0\n30,-200\n")
        cmp_csv = tmp_path / "cmp.csv"
        results = []
        for test in (new, old):
            code, out, _ = run(capsys, ["diagnose", "--ref", str(ref), "--test", str(test),
                                        "-o", str(cmp_csv)])
            assert code == 0
            results.append((out, cmp_csv.read_bytes()))
        assert results[0] == results[1]
        assert "FLAGGED" in results[0][0]

    def test_diagnose_self_clean(self, tmp_path, capsys):
        swp = str(tmp_path / "s.csv")
        pat = str(tmp_path / "p.csv")
        assert cli_main(["synth", "--element", "huygens", "-o", pat]) == 0
        assert cli_main(["sweep", pat, "-o", swp]) == 0
        code, out, _ = run(capsys, ["diagnose", "--ref", swp, "--test", swp])
        assert code == 0
        assert "not flagged" in out
        assert "max |delta|: 0.0000 dB" in out

    def test_repro_fig5_writes_six_sweeps(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["repro-fig5", "--outdir", str(tmp_path)])
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 6
        for element in ElementModel:
            for scan in (0.0, -4.5, -45.0):
                sweep = read_sweep_csv(str(tmp_path / f"fig5_{element.value}_scan{scan:+g}.csv"))
                assert len(sweep.entries) == 16
                fovs = [f for f in sweep.fov_deg if 3.0 <= f <= 165.0]
                spec = ArraySpec(element=element, scan_angle_deg=scan)
                ref = analytic_cap_cvrp(spec, 1.0, spec.beam_direction, fovs)
                got = dict(sweep.entries)
                errors = [abs(to_dbm(got[f]) - to_dbm(r)) for f, r in zip(fovs, ref)]
                # The scan 0 beam sits on the pole, where node membership is
                # worst: those sweeps read up to 0.22 dB off until caps weight
                # each cell by the share of its solid angle inside.
                bound_db = 0.25 if scan == 0.0 else 0.05
                assert max(errors) <= bound_db, (element, scan, errors)

    @pytest.mark.parametrize("element, scan, fe, divergence_fov", [
        ("cosine", "0", "14,7", None),
        ("cosine", "0", "7", None),
        ("cosine", "0", "8,7", None),
        ("cosine", "-4.5", "14,7", None),
        ("cosine", "-4.5", "7", None),
        ("cosine", "-4.5", "8,7", None),
        ("cosine", "-45", "14,7", 30),
        ("cosine", "-45", "7", None),
        ("cosine", "-45", "8,7", None),
        ("huygens", "0", "14,7", 9),
        ("huygens", "0", "7", None),
        ("huygens", "0", "8,7", 6),
        ("huygens", "-4.5", "14,7", 9),
        ("huygens", "-4.5", "7", None),
        ("huygens", "-4.5", "8,7", 6),
        ("huygens", "-45", "14,7", 30),
        ("huygens", "-45", "7", None),
        ("huygens", "-45", "8,7", None),
    ])
    def test_repro_fig6_flags_default_fault(self, tmp_path, capsys, element, scan, fe,
                                            divergence_fov):
        code, out, _ = run(capsys, ["repro-fig6", "--element", element, "--scan", scan,
                                    "--fe", fe, "--outdir", str(tmp_path)])
        assert code == 0
        if divergence_fov is None:
            assert "not flagged at threshold 0.5 dB" in out
        else:
            assert f"FLAGGED at FoV {divergence_fov} deg" in out
        tag = f"{element}_scan{float(scan):+g}"
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == [f"fig6_{tag}_all_on.csv", f"fig6_{tag}_comparison.csv",
                         f"fig6_{tag}_fe.csv"]


class TestDeterminism:
    def test_synth_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert cli_main(["synth", "--element", "cosine", "--scan", "-4.5",
                             "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fill", ["nan", "inf"])
    def test_non_finite_fill_is_domain_error(self, tmp_path, capsys, pattern_file, fill):
        # pattern_file is fully measured: nothing to fill, still rejected
        out = tmp_path / "filled.csv"
        code, _, err = run(capsys, ["fill", pattern_file, "--fill-mw", fill,
                                    "-o", str(out)])
        assert code == 1
        assert err.startswith("error: fill power must be finite and non-negative")
        assert "Traceback" not in err and not out.exists()

    def test_fill_partial_standard_file(self, tmp_path, capsys, pattern_file):
        # A standard file that lists theta <= 90 only: fill sets the absent
        # lower rows, and trp of the filled file is the in-process value.
        lines = Path(pattern_file).read_text(encoding="utf-8").splitlines(keepends=True)
        head = lines.index("theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm\n") + 1
        partial = tmp_path / "partial.csv"
        partial.write_text("".join(lines[:head] + [ln for ln in lines[head:]
                                                   if float(ln.split(",")[0]) <= 90.0]),
                           encoding="utf-8")
        filled = tmp_path / "filled.csv"
        assert cli_main(["fill", str(partial), "--fill-mw", "1", "-o", str(filled)]) == 0
        rows = filled.read_text(encoding="utf-8").splitlines()[head:]
        assert len(rows) == len(lines) - head
        assert all(r.endswith(",0,0") for r in rows if float(r.split(",")[0]) > 90.0)
        capsys.readouterr()
        code, out, _ = run(capsys, ["trp", str(filled)])
        want = trp(fill_unmeasured(read_pattern(str(partial)), 1.0))
        assert code == 0 and out == fmt_power("TRP", want) + "\n"
        assert want > 1.9  # the ~1 mW cosine array plus ~1 mW over the lower half

    def test_fill_round_trip_identity(self, tmp_path, pattern_file):
        out = tmp_path / "filled.csv"
        assert cli_main(["fill", pattern_file, "-o", str(out)]) == 0
        assert out.read_bytes() == Path(pattern_file).read_bytes()


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["cvrpkit", "cvrpkit.cli"])
    def test_python_m_runs_command(self, module, pattern_file):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, "trp", pattern_file],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("TRP: ")
