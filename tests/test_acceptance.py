"""Acceptance gate: nine numbered behavior guarantees.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report. Derived reference values come from the independent
oracles in oracles.py (closed forms, fine-grid quadrature, Monte Carlo),
never from the code under test.
"""

import math
from pathlib import Path

import numpy as np

from cvrpkit import (
    ArraySpec,
    ElementModel,
    SphericalMask,
    compare_sweeps,
    cvrp,
    cvrp_point,
    cvrp_sweep,
    isotropic,
    prp_preset,
    read_pattern,
    read_sweep_csv,
    rotate_about_y,
    sample_bilinear,
    synthesize_directivity,
    synthesize_eirp,
    trp,
    write_pattern,
    write_sweep_csv,
)
from cvrpkit.cli import cli_main
from cvrpkit.grid import AngularGrid, Direction
from cvrpkit.metrics import DEFAULT_FOV_SWEEP

from oracles import lobe_mixture, mc_cap_mean, pattern_from_function

SCANS = (0.0, -4.5, -45.0)


def report(num: int, title: str, ok: bool) -> None:
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


def beam_sweep(element, scan, failed=frozenset(), ref_mw=1.0):
    spec = ArraySpec(element=element, scan_angle_deg=scan,
                     failed_elements=failed)
    return cvrp_sweep(synthesize_eirp(spec, ref_mw).pattern, spec.beam_direction)


def test_criterion_1_limiting_cases():
    rng = np.random.default_rng(20240911)
    grid = AngularGrid.standard()
    ok = True
    for _ in range(10):
        p = pattern_from_function(lobe_mixture(rng), grid)
        t = trp(p)
        full = cvrp(p, SphericalMask.full_sphere())
        ok = ok and abs(full - t) <= 1e-12 * t
        for _ in range(10):
            d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
            ok = ok and cvrp_point(p, d) == sum(sample_bilinear(p, d))
    report(1, "full-sphere and point limits", ok)


def test_criterion_2_isotropic_flatness():
    p = isotropic(1.0)
    sweep = cvrp_sweep(p, Direction(40.0, 70.0))
    flat = all(abs(v - 1.0) <= 0.01 for v in sweep.cvrp_mw)
    uhrp = prp_preset(p, "uhrp")
    n75 = prp_preset(p, "n75prp")
    biased = (abs(uhrp - 0.5) <= 0.001 * 0.5
              and abs(n75 - 0.25) <= 0.001 * 0.25)
    report(2, "isotropic CVRP flat, PRP shows band bias", flat and biased)


def test_criterion_3_monte_carlo_quadrature():
    rng = np.random.default_rng(20240911)
    grid = AngularGrid.standard(0.125, 0.125)
    ok = True
    for _ in range(20):
        f = lobe_mixture(rng)
        beta = rng.uniform(30.0, 150.0)
        ct = math.degrees(math.acos(rng.uniform(-1, 1)))
        cp = rng.uniform(0, 360)
        p = pattern_from_function(f, grid)
        val = cvrp(p, SphericalMask.cap(Direction(ct, cp), beta))
        mc, se = mc_cap_mean(f, ct, cp, beta, 1_000_000, rng)
        ok = ok and abs(val - mc) <= 3.0 * se
    report(3, "CVRP vs Monte-Carlo oracle within 3 sigma", ok)


def test_criterion_4_element_anchors():
    cos_peak = synthesize_directivity(
        ArraySpec(element=ElementModel.COSINE, rows=1, cols=1)).max()
    huy_peak = synthesize_directivity(
        ArraySpec(element=ElementModel.HUYGENS, rows=1, cols=1)).max()
    ok = (abs(cos_peak - 7.7815) <= 0.05 and abs(huy_peak - 4.7712) <= 0.05)
    report(4, "element peak directivities 7.78 / 4.77 dBi", ok)


def test_criterion_5_sweep_trends():
    sweeps = {(e, s): beam_sweep(e, s)
              for e in (ElementModel.COSINE, ElementModel.HUYGENS)
              for s in SCANS}
    ok = True
    # narrowing the view around the beam never lowers CVRP
    for sw in sweeps.values():
        vals = sw.cvrp_mw  # ordered by decreasing FoV
        ok = ok and all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))
    # higher-gain elements dominate at narrow FoVs given equal TRP
    for s in SCANS:
        cos_sw = sweeps[(ElementModel.COSINE, s)]
        huy_sw = sweeps[(ElementModel.HUYGENS, s)]
        for (fov, cv), (_, hv) in zip(cos_sw.entries, huy_sw.entries):
            if fov <= 30.0:
                ok = ok and cv >= hv
    # widest FoV recovers the shared TRP for every scan
    for sw in sweeps.values():
        ok = ok and abs(sw.cvrp_mw[0] - 1.0) <= 0.005
    report(5, "sweep monotone, element ordering, TRP convergence", ok)


def test_criterion_6_scan_loss():
    sw0 = beam_sweep(ElementModel.COSINE, 0.0)
    sw45 = beam_sweep(ElementModel.COSINE, -45.0)
    point0 = sw0.cvrp_mw[-1]
    point45 = sw45.cvrp_mw[-1]
    ok = point45 < point0
    # dB gap per FoV, narrowest first; the running mean must shrink
    gaps = [abs(10 * math.log10(a / b))
            for a, b in zip(sw0.cvrp_mw[::-1], sw45.cvrp_mw[::-1])]
    means = np.cumsum(gaps) / np.arange(1, len(gaps) + 1)
    ok = ok and all(m2 <= m1 + 1e-9 for m1, m2 in zip(means, means[1:]))
    ok = ok and abs(sw45.cvrp_mw[0] / sw0.cvrp_mw[0] - 1.0) < 0.005
    report(6, "scan loss at point FoV, gap closes toward full sphere", ok)


def test_criterion_7_fault_divergence():
    flagged_any = False
    ok = True
    for scan in (0.0, -45.0):
        ref = beam_sweep(ElementModel.COSINE, scan)
        bad = beam_sweep(ElementModel.COSINE, scan,
                            failed=frozenset({14, 7}))
        cmp = compare_sweeps(ref, bad)
        delta = dict(zip(cmp.fov_deg, cmp.delta_db))
        wide = abs(delta[180.0])
        narrow = max(abs(d) for f, d in delta.items() if f <= 30.0)
        ok = ok and wide < 0.1 and narrow > wide
        if cmp.flagged and cmp.divergence_fov_deg <= 30.0:
            flagged_any = True
    report(7, "faults diverge at narrow FoVs and get flagged",
           ok and flagged_any)


def test_criterion_8_rotation_fidelity():
    spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-45.0)
    p = synthesize_eirp(spec, 1.0).pattern
    aligned = rotate_about_y(p, 45.0)
    # beam peak lands within one grid step of boresight
    i, _ = np.unravel_index(np.argmax(aligned.total_mw), aligned.total_mw.shape)
    ok = aligned.grid.theta_deg[i] <= aligned.grid.dtheta_deg + 1e-9
    # round trip preserves TRP and the resolved main beam
    rt = rotate_about_y(aligned, -45.0)
    ok = ok and abs(10 * math.log10(trp(rt) / trp(p))) <= 0.1
    main = p.total_mw >= 0.5 * p.total_mw.max()
    rel = np.abs(rt.total_mw[main] - p.total_mw[main]) / p.total_mw[main]
    ok = ok and rel.max() <= 0.05
    report(8, "rotation round trip and beam relocation", ok)


def test_criterion_9_format_and_cli(tmp_path, capsys):
    ok = True
    # write -> read -> write is byte identical
    p = synthesize_eirp(ArraySpec(element=ElementModel.HUYGENS,
                                  scan_angle_deg=-4.5), 1.0).pattern
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_pattern(p, str(f1))
    write_pattern(read_pattern(str(f1)), str(f2))
    ok = ok and f1.read_bytes() == f2.read_bytes()
    # the CLI pipeline reproduces library results exactly
    pat = str(tmp_path / "cli_pattern.csv")
    swp = str(tmp_path / "cli_sweep.csv")
    ok = ok and cli_main(["synth", "--element", "huygens", "--scan", "-4.5",
                          "-o", pat]) == 0
    ok = ok and cli_main(["sweep", pat, "-o", swp]) == 0
    lib_swp = tmp_path / "lib_sweep.csv"
    write_sweep_csv(cvrp_sweep(read_pattern(pat), Direction(0.0, 0.0)),
                    str(lib_swp))
    ok = ok and lib_swp.read_bytes() == Path(swp).read_bytes()
    # and reads back to the same numbers
    s = read_sweep_csv(swp)
    ok = ok and s.fov_deg == DEFAULT_FOV_SWEEP
    capsys.readouterr()
    report(9, "file format byte-stable, CLI matches library", ok)
