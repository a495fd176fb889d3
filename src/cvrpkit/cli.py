"""Command-line interface.

Thin wrappers over the library: synthesis, remapping, filling, rotation,
TRP/PRP/CVRP, FoV sweeps, sweep diagnostics, and the end-to-end
synthesized sweep pipelines (repro-fig5 / repro-fig6). Scalar results are
printed in both dBm and mW. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import arraysynth, diagnostics, metrics, pattern, patternio
from .arraysynth import ArraySpec, ElementModel
from .grid import AngularGrid, Direction
from .masks import SphericalMask
from .metrics import DEFAULT_FOV_SWEEP


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'theta,phi', got {text!r}")
    return Direction(float(parts[0]), float(parts[1]))


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_set(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


def _print_power(name: str, mw: float) -> None:
    # round before printing so values a hair below zero do not show "-0.0000"
    dbm = round(diagnostics.to_dbm(mw), 4) + 0.0
    print(f"{name}: {dbm:.4f} dBm ({round(mw, 4) + 0.0:.4f} mW)")


def _spec_from_args(args) -> ArraySpec:
    scan = args.scan
    if args.beam is not None:
        scan = arraysynth.beam_angle_deg(args.beam)
    return ArraySpec(
        element=ElementModel(args.element),
        rows=args.rows,
        cols=args.cols,
        spacing_wl=args.spacing_wl,
        scan_angle_deg=scan,
        failed_elements=_parse_int_set(args.fe),
    )


def _ref_mw(args) -> float:
    try:
        return 10.0 ** (args.trp_ref_dbm / 10.0)
    except OverflowError:
        raise ValueError(f"--trp-ref-dbm {args.trp_ref_dbm:g} overflows linear power") from None


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    grid = AngularGrid.standard(args.step_deg, args.step_deg)
    result = arraysynth.synthesize_eirp(spec, _ref_mw(args), grid)
    patternio.write_pattern(result.pattern, args.output)
    print(f"wrote {args.output} ({spec.describe()}, "
          f"reference TRP {args.trp_ref_dbm:g} dBm)")
    return 0


def _cmd_remap(args) -> int:
    patternio.write_pattern(patternio.read_pattern(args.input), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_fill(args) -> int:
    p = patternio.read_pattern(args.input)
    out = pattern.fill_unmeasured(p, args.fill_mw)
    patternio.write_pattern(out, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_rotate(args) -> int:
    out = pattern.rotate_about_y(patternio.read_pattern(args.input), args.about_y)
    patternio.write_pattern(out, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_trp(args) -> int:
    _print_power("TRP", metrics.trp(patternio.read_pattern(args.input)))
    return 0


def _cmd_prp(args) -> int:
    p = patternio.read_pattern(args.input)
    if args.preset:
        value = metrics.prp_preset(p, args.preset)
        name = f"PRP[{args.preset}]"
    else:
        if args.theta1 is None or args.theta2 is None:
            raise ValueError("provide --preset or both --theta1 and --theta2")
        value = metrics.prp(p, args.theta1, args.theta2)
        name = f"PRP[{args.theta1:g},{args.theta2:g}]"
    _print_power(name, value)
    return 0


def _cmd_cvrp(args) -> int:
    p = patternio.read_pattern(args.input)
    chosen = [x for x in (args.cap, args.window, args.point) if x is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --cap, --window, --point")
    if args.point is not None:
        value = metrics.cvrp_point(p, _parse_direction(args.point))
        _print_power("CVRP[point]", value)
        return 0
    if args.cap is not None:
        center = _parse_direction(args.center)
        mask = SphericalMask.cap(center, args.cap)
        name = f"CVRP[cap {args.cap:g} deg]"
    else:
        vals = _parse_float_list(args.window)
        if len(vals) != 4:
            raise ValueError("--window needs theta_min,theta_max,phi_min,phi_max")
        mask = SphericalMask.window(*vals)
        name = "CVRP[window]"
    _print_power(name, metrics.cvrp(p, mask))
    return 0


def _cmd_sweep(args) -> int:
    p = patternio.read_pattern(args.input)
    center = _parse_direction(args.center)
    fovs = _parse_float_list(args.fovs) if args.fovs is not None else DEFAULT_FOV_SWEEP
    sweep = metrics.cvrp_sweep(p, center, fovs)
    patternio.write_sweep_csv(sweep, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_diagnose(args) -> int:
    ref = patternio.read_sweep_csv(args.ref)
    test = patternio.read_sweep_csv(args.test)
    cmp = diagnostics.compare_sweeps(ref, test, args.threshold_db)
    if args.output:
        patternio.write_sweep_csv(cmp, args.output)
        print(f"wrote {args.output}")
    print(f"max |delta|: {cmp.max_abs_delta_db:.4f} dB")
    if cmp.flagged:
        print(f"FLAGGED: |delta| exceeds {args.threshold_db:g} dB "
              f"at FoV {cmp.divergence_fov_deg:g} deg")
    else:
        print(f"not flagged at threshold {args.threshold_db:g} dB")
    return 0


def _beam_sweep(spec: ArraySpec, ref_mw: float) -> metrics.CvrpSweep:
    """The default cap sweep of the synthesized pattern about its beam."""
    p = arraysynth.synthesize_eirp(spec, ref_mw).pattern
    return metrics.cvrp_sweep(p, spec.beam_direction)


def _cmd_repro_fig5(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    ref_mw = _ref_mw(args)
    for element in (ElementModel.COSINE, ElementModel.HUYGENS):
        for scan in (0.0, -4.5, -45.0):
            spec = ArraySpec(element=element, scan_angle_deg=scan)
            sweep = _beam_sweep(spec, ref_mw)
            path = os.path.join(
                args.outdir, f"fig5_{element.value}_scan{scan:+g}.csv")
            patternio.write_sweep_csv(sweep, path)
            print(f"wrote {path}")
    return 0


def _cmd_repro_fig6(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    ref_mw = _ref_mw(args)
    element = ElementModel(args.element)
    fe = _parse_int_set(args.fe)
    all_on = ArraySpec(element=element, scan_angle_deg=args.scan)
    faulty = ArraySpec(element=element, scan_angle_deg=args.scan,
                       failed_elements=fe)
    sweep_on = _beam_sweep(all_on, ref_mw)
    sweep_fe = _beam_sweep(faulty, ref_mw)
    cmp = diagnostics.compare_sweeps(sweep_on, sweep_fe, args.threshold_db)
    tag = f"{element.value}_scan{args.scan:+g}"
    path_on = os.path.join(args.outdir, f"fig6_{tag}_all_on.csv")
    path_fe = os.path.join(args.outdir, f"fig6_{tag}_fe.csv")
    path_cmp = os.path.join(args.outdir, f"fig6_{tag}_comparison.csv")
    patternio.write_sweep_csv(sweep_on, path_on)
    patternio.write_sweep_csv(sweep_fe, path_fe)
    patternio.write_sweep_csv(cmp, path_cmp)
    for path in (path_on, path_fe, path_cmp):
        print(f"wrote {path}")
    if cmp.flagged:
        print(f"FLAGGED at FoV {cmp.divergence_fov_deg:g} deg "
              f"(threshold {args.threshold_db:g} dB)")
    else:
        print(f"not flagged at threshold {args.threshold_db:g} dB")
    return 0


def _add_synth_flags(sp) -> None:
    sp.add_argument("--element", choices=[e.value for e in ElementModel], required=True)
    sp.add_argument("--scan", type=float, default=0.0,
                    help="scan angle in degrees (default 0)")
    sp.add_argument("--beam", type=int,
                    help="beam index 1..21 (overrides --scan)")
    sp.add_argument("--fe", default="",
                    help="failed element indices, e.g. 14,7")
    sp.add_argument("--rows", type=int, default=2)
    sp.add_argument("--cols", type=int, default=8)
    sp.add_argument("--spacing-wl", type=float, default=0.5)
    sp.add_argument("--trp-ref-dbm", type=float, default=0.0,
                    help="reference TRP in dBm (default 0 = 1 mW)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrpkit",
        description="Radiated-power metrics (TRP/PRP/CVRP) and planar-array "
                    "pattern synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize an array EIRP pattern file")
    _add_synth_flags(sp)
    sp.add_argument("--step-deg", type=float, default=1.5)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("remap", help="convert a distributed or standard pattern file to standard")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_remap)

    sp = sub.add_parser("fill", help="fill unmeasured cells")
    sp.add_argument("input")
    sp.add_argument("--fill-mw", type=float, default=0.0,
                    help="EIRP in mW written into each polarization of every unmeasured "
                         "cell, so a filled cell's total EIRP is twice this (default 0)")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_fill)

    sp = sub.add_parser("rotate", help="rotate a pattern about the y-axis")
    sp.add_argument("input")
    sp.add_argument("--about-y", type=float, required=True,
                    help="rotation angle in degrees")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_rotate)

    sp = sub.add_parser("trp", help="total radiated power")
    sp.add_argument("input")
    sp.set_defaults(func=_cmd_trp)

    sp = sub.add_parser("prp", help="partial radiated power over a theta band")
    sp.add_argument("input")
    sp.add_argument("--theta1", type=float)
    sp.add_argument("--theta2", type=float)
    sp.add_argument("--preset", choices=list(metrics.PRP_PRESETS))
    sp.set_defaults(func=_cmd_prp)

    sp = sub.add_parser("cvrp", help="constrained-view radiated power")
    sp.add_argument("input")
    sp.add_argument("--cap", type=float, help="cap half-angle in degrees")
    sp.add_argument("--center", default="0,0",
                    help="cap center 'theta,phi' (default 0,0)")
    sp.add_argument("--window",
                    help="theta_min,theta_max,phi_min,phi_max in degrees")
    sp.add_argument("--point", help="point FoV 'theta,phi'")
    sp.set_defaults(func=_cmd_cvrp)

    sp = sub.add_parser("sweep", help="CVRP sweep over cap half-angles")
    sp.add_argument("input")
    sp.add_argument("--center", default="0,0")
    sp.add_argument("--fovs", help="comma-separated half-angles (degrees)")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("diagnose", help="compare two sweep CSVs")
    sp.add_argument("--ref", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--threshold-db", type=float,
                    default=diagnostics.DEFAULT_THRESHOLD_DB)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser(
        "repro-fig5",
        help="sweeps for both simulated arrays at scans 0, -4.5, -45 deg")
    sp.add_argument("--outdir", default=".")
    sp.add_argument("--trp-ref-dbm", type=float, default=0.0)
    sp.set_defaults(func=_cmd_repro_fig5)

    sp = sub.add_parser(
        "repro-fig6",
        help="all-ON vs faulty-element sweep pair plus comparison")
    sp.add_argument("--scan", type=float, default=0.0)
    sp.add_argument("--fe", default="14,7")
    sp.add_argument("--element", choices=[e.value for e in ElementModel],
                    default="cosine")
    sp.add_argument("--outdir", default=".")
    sp.add_argument("--trp-ref-dbm", type=float, default=0.0)
    sp.add_argument("--threshold-db", type=float,
                    default=diagnostics.DEFAULT_THRESHOLD_DB)
    sp.set_defaults(func=_cmd_repro_fig6)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
