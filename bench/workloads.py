"""The benchmark's three workloads: ``screen``, ``figures`` and ``files``.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), draws the next operation ("op") with ``draw`` (untimed), runs it
with ``op`` (timed) and checks its output with ``check`` (untimed, against
bench/oracle.py). ``finish`` runs the checks that need the whole run.
The loop is closed: one caller, one op at a time.

Ops call the library through its module attributes (``metrics.cvrp``,
not a name imported into this file), so that bench/spans.py sees them
when it rebinds those attributes.
"""

from __future__ import annotations

import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cvrpkit import arraysynth, diagnostics, masks, metrics, pattern, patternio
from cvrpkit.arraysynth import ArraySpec, ElementModel
from cvrpkit.grid import AngularGrid, Direction

from oracle import GridOracle, dbm, read_pattern_csv, rel_err, ulps_apart

BORESIGHT = Direction(0.0, 0.0)
ELEMENTS = (ElementModel.COSINE, ElementModel.HUYGENS)
N_ELEMENTS = 16  # default 2x8 array
REL_TOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))


def _failed_elements(rng) -> frozenset[int]:
    n = int(rng.integers(0, 4))
    return frozenset(int(i) for i in rng.choice(np.arange(1, N_ELEMENTS + 1), n, replace=False))


def _ref_dbm(rng) -> float:
    return round(float(rng.uniform(10.0, 30.0)), 2)


def _beam(rng) -> int:
    return int(rng.integers(1, 22))


class Workload:
    name = ""
    ROUND = 1  # a run ends after a whole number of rounds of this many ops

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.trp_ulps_max = 0
        self._draw_rng = np.random.default_rng([seed, 1])

    def trace_begin(self, tracer) -> None:
        tracer.install()

    def trace_end(self, tracer, op_index: int) -> None:
        tracer.uninstall()

    def finish(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# screen: synthesize -> align -> sweep -> compare, on the 1.5 deg grid


@dataclass(frozen=True)
class ScreenOp:
    spec: ArraySpec
    ref_mw: float
    ref_sweep: metrics.CvrpSweep


class Screen(Workload):
    """One op screens one seeded array against the all-ON reference sweep
    of the same element and scan (Fig. 5/6 of the paper)."""

    name = "screen"
    POOL = 4  # (element, beam) pairs whose reference sweeps setup builds

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.grid = AngularGrid.standard(1.5, 1.5)
        beams = rng.choice(np.arange(1, 22), self.POOL, replace=False)
        self.pool = []
        for k, beam in enumerate(beams):
            spec = ArraySpec(ELEMENTS[k % 2], scan_angle_deg=arraysynth.beam_angle_deg(int(beam)))
            ref_mw = 10.0 ** (_ref_dbm(rng) / 10.0)
            p = arraysynth.synthesize_eirp(spec, ref_mw, self.grid).pattern
            aligned = pattern.rotate_about_y(p, -spec.scan_angle_deg)
            self.pool.append((spec, ref_mw, metrics.cvrp_sweep(aligned, BORESIGHT)))
        self.oracle = GridOracle(self.grid.theta_deg, self.grid.phi_deg)

    def draw(self) -> ScreenOp:
        rng = self._draw_rng
        ref_spec, ref_mw, ref_sweep = self.pool[int(rng.integers(self.POOL))]
        spec = ArraySpec(ref_spec.element, scan_angle_deg=ref_spec.scan_angle_deg,
                         failed_elements=_failed_elements(rng))
        return ScreenOp(spec, ref_mw, ref_sweep)

    def op(self, o: ScreenOp):
        synth = arraysynth.synthesize_eirp(o.spec, o.ref_mw, self.grid)
        aligned = pattern.rotate_about_y(synth.pattern, -o.spec.scan_angle_deg)
        sweep = metrics.cvrp_sweep(aligned, BORESIGHT)
        return synth, aligned, sweep, diagnostics.compare_sweeps(o.ref_sweep, sweep)

    def check(self, o: ScreenOp, out) -> list[str]:
        synth, aligned, sweep, cmp = out
        errors = []
        self.trp_ulps_max = max(self.trp_ulps_max,
                                ulps_apart(metrics.trp(synth.pattern), o.ref_mw))
        total = aligned.eirp_theta_mw + aligned.eirp_phi_mw
        fov0, v180 = sweep.entries[0]
        if fov0 != 180.0 or v180 != metrics.trp(aligned):
            errors.append(f"180 deg sweep entry {v180!r} is not trp {metrics.trp(aligned)!r}")
        for fov, v in sweep.entries[1:]:
            if fov == 0.0:
                expected = total[0, 0]  # the pole is a grid node
            else:
                expected = self.oracle.cvrp(total, self.oracle.cap_member(0.0, 0.0, fov))
            if rel_err(v, expected) > REL_TOL:
                errors.append(f"sweep at {fov:g} deg: {v!r} != oracle {expected!r}")
        delta = [dbm(t) - dbm(r) for r, t in zip(o.ref_sweep.cvrp_mw, sweep.cvrp_mw)]
        if any(abs(a - b) > 1e-9 for a, b in zip(cmp.delta_db, delta)):
            errors.append("compare_sweeps deltas differ from the oracle's")
        if not any(abs(abs(d) - cmp.threshold_db) < 1e-9 for d in delta):
            if cmp.flagged != any(abs(d) > cmp.threshold_db for d in delta):
                errors.append(f"flag {cmp.flagged} disagrees with oracle deltas")
        if not o.spec.failed_elements and (cmp.flagged or cmp.max_abs_delta_db != 0.0):
            errors.append("all-ON array differs from its own reference")
        return errors


# --------------------------------------------------------------------------
# figures: scalar figures of merit on the 0.5 deg grid


@dataclass(frozen=True)
class FiguresOp:
    index: int
    preset: str
    caps: tuple  # ((theta, phi, half), ...)
    window: tuple  # (theta_min, theta_max, phi_min, phi_extent)
    point: tuple  # (theta, phi)
    masks: tuple  # SphericalMask objects for caps then window


class Figures(Workload):
    """One op computes TRP, one PRP preset, two caps, one window and one
    point CVRP of one of the patterns setup prebuilt."""

    name = "figures"
    STEP_DEG = 0.5
    N_ARRAYS = 3  # synthesized patterns; one isotropic control is added

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.grid = AngularGrid.standard(self.STEP_DEG, self.STEP_DEG)
        self.patterns = []
        for k in range(self.N_ARRAYS):
            spec = ArraySpec(ELEMENTS[k % 2], scan_angle_deg=arraysynth.beam_angle_deg(_beam(rng)),
                             failed_elements=_failed_elements(rng))
            ref_mw = 10.0 ** (_ref_dbm(rng) / 10.0)
            self.patterns.append((arraysynth.synthesize_eirp(spec, ref_mw, self.grid).pattern, ref_mw))
        self.patterns.append((pattern.isotropic(1.0, self.grid), None))
        self._oracle = None
        self._totals = {}

    def draw(self) -> FiguresOp:
        rng = self._draw_rng
        caps = tuple((math.degrees(math.acos(rng.uniform(-1.0, 1.0))),
                      float(rng.uniform(0.0, 360.0)), float(rng.uniform(3.0, 90.0)))
                     for _ in range(2))
        tmin = float(rng.uniform(0.0, 150.0))
        window = (tmin, tmin + float(rng.uniform(10.0, 30.0)),
                  float(rng.uniform(0.0, 360.0)), float(rng.uniform(10.0, 120.0)))
        point = (float(rng.uniform(5.0, 175.0)), float(rng.uniform(0.0, 360.0)))
        mask_list = [masks.SphericalMask.cap(Direction(t, p), h) for t, p, h in caps]
        mask_list.append(masks.SphericalMask.window(
            window[0], window[1], window[2], window[2] + window[3]))
        return FiguresOp(int(rng.integers(len(self.patterns))),
                         str(rng.choice(sorted(metrics.PRP_PRESETS))),
                         caps, window, point, tuple(mask_list))

    def op(self, o: FiguresOp):
        p = self.patterns[o.index][0]
        return (metrics.trp(p), metrics.prp_preset(p, o.preset),
                *(metrics.cvrp(p, m) for m in o.masks),
                metrics.cvrp_point(p, Direction(*o.point)))

    def _total(self, index: int) -> np.ndarray:
        if index not in self._totals:
            p = self.patterns[index][0]
            self._totals[index] = p.eirp_theta_mw + p.eirp_phi_mw
        return self._totals[index]

    def check(self, o: FiguresOp, out) -> list[str]:
        if self._oracle is None:
            self._oracle = GridOracle(self.grid.theta_deg, self.grid.phi_deg)
        orc, total = self._oracle, self._total(o.index)
        t1, t2 = metrics.PRP_PRESETS[o.preset]
        expected = [orc.trp(total), orc.prp(total, t1, t2)]
        expected += [orc.cvrp(total, orc.cap_member(*c)) for c in o.caps]
        expected.append(orc.cvrp(total, orc.window_member(*o.window)))
        expected.append(orc.point(total, *o.point))
        names = ("trp", "prp", "cap1", "cap2", "window", "point")
        errors = [f"{n}: {v!r} != oracle {e!r}"
                  for n, v, e in zip(names, out, expected) if rel_err(v, e) > REL_TOL]
        if self.patterns[o.index][1] is None:  # isotropic 1 mW control
            flat = orc.isotropic_mw(1.0)
            errors += [f"isotropic {n} reads {v!r}, not {flat!r}"
                       for n, v in zip(names, out) if n not in ("prp", "point")
                       and rel_err(v, flat) > 1e-12]
            if rel_err(out[-1], 1.0) > 1e-12:
                errors.append(f"isotropic point reads {out[-1]!r}, not 1 mW")
        return errors

    def finish(self) -> list[str]:
        for p, ref_mw in self.patterns:
            if ref_mw is not None:
                self.trp_ulps_max = max(self.trp_ulps_max, ulps_apart(metrics.trp(p), ref_mw))
        return []


# --------------------------------------------------------------------------
# files: the command line, one fresh interpreter per op, on the 1.5 deg grid


@dataclass
class Command:
    argv: list
    output: str | None = None  # file the command must write
    line: str = r"^wrote "  # regex one stdout line must match
    verify: Callable[[str], list[str]] | None = None  # pipeline check, given stdout


_POWER_LINE = re.compile(r"^[^:\n]+: (?P<dbm>-?\d+\.\d{4}) dBm \((?P<mw>-?\d+\.\d{4}) mW\)$",
                         re.M)


def _write_distributed(p, path: str, blind: tuple) -> int:
    """Write `p` (standard 1.5 deg grid) in the distributed convention,
    leaving out the cells inside the blind (theta, phi) box; returns the
    number of cells left out."""
    step = p.grid.dtheta_deg
    n_phi_std = p.grid.n_phi
    theta = np.arange(-round(180 / step), round(180 / step)) * step
    phi = np.arange(round(180 / step) + 1) * step
    t0, t1, p0, p1 = blind
    lines = ["# format_version: cvrp-pattern/1", "# frequency_hz: 28000000000",
             "# convention: distributed", f"# dtheta_deg: {step:.12g}",
             f"# dphi_deg: {step:.12g}", "# label: distributed measurement",
             "theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm"]
    skipped = 0
    for t in theta:
        it = round(abs(t) / step)
        for ph in phi:
            if t0 <= t <= t1 and p0 <= ph <= p1:
                skipped += 1
                continue
            jt = round(((ph + 180.0) % 360.0 if t < 0 else ph) / step) % n_phi_std
            vals = (p.eirp_theta_mw[it, jt], p.eirp_phi_mw[it, jt])
            cells = ["-inf" if v <= 0 else f"{10.0 * math.log10(v):.12g}" for v in vals]
            lines.append(f"{t:.12g},{ph:.12g},{cells[0]},{cells[1]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return skipped


class Files(Workload):
    """Each op is one ``cvrpkit`` command in a fresh interpreter, from a
    seeded script that alternates two pipelines:

    A: synth -> rotate -> sweep -> diagnose against a reference sweep file
    B: remap a distributed file with a blind region -> fill -> trp or cvrp
    """

    name = "files"
    ROUND = 7  # one A and one B pipeline: a fixed mix of cheap and costly commands
    POOL = 3  # (element, beam) pairs with a reference sweep file
    TIMEOUT_S = 60

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        d = tempfile.mkdtemp(prefix="setup-", dir=self.workdir)
        self.refs = []
        for k in range(self.POOL):
            element, beam, trp_dbm = ELEMENTS[k % 2], _beam(rng), _ref_dbm(rng)
            spec = ArraySpec(element, scan_angle_deg=arraysynth.beam_angle_deg(beam))
            p = arraysynth.synthesize_eirp(spec, 10.0 ** (trp_dbm / 10.0)).pattern
            sweep = metrics.cvrp_sweep(pattern.rotate_about_y(p, -spec.scan_angle_deg), BORESIGHT)
            path = os.path.join(d, f"ref{k}.csv")
            patternio.write_sweep_csv(sweep, path)
            self.refs.append((element.value, beam, trp_dbm, path))
        spec = ArraySpec(ElementModel.HUYGENS, scan_angle_deg=arraysynth.beam_angle_deg(_beam(rng)),
                         failed_elements=_failed_elements(rng))
        measured = arraysynth.synthesize_eirp(spec, 10.0 ** (_ref_dbm(rng) / 10.0)).pattern
        t0, p0 = float(rng.uniform(-170.0, 150.0)), float(rng.uniform(0.0, 150.0))
        self.dist_path = os.path.join(d, "distributed.csv")
        self.blind_cells = _write_distributed(measured, self.dist_path, (t0, t0 + 15.0, p0, p0 + 30.0))
        self.rundir = d
        self._script = self._commands()
        self._spans_path = None
        self._rss_path = os.path.join(d, "rss.txt")
        self._child_peak_kb = 0
        self._last = {}

    def _commands(self):
        rng = self._draw_rng
        a_dir, b_dir = (os.path.join(self.rundir, x) for x in ("a", "b"))
        os.makedirs(a_dir)
        os.makedirs(b_dir)
        synth, rot, sweep = (os.path.join(a_dir, f) for f in ("synth.csv", "rot.csv", "sweep.csv"))
        std, filled = (os.path.join(b_dir, f) for f in ("std.csv", "filled.csv"))
        round_no = 0
        while True:
            element, beam, trp_dbm, ref = self.refs[int(rng.integers(self.POOL))]
            fe = ",".join(str(i) for i in sorted(_failed_elements(rng)))
            scan = arraysynth.beam_angle_deg(beam)
            yield Command(["synth", "--element", element, f"--beam={beam}", f"--fe={fe}",
                           f"--trp-ref-dbm={trp_dbm!r}", "-o", synth], synth)
            yield Command(["rotate", synth, f"--about-y={-scan!r}", "-o", rot], rot)
            yield Command(["sweep", rot, "-o", sweep], sweep)
            yield Command(["diagnose", "--ref", ref, "--test", sweep], None,
                          r"^(FLAGGED|not flagged)",
                          lambda out, ref=ref: self._check_sweep_pipeline(rot, sweep, ref, out))
            yield Command(["remap", self.dist_path, "-o", std], std)
            fill_mw = float(rng.uniform(0.0, 1e-3))
            yield Command(["fill", std, f"--fill-mw={fill_mw!r}", "-o", filled], filled)
            # Switch every two rounds: rounds have an odd length, and traced runs
            # trace every other op, so alternating per round would trace only cvrp.
            if round_no // 2 % 2:
                theta = math.degrees(math.acos(rng.uniform(-1.0, 1.0)))
                phi, half = float(rng.uniform(0.0, 360.0)), float(rng.uniform(3.0, 90.0))
                cap = (theta, phi, half)
                yield Command(["cvrp", filled, f"--cap={half!r}", f"--center={theta!r},{phi!r}"],
                              None, r"^CVRP\[cap ",
                              lambda out, cap=cap: self._check_metric_pipeline(filled, cap, out))
            else:
                yield Command(["trp", filled], None, r"^TRP: ",
                              lambda out: self._check_metric_pipeline(filled, None, out))
            round_no += 1

    def draw(self) -> Command:
        cmd = next(self._script)
        if cmd.output and os.path.exists(cmd.output):
            os.remove(cmd.output)  # so a command that writes nothing cannot pass
        return cmd

    def trace_begin(self, tracer) -> None:
        self._spans_path = os.path.join(self.rundir, "spans.json")

    def trace_end(self, tracer, op_index: int) -> None:
        path, self._spans_path = self._spans_path, None
        if os.path.exists(path):
            tracer.merge(path, op_index)
            os.remove(path)

    def op(self, cmd: Command):
        env = dict(os.environ, CVRPBENCH_RSS=self._rss_path)
        env.pop("CVRPBENCH_SPANS", None)
        if self._spans_path:
            env["CVRPBENCH_SPANS"] = self._spans_path
        return subprocess.run([sys.executable, os.path.join(HERE, "cvrpkit_cli.py"), *cmd.argv],
                              cwd=self.rundir, env=env, capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)

    def check(self, cmd: Command, proc) -> list[str]:
        name = cmd.argv[0]
        if os.path.exists(self._rss_path):  # absent if the child died early
            with open(self._rss_path, encoding="ascii") as fh:
                self._child_peak_kb = max(self._child_peak_kb, int(fh.read()))
            os.remove(self._rss_path)
        if proc.returncode != 0:
            return [f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        errors = []
        if cmd.output and not (os.path.isfile(cmd.output) and os.path.getsize(cmd.output)):
            errors.append(f"{name} wrote no {cmd.output}")
        if not re.search(cmd.line, proc.stdout, re.M):
            errors.append(f"{name} printed no line matching {cmd.line!r}")
        if cmd.output:
            self._last[name] = cmd.output
        if errors or cmd.verify is None:
            return errors
        return cmd.verify(proc.stdout)

    def _check_sweep_pipeline(self, rot: str, sweep_path: str, ref: str, stdout: str) -> list[str]:
        errors = []
        p = pattern.fill_unmeasured(patternio.read_pattern(rot), 0.0)
        sweep = metrics.cvrp_sweep(p, BORESIGHT)
        if sweep.entries[0][1] != metrics.trp(p):
            errors.append("in-process 180 deg sweep entry is not trp")
        with open(sweep_path, encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()
                    if ln and not ln.startswith(("#", "fov_deg"))]
        expected = [[f"{f:.12g}", f"{dbm(v):.12g}"] for f, v in sweep.entries]
        if rows != expected:
            errors.append(f"swept values in {sweep_path} differ from the in-process sweep")
        cmp = diagnostics.compare_sweeps(patternio.read_sweep_csv(ref),
                                         patternio.read_sweep_csv(sweep_path))
        if cmp.flagged != ("FLAGGED" in stdout):
            errors.append(f"diagnose flag disagrees with compare_sweeps ({cmp.flagged})")
        if f"max |delta|: {cmp.max_abs_delta_db:.4f} dB" not in stdout:
            errors.append("diagnose max |delta| disagrees with compare_sweeps")
        return errors

    def _check_metric_pipeline(self, filled: str, cap: tuple | None, stdout: str) -> list[str]:
        orc, total = read_pattern_csv(filled)
        if cap is None:
            expected = orc.trp(total)
        else:
            expected = orc.cvrp(total, orc.cap_member(*cap))
        m = _POWER_LINE.search(stdout)
        if m is None:
            return [f"no power line in {stdout!r}"]
        if abs(float(m["dbm"]) - dbm(expected)) > 6e-5 or abs(float(m["mw"]) - expected) > 6e-5:
            return [f"printed {m.group(0)!r}, oracle {expected!r} mW"]
        return []

    def finish(self) -> list[str]:
        errors = []
        for name in ("synth", "rotate", "remap", "fill"):
            path = self._last.get(name)
            if path is None:
                continue
            copy = path + ".again"
            patternio.write_pattern(patternio.read_pattern(path), copy)
            with open(path, "rb") as a, open(copy, "rb") as b:
                if a.read() != b.read():
                    errors.append(f"write->read->write of {name} output is not byte-identical")
        if "remap" in self._last:
            errors += self._check_remap(self._last["remap"])
        return errors

    def _check_remap(self, std_path: str) -> list[str]:
        """Every distributed row reappears at its standard direction, and
        every standard cell no row reaches is zero-filled."""
        def rows(path):
            with open(path, encoding="utf-8") as fh:
                return [[float(x) for x in ln.split(",")] for ln in fh.read().splitlines()
                        if ln and not ln.startswith(("#", "theta_deg"))]
        std = {(t, ph): (a, b) for t, ph, a, b in rows(std_path)}
        covered = set()
        for t, ph, a, b in rows(self.dist_path):
            key = (-t, (ph + 180.0) % 360.0) if t < 0 else (t, ph)
            got = std.get(key)
            if got is None or any(x != y and abs(x - y) > 1e-9 for x, y in zip(got, (a, b))):
                return [f"remapped cell {key} does not match distributed row ({t}, {ph})"]
            covered.add(key)
        poles = {t for t, _ in covered if t in (0.0, 180.0)}  # remap broadcasts poles
        holes = [k for k in std if k not in covered and k[0] not in poles]
        if any(std[k] != (-math.inf, -math.inf) for k in holes):
            return ["an unmeasured cell was not zero-filled by remap"]
        if len(holes) == 0 and self.blind_cells:
            return ["remap left no unmeasured cells although the file has a blind region"]
        return []

    def peak_rss_mb(self) -> float:
        return self._child_peak_kb / 1024.0


WORKLOADS = {w.name: w for w in (Screen, Figures, Files)}
