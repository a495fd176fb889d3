"""Pattern and sweep CSV formats.

Both are one table grammar: UTF-8 text with "# key: value" metadata lines
before an exact column header, then rows of comma-separated angle columns
followed by as many power columns in dBm. Blank and "#" lines after the
header are skipped, and a bad row is reported as "path:line: ...".

Pattern files have a ``theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm``
header and one row per grid cell in theta-major ascending order. Power is
written in dBm with 12 significant digits; zero linear power is written as
"-inf". The writer emits every cell, measured or not, in the standard
convention. The reader also takes the distributed convention of
roll-over-turntable measurements, theta -180..180-dtheta and phi 0..180,
which is a file convention only: its rows are placed on the standard grid
of their steps as they are read. Either way, the directions a file leaves
out are marked unmeasured.
"""

from __future__ import annotations

import functools
import io
import math
import re
from collections.abc import Callable, Iterable

import numpy as np

from .diagnostics import SweepComparison
from .grid import ANGLE_TOL_DEG, AngularGrid
from .metrics import CvrpSweep
from .pattern import PolarizedPattern

FORMAT_VERSION = "cvrp-pattern/1"

# Two samples of one direction in a distributed file agree to this relative tolerance.
_REL_TOL = 1e-9

_HEADER = "theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm"
_SWEEP_HEADER = "fov_deg,cvrp_dbm"
_COMPARISON_HEADER = "fov_deg,ref_dbm,test_dbm,delta_db,flagged"

# A blank or "#" line with the newline before it, hidden from the bulk parser.
_SKIPPED = re.compile(r"\n[^\S\n]*(?:#.*)?(?=\n|\Z)")

# Builds the ValueError of data row k (0-based) with a message at its file line.
_RowError = Callable[[int, str], ValueError]


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _dbm_str(mw: float) -> str:
    if mw <= 0:
        return "-inf"
    return _fmt(10.0 * math.log10(mw))


def _number(text: str) -> float:
    """float(text) limited to the ASCII syntax np.loadtxt parses (no "_")."""
    t = text.strip()
    if not t.isascii() or "_" in t:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(t)


def _read_table(path: str, header: str) -> tuple[dict[str, str], np.ndarray, _RowError]:
    """The metadata, rows and row-error builder of a table file.

    "# key: value" lines before the exact column header are metadata. The
    body, less blank and "#" lines, is parsed in one call: the first half
    of the header's columns are angles, which must be finite; the rest are
    dBm, returned as linear mW (-inf is zero power, +inf and NaN are
    rejected). A body that fails raises the error of its first bad row.
    """
    meta: dict[str, str] = {}
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in iter(fh.readline, ""):
                lineno += 1
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, sep, value = line[1:].partition(":")
                    if sep:
                        meta[key.strip()] = value.strip()
                    continue
                if line != header:
                    raise ValueError(f"{path}:{lineno}: unexpected column header {line!r}")
                break
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text "
                         f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None

    width = header.count(",") + 1
    n = width // 2
    row_error = functools.partial(_row_error, body, path, lineno, width)
    data = _SKIPPED.sub("", "\n" + body)
    if not data:
        return meta, np.empty((0, width)), row_error
    try:
        rows = np.loadtxt(io.StringIO(data), delimiter=",", comments=None, ndmin=2)
        if (rows.shape[1] != width or not np.isfinite(rows[:, :n]).all()
                or not (rows[:, n:] < np.inf).all()):
            raise ValueError
        # Python's float power, not np.power, which differs in the last bit
        # for some values; -inf dBm gives exactly 0.0.
        mw = [10.0 ** x for x in (rows[:, n:] / 10.0).ravel().tolist()]
    except (ValueError, OverflowError):
        raise row_error() from None
    rows[:, n:] = np.reshape(mw, (-1, width - n))
    return meta, rows, row_error


def _row_error(body: str, path: str, lineno: int, width: int,
               at: int = -1, message: str = "") -> ValueError:
    """message at the data row with index at, or else the error of the
    first body row that fails a per-row check. lineno is the header's line."""
    n = width // 2
    for raw in body.split("\n"):
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if at == 0:
            return ValueError(f"{path}:{lineno}: {message}")
        at -= 1
        parts = line.split(",")
        if len(parts) != width:
            return ValueError(f"{path}:{lineno}: expected {width} columns, got {len(parts)}")
        for col, text in enumerate(parts):
            kind = "angle" if col < n else "dBm value"
            try:
                x = _number(text)
            except ValueError:
                return ValueError(f"{path}:{lineno}: non-numeric {kind} {text!r}")
            if math.isnan(x) or x == math.inf or (col < n and x == -math.inf):
                return ValueError(f"{path}:{lineno}: non-finite {kind} {text!r}")
            if col >= n:
                try:
                    10.0 ** (x / 10.0)  # the linear power the bulk parse computes
                except OverflowError:
                    return ValueError(
                        f"{path}:{lineno}: dBm value {text!r} overflows linear power")
    return ValueError(f"{path}: unreadable table body")


def _write_table(path: str, meta: dict[str, str], header: str, rows: Iterable[str]) -> None:
    """Write "# key: value" metadata lines, the header and the formatted rows."""
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(header)
    lines += rows
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def write_pattern(p: PolarizedPattern, path: str) -> None:
    """Write a pattern file; all grid cells are emitted, zeros as "-inf",
    so unmeasured cells read back as measured zero power."""
    g = p.grid
    meta = {
        "format_version": FORMAT_VERSION,
        "frequency_hz": _fmt(p.frequency_hz),
        "convention": "standard",
        "dtheta_deg": _fmt(g.dtheta_deg),
        "dphi_deg": _fmt(g.dphi_deg),
    }
    if p.label:
        meta["label"] = p.label
    phis = [_fmt(phi) for phi in g.phi_deg.tolist()]
    rows = (f"{theta},{phi},{_dbm_str(t)},{_dbm_str(q)}"
            for theta, et, ep in zip(map(_fmt, g.theta_deg.tolist()),
                                     p.eirp_theta_mw, p.eirp_phi_mw)
            for phi, t, q in zip(phis, et.tolist(), ep.tolist()))
    _write_table(path, meta, _HEADER, rows)


def read_pattern(path: str) -> PolarizedPattern:
    """Read a pattern file onto the standard grid of its steps; directions
    the file leaves out are unmeasured.

    Metadata lines precede the column header. The body is parsed in bulk;
    a row that fails a check is reported as "path:lineno: ...". A
    distributed file's phi step must divide 180 degrees. Its rows are
    placed at the standard cells of their directions: rows of one
    direction must agree to a relative 1e-9, the first in theta-major
    order on the distributed axes is kept, and a pole ring takes the
    sample of its first measured column.
    """
    meta, rows, row_error = _read_table(path, _HEADER)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unknown format version {version!r}")
    convention = meta.get("convention", "standard")
    if convention not in ("standard", "distributed"):
        raise ValueError(f"{path}: unknown convention {convention!r}")
    distributed = convention == "distributed"
    try:
        dtheta = float(meta["dtheta_deg"])
        dphi = float(meta["dphi_deg"])
        frequency = float(meta.get("frequency_hz", "28e9"))
    except (KeyError, ValueError):
        raise ValueError(f"{path}: missing or invalid step/frequency metadata") from None
    if not 0 < frequency < math.inf:
        raise ValueError(f"{path}: frequency_hz must be positive and finite")
    if not rows.size:
        raise ValueError(f"{path}: file contains no samples")
    try:
        grid = AngularGrid(dtheta, dphi)
        if distributed and grid.n_phi % 2:
            raise ValueError(f"dphi_deg={dphi:g} must divide 180 degrees")
        et, ep = np.zeros((2, grid.n_theta, grid.n_phi))
        meas = np.zeros(et.shape, dtype=bool)
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large to hold
        raise ValueError(f"{path}: {exc}") from None
    n_t, n_p = grid.n_theta, grid.n_phi
    # The file's axes; distributed ones are theta -180..180-dtheta, phi 0..180.
    theta0, n_i, n_j = (-180.0, 2 * n_t - 2, n_p // 2 + 1) if distributed else (0.0, n_t, n_p)
    i = _node_indices(rows[:, 0], theta0, n_i, dtheta, "theta", row_error)
    j = _node_indices(rows[:, 1], 0.0, n_j, dphi, "phi", row_error)
    cells = i * n_j + j  # the row's cell on the file's axes
    # A standard file's axes are the grid's, so its rows mark meas directly.
    seen = np.zeros(n_i * n_j, dtype=bool) if distributed else meas.reshape(-1)
    seen[cells] = True
    if np.count_nonzero(seen) < cells.size:
        _, first = np.unique(cells, return_index=True)
        k = int(np.setdiff1d(np.arange(cells.size), first)[0])
        raise row_error(k, f"duplicate sample at theta={float(rows[k, 0])}, "
                           f"phi={float(rows[k, 1])}")
    if distributed:
        # Distributed row i is standard row |i - 180/dtheta|, and behind the
        # pole (theta < 0) column j is standard column j + n_phi/2.
        back = i < n_t - 1
        i, j = np.abs(i - (n_t - 1)), (j + back * (n_p // 2)) % n_p
        cells = i * n_p + j
        meas.flat[cells] = True
    et.flat[cells] = rows[:, 2]
    ep.flat[cells] = rows[:, 3]
    if distributed:
        # Rows behind the pole come first in theta-major order on the distributed
        # axes; writing them again keeps the first of two rows of one cell.
        et.flat[cells[back]] = rows[back, 2]
        ep.flat[cells[back]] = rows[back, 3]
        for r in (0, n_t - 1):  # a pole is one direction: its first column fills the ring
            if meas[r].any():
                c = meas[r].argmax()
                et[r], ep[r], meas[r] = et[r, c], ep[r, c], True
        _check_kept(grid, et, ep, rows, cells, row_error)
    return PolarizedPattern(grid, et, ep, frequency, meta.get("label", ""), meas)


def _check_kept(grid: AngularGrid, et: np.ndarray, ep: np.ndarray, rows: np.ndarray,
                cells: np.ndarray, row_error: _RowError) -> None:
    """Raise the error of the first row whose powers differ by more than a
    relative 1e-9 from those kept at its standard cell."""
    clash = np.zeros(len(rows), dtype=bool)
    for kept, col in ((et, 2), (ep, 3)):
        a, b = kept.flat[cells], rows[:, col]
        # Powers are non-negative, so the larger of the two is the scale.
        clash |= np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-300) > _REL_TOL
    if clash.any():
        k = int(clash.argmax())
        r, c = divmod(int(cells[k]), grid.n_phi)
        theta = r * grid.dtheta_deg
        at = (f"pole theta={theta}" if r in (0, grid.n_theta - 1)
              else f"(theta={theta}, phi={c * grid.dphi_deg})")
        raise row_error(k, f"conflicting duplicate samples at {at} deg")


def _node_indices(values: np.ndarray, lo: float, n: int, step: float, name: str,
                  row_error: _RowError) -> np.ndarray:
    """Each value's index on the axis lo, lo + step, ..., lo + (n - 1) * step;
    an off-axis value raises the error of its row."""
    k = np.rint((values - lo) / step)
    off = (np.abs(lo + k * step - values) > ANGLE_TOL_DEG) | (k < 0) | (k >= n)
    if off.any():
        r = int(off.argmax())
        raise row_error(r, f"{name}={float(values[r])} lies outside "
                           f"[{lo:g}, {lo + (n - 1) * step:g}] "
                           f"or is inconsistent with step {step}")
    return k.astype(np.intp)


def write_sweep_csv(s: CvrpSweep | SweepComparison, path: str) -> None:
    """Write a sweep (fov_deg,cvrp_dbm) or a comparison as CSV. A sweep's
    pattern label is written as a "# label:" line and its power in dBm as
    in pattern files, zero as "-inf"; a comparison's dB values as stored."""
    if isinstance(s, CvrpSweep):
        meta = {"label": s.pattern_label} if s.pattern_label else {}
        _write_table(path, meta, _SWEEP_HEADER,
                     (f"{_fmt(f)},{_dbm_str(v)}" for f, v in s.entries))
    elif isinstance(s, SweepComparison):
        rows = zip(s.fov_deg, s.ref_cvrp_db, s.test_cvrp_db, s.delta_db)
        _write_table(path, {}, _COMPARISON_HEADER,
                     (",".join([*map(_fmt, r), "true" if abs(r[3]) > s.threshold_db else "false"])
                      for r in rows))
    else:
        raise TypeError(f"cannot write {type(s).__name__} as a sweep CSV")


def read_sweep_csv(path: str) -> CvrpSweep:
    """Read a single-sweep CSV (fov_deg,cvrp_dbm) back into linear units."""
    meta, rows, _ = _read_table(path, _SWEEP_HEADER)
    if not rows.size:
        raise ValueError(f"{path}: no sweep rows found")
    try:
        return CvrpSweep(rows.tolist(), pattern_label=meta.get("label", ""))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
