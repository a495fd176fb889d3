"""Pattern and sweep CSV formats.

Both are one table grammar: UTF-8 text with "# key: value" metadata lines
before an exact column header, then rows of comma-separated angle columns
followed by as many power columns in dBm. Blank and "#" lines after the
header are skipped, and a bad row is reported as "path:line: ...".

Pattern files have a ``theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm``
header and one row per grid cell in theta-major ascending order. Power is
written in dBm with 12 significant digits; zero linear power is written as
"-inf". The writer emits every cell, measured or not. A file of either
convention is read onto the full-sphere grid of its steps, and the cells
it leaves out are marked unmeasured.
"""

from __future__ import annotations

import functools
import io
import math
import re
from collections.abc import Callable, Iterable

import numpy as np

from .diagnostics import SweepComparison
from .grid import ANGLE_TOL_DEG, AngularGrid, Convention
from .metrics import CvrpSweep
from .pattern import PolarizedPattern

FORMAT_VERSION = "cvrp-pattern/1"

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
        "convention": g.convention.value,
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
    """Read a pattern file onto the full-sphere grid of its steps and
    convention; absent (theta, phi) cells are unmeasured.

    Metadata lines precede the column header. The body is parsed in bulk;
    a row that fails a check is reported as "path:lineno: ...".
    """
    meta, rows, row_error = _read_table(path, _HEADER)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unknown format version {version!r}")
    conv_name = meta.get("convention", "standard")
    try:
        convention = Convention(conv_name)
    except ValueError:
        raise ValueError(f"{path}: unknown convention {conv_name!r}") from None
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
        grid = AngularGrid(dtheta, dphi, convention)
        et, ep = np.zeros((2, grid.n_theta, grid.n_phi))
        meas = np.zeros(et.shape, dtype=bool)
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large to hold
        raise ValueError(f"{path}: {exc}") from None
    i = _node_indices(rows[:, 0], grid.theta_deg, dtheta, "theta", row_error)
    j = _node_indices(rows[:, 1], grid.phi_deg, dphi, "phi", row_error)
    cells = i * grid.n_phi + j
    meas.flat[cells] = True
    if np.count_nonzero(meas) < cells.size:
        _, first = np.unique(cells, return_index=True)
        k = int(np.setdiff1d(np.arange(cells.size), first)[0])
        raise row_error(k, f"duplicate sample at theta={float(rows[k, 0])}, "
                           f"phi={float(rows[k, 1])}")
    et.flat[cells] = rows[:, 2]
    ep.flat[cells] = rows[:, 3]
    return PolarizedPattern(grid, et, ep, frequency, meta.get("label", ""), meas)


def _node_indices(values: np.ndarray, axis: np.ndarray, step: float, name: str,
                  row_error: _RowError) -> np.ndarray:
    """Each value's index on an equispaced axis; an off-axis value raises
    the error of its row."""
    lo = axis[0]
    k = np.rint((values - lo) / step)
    off = (np.abs(lo + k * step - values) > ANGLE_TOL_DEG) | (k < 0) | (k >= axis.size)
    if off.any():
        r = int(off.argmax())
        raise row_error(r, f"{name}={float(values[r])} lies outside [{lo:g}, {axis[-1]:g}] "
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
