"""Pattern and sweep CSV formats.

Pattern files are UTF-8 CSV with "# key: value" metadata lines, a
``theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm`` header, and one row per
grid cell in theta-major ascending order. Power is written in dBm with
12 significant digits; zero linear power is written as "-inf". Cells
absent from the file are marked unmeasured on load.
"""

from __future__ import annotations

import io
import math
import re

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

_CONVENTIONS = {
    "standard": Convention.STANDARD,
    "distributed": Convention.DISTRIBUTED,
}


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


def _parse_dbm(text: str, path: str, lineno: int) -> float:
    """Linear power of a dBm field; -inf (any spelling) is zero power."""
    try:
        dbm = _number(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric dBm value {text!r}") from None
    if math.isnan(dbm) or dbm == math.inf:
        raise ValueError(f"{path}:{lineno}: non-finite dBm value {text!r}")
    try:
        return 10.0 ** (dbm / 10.0)
    except OverflowError:
        raise ValueError(f"{path}:{lineno}: dBm value {text!r} overflows linear power") from None


def write_pattern(p: PolarizedPattern, path: str) -> None:
    """Write a pattern file; all grid cells are emitted, zeros as "-inf"."""
    g = p.grid
    lines = [
        f"# format_version: {FORMAT_VERSION}",
        f"# frequency_hz: {_fmt(p.frequency_hz)}",
        f"# convention: {g.convention.value}",
        f"# dtheta_deg: {_fmt(g.dtheta_deg)}",
        f"# dphi_deg: {_fmt(g.dphi_deg)}",
    ]
    if p.label:
        lines.append(f"# label: {p.label}")
    lines.append(_HEADER)
    phis = [_fmt(phi) for phi in g.phi_deg.tolist()]
    for theta, et, ep in zip(map(_fmt, g.theta_deg.tolist()), p.eirp_theta_mw, p.eirp_phi_mw):
        lines += [f"{theta},{phi},{_dbm_str(t)},{_dbm_str(q)}"
                  for phi, t, q in zip(phis, et.tolist(), ep.tolist())]
    _write_text(path, "\n".join(lines) + "\n")


def read_pattern(path: str) -> PolarizedPattern:
    """Read a pattern file; absent (theta, phi) cells are unmeasured.

    Metadata lines precede the column header. The body is parsed in bulk;
    a row that fails a check is reported as "path:lineno: ...".
    """
    meta: dict[str, str] = {}
    lineno = 0
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
            if line != _HEADER:
                raise ValueError(f"{path}:{lineno}: unexpected column header {line!r}")
            break
        body = fh.read()
    rows = _parse_rows(body, path, lineno)

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unknown format version {version!r}")
    conv_name = meta.get("convention", "standard")
    if conv_name not in _CONVENTIONS:
        raise ValueError(f"{path}: unknown convention {conv_name!r}")
    convention = _CONVENTIONS[conv_name]
    try:
        dtheta = float(meta["dtheta_deg"])
        dphi = float(meta["dphi_deg"])
        frequency = float(meta.get("frequency_hz", "28e9"))
    except (KeyError, ValueError):
        raise ValueError(f"{path}: missing or invalid step/frequency metadata") from None
    if not (0 < dtheta < math.inf and 0 < dphi < math.inf):
        raise ValueError(f"{path}: dtheta_deg and dphi_deg must be positive and finite")
    if not 0 < frequency < math.inf:
        raise ValueError(f"{path}: frequency_hz must be positive and finite")
    if not rows.size:
        raise ValueError(f"{path}: file contains no samples")

    theta_axis, i = _axis_indices(rows[:, 0], dtheta, path, "theta")
    phi_axis, j = _axis_indices(rows[:, 1], dphi, path, "phi")
    grid = AngularGrid(theta_axis, phi_axis, dtheta, dphi, convention)
    cells = i * grid.n_phi + j
    et, ep = np.zeros((2, grid.n_theta, grid.n_phi))
    meas = np.zeros(et.shape, dtype=bool)
    meas.flat[cells] = True
    if np.count_nonzero(meas) < cells.size:
        _, first = np.unique(cells, return_index=True)
        raise _row_error(body, path, lineno, np.setdiff1d(np.arange(cells.size), first)[0])
    et.flat[cells] = rows[:, 2]
    ep.flat[cells] = rows[:, 3]
    return PolarizedPattern(grid, et, ep, frequency, meta.get("label", ""), meas)


def _parse_rows(body: str, path: str, lineno: int) -> np.ndarray:
    """The body's rows as (theta, phi, mW, mW), parsed in one call.

    On any failure the body is scanned line by line for the first bad row,
    so the error is the one a line-by-line reader would raise.
    """
    data = _SKIPPED.sub("", "\n" + body)
    if not data:
        return np.empty((0, 4))
    try:
        rows = np.loadtxt(io.StringIO(data), delimiter=",", comments=None, ndmin=2)
        # Angles must be finite; dBm may be -inf (zero power) but not +inf or NaN.
        if (rows.shape[1] != 4 or not np.isfinite(rows[:, :2]).all()
                or not (rows[:, 2:] < np.inf).all()):
            raise ValueError
        # Python's float power, not np.power, which differs in the last bit
        # for some values; -inf dBm gives exactly 0.0.
        mw = [10.0 ** x for x in (rows[:, 2:] / 10.0).ravel().tolist()]
    except (ValueError, OverflowError):
        raise _row_error(body, path, lineno) from None
    rows[:, 2:] = np.reshape(mw, (-1, 2))
    return rows


def _row_error(body: str, path: str, lineno: int, duplicate: int = -1) -> ValueError:
    """The error of the first body row that fails a per-row check, or of
    the data row with index duplicate, whose cell an earlier row took."""
    for raw in body.split("\n"):
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            return ValueError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        try:
            theta, phi = map(_number, parts[:2])
        except ValueError:
            return ValueError(f"{path}:{lineno}: non-numeric angle")
        if not (math.isfinite(theta) and math.isfinite(phi)):
            return ValueError(f"{path}:{lineno}: non-finite angle")
        if duplicate == 0:
            return ValueError(f"{path}:{lineno}: duplicate sample at theta={theta}, phi={phi}")
        duplicate -= 1
        try:
            for text in parts[2:]:
                _parse_dbm(text, path, lineno)
        except ValueError as exc:
            return exc
    return ValueError(f"{path}: unreadable pattern body")


def _axis_indices(values: np.ndarray, step: float, path: str,
                  name: str) -> tuple[np.ndarray, np.ndarray]:
    """The equispaced axis spanning values, and each value's index on it."""
    uniq, inverse = np.unique(values, return_inverse=True)
    lo, hi = float(uniq[0]), float(uniq[-1])
    n = round((hi - lo) / step)
    if abs(lo + n * step - hi) > ANGLE_TOL_DEG:
        raise ValueError(f"{path}: {name} span is not a multiple of the declared step")
    k = np.rint((uniq - lo) / step)
    off = np.abs(lo + k * step - uniq) > ANGLE_TOL_DEG
    if off.any():
        raise ValueError(f"{path}: {name}={float(uniq[off.argmax()])} is "
                         f"inconsistent with step {step}")
    if n < 1:
        raise ValueError(f"{path}: {name} axis needs at least two samples")
    return lo + np.arange(n + 1) * step, k.astype(np.intp)[inverse]


def write_sweep_csv(s: CvrpSweep | SweepComparison, path: str) -> None:
    """Write a sweep (fov_deg,cvrp_dbm) or a comparison as CSV. A sweep's
    pattern label is written as a "# label:" line and its power in dBm as
    in pattern files, zero as "-inf"; a comparison's dB values as stored."""
    if isinstance(s, CvrpSweep):
        lines = [f"# label: {s.pattern_label}"] if s.pattern_label else []
        lines.append(_SWEEP_HEADER)
        lines += [f"{_fmt(f)},{_dbm_str(v)}" for f, v in s.entries]
    elif isinstance(s, SweepComparison):
        lines = [_COMPARISON_HEADER]
        for row in zip(s.fov_deg, s.ref_cvrp_db, s.test_cvrp_db, s.delta_db):
            flagged = "true" if abs(row[3]) > s.threshold_db else "false"
            lines.append(",".join(map(_fmt, row)) + "," + flagged)
    else:
        raise TypeError(f"cannot write {type(s).__name__} as a sweep CSV")
    _write_text(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> CvrpSweep:
    """Read a single-sweep CSV (fov_deg,cvrp_dbm) back into linear units."""
    label = ""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("label:"):
                    label = body.partition(":")[2].strip()
                continue
            if line.startswith("fov_deg"):
                if line != _SWEEP_HEADER:
                    raise ValueError(f"{path}:{lineno}: not a single-sweep CSV")
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns")
            try:
                fov = _number(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric FoV {parts[0]!r}") from None
            entries.append((fov, _parse_dbm(parts[1], path, lineno)))
    if not entries:
        raise ValueError(f"{path}: no sweep rows found")
    try:
        return CvrpSweep(tuple(entries), pattern_label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
