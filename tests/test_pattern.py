import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvrpkit import (
    ArraySpec,
    ElementModel,
    PolarizedPattern,
    fill_unmeasured,
    isotropic,
    read_pattern,
    remap_to_standard,
    rotate_about_y,
    sample_bilinear,
    synthesize_eirp,
    trp,
)
from cvrpkit.grid import ANGLE_TOL_DEG, AngularGrid, Direction

from oracles import (
    distributed_axes,
    rotate_about_y_reference,
    rotated_measured_reference,
    sample_component_reference,
    sph_to_unit,
    write_distributed,
)


def node(axis, value):
    return int(np.flatnonzero(axis == value)[0])


def write_uniform(path, value_mw, cells=None, dtheta=1.5, dphi=1.5):
    """A distributed file of value_mw split evenly between polarizations,
    measured for |theta| <= 171 deg only, except that cells maps some
    (theta, phi) to other (EIRP_theta, EIRP_phi). Returns the measured
    mask on the distributed axes and the file line of each cell."""
    theta, phi = distributed_axes(dtheta, dphi)
    meas = np.broadcast_to((np.abs(theta) <= 171.0)[:, None], (theta.size, phi.size))
    et = np.where(meas, value_mw / 2.0, 0.0)
    ep = et.copy()
    for (t, ph), (vt, vp) in (cells or {}).items():
        et[node(theta, t), node(phi, ph)] = vt
        ep[node(theta, t), node(phi, ph)] = vp
    *_, lines = write_distributed(str(path), dtheta, dphi, et, ep, meas)
    return meas, lines


def remap_oracle(dtheta, dphi, et, ep, src_meas):
    """Loop form of the placement of distributed rows on the standard grid
    (its checks left out), the reference for read_pattern: the first
    measured sample in theta-major source order fills a standard cell,
    and each pole row takes the value of its first measured column.
    Also returns the distributed cells whose samples are kept."""
    theta, phi = distributed_axes(dtheta, dphi)
    out = AngularGrid.standard(dtheta, dphi)
    n_t, n_p = out.n_theta, out.n_phi
    et_std = np.zeros((n_t, n_p))
    ep_std = np.zeros((n_t, n_p))
    meas = np.zeros((n_t, n_p), dtype=bool)
    kept = {}
    for i, t in enumerate(theta):
        t_std, p_off = (t, 0.0) if t >= -1e-9 else (-t, 180.0)
        it = round(t_std / dtheta)
        for j, ph in enumerate(phi):
            jt = round(((ph + p_off) % 360.0) / dphi) % n_p
            if src_meas[i, j] and not meas[it, jt]:
                et_std[it, jt] = et[i, j]
                ep_std[it, jt] = ep[i, j]
                meas[it, jt] = True
                kept[it, jt] = (i, j)
    for it in (0, n_t - 1):
        cols = np.nonzero(meas[it])[0]
        if cols.size:
            et_std[it, :] = et_std[it, cols[0]]
            ep_std[it, :] = ep_std[it, cols[0]]
            meas[it, :] = True
            for c in cols[1:]:
                del kept[it, c]
    return et_std, ep_std, meas, set(kept.values())


def random_field(rng, dtheta=1.5, dphi=1.5):
    """A random field on physical directions on the distributed axes, so
    duplicates agree, with per-sample noise of 1e-12 relative: within the
    duplicate tolerance, but it shows which duplicate read_pattern keeps.
    Returns both polarizations and the axes."""
    theta, phi = distributed_axes(dtheta, dphi)
    std = AngularGrid.standard(dtheta, dphi)
    field = rng.uniform(0.1, 10.0, (2, std.n_theta, std.n_phi))
    field[:, 0, :] = field[:, 0, :1]
    field[:, -1, :] = field[:, -1, :1]
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    it = np.rint(np.abs(tt) / dtheta).astype(int)
    jt = np.rint(np.where(tt < 0, pp + 180.0, pp) % 360.0 / dphi).astype(int) % std.n_phi
    vals = field[:, it, jt] * (1.0 + 1e-12 * rng.uniform(-1, 1, (2,) + tt.shape))
    return vals[0], vals[1], tt, pp


def assert_matches_oracle(path, dtheta, dphi, et, ep, measured, rng=None):
    """read_pattern of the distributed file of these arrays equals the
    loop oracle; returns the pattern read, the cells the oracle keeps and
    the file line of each cell."""
    et, ep, lines = write_distributed(str(path), dtheta, dphi, et, ep, measured, rng)
    p = read_pattern(str(path))
    want_t, want_p, want_m, kept = remap_oracle(dtheta, dphi, et, ep, measured)
    np.testing.assert_array_equal(p.eirp_theta_mw, want_t)
    np.testing.assert_array_equal(p.eirp_phi_mw, want_p)
    got_m = np.ones(want_m.shape, dtype=bool) if p.measured is None else p.measured
    np.testing.assert_array_equal(got_m, want_m)
    return p, kept, lines


class TestRemap:
    def test_negative_theta_reflects_azimuth(self, tmp_path):
        write_uniform(tmp_path / "d.csv", 0.0, {(-30.0, 42.0): (10.0, 0.0)})
        std = read_pattern(str(tmp_path / "d.csv"))
        it = node(std.grid.theta_deg, 30.0)
        jt = node(std.grid.phi_deg, 222.0)
        assert std.eirp_theta_mw[it, jt] == 10.0

    def test_positive_theta_unchanged(self, tmp_path):
        write_uniform(tmp_path / "d.csv", 0.0, {(30.0, 42.0): (10.0, 0.0)})
        std = read_pattern(str(tmp_path / "d.csv"))
        it = node(std.grid.theta_deg, 30.0)
        jt = node(std.grid.phi_deg, 42.0)
        assert std.eirp_theta_mw[it, jt] == 10.0

    def test_isotropic_coverage_by_unit_vectors(self, tmp_path):
        # Direction-by-direction oracle: a standard node is covered iff
        # some measured distributed node's unit vector lies within 1e-9 of it.
        # Checked in blocks of nodes: |a - b| < 1e-9 implies a.b > 1 - 1e-18,
        # so keeping pairs with a.b > 1 - 1e-12 loses no covered pair, and
        # the exact norm then decides each kept pair.
        meas, _ = write_uniform(tmp_path / "d.csv", 1.0)
        std = read_pattern(str(tmp_path / "d.csv"))
        g = std.grid
        src = sph_to_unit(*np.meshgrid(*distributed_axes(1.5, 1.5), indexing="ij"))
        src = src[meas]
        dst = sph_to_unit(*np.meshgrid(g.theta_deg, g.phi_deg, indexing="ij"))
        dst = dst.reshape(-1, 3)
        covered = np.zeros(len(dst), dtype=bool)
        for start in range(0, len(dst), 128):
            block = dst[start:start + 128]
            i, k = np.nonzero(block @ src.T > 1.0 - 1e-12)
            hit = np.linalg.norm(src[k] - block[i], axis=1) < 1e-9
            covered[start + i[hit]] = True
        covered = covered.reshape(g.n_theta, g.n_phi)
        np.testing.assert_array_equal(std.measured, covered)
        np.testing.assert_allclose(std.total_mw, np.where(covered, 1.0, 0.0),
                                   rtol=0.0, atol=1e-12)

    def test_round_trip_reproduces_measured_samples(self, tmp_path):
        # values defined on physical directions, so the duplicate columns
        # (phi 0/180 reflections) stay consistent under the placement
        theta, phi = distributed_axes(1.5, 1.5)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        u = sph_to_unit(tt, pp)
        vals = 1.0 + 0.5 * u[..., 0] + 0.3 * u[..., 1] ** 2 + 0.2 * u[..., 2]
        vt, vp, _ = write_distributed(str(tmp_path / "d.csv"), 1.5, 1.5, vals, 2.0 * vals)
        std = read_pattern(str(tmp_path / "d.csv"))
        for i, t in enumerate(theta):
            for j, ph in enumerate(phi):
                t_std, p_std = (t, ph) if t >= 0 else (-t, (ph + 180.0) % 360.0)
                it = round(t_std / 1.5)
                jt = round(p_std / 1.5) % std.grid.n_phi
                # pole rows collapse to one physical value; skip them here
                if 0 < it < std.grid.n_theta - 1:
                    assert std.eirp_theta_mw[it, jt] == pytest.approx(vt[i, j], rel=1e-12)
                    assert std.eirp_phi_mw[it, jt] == pytest.approx(vp[i, j], rel=1e-12)

    def test_conflicting_duplicates_rejected_at_later_row(self, tmp_path):
        # distributed (-30, 0) and (30, 180) are the same physical direction;
        # the first in theta-major order is kept, so the later row conflicts
        _, lines = write_uniform(tmp_path / "d.csv", 1.0, {(30.0, 180.0): (7.0, 0.5)})
        line = lines[node(distributed_axes(1.5, 1.5)[0], 30.0), 120]
        with pytest.raises(ValueError, match=rf"d\.csv:{line}: conflicting duplicate samples "
                                             rf"at \(theta=30\.0, phi=180\.0\) deg$"):
            read_pattern(str(tmp_path / "d.csv"))

    def test_conflicting_pole_samples_rejected(self, tmp_path):
        # every phi of the theta = 0 row is the north pole
        _, lines = write_uniform(tmp_path / "d.csv", 1.0, {(0.0, 42.0): (0.9, 0.5)})
        line = lines[node(distributed_axes(1.5, 1.5)[0], 0.0), 28]
        with pytest.raises(ValueError, match=rf"d\.csv:{line}: conflicting duplicate samples "
                                             rf"at pole theta=0\.0 deg$"):
            read_pattern(str(tmp_path / "d.csv"))

    def test_matches_loop_oracle(self, tmp_path):
        vt, vp, tt, pp = random_field(np.random.default_rng(7))
        blind = (tt > 100) & (tt < 115) & (pp > 40) & (pp < 70)
        p, _, _ = assert_matches_oracle(tmp_path / "d.csv", 1.5, 1.5, vt, vp, ~blind)
        assert p.measured is not None and p.label == "dist"

    @settings(max_examples=60, deadline=None)
    @given(n_t=st.integers(2, 120), n_p=st.integers(2, 120),
           seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0))
    def test_matches_loop_oracle_on_any_steps(self, tmp_path_factory, n_t, n_p, seed, density):
        # Steps 180/n from 1.5 to 90 deg, a random measured set of rows in
        # theta-major and in shuffled order, and one duplicate perturbed.
        rng = np.random.default_rng(seed)
        dt, dp = 180.0 / n_t, 180.0 / n_p
        vt, vp, _, _ = random_field(rng, dt, dp)
        measured = rng.uniform(size=vt.shape) < density
        measured.flat[rng.integers(measured.size)] = True  # a file needs one row
        d = tmp_path_factory.getbasetemp()
        p, kept, _ = assert_matches_oracle(d / "sorted.csv", dt, dp, vt, vp, measured)
        q, _, lines = assert_matches_oracle(d / "shuffled.csv", dt, dp, vt, vp, measured, rng)
        assert np.array_equal(q.eirp_theta_mw, p.eirp_theta_mw)
        assert np.array_equal(q.eirp_phi_mw, p.eirp_phi_mw)
        assert np.array_equal(q.total_mw, p.total_mw)
        duplicates = [c for c in zip(*np.nonzero(measured)) if c not in kept]
        if duplicates:
            i, j = duplicates[rng.integers(len(duplicates))]
            vt[i, j] *= 1.0 + 1e-6
            path = d / "perturbed.csv"
            _, _, lines = write_distributed(str(path), dt, dp, vt, vp, measured, rng)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lines[i, j]}: "
                                                 "conflicting duplicate samples at "):
                read_pattern(str(path))

    def test_remap_to_standard_is_identity(self, tmp_path):
        # every pattern is standard; remap_to_standard(read_pattern(f)) still works
        write_uniform(tmp_path / "d.csv", 1.0)
        p = read_pattern(str(tmp_path / "d.csv"))
        assert remap_to_standard(p) is p


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_eirp_rejected(self, std_grid, bad):
        good = np.ones((std_grid.n_theta, std_grid.n_phi))
        et = good.copy()
        et[3, 4] = bad
        for pair in ((et, good), (good, et)):
            with pytest.raises(ValueError, match="finite, non-negative"):
                PolarizedPattern(std_grid, *pair)

    @pytest.mark.parametrize("frequency", [0.0, -28e9, np.nan, np.inf])
    def test_bad_frequency_rejected(self, iso_pattern, frequency):
        with pytest.raises(ValueError, match="frequency_hz must be positive and finite"):
            PolarizedPattern(iso_pattern.grid, iso_pattern.eirp_theta_mw,
                             iso_pattern.eirp_phi_mw, frequency)


class TestFill:
    def test_back_hemisphere_zero_fill(self, tmp_path):
        write_uniform(tmp_path / "d.csv", 1.0)
        std = read_pattern(str(tmp_path / "d.csv"))
        filled = fill_unmeasured(std, 0.0)
        assert filled.measured is None
        gap = std.grid.theta_deg > 171.0
        assert np.all(filled.total_mw[gap, :] == 0.0)

    def test_no_missing_cells_noop(self):
        p = isotropic(1.0)
        assert fill_unmeasured(p, 5.0) is p

    def test_single_missing_cell(self, std_grid):
        meas = np.ones((std_grid.n_theta, std_grid.n_phi), dtype=bool)
        meas[10, 20] = False
        z = np.zeros_like(meas, dtype=float)
        p = PolarizedPattern(std_grid, z, z.copy(), measured=meas)
        filled = fill_unmeasured(p, 2.0)
        assert filled.eirp_theta_mw[10, 20] == 2.0
        assert filled.eirp_phi_mw[10, 20] == 2.0

    def test_negative_fill_rejected(self, iso_pattern):
        with pytest.raises(ValueError, match="non-negative"):
            fill_unmeasured(iso_pattern, -1.0)

    @pytest.mark.parametrize("fill", [math.nan, math.inf])
    def test_non_finite_fill_rejected(self, iso_pattern, fill):
        # rejected even when no cell is unmeasured
        with pytest.raises(ValueError, match="finite and non-negative"):
            fill_unmeasured(iso_pattern, fill)


class TestSampling:
    def test_node_identity(self, cosine_boresight):
        p = cosine_boresight.pattern
        g = p.grid
        et, ep = sample_bilinear(p, Direction(g.theta_deg[40], g.phi_deg[100]))
        assert et == p.eirp_theta_mw[40, 100]
        assert ep == p.eirp_phi_mw[40, 100]

    def test_isotropic_everywhere(self, iso_pattern, rng):
        for _ in range(50):
            d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
            assert sum(sample_bilinear(iso_pattern, d)) == pytest.approx(1.0, rel=1e-12)

    def test_phi_midpoint(self, std_grid):
        et = np.full((std_grid.n_theta, std_grid.n_phi), 2.0)
        et[:, 1] = 4.0
        p = PolarizedPattern(std_grid, et, np.zeros_like(et))
        v, _ = sample_bilinear(p, Direction(45.0, 0.75))
        assert v == pytest.approx(3.0, rel=1e-12)

    def test_phi_wraps_across_360(self, std_grid):
        et = np.full((std_grid.n_theta, std_grid.n_phi), 2.0)
        et[:, 0] = 4.0
        p = PolarizedPattern(std_grid, et, np.zeros_like(et))
        v, _ = sample_bilinear(p, Direction(45.0, 359.25))
        assert v == pytest.approx(3.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(ft=st.floats(0.0, 1.0), fp=st.floats(0.0, 1.0))
    @example(ft=0.0, fp=4.788590892803361e-11)  # phi 7.2e-10 deg off a node
    def test_exact_for_affine_fields(self, ft, fp):
        # bilinear interpolation reproduces fields affine in theta and phi,
        # at the query after the documented 1e-9 deg snap to a node
        g = AngularGrid.standard(15.0, 15.0)
        tt, pp = np.meshgrid(g.theta_deg, g.phi_deg, indexing="ij")
        et = 3.0 + 0.02 * tt + 0.01 * pp
        p = PolarizedPattern(g, et, np.zeros_like(et))
        theta = 30.0 + ft * 15.0
        phi = 45.0 + fp * 15.0
        v, _ = sample_bilinear(p, Direction(theta, phi))

        def snapped(x):
            node = round(x / 15.0) * 15.0
            return node if abs(x - node) < ANGLE_TOL_DEG else x

        expected = 3.0 + 0.02 * snapped(theta) + 0.01 * snapped(phi)
        assert v == pytest.approx(expected, rel=1e-12)

    def test_combined_is_sum(self, std_grid):
        et = np.full((std_grid.n_theta, std_grid.n_phi), 3.0)
        ep = np.full((std_grid.n_theta, std_grid.n_phi), 4.0)
        p = PolarizedPattern(std_grid, et, ep)
        assert sum(sample_bilinear(p, Direction(10.0, 10.0))) == pytest.approx(7.0)

    def test_pure_theta_polarization(self, cosine_boresight):
        p = cosine_boresight.pattern
        d = Direction(12.3, 45.6)
        et, ep = sample_bilinear(p, d)
        assert ep == 0.0
        assert sum(sample_bilinear(p, d)) == et


class TestRotation:
    def test_zero_angle_identity(self, cosine_boresight):
        p = cosine_boresight.pattern
        assert rotate_about_y(p, 0.0) is p

    def test_isotropic_invariant(self, iso_pattern):
        rot = rotate_about_y(iso_pattern, 33.0)
        np.testing.assert_allclose(rot.total_mw, 1.0, rtol=1e-9)

    def test_steered_beam_aligns_to_boresight(self):
        spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-45.0)
        p = synthesize_eirp(spec, 1.0).pattern
        rot = rotate_about_y(p, 45.0)
        tot = rot.total_mw
        i, _ = np.unravel_index(np.argmax(tot), tot.shape)
        assert rot.grid.theta_deg[i] <= 1.5 + 1e-9

    def test_round_trip_power(self):
        spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-45.0)
        p = synthesize_eirp(spec, 1.0).pattern
        rt = rotate_about_y(rotate_about_y(p, 45.0), -45.0)
        assert abs(10 * math.log10(trp(rt) / trp(p))) < 0.1
        main = p.total_mw >= 0.5 * p.total_mw.max()
        rel = np.abs(rt.total_mw[main] - p.total_mw[main]) / p.total_mw[main]
        assert rel.max() < 0.05


# Full grids at four steps; a standard grid is always the full sphere.
REFERENCE_GRIDS = {
    "full-0.5": AngularGrid.standard(0.5, 0.5),
    "full-1.5": AngularGrid.standard(1.5, 1.5),
    "full-5": AngularGrid.standard(5.0, 5.0),
    "full-15": AngularGrid.standard(15.0, 15.0),
}


def _random_pattern(grid, rng):
    shape = (grid.n_theta, grid.n_phi)
    et = rng.uniform(0.1, 2.0, shape)
    et[rng.random(shape) < 0.1] = 0.0
    return PolarizedPattern(grid, et, rng.uniform(0.0, 1.0, shape))


def _reference_queries(grid, rng):
    """Directions at nodes and 1e-10 deg either side, the poles, phi just
    below 360 and just above 0, and random directions."""
    def near(axis):
        nodes = axis[[0, 1, axis.size // 2, -2, -1]]
        return [v + e for v in nodes.tolist() for e in (-1e-10, 0.0, 1e-10)]
    thetas = near(grid.theta_deg) + [0.0, 1e-10, 180.0 - 1e-10, 180.0]
    thetas += rng.uniform(0.0, 180.0, 12).tolist()
    phis = near(grid.phi_deg) + [0.0, 1e-10, 360.0 - 1e-10, -1e-10, 359.3]
    phis += rng.uniform(0.0, 360.0, 12).tolist()
    return [Direction(t, p) for t in thetas for p in phis]


class TestSamplingMatchesReference:
    @pytest.mark.parametrize("name", REFERENCE_GRIDS)
    def test_sample_bilinear(self, name, rng):
        g = REFERENCE_GRIDS[name]
        p = _random_pattern(g, rng)
        dirs = _reference_queries(g, rng)
        got = np.array([sample_bilinear(p, d) for d in dirs])
        t = np.array([d.theta_deg for d in dirs])
        ph = np.array([d.phi_deg for d in dirs])
        for k, values in enumerate((p.eirp_theta_mw, p.eirp_phi_mw)):
            want = sample_component_reference(values, g, t, ph)
            assert np.array_equal(got[:, k], want)

    @pytest.mark.parametrize("name", REFERENCE_GRIDS)
    @pytest.mark.parametrize("alpha", [-45.0, 17.0, 90.0, 180.0])
    def test_rotate_about_y(self, name, alpha, rng):
        g = REFERENCE_GRIDS[name]
        blind = rng.random((g.n_theta, g.n_phi)) < 0.05
        blind[g.n_theta // 3:g.n_theta // 2, g.n_phi // 4:g.n_phi // 3] = True  # a region
        p = _random_pattern(g, rng)
        p = PolarizedPattern(g, p.eirp_theta_mw, p.eirp_phi_mw, measured=~blind)
        rot = rotate_about_y(p, alpha)
        et, ep = rotate_about_y_reference(p, alpha)
        assert np.array_equal(rot.eirp_theta_mw, et)
        assert np.array_equal(rot.eirp_phi_mw, ep)
        want = rotated_measured_reference(p, alpha)
        assert not want.all() and np.array_equal(rot.measured, want)
