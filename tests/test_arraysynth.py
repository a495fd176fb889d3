import math

import numpy as np
import pytest

from cvrpkit import (
    ArraySpec,
    ElementModel,
    beam_angle_deg,
    element_field,
    steering_weights,
    synthesize_directivity,
    synthesize_eirp,
    trp,
)
from cvrpkit.arraysynth import _radiation_intensity
from cvrpkit.grid import AngularGrid

from oracles import cosine_array_intensity, direct_sum_intensity, fine_grid_quadrature

FOUR_PI = 4.0 * math.pi

FAULT_CASES = [
    frozenset(),
    frozenset({1}),
    frozenset({3}),
    frozenset({5}),
    frozenset({7}),
    frozenset({8, 7}),
    frozenset({14, 1}),
    frozenset({14, 7}),
    frozenset({15, 1}),
]


def ulps_apart(a: float, b: float) -> int:
    """Number of representable doubles between two positive floats."""
    ia, ib = np.array([a, b], dtype=np.float64).view(np.int64)
    return abs(int(ia) - int(ib))


class TestBeamTable:
    def test_endpoints_and_center(self):
        assert beam_angle_deg(1) == -45.0
        assert beam_angle_deg(11) == 0.0
        assert beam_angle_deg(21) == 45.0

    def test_step(self):
        angles = [beam_angle_deg(k) for k in range(1, 22)]
        steps = np.diff(angles)
        np.testing.assert_allclose(steps, 4.5)

    def test_out_of_range(self):
        for k in (0, 22, -3):
            with pytest.raises(ValueError):
                beam_angle_deg(k)


class TestSpec:
    def test_defaults(self):
        spec = ArraySpec(element=ElementModel.COSINE)
        assert (spec.rows, spec.cols, spec.spacing_wl) == (2, 8, 0.5)
        assert spec.n_elements == 16

    def test_element_positions_row_major(self):
        spec = ArraySpec(element=ElementModel.COSINE)
        assert spec.element_position_wl(1) == (0.0, 0.0)
        assert spec.element_position_wl(8) == (3.5, 0.0)
        assert spec.element_position_wl(9) == (0.0, 0.5)
        assert spec.element_position_wl(16) == (3.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArraySpec(element=ElementModel.COSINE, scan_angle_deg=50.0)
        with pytest.raises(ValueError):
            ArraySpec(element=ElementModel.COSINE, failed_elements={17})
        with pytest.raises(ValueError):
            ArraySpec(element=ElementModel.COSINE, rows=0)

    def test_describe_mentions_faults(self):
        spec = ArraySpec(element=ElementModel.HUYGENS, failed_elements={14, 7})
        assert "7,14" in spec.describe()


class TestElementModels:
    def test_cosine_zero_behind(self):
        vals = element_field(ElementModel.COSINE, np.array([0.0, 60.0, 90.0, 120.0]))
        np.testing.assert_allclose(vals, [1.0, 0.5, np.cos(np.radians(90)), 0.0],
                                   atol=1e-12)

    def test_huygens_cardioid(self):
        vals = element_field(ElementModel.HUYGENS, np.array([0.0, 90.0, 180.0]))
        np.testing.assert_allclose(vals, [1.0, 0.5, 0.0], atol=1e-12)

    def test_single_cosine_peak_directivity(self):
        # cos^2 over a hemisphere: peak directivity 6 (7.78 dBi)
        spec = ArraySpec(element=ElementModel.COSINE, rows=1, cols=1)
        d = synthesize_directivity(spec)
        assert d.max() == pytest.approx(10 * math.log10(6.0), abs=0.001)

    def test_single_huygens_peak_directivity(self):
        # cardioid power pattern: peak directivity 3 (4.77 dBi)
        spec = ArraySpec(element=ElementModel.HUYGENS, rows=1, cols=1)
        d = synthesize_directivity(spec)
        assert d.max() == pytest.approx(10 * math.log10(3.0), abs=0.001)


class TestWeights:
    def test_boresight_all_ones(self):
        w = steering_weights(ArraySpec(element=ElementModel.COSINE))
        np.testing.assert_allclose(w, 1.0)

    def test_scan_phase_progression(self):
        spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-45.0)
        w = steering_weights(spec)
        expect = np.exp(1j * math.pi * np.arange(8) * math.sin(math.radians(45.0)))
        np.testing.assert_allclose(w[0], expect, rtol=1e-12)
        np.testing.assert_allclose(w[1], expect, rtol=1e-12)

    def test_unit_magnitude(self):
        spec = ArraySpec(element=ElementModel.HUYGENS, scan_angle_deg=13.5)
        np.testing.assert_allclose(np.abs(steering_weights(spec)), 1.0)

    def test_failed_elements_zeroed(self):
        spec = ArraySpec(element=ElementModel.COSINE, failed_elements={14, 7})
        w = steering_weights(spec)
        assert w[0, 6] == 0.0  # element 7: row 0, col 6
        assert w[1, 5] == 0.0  # element 14: row 1, col 5
        assert np.count_nonzero(w) == 14


class TestDirectivity:
    def test_matches_closed_form_boresight(self, std_grid):
        spec = ArraySpec(element=ElementModel.COSINE)
        d = synthesize_directivity(spec, std_grid)
        oracle_int, oracle_peak = fine_grid_quadrature(cosine_array_intensity, 0.05)
        peak_dbi = 10 * math.log10(FOUR_PI * oracle_peak / oracle_int)
        assert d.max() == pytest.approx(peak_dbi, abs=0.01)

    def test_shape_matches_closed_form(self, std_grid):
        spec = ArraySpec(element=ElementModel.COSINE)
        d_lin = 10 ** (synthesize_directivity(spec, std_grid) / 10.0)
        tt, pp = np.meshgrid(std_grid.theta_deg, std_grid.phi_deg, indexing="ij")
        oracle = cosine_array_intensity(tt, pp)
        # both are the same intensity up to one global scale factor
        sel = oracle > 1e-6 * oracle.max()
        ratio = d_lin[sel] / oracle[sel]
        assert ratio.max() / ratio.min() == pytest.approx(1.0, rel=1e-9)

    def test_quadrature_normalization(self, std_grid):
        spec = ArraySpec(element=ElementModel.HUYGENS, scan_angle_deg=-22.5,
                         failed_elements={3})
        d_lin = 10 ** (synthesize_directivity(spec, std_grid) / 10.0)
        s = np.sin(np.radians(std_grid.theta_deg))
        s[0] = s[-1] = 0.0
        dom = math.radians(1.5) ** 2
        assert dom * np.sum(d_lin * s[:, None]) == pytest.approx(FOUR_PI, rel=1e-12)

    @pytest.mark.parametrize("element", list(ElementModel), ids=lambda e: e.value)
    @pytest.mark.parametrize("beam", range(1, 22))
    def test_peak_at_beam_direction(self, std_grid, element, beam):
        spec = ArraySpec(element=element, scan_angle_deg=beam_angle_deg(beam))
        d = synthesize_directivity(spec, std_grid)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        beam_dir = spec.beam_direction
        # element roll-off pulls the peak toward broadside: the cosine beam
        # steered to -45 deg peaks at theta 43.5, one step away
        assert abs(std_grid.theta_deg[i] - beam_dir.theta_deg) <= std_grid.dtheta_deg
        if std_grid.theta_deg[i] > 0.0:
            assert std_grid.phi_deg[j] == beam_dir.phi_deg

    def test_mirror_symmetry_in_scan(self, std_grid):
        # scanning to +s vs -s mirrors the pattern in phi -> 180 - phi
        plus = 10 ** (synthesize_directivity(
            ArraySpec(element=ElementModel.COSINE, scan_angle_deg=22.5),
            std_grid) / 10.0)
        minus = 10 ** (synthesize_directivity(
            ArraySpec(element=ElementModel.COSINE, scan_angle_deg=-22.5),
            std_grid) / 10.0)
        phi = std_grid.phi_deg
        j_map = np.round(((180.0 - phi) % 360.0) / std_grid.dphi_deg).astype(int)
        # compare in linear power; deep nulls carry no meaningful dB value
        np.testing.assert_allclose(plus, minus[:, j_map],
                                   rtol=1e-9, atol=1e-12 * plus.max())

    def test_all_failed_rejected(self):
        spec = ArraySpec(element=ElementModel.COSINE, rows=1, cols=2,
                         failed_elements={1, 2})
        with pytest.raises(ValueError, match="all elements failed"):
            synthesize_directivity(spec)

    @pytest.mark.parametrize("rows, cols, step, failed", [
        (2, 8, 1.5, {7, 14}),
        (16, 16, 3.0, {1, 16, 100, 256}),
        (1, 64, 3.0, {2, 33, 64}),
        (8, 64, 3.0, {1, 512, *range(65, 129)}),  # the whole second row failed
    ])
    @pytest.mark.parametrize("scan", [-45.0, 0.0, 31.5])
    def test_horner_rounding_against_direct_sum(self, rows, cols, step, failed, scan):
        spec = ArraySpec(element=ElementModel.HUYGENS, rows=rows, cols=cols,
                         scan_angle_deg=scan, failed_elements=failed)
        grid = AngularGrid.standard(step, step)
        ref = direct_sum_intensity(spec, *np.meshgrid(grid.theta_deg, grid.phi_deg,
                                                      indexing="ij"))
        assert np.abs(_radiation_intensity(spec, grid) - ref).max() <= 1e-13 * ref.max()


class TestEirp:
    @pytest.mark.parametrize("failed", FAULT_CASES,
                             ids=lambda f: "fe-" + ("-".join(map(str, sorted(f))) or "none"))
    @pytest.mark.parametrize("scan", [-45.0, -4.5, 0.0])
    def test_trp_matches_reference(self, scan, failed):
        spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=scan,
                         failed_elements=failed)
        res = synthesize_eirp(spec, 251.188643150958)  # 24 dBm
        assert trp(res.pattern) == pytest.approx(res.reference_trp_mw, rel=1e-12)

    @pytest.mark.parametrize("element", list(ElementModel), ids=lambda e: e.value)
    def test_trp_within_ulps_of_reference(self, element):
        # directivity and TRP share one quadrature; only the dB round trip
        # and the 4*pi divisions separate trp from the reference
        for scan in (-45.0, -13.5, 0.0, 27.0):
            for failed in FAULT_CASES:
                spec = ArraySpec(element=element, scan_angle_deg=scan,
                                 failed_elements=failed)
                for ref in (1.0, 251.188643150958):
                    got = trp(synthesize_eirp(spec, ref).pattern)
                    assert ulps_apart(got, ref) <= 4, (spec.describe(), ref, got)

    def test_theta_polarized(self, huygens_boresight):
        assert np.all(huygens_boresight.pattern.eirp_phi_mw == 0.0)

    def test_eirp_is_ref_times_directivity(self, cosine_boresight):
        res = cosine_boresight
        np.testing.assert_allclose(
            res.pattern.eirp_theta_mw,
            res.reference_trp_mw * 10 ** (res.directivity_dbi / 10.0),
            rtol=1e-12)

    def test_reference_must_be_positive(self):
        with pytest.raises(ValueError):
            synthesize_eirp(ArraySpec(element=ElementModel.COSINE), 0.0)

    @pytest.mark.parametrize("ref", [math.nan, math.inf])
    def test_reference_must_be_finite(self, ref):
        with pytest.raises(ValueError, match="positive and finite"):
            synthesize_eirp(ArraySpec(element=ElementModel.COSINE), ref)
