"""Detecting failed array elements from FoV sweeps.

TRP alone cannot see element failures when the test normalizes total
power, because the lost power reappears in the sidelobes. Sweeping the
view from the full sphere down to the beam exposes the fault: the
reference and faulty sweeps diverge at narrow FoVs.
"""

from cvrpkit import (
    ArraySpec,
    ElementModel,
    compare_sweeps,
    cvrp_sweep,
    synthesize_eirp,
)

SCAN = -45.0
FAULTS = [frozenset({7}), frozenset({8, 7}), frozenset({14, 7})]


def beam_sweep(failed=frozenset()):
    spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=SCAN,
                     failed_elements=failed)
    return cvrp_sweep(synthesize_eirp(spec, 1.0).pattern, spec.beam_direction)


def main():
    reference = beam_sweep()
    print(f"2x8 cosine array, scan {SCAN:g} deg, equal TRP for all cases")
    print()
    for failed in FAULTS:
        label = ",".join(str(i) for i in sorted(failed))
        cmp = compare_sweeps(reference, beam_sweep(failed))
        print(f"failed elements {label}:")
        print("  FoV (deg)   delta (dB)")
        for fov, d in zip(cmp.fov_deg, cmp.delta_db):
            marker = "  <- exceeds threshold" if abs(d) > cmp.threshold_db else ""
            print(f"  {fov:9.1f}   {d:+9.4f}{marker}")
        if cmp.flagged:
            print(f"  FLAGGED at FoV {cmp.divergence_fov_deg:g} deg "
                  f"(threshold {cmp.threshold_db:g} dB)")
        else:
            print(f"  not flagged at threshold {cmp.threshold_db:g} dB "
                  f"(max |delta| {cmp.max_abs_delta_db:.3f} dB)")
        print()
    print("At 180 deg both sweeps read the shared TRP, so the delta is ~0;")
    print("the fault signature only appears once the view tightens onto the")
    print("beam, which is exactly where a pass/fail screen should look.")


if __name__ == "__main__":
    main()
