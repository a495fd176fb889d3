"""TRP, PRP, and CVRP on simple patterns.

Shows why fixed polar bands misread region-averaged power and how CVRP
behaves at its two limits (full sphere and a single direction).
"""

from cvrpkit import (
    ArraySpec,
    ElementModel,
    SphericalMask,
    cvrp,
    cvrp_point,
    isotropic,
    prp_preset,
    synthesize_eirp,
    trp,
)
from cvrpkit.grid import Direction


def main():
    print("=== Isotropic 1 mW radiator ===")
    iso = isotropic(1.0)
    print(f"TRP                  : {trp(iso):.6f} mW")
    print(f"PRP upper hemisphere : {prp_preset(iso, 'uhrp'):.6f} mW"
          "   <- band metrics scale with band size")
    print(f"PRP 60..90 deg band  : {prp_preset(iso, 'n75prp'):.6f} mW")
    for beta in (90.0, 30.0, 3.0):
        m = SphericalMask.cap(Direction(0, 0), beta)
        print(f"CVRP cap {beta:5.1f} deg   : {cvrp(iso, m):.6f} mW"
              "   <- CVRP stays flat at any region size")

    print()
    print("=== Synthesized 2x8 cosine array at boresight, TRP = 1 mW ===")
    spec = ArraySpec(element=ElementModel.COSINE)
    p = synthesize_eirp(spec, 1.0).pattern
    print(f"TRP                  : {trp(p):.6f} mW (matched by construction)")
    boresight = Direction(0.0, 0.0)
    print(f"point EIRP           : {cvrp_point(p, boresight):.4f} mW")
    for beta in (180.0, 90.0, 30.0, 9.0, 3.0):
        m = SphericalMask.cap(boresight, beta)
        print(f"CVRP cap {beta:5.1f} deg   : {cvrp(p, m):.4f} mW")
    print("Narrowing the view around the beam raises CVRP from the TRP")
    print("toward the peak EIRP; the two limits bound every region average.")

    print()
    print("=== Rectangular window regions ===")
    eq = SphericalMask.window(60.0, 120.0, 150.0, 210.0)
    print(f"window solid angle   : {eq.solid_angle_sr:.4f} sr")
    print(f"CVRP in window       : {cvrp(p, eq):.6f} mW")


if __name__ == "__main__":
    main()
