"""Symbolic line-bundle classes: canonicals, twists, push-forward parity.

Classes live in a free lattice on two generator families, BaseDet(i) for
determinants of the flag steps on the base and TautDet(j) for determinants
of tautological subbundles upstairs.  Everything is exact integer data.

Run with: python3 demos/02_line_bundle_calculus.py
"""

from wittgrass import (FramedDiagram, JumpTuples, base_det, cond_even_verdicts,
                       degree, pushforward_admissible, quotient_det,
                       rel_canonical_fiber, rel_canonical_flag,
                       rel_canonical_grass, relative_dimension, taut_det)


def pretty(cls):
    if cls.is_zero():
        return "0"
    bits = []
    for kind, index, coeff in cls.terms:
        sign = "+" if coeff >= 0 else "-"
        mag = abs(coeff)
        factor = "" if mag == 1 else f"{mag}*"
        bits.append(f"{sign} {factor}{kind}({index})")
    joined = " ".join(bits)
    if joined.startswith("+ "):
        return joined[2:]
    return "-" + joined[2:] if joined.startswith("- ") else joined


n = 6
print("Relative canonical of the rank-3 Grassmann bundle of a rank-6 bundle:")
print("  " + pretty(rel_canonical_grass(3, n)))
print()

t = JumpTuples((1, 3), (1, 2))
print(f"Flag bundle cut out by dvec={t.dvec}, evec={t.evec}:")
print("  canonical " + pretty(rel_canonical_flag(t, n)))
print(f"  fiber dimension {relative_dimension(t)}")
print()

print("Over the ambient Grassmann bundle the same flag locus has canonical")
print("  " + pretty(rel_canonical_fiber(t, 3, 3)))
print("which is the flag class minus the pulled-back Grassmann class.")
print()

# a co-length-zero step makes the tautological det a pullback from the base
full = JumpTuples((3,), (0,))
print("Full-rectangle tuples normalize TautDet(3) away entirely:")
print("  " + pretty(rel_canonical_flag(full, 3)))
print()

print("The mod-2 twist of an even diagram pairs the nonzero-row parity with")
print("the twist bit; it cancels the fiber canonical, the push-forward is")
print("admissible and the canonical lies in the pullback span:")
for rows in [(2, 2), (2, 0), (1, 1)]:
    dg = FramedDiagram(2, 2, rows)
    cancels, admissible, in_span = cond_even_verdicts(dg)
    deg = degree(2, 2, rows)  # the twist: BaseDet(4) if rho is odd, TautDet(2) if its bit is set
    support = (*(("BaseDet", i) for i in deg.base), *[("TautDet", 2)] * deg.det_twist)
    print(f"  rows={rows}: support {support}"
          f"  cancels={cancels} admissible={admissible} in span={in_span}")
print()

print("Push-forward parity test on 3x3 diagrams (even ones always pass,")
print("and the test agrees with mod-2 span membership of the canonical):")
for rows in [(2, 2, 2), (2, 1, 1), (2, 2, 1)]:
    dg = FramedDiagram(3, 3, rows)
    print(f"  rows={rows}: even={dg.is_even()}"
          f"  admissible={pushforward_admissible(dg)}")
print()

qdet = quotient_det(4)
print("Utility classes compose like any lattice vectors:")
print("  quotient_det(4) = " + pretty(qdet))
print("  2*quotient_det - TautDet(2) = " + pretty(2 * qdet - taut_det(4, 2)))
print("  quotient_det + BaseDet(3) = " + pretty(qdet + base_det(4, 3)))
