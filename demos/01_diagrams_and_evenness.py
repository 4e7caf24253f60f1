"""Walkthrough of framed diagrams, jump tuples and the evenness condition.

Run with: python3 demos/01_diagrams_and_evenness.py
"""

from wittgrass import FramedDiagram, enumerate_even, expected_rank, from_jump_tuples
from wittgrass.cli import ascii_diagram


def show(dg, note=""):
    print(f"rows={dg.rows}" + (f"  {note}" if note else ""))
    print(ascii_diagram(dg))
    print()


print("A framed diagram is a weakly decreasing tuple of row lengths inside")
print("a fixed d x e rectangle.  Trailing empty rows are part of the data:")
print()
show(FramedDiagram(3, 4, (4, 2, 0)))

dg = FramedDiagram(3, 4, (4, 2, 0))
print(f"area={dg.area()}  nonzero rows={dg.rho()}  empty rows={dg.zeta()}  "
      f"twist={dg.twist()}")
print()

# the jump tuples record where row lengths strictly drop
t = dg.jump_tuples()
print(f"jump tuples: dvec={t.dvec} evec={t.evec}")
print("dvec marks the last row of each constant block, ending at d;")
print("evec is the co-length e minus the row length of the block.")
print(f"rebuilding from the tuples: {from_jump_tuples(t, 3, 4).rows}")
print()

print("A diagram is even when every straight stretch of its boundary that")
print("stays strictly inside the frame has even length.  Stretches touching")
print("the frame edge are unconstrained.")
print()
show(FramedDiagram(2, 2, (1, 1)), "even in a 2x2 frame")
show(FramedDiagram(3, 3, (1, 1, 0)), "the same shape fails in 3x3:")
print("the two-cell column now ends strictly inside the frame, and the")
print("horizontal stretch above the empty rows has odd length 1.")
print()
print(f"is_even 2x2: {FramedDiagram(2, 2, (1, 1)).is_even()}")
print(f"is_even 3x3: {FramedDiagram(3, 3, (1, 1, 0)).is_even()}")
print()

print("On the rows: all rows share one parity, and each value strictly between")
print("0 and e occurs an even number of times.  Enumeration builds exactly")
print("those rows (rows equal to e, equal pairs of interior values, rows equal")
print("to 0), largest diagram first:")
for dg in enumerate_even(3, 2):
    show(dg)

print("Counts follow a closed form, twice a binomial coefficient:")
for d, e in [(2, 2), (3, 3), (4, 4), (5, 5), (8, 8)]:
    print(f"  {d}x{e}: {len(enumerate_even(d, e))} even diagrams"
          f" (closed form {expected_rank(d, e)})")
