"""The three maps between neighbouring frames and their exactness.

Each frame (d,e) sits in a triangle of free modules

    F(d,e-1) --iota--> F(d,e) --kappa--> F(d-1,e) --bord--> F(d,e-1)

where iota widens every row by one, kappa drops an empty last row and bord
peels one cell from every row before appending an empty row.  On basis
diagrams each map either produces another even diagram or dies.

Run with: python3 demos/03_cyclic_sequences.py
"""

from wittgrass import FramedDiagram, cyclic_sequence, verify_exactness
from wittgrass.cli import ascii_diagram

# The sequence anchored at (d,e) maps F(d,e-1) by iota, F(d,e) by kappa and
# F(d-1,e) by bord, so a diagram of the frame (d,e) is a source of the map
# of the sequence anchored at (d,e) plus this offset:
ANCHOR_OFFSET = {"iota": (0, 1), "kappa": (0, 0), "bord": (1, 0)}


def show_move(name, which, d, e, rows):
    """Send the diagram ``rows`` of the frame (d,e) through one map."""
    bm = getattr(cyclic_sequence(d + ANCHOR_OFFSET[which][0],
                                 e + ANCHOR_OFFSET[which][1]), which)
    i = bm.images[bm.source.rank(rows)]
    target = "0" if i is None else f"{bm.target.labels()[i]} in {bm.target.d}x{bm.target.e}"
    print(f"  {name}({rows}) = {target}")


print("Single moves on even diagrams:")
show_move("widen", "iota", 2, 2, (1, 1))
show_move("widen", "iota", 2, 2, (2, 0))   # one empty row, dies
show_move("shorten", "kappa", 3, 2, (2, 2, 0))
show_move("shorten", "kappa", 2, 2, (1, 1))
show_move("peel", "bord", 2, 3, (3, 3))
show_move("peel", "bord", 2, 3, (2, 2))
print()

print("peel turns the full 2x3 rectangle into a 2x2 block over an empty row in 3x2:")
print(ascii_diagram(FramedDiagram(2, 3, (3, 3))))
print("  ->")
print(ascii_diagram(FramedDiagram(3, 2, (2, 2, 0))))
print()

bm = cyclic_sequence(2, 2).iota
print("iota at the 2x2 frame sends the basis of F(2,1) to basis indices")
print(f"of F(2,2) (None means zero): {bm.images}")
print("No two sources share an image, so the maps are partial bijections on")
print(f"basis diagrams; as an integer matrix with 0/1 entries: {bm.array()}")
print()

report = verify_exactness(cyclic_sequence(3, 3), primes=(2, 3, 5))
print("Exactness at the 3x3 frame, three positions, checked structurally,")
print("over the integers and over three prime fields:")
for pos in report.positions:
    mods = ", ".join(f"mod {p}: {v}" for p, v in pos.mod_p)
    print(f"  at F{pos.frame} after {pos.incoming}, before {pos.outgoing}: "
          f"structural={pos.structural} linear={pos.linear} {mods}")
print(f"  overall: {report.ok}")
print()

print("Frames with d=0 or e=0 carry two point generators pt0, pt1 instead")
print("of diagrams.  The boundary sequences stay exact through them:")
for pivot in [(1, 4), (4, 1), (1, 1)]:
    rep = verify_exactness(cyclic_sequence(*pivot), primes=(2,))
    print(f"  pivot {pivot}: exact={rep.ok}")
print()

bm = cyclic_sequence(1, 3).kappa
print("For instance kappa at the 1x3 frame sends the empty diagram to pt0")
print(f"and kills the full row: images {bm.images} with source labels "
      f"{bm.source.labels()} and target labels {bm.target.labels()}")
