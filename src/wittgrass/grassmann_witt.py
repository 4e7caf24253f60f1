"""Total Witt basis of a Grassmann bundle frame, with tables and certificates.

The graded basis of a frame is keyed by the rows of its even diagrams.  This
module assembles it with validated twists, folds it into rank tables,
classifies every even diagram into exactly one of four strip-and-blocks
families, decides when the connecting map vanishes, checks the transpose
duality between mirror frames, and emits a machine-readable certificate per
frame combining exactness, degree transport and the basis partition.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Callable

from .diagrams import FramedDiagram, transpose_rows
from .picard import cond_even_rows
from .witt_modules import (CyclicSequence, ExactnessReport, GradedBasis,
                           TransportReport, build_basis, check_frame)


class GeneratorClass(enum.Enum):
    BLOCKS = "Blocks"
    ROW_PLUS_BLOCKS = "RowPlusBlocks"
    COLUMN_PLUS_BLOCKS = "ColumnPlusBlocks"
    ROW_COLUMN_PLUS_BLOCKS = "RowColumnPlusBlocks"


def expected_rank(d: int, e: int) -> int:
    """Closed-form total rank 2 * C(d//2 + e//2, e//2); rejects what build_basis rejects."""
    check_frame(d, e)
    return 2 * math.comb(d // 2 + e // 2, e // 2)


def total_witt_basis(d: int, e: int) -> GradedBasis:
    """Diagram basis of the frame with every entry's twist cancellation validated."""
    if type(d) is not int or type(e) is not int or d < 1 or e < 1:
        raise ValueError("frame dimensions must be integers, at least 1")
    basis = build_basis(d, e)
    for rows in basis.row_index:
        if not cond_even_rows(d, e, rows)[0]:
            raise RuntimeError(f"twist cancellation fails for rows={rows}")
    return basis


def rank_table(d: int, e: int, trivial_base: bool = True) -> dict:
    """Ranks keyed by (shift, det_twist), adding the base indices when kept."""
    table: dict = {}
    for deg in total_witt_basis(d, e).degrees:
        if trivial_base:
            key = (deg.shift, deg.det_twist)
        else:
            key = (deg.shift, deg.base, deg.det_twist)
        table[key] = table.get(key, 0) + 1
    return table


def table_json(d: int, e: int, trivial_base: bool = True) -> dict:
    """Rank table in the wire layout."""
    table = rank_table(d, e, trivial_base)
    ranks = []
    for key in sorted(table):
        if trivial_base:
            shift, twist = key
            ranks.append({"shift": shift, "twist": twist, "rank": table[key]})
        else:
            shift, base, twist = key
            ranks.append({"shift": shift, "base": list(base), "twist": twist,
                          "rank": table[key]})
    return {"frame": [d, e], "trivial_base": trivial_base, "ranks": ranks,
            "total": sum(table.values())}


def _is_block_union(rows: tuple[int, ...]) -> bool:
    # doubled diagram: values even, rows pair up equal, odd leftover row empty
    if any(r % 2 for r in rows):
        return False
    if any(rows[i] != rows[i + 1] for i in range(0, len(rows) - 1, 2)):
        return False
    if len(rows) % 2 and rows[-1] != 0:
        return False
    return True


def classify(diagram: FramedDiagram) -> GeneratorClass:
    """Unique strip-and-blocks family of an even diagram.

    Try stripping a full first row (length e) and/or a full first column
    (length d), then test the remainder for being a union of 2x2 blocks.
    The parity constraints (full row needs e even, full column needs d even,
    both need d and e odd) make exactly one of the four attempts succeed.
    """
    if not diagram.is_even():
        raise ValueError("classify expects an even diagram")
    d, e, rows = diagram.d, diagram.e, diagram.rows
    matches = []
    if _is_block_union(rows):
        matches.append(GeneratorClass.BLOCKS)
    if e % 2 == 0 and rows[0] == e and _is_block_union(rows[1:]):
        matches.append(GeneratorClass.ROW_PLUS_BLOCKS)
    if d % 2 == 0 and rows[-1] >= 1 and _is_block_union(tuple(r - 1 for r in rows)):
        matches.append(GeneratorClass.COLUMN_PLUS_BLOCKS)
    if (d % 2 and e % 2 and rows[0] == e
            and all(r >= 1 for r in rows)
            and _is_block_union(tuple(r - 1 for r in rows[1:]))):
        matches.append(GeneratorClass.ROW_COLUMN_PLUS_BLOCKS)
    if len(matches) != 1:
        raise RuntimeError(f"classification not unique for rows={rows} "
                           f"in {d}x{e}: {matches}")
    return matches[0]


def class_degree(cls: GeneratorClass, d: int, e: int) -> tuple[int, int]:
    """(shift, det_twist) every member of the family must carry."""
    if cls is GeneratorClass.BLOCKS:
        return (0, 0)
    if cls is GeneratorClass.ROW_PLUS_BLOCKS:
        return (e % 4, 1)
    if cls is GeneratorClass.COLUMN_PLUS_BLOCKS:
        return (d % 4, 1)
    return ((d + e - 1) % 4, 0)


def bord_vanishes(seq: CyclicSequence) -> bool:
    """Whether the connecting map of a cyclic sequence is zero.

    Parity criterion (both dimensions even), cross-checked against the
    images of bord on every call.
    """
    d, e = seq.d, seq.e
    by_parity = d % 2 == 0 and e % 2 == 0
    hit = [j for j, i in enumerate(seq.bord.images) if i is not None]
    if by_parity and hit:
        raise RuntimeError(f"parity criterion says bord vanishes at ({d},{e}), but it "
                           f"maps {seq.bord.source.labels()[hit[0]]} to a nonzero image")
    if not by_parity and not hit:
        raise RuntimeError(f"parity criterion says bord is nonzero at ({d},{e}), but "
                           f"it maps all {len(seq.bord.source)} source elements to zero")
    return by_parity


class DualityReport(namedtuple("DualityReport", "frame pairs_checked failures",
                               defaults=((),))):
    """Transpose duality of a frame: keys checked, (rows, reason) of each failure."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"frame": list(self.frame), "pairs_checked": self.pairs_checked,
                "failures": [list(f) for f in self.failures], "ok": self.ok}


def duality_check(d: int, e: int,
                  basis: Callable[[int, int], GradedBasis] | None = None) -> DualityReport:
    """Transposition is a degree-preserving bijection onto the mirror frame.

    ``basis`` maps a frame to its graded basis, as in ``cyclic_sequence``;
    by default the bases of (d, e) and (e, d) are built here.  Each mirror
    is the transpose of a key's rows, looked up in the mirror basis's row
    index; both bases pass their rank check.
    """
    check_frame(d, e)
    if d < 1 or e < 1:
        raise ValueError("duality needs d,e >= 1")
    if basis is None:
        basis = build_basis
    source, target = basis(d, e), basis(e, d)
    index = target.row_index
    failures, images = [], set()
    for rows, deg in zip(source.row_index, source.degrees):
        mirror = transpose_rows(rows, e)
        images.add(mirror)
        idx = index.get(mirror)
        if idx is None:
            failures.append((rows, "image not even in mirror frame"))
            continue
        mirror_deg = target.degrees[idx]
        if (deg.shift, deg.det_twist) != (mirror_deg.shift, mirror_deg.det_twist):
            failures.append((rows, "degree not preserved"))
        if transpose_rows(mirror, d) != rows:
            failures.append((rows, "not an involution"))
    if len(images) != len(source) or len(source) != len(target):
        failures.append(((), "not a bijection"))
    return DualityReport((d, e), len(source), tuple(failures))


def induction_report(seq: CyclicSequence, exact: ExactnessReport,
                     transport: TransportReport) -> dict:
    """Machine-readable certificate for one step of the rank induction.

    ``exact`` and ``transport`` are the exactness and the degree-transport
    reports of ``seq``.  The certificate keeps the exactness verdicts at
    p = 2 only, so it is the same whichever other primes were checked; a
    report without p = 2 raises ValueError.
    """
    positions = tuple(pos._replace(mod_p=tuple(v for v in pos.mod_p if v[0] == 2))
                      for pos in exact.positions)
    if not all(pos.mod_p for pos in positions):
        raise ValueError("the exactness report must check p = 2")
    exact = exact._replace(positions=positions)
    iota, kappa, bord = seq.maps()

    def supported(bm):
        return len(bm.images) - bm.images.count(None)

    iota_image = len(set(iota.images) - {None})
    kappa_image = len(set(kappa.images) - {None})
    bord_zero = supported(bord) == 0
    middle = len(iota.target)
    iota_injective = supported(iota) == len(iota.source)
    kappa_surjective = kappa_image == len(kappa.target)
    split = bord_zero and iota_injective and kappa_surjective and exact.ok
    return {
        "frame": [seq.d, seq.e],
        "modules": {"source": len(iota.source), "middle": middle,
                    "quotient": len(kappa.target)},
        "partition": {
            "iota_supported": supported(iota),
            "kappa_supported": supported(kappa),
            "bord_supported": supported(bord),
        },
        "exactness": exact.to_json(),
        "degree_transport": transport.to_json(),
        "bord_zero": bord_zero,
        "split_short_exact": split,
        "rank_ledger": {"middle": middle, "iota_image": iota_image,
                        "kappa_image": kappa_image,
                        "additive": middle == iota_image + kappa_image},
        "ok": exact.ok and transport.ok
             and middle == iota_image + kappa_image,
    }
