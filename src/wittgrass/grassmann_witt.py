"""Total Witt basis of a Grassmann bundle frame, with tables and certificates.

The graded basis of a frame is keyed by the rows of its even diagrams.  This
module assembles it with validated twists, folds it into rank tables,
classifies every even diagram into its one strip-and-blocks family by parity,
decides when the connecting map vanishes, checks the transpose duality between
mirror frames, and emits a machine-readable certificate per frame combining
exactness, degree transport and the basis partition.
"""

from __future__ import annotations

import enum
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


def total_witt_basis(d: int, e: int) -> GradedBasis:
    """Diagram basis of the frame with every entry's twist cancellation validated."""
    if type(d) is not int or type(e) is not int or d < 1 or e < 1:
        raise ValueError("frame dimensions must be integers, at least 1")
    basis = build_basis(d, e)
    for rows in basis.checked:
        if not cond_even_rows(d, e, rows)[0]:
            raise RuntimeError(f"twist cancellation fails for rows={tuple(rows)}")
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


def classify(diagram: FramedDiagram) -> GeneratorClass:
    """Strip-and-blocks family of an even diagram, read off two parities.

    A family strips a full first row (e even), a full first column (d even)
    or both (d and e odd), and leaves 2x2 blocks: even rows, equal in pairs
    from the top, any odd one out empty.  An even diagram's rows share one
    parity: its k rows equal to e, then pairs of values strictly between 0
    and e, then its empty rows.  Odd rows are never empty, so k has d's
    parity; only the column's strip leaves even rows, and with it the row's
    exactly when d, and so k, is odd (k >= 1 then makes e odd).  Even rows
    keep the column, and the rest pairs up exactly when the row goes for odd
    k (e is even then) and stays for even k.
    """
    if not diagram.is_even():
        raise ValueError("classify expects an even diagram")
    d, e, rows = diagram
    if rows[0] % 2:
        return (GeneratorClass.ROW_COLUMN_PLUS_BLOCKS if d % 2
                else GeneratorClass.COLUMN_PLUS_BLOCKS)
    return GeneratorClass.ROW_PLUS_BLOCKS if rows.count(e) % 2 else GeneratorClass.BLOCKS


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
    images = seq.bord.images
    mapped = len(images) - images.count(None)
    if by_parity and mapped:
        hit = next(j for j, i in enumerate(images) if i is not None)
        raise RuntimeError(f"parity criterion says bord vanishes at ({d},{e}), but it "
                           f"maps {seq.bord.source.labels()[hit]} to a nonzero image")
    if not by_parity and not mapped:
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


def duality_check(d: int, e: int) -> DualityReport:
    """Transposition is a degree-preserving bijection onto the mirror frame:
    the (d, e) report of ``duality_pair`` on new bases."""
    return duality_pair(d, e, build_basis)[0]


def duality_pair(d: int, e: int, basis: Callable[[int, int], GradedBasis]) -> tuple:
    """The duality reports of (d, e) and, unless d == e, of (e, d), on the
    checked bases ``basis`` gives, as in ``cyclic_sequence``.  Each key is
    transposed once: ``fwd[i]`` is the rank of key i's mirror in (e, d), or
    None, ``back`` the other way, and key i returns when back[fwd[i]] == i."""
    check_frame(d, e)
    if d < 1 or e < 1:
        raise ValueError("duality needs d,e >= 1")

    def mirror_ranks(source: GradedBasis, target: GradedBasis) -> list:
        index = dict(zip(target.checked, range(len(target))))  # transposing breaks the order
        return [index.get(bytes(transpose_rows(rows, source.e))) for rows in source.checked]

    source, target = basis(d, e), basis(e, d)
    fwd = mirror_ranks(source, target)
    back = fwd if d == e else mirror_ranks(target, source)
    reports = (_duality_report(source, target, fwd, back),)
    return reports if d == e else (*reports, _duality_report(target, source, back, fwd))


def _duality_report(source: GradedBasis, target: GradedBasis, fwd: list,
                    back: list) -> DualityReport:
    failures, degrees = [], target.degrees
    for i, (rows, deg, j) in enumerate(zip(source.keys, source.degrees, fwd)):
        if j is None:
            failures.append((tuple(rows), "image not even in mirror frame"))
            continue
        if (deg.shift, deg.det_twist) != (degrees[j].shift, degrees[j].det_twist):
            failures.append((tuple(rows), "degree not preserved"))
        if back[j] != i:
            failures.append((tuple(rows), "not an involution"))
    if len(set(fwd)) != len(source) or len(source) != len(target):
        failures.append(((), "not a bijection"))
    return DualityReport((source.d, source.e), len(source), tuple(failures))


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
