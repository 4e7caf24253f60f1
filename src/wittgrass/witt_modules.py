"""Graded free modules on even diagrams and the maps between adjacent frames.

For a frame (d,e) the cyclic sequence runs

    F(d,e-1) --iota--> F(d,e) --kappa--> F(d-1,e) --bord--> F(d,e-1)

with iota, kappa and bord stated once, by ``_image_rule``, as rules on a
source's key (an even diagram's row tuple, or a point generator), each image
looked up in the target basis's row index.  A basis holds its keys, checked
once by ranking each by counting, and their graded degrees (shift in Z/4, a
mod-2 base class, a det twist in Z/2); a frame with no rows or no columns has
two point generators.  Exactness is verified three independent ways:
structurally, from the partial-bijection shape of the maps; by exact integer
linear algebra on their matrices; and by ranks over prime fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache, cached_property

from . import intmatrix
from .diagrams import FramedDiagram, even_counts, even_rank, even_rows

MAP_NAMES = ("iota", "kappa", "bord")


class GradedDegree(namedtuple("GradedDegree", "shift base det_twist")):
    """Shift in Z/4, mod-2 base class as increasing BaseDet indices, det twist in Z/2."""

    __slots__ = ()

    def __new__(cls, shift: int, base: tuple[int, ...], det_twist: int) -> GradedDegree:
        if type(shift) is not int or not 0 <= shift <= 3:
            raise ValueError("shift must be reduced mod 4")
        if type(det_twist) is not int or det_twist not in (0, 1):
            raise ValueError("det_twist must be 0 or 1")
        if (type(base) is not tuple or any(type(i) is not int or i < 1 for i in base)
                or list(base) != sorted(set(base))):
            raise ValueError("degree base must be increasing positive BaseDet indices")
        return tuple.__new__(cls, (shift, base, det_twist))

    def to_json(self) -> dict:
        return {"shift": self.shift, "base": list(self.base), "twist": self.det_twist}


class PointGenerator:
    """Unit generator of a degenerate frame, indexed by det-twist parity; not
    a tuple, so a point frame's key never equals a row tuple such as (0,)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if type(index) is not int or index not in (0, 1):
            raise ValueError("point index must be 0 or 1")
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a PointGenerator")

    def __eq__(self, other) -> bool:
        return type(other) is PointGenerator and other.index == self.index

    def __hash__(self) -> int:
        return hash((PointGenerator, self.index))

    def __repr__(self) -> str:
        return f"PointGenerator(index={self.index})"

    def label(self) -> str:
        return f"pt{self.index}"


@cache  # each distinct degree is built and checked once; 16 at most per n
def _graded_degree(n: int, shift: int, odd_rho: int, twist: int) -> GradedDegree:
    return GradedDegree(shift, (n,) if odd_rho else (), twist)


def degree(d: int, e: int, rows: tuple[int, ...]) -> GradedDegree:
    """Graded degree of the rows' generator: base BaseDet(d+e) when rho is odd."""
    rho = d - rows.count(0)
    return _graded_degree(d + e, sum(rows) % 4, rho % 2, (rows[0] + rho) % 2)


class GradedBasis:
    """One frame's keys (even row tuples, largest first, or point generators)
    and their degrees; read-only, as ``row_index`` keeps the keys' one check."""

    def __init__(self, d: int, e: int, keys: tuple,
                 degrees: tuple[GradedDegree, ...]) -> None:
        vars(self).update(d=d, e=e, keys=keys, degrees=degrees)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a GradedBasis")

    @cached_property
    def _counts(self) -> list[list[list[int]]]:
        return even_counts(self.d, self.e)

    def rank(self, key) -> int | None:
        """Position of ``key`` in the basis, or None unless it is an even key of the frame."""
        if self.d and self.e:
            return even_rank(key, self.d, self.e, self._counts)
        return key.index if type(key) is PointGenerator else None

    @cached_property
    def row_index(self) -> dict:
        """Position of each key, built on first read: the one check of a basis,
        that each key's rank is its position and all of the frame's are there."""
        keys, d, e, frame = self.keys, self.d, self.e, f"the {self.d}x{self.e} basis"
        if d and e:
            counts = self._counts
            total = counts[0][d][e] + counts[1][d][e]
            ranks = [even_rank(key, d, e, counts) for key in keys]
        else:
            total, ranks = 2, list(map(self.rank, keys))
        if ranks == list(range(total)):
            return dict(zip(keys, ranks))
        n = len(keys)
        i = next((i for i, rank in enumerate(ranks) if rank != i), n)  # the first amiss
        if i < n and ranks[i] is None:
            raise ValueError(f"{frame} takes its frame's even diagrams, got rows={keys[i]!r}")
        if i < n and ranks[i] < i:
            raise ValueError(f"{frame} holds an element twice")
        what = "is out of order" if n == total else f"holds {n} of its {total}"
        raise ValueError(f"{frame} {what}: its element of rank {i} is not at position {i}")

    def __len__(self) -> int:
        return len(self.keys)

    def element(self, i: int) -> FramedDiagram | PointGenerator:
        """Element i as a diagram or point generator, for output and witnesses."""
        key = self.keys[i]
        return key if type(key) is PointGenerator else FramedDiagram(self.d, self.e, key)

    def labels(self) -> tuple[str, ...]:
        return tuple(str(key) if type(key) is tuple else key.label() for key in self.keys)


def check_frame(d: int, e: int) -> None:
    """Raise ValueError unless (d, e) is a frame that has a basis, points included."""
    if type(d) is not int or type(e) is not int or d < 0 or e < 0 or d == e == 0:
        raise ValueError("frame dimensions must be integers, at least 0 and not both zero")


def build_basis(d: int, e: int) -> GradedBasis:
    """Basis of the frame (d,e), keyed by ``even_rows``; degenerate frames get
    the two point generators.  Equal degrees share one ``GradedDegree``."""
    check_frame(d, e)
    if d == 0 or e == 0:
        return GradedBasis(d, e, (PointGenerator(0), PointGenerator(1)),
                           (GradedDegree(0, (), 0), GradedDegree(0, (), 1)))
    keys = even_rows(d, e)
    return GradedBasis(d, e, keys, tuple(degree(d, e, rows) for rows in keys))


class BasisMap(namedtuple("BasisMap", "which source target images")):
    """One of the three maps as a partial bijection between two bases.

    ``images[j]`` is the target index of source element j, or None when the
    map sends that element to zero.
    """

    # no __slots__: perfbench/tracing.py reads vars() of a map, which is empty
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a BasisMap")

    def frames_json(self) -> dict:
        """The wire form's fields before its matrix."""
        return {"which": self.which,
                "source_frame": [self.source.d, self.source.e],
                "target_frame": [self.target.d, self.target.e]}

    def to_json(self) -> dict:
        """The wire form; ``wittgrass maps`` writes its bytes a row at a time."""
        return {**self.frames_json(), "matrix": self.array()}

    def sparse(self) -> intmatrix.SparseMatrix:
        """The matrix, one entry 1 in row images[j] of each column j mapped."""
        return intmatrix.SparseMatrix.from_entries(
            (len(self.target), len(self.source)),
            ((i, j, 1) for j, i in enumerate(self.images) if i is not None))

    def array(self) -> list[list[int]]:
        """The matrix as new dense int rows; it has ``len(self.source)`` columns."""
        return self.sparse().dense()


def _image_rule(which: str, d: int, e: int) -> Callable:
    """One map of the (d,e) sequence on row-index keys: the key of a source
    element's image in the target, or None when it maps to zero.  Between
    diagram frames iota widens every row, kappa drops an empty last row and
    bord peels one cell off every row and appends an empty row.
    """
    if which == "iota":
        if e == 1:  # source is the point frame
            full = (1,) * d
            return lambda pt: full if pt.index == d % 2 else None
        return lambda rows: None if rows.count(0) % 2 else tuple(r + 1 for r in rows)
    if which == "kappa":
        if d == 1:  # target is the point frame
            return lambda rows: PointGenerator(0) if rows[0] == 0 else None
        return lambda rows: rows[:-1] if rows[-1] == 0 else None
    # bord
    if d == 1:  # source is the point frame
        image = PointGenerator(0) if e == 1 else (0,)  # the empty row when e > 1
        return lambda pt: image if pt.index == 1 else None
    if e == 1:  # target is the point frame
        return lambda rows: PointGenerator((d + 1) % 2) if rows[-1] % 2 else None
    return lambda rows: (*(r - 1 for r in rows), 0) if rows[-1] % 2 else None


class CyclicSequence(namedtuple("CyclicSequence", "d e iota kappa bord")):
    """F(d,e-1) --iota--> F(d,e) --kappa--> F(d-1,e) --bord--> F(d,e-1)."""

    __slots__ = ()

    def maps(self) -> tuple[BasisMap, BasisMap, BasisMap]:
        return (self.iota, self.kappa, self.bord)


def cyclic_sequence(d: int, e: int,
                    basis: Callable[[int, int], GradedBasis] | None = None) -> CyclicSequence:
    """The cyclic sequence anchored at (d,e), each of its three bases read once.

    ``basis`` maps a frame (d, e) to its graded basis, such as a store that
    a caller shares between sequences; by default each is a new ``build_basis``.
    Each map applies its row rule to the keys of its source's row index, which
    have passed their rank check, and looks each image up in its target's.
    """
    check_frame(d, e)
    if d < 1 or e < 1:
        raise ValueError("the sequence needs d,e >= 1")
    if basis is None:
        basis = build_basis
    left, middle, right = basis(d, e - 1), basis(d, e), basis(d - 1, e)
    maps = []
    for which, source, target in (("iota", left, middle), ("kappa", middle, right),
                                  ("bord", right, left)):
        rule, index = _image_rule(which, d, e), target.row_index
        images = tuple(None if (image := rule(key)) is None else index[image]
                       for key in source.row_index)
        maps.append(BasisMap(which, source, target, images))
    return CyclicSequence(d, e, *maps)


def map_matrix(which: str, d: int, e: int) -> BasisMap:
    """Iota, kappa or bord of the cyclic sequence anchored at (d,e)."""
    if which not in MAP_NAMES:
        raise ValueError(f"unknown map {which!r}; expected one of {MAP_NAMES}")
    return getattr(cyclic_sequence(d, e), which)


def _element_json(elem):
    return {"pt": elem.index} if isinstance(elem, PointGenerator) else elem.to_json()


class PositionVerdict(namedtuple("PositionVerdict", "frame incoming outgoing structural "
                                 "linear mod_p witnesses", defaults=((),))):
    """Exactness verdict at one module of the cyclic sequence."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.structural and self.linear and all(v for _, v in self.mod_p)

    def to_json(self) -> dict:
        return {"frame": list(self.frame),
                "incoming": self.incoming,
                "outgoing": self.outgoing,
                "structural": self.structural,
                "linear": self.linear,
                "mod_p": {str(p): v for p, v in self.mod_p},
                "witnesses": [_element_json(w) for w in self.witnesses]}


class ExactnessReport(namedtuple("ExactnessReport", "frame positions maps_well_formed")):
    """Each module's ``PositionVerdict``, and whether each map is well formed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.maps_well_formed and all(p.ok for p in self.positions)

    def to_json(self) -> dict:
        return {"frame": list(self.frame),
                "maps_well_formed": self.maps_well_formed,
                "positions": [p.to_json() for p in self.positions],
                "exact": self.ok}


def _is_partial_bijection(bm: BasisMap) -> bool:
    hit = [i for i in bm.images if i is not None]
    return len(set(hit)) == len(hit)


def _structural_position(incoming: BasisMap, outgoing: BasisMap):
    hit = {i for i in incoming.images if i is not None}
    killed = {j for j, i in enumerate(outgoing.images) if i is None}
    ok = hit == killed
    witnesses = tuple(outgoing.source.element(i) for i in sorted(hit ^ killed))
    return ok, witnesses


def _linear_position(span, kernel: intmatrix.SparseMatrix,
                     product: intmatrix.SparseMatrix) -> bool:
    """B A = 0 and every integer kernel vector of B is an integer image of A.

    ``span`` is the incoming map A's ``intmatrix.span_solver``, ``kernel``
    the outgoing map B's ``intmatrix.kernel_rows`` and ``product`` is B A.
    """
    if any(product.rows):
        return False
    return all(x is not None for x in span(kernel))


def _mod_p_position(rank_a: int, rank_b: int, middle: int,
                    product: intmatrix.SparseMatrix, p: int) -> bool:
    """B A = 0 mod p and rank A + rank B is the middle rank, over F_p.

    ``rank_a`` and ``rank_b`` are the ranks of A and B mod p, and ``middle``
    the number of rows of A.
    """
    if any(v % p for row in product.rows for v in row.values()):
        return False
    return rank_a + rank_b == middle


def verify_exactness(seq: CyclicSequence, primes: tuple[int, ...] = ()) -> ExactnessReport:
    """Verify exactness of a cyclic sequence at all three modules.

    Three independent checks run at each position: the structural
    partial-bijection argument on the images, exact integer linear algebra
    on the matrices, and rank equalities over each prime field in ``primes``.
    Each map is split once into its isolated entries and a remainder, which
    is diagonalized once and eliminated once per prime; where it is
    outgoing its integer kernel is read, where incoming its span solver.
    A diagonalization holds only its pivots and the lines elimination
    changed, none for a well-formed map, so all three are kept until the
    last position.  Each product B A is built once.
    """
    well_formed = all(_is_partial_bijection(m) for m in seq.maps())
    matrices = {m.which: m.sparse() for m in seq.maps()}
    ranks = {(which, p): intmatrix.rank_mod_p(A, p)
             for which, A in matrices.items() for p in primes}
    factors = {which: intmatrix.diagonalize(A) for which, A in matrices.items()}
    positions = []
    for incoming, outgoing in ((seq.iota, seq.kappa), (seq.kappa, seq.bord),
                               (seq.bord, seq.iota)):
        structural, witnesses = _structural_position(incoming, outgoing)
        A, B = matrices[incoming.which], matrices[outgoing.which]
        product = intmatrix.multiply(B, A)
        linear = _linear_position(intmatrix.span_solver(factors[incoming.which]),
                                  intmatrix.kernel_rows(factors[outgoing.which]), product)
        mod_p = tuple((p, _mod_p_position(ranks[incoming.which, p],
                                          ranks[outgoing.which, p],
                                          A.shape[0], product, p))
                      for p in primes)
        positions.append(PositionVerdict(
            frame=(outgoing.source.d, outgoing.source.e),
            incoming=incoming.which, outgoing=outgoing.which,
            structural=structural, linear=linear, mod_p=mod_p,
            witnesses=witnesses))
    return ExactnessReport((seq.d, seq.e), tuple(positions), well_formed)


def _les_target(which: str, d: int, e: int, base: tuple[int, ...],
                t: int) -> tuple[tuple[int, ...], int]:
    """Target BaseDet indices and det twist of one map, by ``les_twists`` on
    bit masks: BaseDet(i) at bit i, TautDet(j) at bit n + j, n = d + e.

    The source twist is ``base`` plus t TautDet(d).  iota lands on the sub
    side, which adds TautDet(d), its det, and the quotient det BaseDet(n) +
    BaseDet(n-1) when d is odd.  kappa lands on the complementary side,
    relabeling a carried TautDet(d) as TautDet(d-1) + quotient det; the
    target's det is bit n + d - 1 of that move, also at d = 1, where
    TautDet(0) is trivial and bit n is the quotient det's.  bord's source is
    a complementary side: it reads that relabeling backwards first.
    """
    n = d + e
    qdet = 1 << n | 1 << (n - 1)
    cls = sum(1 << i for i in base)
    if which == "bord" and t:
        cls ^= qdet
    if which == "kappa":
        moved = t * (qdet | (d > 1) << (n + d - 1))
        side, det = cls ^ moved, moved >> (n + d - 1) & 1
    else:
        side = cls ^ (1 - t) << (n + d) ^ (qdet if d % 2 else 0)
        det = side >> (n + d) & 1
    return tuple(i for i in range(1, n + 1) if side >> i & 1), det


class TransportFailure(namedtuple("TransportFailure", "which source expected actual")):
    """Map ``which`` gives ``source`` the degree or det twist ``actual``, not ``expected``."""

    __slots__ = ()

    def to_json(self) -> dict:
        def enc(v):
            return v.to_json() if isinstance(v, GradedDegree) else v
        return {"which": self.which, "source": _element_json(self.source),
                "expected": enc(self.expected), "actual": enc(self.actual)}


class TransportReport(namedtuple("TransportReport", "frame trivial_base checked "
                                 "point_entries_det_only failures", defaults=((),))):
    """Degree transport of a sequence: entries checked, det-only ones, failures."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"frame": list(self.frame),
                "trivial_base": self.trivial_base,
                "checked": self.checked,
                "point_entries_det_only": self.point_entries_det_only,
                "failures": [f.to_json() for f in self.failures],
                "ok": self.ok}


def verify_degree_transport(seq: CyclicSequence,
                            trivial_base: bool = False) -> TransportReport:
    """Check that every nonzero matrix entry moves degrees by the stated rule.

    The base class and det twist come from the localization lemma
    (``picard.les_twists``, on bit masks by ``_les_target``); the shift moves
    by d under iota, 0 under kappa and 1 - d under bord.  With
    ``trivial_base`` the base classes are not compared.  Point-generator
    endpoints carry no assigned shift or base, so entries whose source or
    target is a point generator are checked on the det-twist component only
    and counted separately in the report.  A source base index above d + e
    has no class to lift, so in both modes its entry fails with the
    expectation ``"unrepresentable"``.

    Every trivial-base failure is also a full-base failure, as trivial mode
    compares (shift, det) projections, so a sweep needs full mode only.
    """
    d, e = seq.d, seq.e
    shift_offset = {"iota": d, "kappa": 0, "bord": 1 - d}

    @cache  # one rule per map and distinct source degree, for this call
    def expected(which: str, rank: int, deg: GradedDegree):
        if deg.base and deg.base[-1] > d + e:  # no class of the sequence's rank
            return "unrepresentable", None
        base, det = _les_target(which, d, e, deg.base, deg.det_twist)
        if trivial_base:
            base = ()
        elif base and base[-1] > rank:  # the base cannot live in the target's rank
            return "unrepresentable", det
        return GradedDegree((deg.shift + shift_offset[which]) % 4, base, det), det

    @cache  # one projection per distinct target degree, for this call
    def projected(deg: GradedDegree) -> GradedDegree:  # the base is not compared
        return GradedDegree(deg.shift, (), deg.det_twist)

    checked = 0
    det_only = 0
    failures = []
    for bm in seq.maps():
        rank = bm.target.d + bm.target.e
        points = 0 in (bm.source.d, bm.source.e, bm.target.d, bm.target.e)
        for j, (src_deg, i) in enumerate(zip(bm.source.degrees, bm.images)):
            if i is None:
                continue
            tgt_deg = bm.target.degrees[i]
            checked += 1
            want, det = expected(bm.which, rank, src_deg)
            if det is None:  # the source degree cannot be lifted, in either mode
                actual = tgt_deg
            elif points:
                det_only += 1
                want, actual = det, tgt_deg.det_twist
            else:
                actual = projected(tgt_deg) if trivial_base else tgt_deg
            if want != actual:
                failures.append(TransportFailure(bm.which, bm.source.element(j), want,
                                                 actual))
    return TransportReport((d, e), trivial_base, checked, det_only, tuple(failures))
