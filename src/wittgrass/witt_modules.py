"""Graded free modules on even diagrams and the maps between adjacent frames.

For a frame (d,e) the cyclic sequence runs

    F(d,e-1) --iota--> F(d,e) --kappa--> F(d-1,e) --bord--> F(d,e-1)

with iota, kappa and bord stated once, by ``_image_rule``, as rules on a
source's key (an even diagram's rows as bytes, a byte per row, or a point frame's
int), each image found walking forward through the target's keys.  A basis holds
its keys, checked once by one evenness pattern, and their graded degrees (shift in Z/4, a
mod-2 base class, a det twist in Z/2); a frame with no rows or no columns has
two point generators, the ints 0 and 1, each its own rank and det twist.
Exactness is verified three independent ways: structurally, from the
partial-bijection shape of the maps; by exact integer linear algebra on
their matrices; and by ranks over prime fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache, cached_property, partial
from operator import gt

from . import intmatrix
from .diagrams import EvenTails, FramedDiagram, even_counts, even_pattern, even_rank, even_rows

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


@cache  # each distinct degree is built and checked once; 16 at most per n
def _graded_degree(n: int, shift: int, odd_rho: int, twist: int) -> GradedDegree:
    return GradedDegree(shift, (n,) if odd_rho else (), twist)


def degree(d: int, e: int, rows: tuple[int, ...] | bytes) -> GradedDegree:
    """Graded degree of the rows' generator: base BaseDet(d+e) when rho is odd."""
    rho = d - rows.count(0)
    return _graded_degree(d + e, sum(rows) % 4, rho % 2, (rows[0] + rho) % 2)


def _shown(key):
    """A key as it leaves the package: a byte key as its tuple of rows."""
    return tuple(key) if type(key) is bytes else key


class GradedBasis:
    """One frame's keys (even rows as bytes, largest first, or a point frame's ints
    0 and 1, each its own rank and det twist), degrees (None: built on first
    read) and count table (by default its own); read-only, ``checked`` checks them."""

    def __init__(self, d: int, e: int, keys: tuple,
                 degrees: tuple[GradedDegree, ...] | None, counts: list | None = None) -> None:
        vars(self).update(d=d, e=e, keys=keys, _counts=counts or even_counts(d, e))
        if degrees is not None:
            if len(degrees) != len(keys):
                raise ValueError(f"{len(degrees)} degrees given for {len(keys)} keys")
            vars(self)["degrees"] = degrees

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a GradedBasis")

    @cached_property
    def degrees(self) -> tuple[GradedDegree, ...]:
        return tuple(map(partial(degree, self.d, self.e), self.checked))

    def rank(self, key) -> int | None:
        """Position of ``key`` in the basis, or None unless it is an even key of the frame."""
        if self.d and self.e:
            return even_rank(key, self.d, self.e, self._counts)
        return key if type(key) is int and key in (0, 1) else None  # type(True) is bool

    @cached_property
    def checked(self) -> tuple:
        """The keys, once they pass the one check of a basis, made on first read:
        that each key's rank is its position and all of the frame's are there, by C-level
        sweeps: the table's total of d-byte keys that ``even_pattern(e)`` matches, each
        larger than the next.  A basis they refuse is ranked key by key, to name its fault."""
        keys, d, e, frame = self.keys, self.d, self.e, f"the {self.d}x{self.e} basis"
        total = self._counts[0][d][e] + self._counts[1][d][e] if d and e else 2
        if (d and e and len(keys) == total and set(map(type, keys)) == {bytes}
                and set(map(len, keys)) == {d} and all(map(gt, keys, keys[1:]))
                and all(map(even_pattern(e).fullmatch, keys))):
            return keys
        ranks, n = list(map(self.rank, keys)), len(keys)
        i = next((i for i, rank in enumerate(ranks) if rank != i), n)  # the first amiss
        if i == n == total and not (d and e):  # a point frame's ints
            return keys
        if i == n == total:  # in order by rank, but refused: a key the pattern misses
            key = next((key for key in keys if type(key) is not bytes
                        or not even_pattern(e).fullmatch(key)), keys[0])
            raise ValueError(f"{frame} takes bytes its even pattern matches, got "
                             f"{type(key).__name__} rows={_shown(key)!r}")
        if i < n and ranks[i] is None:
            raise ValueError(f"{frame} takes its frame's even diagrams, "
                             f"got rows={_shown(keys[i])!r}")
        if i < n and ranks[i] < i:
            raise ValueError(f"{frame} holds an element twice")
        what = "is out of order" if n == total else f"holds {n} of its {total}"
        raise ValueError(f"{frame} {what}: its element of rank {i} is not at position {i}")

    def __len__(self) -> int:
        return len(self.keys)

    def element(self, i: int) -> FramedDiagram | int:
        """Element i as a diagram or point generator, for output and witnesses."""
        key = self.keys[i]
        return key if type(key) is int else FramedDiagram(self.d, self.e, key)

    def labels(self) -> tuple[str, ...]:
        return tuple(f"pt{key}" if type(key) is int else str(tuple(key)) for key in self.keys)


def check_frame(d: int, e: int) -> None:
    """Raise ValueError unless (d, e) is a frame that has a basis, points included."""
    if type(d) is not int or type(e) is not int or d < 0 or e < 0 or d == e == 0:
        raise ValueError("frame dimensions must be integers, at least 0 and not both zero")


def build_basis(d: int, e: int, tails: EvenTails | None = None) -> GradedBasis:
    """Basis of the frame (d,e), keyed by ``even_rows`` on ``tails`` and ranked by
    their count table of width e (by default new ones); degenerate frames get the
    two point generators 0 and 1.  Equal degrees share one ``GradedDegree``."""
    check_frame(d, e)
    if d == 0 or e == 0:
        return GradedBasis(d, e, (0, 1),
                           (GradedDegree(0, (), 0), GradedDegree(0, (), 1)))
    tails = EvenTails(d, e) if tails is None else tails
    return GradedBasis(d, e, even_rows(d, e, tails), None, tails.counts(e))


class BasisMap(namedtuple("BasisMap", "which source target images")):
    """One of the three maps as a partial bijection between two bases.

    ``images[j]`` is the target index of source element j, or None when the
    map sends that element to zero; None builds them on first read, by the
    rule of ``which`` on the source's checked keys, and checks given ones.
    """

    # no __slots__: the images built on first read are kept in __dict__
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of a BasisMap")

    @cached_property
    def images(self) -> tuple:
        which, source, target, images = self  # the fields as given
        if images is None:  # the sequence's frame: the larger of the two in each dimension
            rule = _image_rule(which, max(source.d, target.d), max(source.e, target.e))
            keys, found, at = target.checked, [], -1  # at: the last image's position
            for image in map(rule, source.checked):
                try:  # the rules keep the keys' order: each image comes after the last
                    found.append(None if image is None else (at := keys.index(image, at + 1)))
                except ValueError:
                    raise ValueError(f"{which}'s image rows={_shown(image)!r} is not a "
                                     f"{target.d}x{target.e} key after index {at}") from None
            return tuple(found)
        if len(images) != len(source):
            raise ValueError(f"{which} has {len(images)} images for {len(source)} sources")
        for j, i in enumerate(images):
            if i is not None and (type(i) is not int or not 0 <= i < len(target)):
                raise ValueError(f"{which}'s image of column {j}, {i!r}, is not an index "
                                 f"of its {len(target)}-element target")
        return images

    def frames_json(self) -> dict:
        """The wire form's fields before its matrix."""
        return {"which": self.which,
                "source_frame": [self.source.d, self.source.e],
                "target_frame": [self.target.d, self.target.e]}

    def to_json(self) -> dict:
        """The wire form; ``wittgrass maps`` writes its bytes a row at a time."""
        return {**self.frames_json(), "matrix": self.array()}

    def sparse(self) -> intmatrix.SparseMatrix:
        """The matrix, built by column: an entry 1 at row images[j] of each column j mapped."""
        images = self.images
        return intmatrix.SparseMatrix.from_columns(
            len(self.target), images, [0 if i is None else 1 for i in images])

    def array(self) -> list[list[int]]:
        """The matrix as new dense int rows; it has ``len(self.source)`` columns."""
        return self.sparse().dense()


def _image_rule(which: str, d: int, e: int) -> Callable:
    """One map of the (d,e) sequence on basis keys: the key of a source key's
    image in the target, or None when it maps to zero.  Each rule keeps the keys'
    descending order.  Let keys r > s first differ at row k.  iota adds 1 to every
    row, and bord takes 1 from every row and appends a 0, so the images first differ
    at row k, in the same order; kappa drops the last row of keys that end in 0,
    where r and s agree, so row k comes before it.  Each point branch gives one image."""
    if which == "iota":
        if e == 1:  # source is the point frame
            full = b"\x01" * d
            return lambda pt: full if pt == d % 2 else None
        return lambda rows: None if rows.count(0) % 2 else rows.translate(_UP)
    if which == "kappa":
        if d == 1:  # target is the point frame
            return lambda rows: 0 if rows[0] == 0 else None
        return lambda rows: rows[:-1] if rows[-1] == 0 else None
    # bord
    if d == 1:  # source is the point frame
        image = 0 if e == 1 else b"\x00"  # the empty row when e > 1
        return lambda pt: image if pt == 1 else None
    if e == 1:  # target is the point frame
        return lambda rows: (d + 1) % 2 if rows[-1] % 2 else None
    return lambda rows: rows.translate(_DOWN) + b"\x00" if rows[-1] % 2 else None


_UP, _DOWN = bytes([*range(1, 256), 0]), bytes([255, *range(255)])  # each row +1, -1


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
    Each basis passes its one check (``checked``) here; each map's images
    are built on first read, by its rule on its source's checked keys.
    """
    check_frame(d, e)
    if d < 1 or e < 1:
        raise ValueError("the sequence needs d,e >= 1")
    if basis is None:
        basis = build_basis
    left, middle, right = basis(d, e - 1), basis(d, e), basis(d - 1, e)
    left.checked, middle.checked, right.checked  # each basis's one check
    return CyclicSequence(d, e, BasisMap("iota", left, middle, None),
                          BasisMap("kappa", middle, right, None),
                          BasisMap("bord", right, left, None))


def map_matrix(which: str, d: int, e: int) -> BasisMap:
    """Iota, kappa or bord of the cyclic sequence anchored at (d,e)."""
    if which not in MAP_NAMES:
        raise ValueError(f"unknown map {which!r}; expected one of {MAP_NAMES}")
    return getattr(cyclic_sequence(d, e), which)


def _element_json(elem):
    return {"pt": elem} if type(elem) is int else elem.to_json()


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
    if next(product.entries(), None):
        return False
    return None not in span(kernel)


def _mod_p_position(rank_a: int, rank_b: int, middle: int,
                    product: intmatrix.SparseMatrix, p: int) -> bool:
    """B A = 0 mod p and rank A + rank B is the middle rank, over F_p.

    ``rank_a`` and ``rank_b`` are the ranks of A and B mod p, and ``middle``
    the number of rows of A.
    """
    if any(v % p for _, _, v in product.entries()):
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
    (``lattice.les_twists``, on bit masks by ``_les_target``); the shift moves
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
        rank, degrees = bm.target.d + bm.target.e, bm.target.degrees
        points = 0 in (bm.source.d, bm.source.e, bm.target.d, bm.target.e)
        for j, (src_deg, i) in enumerate(zip(bm.source.degrees, bm.images)):
            if i is None:
                continue
            tgt_deg = degrees[i]
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
