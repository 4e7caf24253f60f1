"""Symbolic Picard-lattice arithmetic for split Grassmann and flag bundles.

Classes are integer (or mod-2) combinations of two generator families over a
base carrying a full flag of subbundles of an ambient rank-n bundle:

* ``BaseDet(i)``  -- determinant of the rank-i flag step on the base,
* ``TautDet(j)``  -- determinant of the rank-j tautological subbundle on the
  bundle upstairs.

On a flag bundle cut out by jump tuples, a step with co-length zero makes the
tautological subbundle a pullback from the base; the normalization rule
rewrites ``TautDet(d_i) -> BaseDet(d_i)`` whenever ``e_i = 0``, and every
constructor here applies it.  All arithmetic is exact.

No verify suite runs it: it serves the ``canonical`` command and the
references the tests hold ``picard``'s masks and degree transport to.
"""

from __future__ import annotations

from collections import namedtuple

from .diagrams import FramedDiagram, JumpTuples

BASE = "BaseDet"
TAUT = "TautDet"
_KINDS = (BASE, TAUT)


def _validated_terms(n, terms, with_coeff):
    out = []
    for term in terms:
        if with_coeff:
            kind, index, coeff = term
        else:
            kind, index = term
            coeff = 1
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if type(index) is not int or not 1 <= index <= n:
            raise ValueError(f"generator index {index!r} outside 1..{n}")
        if type(coeff) is not int:
            raise ValueError("coefficients must be integers")
        if coeff:
            out.append((kind, index, coeff) if with_coeff else (kind, index))
    out.sort()
    keys = [t[:2] for t in out]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate generator in term list")
    return tuple(out)


class PicClass(namedtuple("PicClass", "n terms")):
    """Integer combination of BaseDet/TautDet generators, ambient rank n."""

    __slots__ = ()

    def __new__(cls, n: int, terms=()) -> PicClass:
        if type(n) is not int or n < 1:
            raise ValueError("ambient rank must be a positive integer")
        return tuple.__new__(cls, (n, _validated_terms(n, terms, True)))

    @classmethod
    def from_dict(cls, n: int, coeffs: dict) -> "PicClass":
        return cls(n, tuple((k, i, c) for (k, i), c in coeffs.items() if c))

    def as_dict(self) -> dict:
        return {(k, i): c for k, i, c in self.terms}

    def _combine(self, other: "PicClass", sign: int) -> "PicClass":
        if not isinstance(other, PicClass):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("ambient ranks differ")
        acc = self.as_dict()
        for k, i, c in other.terms:
            acc[(k, i)] = acc.get((k, i), 0) + sign * c
        return PicClass.from_dict(self.n, acc)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return PicClass(self.n, tuple((k, i, -c) for k, i, c in self.terms))

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return PicClass.from_dict(self.n, {(k, i): scalar * c for k, i, c in self.terms})

    __mul__ = __rmul__  # not the tuple's repetition

    def is_zero(self) -> bool:
        return not self.terms

    def mod2(self) -> "PicClassMod2":
        return PicClassMod2(self.n, tuple((k, i) for k, i, c in self.terms if c % 2))

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"gen": k, "index": i, "coeff": c} for k, i, c in self.terms]}


class PicClassMod2(namedtuple("PicClassMod2", "n support")):
    """Mod-2 class: the set of generators with odd coefficient."""

    __slots__ = ()

    def __new__(cls, n: int, support=()) -> PicClassMod2:
        if type(n) is not int or n < 1:
            raise ValueError("ambient rank must be a positive integer")
        return tuple.__new__(cls, (n, _validated_terms(n, support, False)))

    @classmethod
    def zero(cls, n: int) -> "PicClassMod2":
        return cls(n, ())

    def __add__(self, other):
        if not isinstance(other, PicClassMod2):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("ambient ranks differ")
        sym = set(self.support) ^ set(other.support)
        return PicClassMod2(self.n, tuple(sym))

    def is_zero(self) -> bool:
        return not self.support

    def has(self, kind: str, index: int) -> bool:
        return (kind, index) in self.support


def base_det(n: int, i: int) -> PicClass:
    return PicClass(n, ((BASE, i, 1),))


def taut_det(n: int, j: int) -> PicClass:
    return PicClass(n, ((TAUT, j, 1),))


def taut_det2(n: int, j: int) -> PicClassMod2:
    return PicClassMod2(n, ((TAUT, j),))


def quotient_det(n: int) -> PicClass:
    """det of (ambient bundle) / (corank-one flag step): BaseDet(n) - BaseDet(n-1)."""
    if n < 2:
        raise ValueError("needs ambient rank at least 2")
    return base_det(n, n) - base_det(n, n - 1)


def _flag_canonical(tuples: JumpTuples, n: int, last_taut: int,
                    top_base: int = 0) -> PicClass:
    # sum_i (d_{i-1}-d_i) BaseDet(d_i+e_i) + sum_{i<k} (d_i-d_{i-1}+e_i-e_{i+1})
    # TautDet(d_i) + last_taut TautDet(d_k) + top_base BaseDet(n), normalized;
    # summed in one plain dict and validated once, as a PicClass
    dv, ev = tuples.dvec, tuples.evec
    acc = {(BASE, n): top_base}
    prev = 0
    for di, ei in zip(dv, ev):
        acc[(BASE, di + ei)] = acc.get((BASE, di + ei), 0) + prev - di
        prev = di
    for i in range(tuples.k - 1):
        acc[(TAUT, dv[i])] = dv[i] - (dv[i - 1] if i else 0) + ev[i] - ev[i + 1]
    acc[(TAUT, dv[-1])] = last_taut
    if ev[0] == 0:  # co-length zero, possible only at the first step as evec
        # strictly increases: the tautological det is pulled back from the base
        acc[(BASE, dv[0])] = acc.get((BASE, dv[0]), 0) + acc.pop((TAUT, dv[0]))
    return PicClass.from_dict(n, acc)


def rel_canonical_grass(d: int, n: int) -> PicClass:
    """Relative canonical class of the rank-d Grassmann bundle of a rank-n bundle."""
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    return (-d) * base_det(n, n) + n * taut_det(n, d)


def rel_canonical_flag(tuples: JumpTuples, n: int) -> PicClass:
    """Relative canonical class of the flag bundle cut out by jump tuples.

    With the convention d_0 = 0, the class is
    sum_i (d_{i-1}-d_i) BaseDet(d_i+e_i)
    + sum_{i<k} (d_i-d_{i-1}+e_i-e_{i+1}) TautDet(d_i)
    + (d_k-d_{k-1}+e_k) TautDet(d_k), then normalized.
    """
    dv, ev, k = tuples.dvec, tuples.evec, tuples.k
    if dv[-1] + ev[-1] > n:
        raise ValueError("flag steps exceed the ambient rank")
    last_step = dv[-1] - (dv[-2] if k >= 2 else 0)
    return _flag_canonical(tuples, n, last_step + ev[-1])


def rel_canonical_fiber(tuples: JumpTuples, d: int, e: int) -> PicClass:
    """Relative canonical class of the flag bundle over the ambient Grassmann bundle.

    The flag bundle must refine the rank-d tautological subbundle, so dvec has
    to end at d; the ambient rank is n = d + e.  Equals the flag class minus
    the pullback of the Grassmann class (the pullback fixes BaseDet and sends
    TautDet(d) to TautDet(d_k)); computed here in closed form.
    """
    dv, ev, k = tuples.dvec, tuples.evec, tuples.k
    if dv[-1] != d:
        raise ValueError(f"dvec must end at the subbundle rank {d}")
    n = d + e
    if ev[-1] > e:
        raise ValueError("co-lengths must not exceed e")
    d_prev = dv[-2] if k >= 2 else 0
    return _flag_canonical(tuples, n, -d_prev + ev[-1] - e, top_base=d)


def pullback_to_flag(cls: PicClassMod2, tuples: JumpTuples) -> PicClassMod2:
    """Pull a mod-2 Grassmann class back to the flag bundle cut out by tuples.

    BaseDet generators are fixed; the Grassmann TautDet(d_k) becomes the flag
    TautDet(d_k); the co-length-zero normalization is applied afterwards.
    """
    dk = tuples.dvec[-1]
    support = set()
    for kind, index in cls.support:
        if kind == TAUT:
            if index != dk:
                raise ValueError("Grassmann classes may only involve TautDet(d_k)")
        support.add((kind, index))
    if tuples.evec[0] == 0 and (TAUT, tuples.dvec[0]) in support:
        support.discard((TAUT, tuples.dvec[0]))
        support ^= {(BASE, tuples.dvec[0])}
    return PicClassMod2(cls.n, tuple(support))


def relative_dimension(tuples: JumpTuples) -> int:
    """Fiber dimension of the flag locus: sum of block height times co-length."""
    dim = 0
    prev = 0
    for di, ei in zip(tuples.dvec, tuples.evec):
        dim += (di - prev) * ei
        prev = di
    return dim


def twist_class(diagram: FramedDiagram) -> PicClassMod2:
    """Mod-2 twist attached to a diagram: rho * BaseDet(n) + t * TautDet(d)."""
    n = diagram.d + diagram.e
    support = [(BASE, n)] if diagram.rho() % 2 else []
    if diagram.twist():
        support.append((TAUT, diagram.d))
    return PicClassMod2(n, tuple(support))


CellCanonicals = namedtuple("CellCanonicals", "sub_grassmannian exceptional_divisor")


def cell_canonicals(d: int, n: int) -> CellCanonicals:
    """Relative canonical classes of two maps in the blow-up square.

    ``sub_grassmannian``: inclusion of the corank-one sub-Grassmannian;
    ``exceptional_divisor``: inclusion of the exceptional divisor.  Mod 2
    they are what ``les_twists`` adds on its sub side, and on its
    complementary side to a twist carrying TautDet(d).  Tautological dets
    of ranks d and d-1 appear.
    """
    if d < 2 or n - d < 2:
        raise ValueError("need subbundle rank >= 2 and corank >= 2")
    qdet = quotient_det(n)
    sub = -taut_det(n, d) + d * qdet
    exc = qdet + taut_det(n, d - 1) - taut_det(n, d)
    return CellCanonicals(sub, exc)


def les_twists(d: int, e: int, twist: PicClassMod2) -> tuple[PicClassMod2, PicClassMod2]:
    """Transport a mod-2 twist along the corank-one localization sequence.

    Input lives on the rank-d Grassmann bundle of a rank-n bundle (n = d+e,
    d, e >= 1), supported on BaseDet generators and TautDet(d).  Returns the
    twists on the two smaller Grassmann bundles of the corank-one subbundle
    W: the sub-Grassmannian side (still TautDet(d)) and the complementary side
    (TautDet(d) replaced by TautDet(d-1) plus the quotient det).  At d = 1 the
    complement P(V) minus P(W) has V/W as its tautological line, so
    TautDet(0), the det of the zero bundle, is trivial and drops out.
    """
    n = d + e
    if twist.n != n:
        raise ValueError(f"twist must have ambient rank {n}")
    if d < 1 or e < 1:
        raise ValueError("need d >= 1 and e >= 1")
    for kind, index in twist.support:
        if kind == TAUT and index != d:
            raise ValueError("twist may only involve TautDet(d) and BaseDet generators")
    qdet = quotient_det(n).mod2()
    sub_side = twist + taut_det2(n, d) + (qdet if d % 2 else PicClassMod2.zero(n))
    comp_side = twist
    if twist.has(TAUT, d):
        comp_side = comp_side + taut_det2(n, d) + qdet
        if d > 1:
            comp_side = comp_side + taut_det2(n, d - 1)
    return sub_side, comp_side
