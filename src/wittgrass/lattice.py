"""Symbolic Picard-lattice arithmetic for split Grassmann and flag bundles.

Classes are integer combinations of two generator families over a base
carrying a full flag of subbundles of an ambient rank-n bundle:

* ``BaseDet(i)``  -- determinant of the rank-i flag step on the base,
* ``TautDet(j)``  -- determinant of the rank-j tautological subbundle on the
  bundle upstairs.

On a flag bundle cut out by jump tuples, a step with co-length zero makes the
tautological subbundle a pullback from the base; the normalization rule
rewrites ``TautDet(d_i) -> BaseDet(d_i)`` whenever ``e_i = 0``, and every
constructor here applies it.  All arithmetic is exact.

No verify suite runs it: it serves the ``canonical`` command.  ``picard``
reads the fiber canonical mod 2 off bit masks, and the tests hold those
masks to the terms of these classes.
"""

from __future__ import annotations

from collections import namedtuple

from .diagrams import JumpTuples

BASE = "BaseDet"
TAUT = "TautDet"
_KINDS = (BASE, TAUT)


def _validated_terms(n, terms):
    out = []
    for kind, index, coeff in terms:
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if type(index) is not int or not 1 <= index <= n:
            raise ValueError(f"generator index {index!r} outside 1..{n}")
        if type(coeff) is not int:
            raise ValueError("coefficients must be integers")
        if coeff:
            out.append((kind, index, coeff))
    out.sort()
    if len({(kind, index) for kind, index, _ in out}) != len(out):
        raise ValueError("duplicate generator in term list")
    return tuple(out)


class PicClass(namedtuple("PicClass", "n terms")):
    """Integer combination of BaseDet/TautDet generators, ambient rank n."""

    __slots__ = ()

    def __new__(cls, n: int, terms=()) -> PicClass:
        if type(n) is not int or n < 1:
            raise ValueError("ambient rank must be a positive integer")
        return tuple.__new__(cls, (n, _validated_terms(n, terms)))

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

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"gen": k, "index": i, "coeff": c} for k, i, c in self.terms]}


def base_det(n: int, i: int) -> PicClass:
    return PicClass(n, ((BASE, i, 1),))


def taut_det(n: int, j: int) -> PicClass:
    return PicClass(n, ((TAUT, j, 1),))


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


def relative_dimension(tuples: JumpTuples) -> int:
    """Fiber dimension of the flag locus: sum of block height times co-length."""
    dim = 0
    prev = 0
    for di, ei in zip(tuples.dvec, tuples.evec):
        dim += (di - prev) * ei
        prev = di
    return dim
