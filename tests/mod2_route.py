"""The mod-2 Picard-class route: the oracle the tests hold ``picard``'s bit
masks and ``witt_modules._les_target`` to.  It imports nothing from
wittgrass, so it shares no code with what it checks.

A mod-2 class is the set of generators with odd coefficient,
``("BaseDet", i)`` and ``("TautDet", j)`` with 1 <= i, j <= n.  Package
objects are read only through their fields and methods: an integer class by
``n`` and ``terms``, jump tuples by ``dvec`` and ``evec``, a diagram by
``d``, ``e``, ``rho()`` and ``twist()``.
"""

from collections import namedtuple

BASE = "BaseDet"
TAUT = "TautDet"


class PicClassMod2(namedtuple("PicClassMod2", "n support")):
    """Mod-2 class: the set of generators with odd coefficient, sorted."""

    __slots__ = ()

    def __new__(cls, n, support=()):
        if type(n) is not int or n < 1:
            raise ValueError("ambient rank must be a positive integer")
        for kind, index in support:
            if kind not in (BASE, TAUT):
                raise ValueError(f"unknown generator kind {kind!r}")
            if type(index) is not int or not 1 <= index <= n:
                raise ValueError(f"generator index {index!r} outside 1..{n}")
        if len(set(support)) != len(support):
            raise ValueError("duplicate generator in term list")
        return tuple.__new__(cls, (n, tuple(sorted(support))))

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    def __add__(self, other):
        if not isinstance(other, PicClassMod2):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("ambient ranks differ")
        return PicClassMod2(self.n, tuple(set(self.support) ^ set(other.support)))

    def is_zero(self):
        return not self.support

    def has(self, kind, index):
        return (kind, index) in self.support


def mod2(cls):
    """The mod-2 class of an integer class, read off its ``n`` and ``terms``."""
    return PicClassMod2(cls.n, tuple((kind, i) for kind, i, c in cls.terms if c % 2))


def taut_det2(n, j):
    return PicClassMod2(n, ((TAUT, j),))


def pullback_to_flag(cls, tuples):
    """Pull a mod-2 Grassmann class back to the flag bundle cut out by tuples.

    BaseDet generators are fixed; the Grassmann TautDet(d_k) becomes the flag
    TautDet(d_k); the co-length-zero normalization is applied afterwards.
    """
    if any(kind == TAUT and index != tuples.dvec[-1] for kind, index in cls.support):
        raise ValueError("Grassmann classes may only involve TautDet(d_k)")
    support = set(cls.support)
    if tuples.evec[0] == 0 and (TAUT, tuples.dvec[0]) in support:
        support ^= {(TAUT, tuples.dvec[0]), (BASE, tuples.dvec[0])}
    return PicClassMod2(cls.n, tuple(support))


def twist_class(diagram):
    """Mod-2 twist attached to a diagram: rho * BaseDet(n) + t * TautDet(d)."""
    n = diagram.d + diagram.e
    support = [(BASE, n)] if diagram.rho() % 2 else []
    if diagram.twist():
        support.append((TAUT, diagram.d))
    return PicClassMod2(n, tuple(support))


# an integer class as the pair a PicClass is, n and its nonzero terms sorted,
# so it equals the PicClass of the same terms
IntClass = namedtuple("IntClass", "n terms")
CellCanonicals = namedtuple("CellCanonicals", "sub_grassmannian exceptional_divisor")


def _int_class(n, coeffs):
    return IntClass(n, tuple((kind, i, c) for (kind, i), c in sorted(coeffs.items())))


def cell_canonicals(d, n):
    """Relative canonical classes of two maps in the blow-up square.

    ``sub_grassmannian``: inclusion of the corank-one sub-Grassmannian,
    -TautDet(d) + d q; ``exceptional_divisor``: inclusion of the exceptional
    divisor, q + TautDet(d-1) - TautDet(d); q = BaseDet(n) - BaseDet(n-1) is
    the quotient det.  Mod 2 they are what ``les_twists`` adds on its sub
    side, and on its complementary side to a twist carrying TautDet(d).
    """
    if d < 2 or n - d < 2:
        raise ValueError("need subbundle rank >= 2 and corank >= 2")
    sub = {(BASE, n - 1): -d, (BASE, n): d, (TAUT, d): -1}
    exc = {(BASE, n - 1): -1, (BASE, n): 1, (TAUT, d - 1): 1, (TAUT, d): -1}
    return CellCanonicals(_int_class(n, sub), _int_class(n, exc))


def les_twists(d, e, twist):
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
    if any(kind == TAUT and index != d for kind, index in twist.support):
        raise ValueError("twist may only involve TautDet(d) and BaseDet generators")
    qdet = PicClassMod2(n, ((BASE, n - 1), (BASE, n)))  # the quotient det, mod 2
    sub_side = twist + taut_det2(n, d) + (qdet if d % 2 else PicClassMod2.zero(n))
    comp_side = twist
    if twist.has(TAUT, d):
        comp_side = comp_side + taut_det2(n, d) + qdet
        if d > 1:
            comp_side = comp_side + taut_det2(n, d - 1)
    return sub_side, comp_side
