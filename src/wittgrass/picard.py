"""Cond-even verdicts of even row tuples, read off two int bit masks.

``cond_even_rows`` reads a row tuple's mod-2 fiber canonical and pulled-back
twist as masks, ``BaseDet(i)`` at bit i and ``TautDet(j)`` at bit n + j, in
one pass over its blocks, and builds no ``lattice.PicClass``.
"""

from __future__ import annotations

from .diagrams import FramedDiagram, row_jumps


def _admissible(e: int, dvec: tuple[int, ...], evec: tuple[int, ...]) -> bool:
    # the parity conditions of pushforward_admissible, read off the jumps
    for i in range(2, len(dvec)):  # 1-based interior steps
        if (dvec[i - 1] - dvec[i - 2] + evec[i] - evec[i - 1]) % 2:
            return False
    if len(dvec) >= 2 and 0 < evec[0] < e and (dvec[0] + evec[1] - evec[0]) % 2:
        return False
    return True


def _masks(d: int, e: int, rows: tuple[int, ...]) -> tuple[int, int, bool]:
    # the fiber and twist masks of rows and its admissibility, in one pass over
    # its blocks: block i ends at row d_i, has co-length e_i and puts d_i-d_{i-1}
    # on BaseDet(d_i+e_i) and d_i-d_{i-1}+e_i-e_{i+1} on TautDet(d_i), e_{k+1} = n,
    # as _flag_canonical with top_base = d; admissible: that TautDet parity even
    # but at block k, and at block 1 if e_1 = 0, where TautDet(d_1) is BaseDet(d_1)
    n, co_first, blocks = d + e, e - rows[0], iter(dict.fromkeys(rows))
    end = first = rows.count(next(blocks))  # d_1
    fiber = (d & 1) << n ^ (first & 1) << (first + co_first)
    owed, admissible = (first ^ co_first) & 1, True
    for v in blocks:  # e_i completes the TautDet parity of block i - 1
        co = e - v
        owed ^= co & 1
        if owed:
            fiber ^= 1 << (n + end)
            admissible = admissible and end == first and co_first == 0
        size = rows.count(v)
        fiber ^= (size & 1) << (end + size + co)
        owed, end = (size ^ co) & 1, end + size
    fiber ^= ((owed ^ n) & 1) << (n + d)
    taut = d if co_first == 0 and first == d else n + d  # the twist's TautDet(d)
    if co_first == 0 and fiber >> (n + first) & 1:
        fiber ^= 1 << (n + first) | 1 << first
    rho = d - rows.count(0)  # the twist: rho BaseDet(n) + (rows[0] + rho) TautDet(d)
    return fiber, (rho & 1) << n | (rows[0] + rho & 1) << taut, admissible


def cond_even_rows(d: int, e: int, rows: tuple[int, ...]) -> tuple[bool, bool, bool]:
    """``cond_even_verdicts`` of the d-by-e frame's ``rows``, unchecked for evenness."""
    fiber, twist, admissible = _masks(d, e, rows)
    # in span: no TautDet bit but TautDet(d) = TautDet(d_k) is set in the fiber mask
    return fiber == twist, admissible, not fiber >> (d + e) & ~(1 | 1 << d)


def verify_cond_even(diagram: FramedDiagram) -> bool:
    """Check the mod-2 cancellation of the fiber canonical against the twist.

    For an even diagram, the relative canonical of its flag locus plus the
    pullback of the diagram's twist class must vanish mod 2: equal masks.
    """
    return cond_even_verdicts(diagram)[0]


def pushforward_admissible(diagram: FramedDiagram) -> bool:
    """Parity conditions for the twisted push-forward from the flag locus.

    (a) d_i-d_{i-1}+e_{i+1}-e_i even for i = 2..k-1; (b) when 0 < e_1 < e,
    d_1+e_2-e_1 even.  Both are vacuous for k = 1.  Every even diagram
    passes; some non-even diagrams do too.
    """
    return _admissible(diagram.e, *row_jumps(diagram.rows, diagram.e))


def canonical_in_pullback_span(diagram: FramedDiagram) -> bool:
    """Mod-2 membership of the fiber canonical in the span of pullback classes.

    The pullback span on the flag bundle is generated mod 2 by all BaseDet
    generators and TautDet(d_k); membership means no other TautDet survives.
    Agrees with pushforward_admissible on every diagram.
    """
    return cond_even_rows(diagram.d, diagram.e, diagram.rows)[2]


def cond_even_verdicts(diagram: FramedDiagram) -> tuple[bool, bool, bool]:
    """``verify_cond_even``, ``pushforward_admissible`` and
    ``canonical_in_pullback_span`` of an even diagram, in that order, from one
    jump encoding and one fiber mask; ValueError on a diagram that is not even.
    """
    if not diagram.is_even():
        raise ValueError(f"each verdict expects an even diagram, not rows={diagram.rows}")
    return cond_even_rows(diagram.d, diagram.e, diagram.rows)
