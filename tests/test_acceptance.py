"""Acceptance gate: eleven checks, one printed verdict line each.

Every test prints a single ``criterion NN (...): PASS`` or ``FAIL`` line
(visible under ``pytest -s``, or in the captured output of a failing test).
All eleven are expected to pass; a FAIL line carries the witness at fault.

Criterion 02 compares computed rank tables against tables stated by hand.
A stated value is changed only with a proof that it is wrong; the 5x5
table's derivation is written beside it.
"""

import math
import time

import helpers
from wittgrass import (FramedDiagram, bord_vanishes,
                       canonical_in_pullback_span, class_degree, classify,
                       cyclic_sequence, degree, duality_check, enumerate_even,
                       expected_rank, pushforward_admissible, rank_table,
                       relative_dimension, verify_cond_even,
                       verify_degree_transport, verify_exactness)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)


def test_criterion_01_census_matches_closed_form_and_bruteforce():
    start = time.perf_counter()
    ok, detail = True, ""
    for d in range(1, 9):
        for e in range(1, 9):
            evens = enumerate_even(d, e)
            brute = sum(1 for rows in helpers.all_row_vectors(d, e)
                        if helpers.evenness_oracle(d, e, rows))
            if not len(evens) == brute == expected_rank(d, e):
                ok, detail = False, (f"frame ({d},{e}): enumerated {len(evens)}, "
                                     f"brute force {brute}, closed form "
                                     f"{expected_rank(d, e)}")
    elapsed = time.perf_counter() - start
    if ok and elapsed >= 10:
        ok, detail = False, f"took {elapsed:.1f}s, bound is 10s"
    _verdict(1, "even-diagram counts match closed form and brute force, "
                "d,e <= 8, under 10s", ok, detail)
    assert ok, detail


def test_criterion_02_stated_rank_tables_of_three_frames():
    stated = {
        (4, 4): {(0, 0): 6, (0, 1): 6},
        (4, 5): {(0, 0): 6, (0, 1): 6},
        # 5x5: d and e odd, so the even diagrams are C(2+2, 2) = 6 Blocks
        # at (0, 0) and 6 RowColumnPlusBlocks at ((5+5-1) mod 4, 0) = (1, 0).  The
        # point class (the full diagram) has shift 25 mod 4 = 1 and twist
        # (5 + 5) mod 2 = 0, as W^25(Gr(5,10), O(-10)) requires.
        (5, 5): {(0, 0): 6, (1, 0): 6},
    }
    computed = {frame: rank_table(*frame) for frame in stated}
    bad = [frame for frame in stated if computed[frame] != stated[frame]]
    ok = not bad
    detail = "; ".join(
        f"{d}x{e}: stated {stated[(d, e)]}, computed {computed[(d, e)]}"
        for d, e in bad)
    _verdict(2, "rank tables of the 4x4, 4x5 and 5x5 frames at stated degrees",
             ok, detail)
    assert ok, detail


def test_criterion_03_sequences_exact_with_integer_and_mod_p_checks():
    start = time.perf_counter()
    failures = []
    for d in range(2, 8):
        for e in range(2, 8):
            report = verify_exactness(cyclic_sequence(d, e), primes=(2, 3, 5))
            if not report.ok:
                failures.append((d, e))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    detail = (f"failing frames {failures}" if failures
              else f"took {elapsed:.1f}s, bound is 30s" if elapsed >= 30 else "")
    _verdict(3, "three-position exactness holds structurally, over the "
                "integers and mod 2,3,5 for 2 <= d,e <= 7, under 30s",
             ok, detail)
    assert ok, detail


def test_criterion_04_connecting_map_vanishes_iff_both_even():
    bad = [(d, e) for d in range(2, 9) for e in range(2, 9)
           if bord_vanishes(cyclic_sequence(d, e)) != (d % 2 == 0 and e % 2 == 0)]
    ok = not bad
    _verdict(4, "connecting map is zero exactly on doubly even frames, "
                "2 <= d,e <= 8", ok, f"frames {bad}")
    assert ok, bad


def test_criterion_05_twist_cancellation_for_every_even_diagram():
    bad = []
    for d in range(1, 9):
        for e in range(1, 9):
            for dg in enumerate_even(d, e):
                if not verify_cond_even(dg):
                    bad.append((d, e, dg.rows))
    ok = not bad
    _verdict(5, "fiber canonical cancels the pulled-back twist mod 2 for "
                "every even diagram, d,e <= 8", ok, f"diagrams {bad[:3]}")
    assert ok, bad


def test_criterion_06_admissibility_matches_span_membership():
    ok, detail = True, ""
    witness = FramedDiagram(3, 3, (2, 1, 1))
    if witness.is_even() or not pushforward_admissible(witness):
        ok, detail = False, "(2,1,1) in 3x3 should be admissible but not even"
    for d in range(1, 7):
        if not ok:
            break
        for e in range(1, 7):
            for rows in helpers.all_row_vectors(d, e):
                dg = FramedDiagram(d, e, rows)
                adm = pushforward_admissible(dg)
                if dg.is_even() and not adm:
                    ok, detail = False, f"even {rows} in {d}x{e} not admissible"
                    break
                if adm != canonical_in_pullback_span(dg):
                    ok, detail = False, (f"{rows} in {d}x{e}: parity test and "
                                         "span membership disagree")
                    break
    _verdict(6, "push-forward parity test admits every even diagram, admits "
                "some non-even ones, and equals mod-2 span membership for "
                "all diagrams with d,e <= 6", ok, detail)
    assert ok, detail


def test_criterion_07_degree_transport_including_trivial_base():
    bad = []
    for d in range(2, 7):
        for e in range(2, 7):
            for trivial in (False, True):
                report = verify_degree_transport(cyclic_sequence(d, e),
                                                 trivial_base=trivial)
                if not report.ok:
                    bad.append((d, e, trivial))
    ok = not bad
    _verdict(7, "every nonzero matrix entry shifts degrees by the stated "
                "rule, with and without base coefficients, 2 <= d,e <= 6",
             ok, f"cases {bad}")
    assert ok, bad


def test_criterion_08_classification_census_and_vanishing_ranks():
    ok, detail = True, ""
    for d in range(1, 9):
        if not ok:
            break
        for e in range(1, 9):
            try:
                for dg in enumerate_even(d, e):
                    deg = degree(d, e, dg.rows)
                    shift, twist = class_degree(classify(dg), d, e)
                    if (deg.shift, deg.det_twist) != (shift, twist):
                        ok, detail = False, (f"{dg.rows} in {d}x{e}: family "
                                             "degree disagrees")
                        break
            except RuntimeError as exc:
                ok, detail = False, f"{d}x{e}: {exc}"
            if not ok:
                break
            table = rank_table(d, e)
            blocks = math.comb(d // 2 + e // 2, e // 2)
            checks = [
                (table.get((0, 0), 0) == blocks, f"rank at (0,0) != {blocks}"),
                (table.get((2, 0), 0) == 0, "rank at (2,0) nonzero"),
                (table.get((1, 1), 0) == 0, "rank at (1,1) nonzero"),
                (table.get((3, 1), 0) == 0, "rank at (3,1) nonzero"),
            ]
            for good, msg in checks:
                if not good:
                    ok, detail = False, f"{d}x{e}: {msg}, table {table}"
                    break
    _verdict(8, "every even diagram falls in exactly one family with the "
                "family degree, and the four rank identities hold, d,e <= 8",
             ok, detail)
    assert ok, detail


def test_criterion_09_area_and_fiber_dimension_fill_the_frame():
    bad = []
    for d in range(1, 7):
        for e in range(1, 7):
            for rows in helpers.all_row_vectors(d, e):
                dg = FramedDiagram(d, e, rows)
                if dg.area() + relative_dimension(dg.jump_tuples()) != d * e:
                    bad.append((d, e, rows))
    ok = not bad
    _verdict(9, "area plus flag fiber dimension equals the frame area for "
                "every diagram, d,e <= 6", ok, f"diagrams {bad[:3]}")
    assert ok, bad


def test_criterion_10_transpose_duality():
    bad = [(d, e) for d in range(1, 9) for e in range(1, 9)
           if not duality_check(d, e).ok]
    ok = not bad
    _verdict(10, "transposition is a degree-preserving involutive bijection "
                 "onto the mirror frame, d,e <= 8", ok, f"frames {bad}")
    assert ok, bad


def test_criterion_11_boundary_sequences_exact():
    bad = []
    for m in range(2, 7):
        for pivot in [(1, m), (m, 1)]:
            report = verify_exactness(cyclic_sequence(*pivot), primes=(2, 3, 5))
            if not report.ok:
                bad.append(pivot)
    ok = not bad
    _verdict(11, "sequences through single-row and single-column frames "
                 "stay exact against the point generators, sizes 2..6",
             ok, f"pivots {bad}")
    assert ok, bad
