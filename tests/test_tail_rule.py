"""The series tail rule: stop once three consecutive terms are at most
rel_tol times the running sum of |terms|.

_tail_rule runs it over one block of terms, carrying the running sum and
the length of the current run of small terms into the next block, and
_tail_series drives it over blocks that start at ``first_block`` orders
and double.  Where the block boundaries fall must not change where the
series stops, which must be where a plain term-by-term loop stops.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circkde.errors import ToleranceError
from circkde.kernels import _tail_rule, _tail_series

REL_TOL = 1e-12

# big terms, terms just either side of the threshold, zeros and tiny
# values, of both signs; a block holds at least one term
TERMS = st.lists(
    st.sampled_from([0.0, 1e-300, 1e-15, -1e-14, 1e-13, 1e-12, 1e-11, 0.5, 1.0, -1.0, 2.0]),
    min_size=1,
    max_size=60,
)


def reference_stop(terms, rel_tol, max_terms):
    """Index of the term that completes three small terms in a row, term
    by term, or None when the first ``max_terms`` terms hold no such run."""
    total = 0.0
    consec = 0
    for i, v in enumerate(terms[:max_terms]):
        total += abs(v)
        if abs(v) <= rel_tol * max(total, 1e-300):
            consec += 1
            if consec >= 3:
                return i
        else:
            consec = 0
    return None


def chunked_stop(terms, rel_tol, cuts):
    """The stop index from _tail_rule over the blocks between ``cuts``,
    with the running sum and the run carried across every boundary; also
    the runs carried into each block."""
    total, consec = 0.0, 0
    edges = [0, *sorted(set(c for c in cuts if 0 < c < len(terms))), len(terms)]
    carried = []
    for lo, hi in zip(edges, edges[1:]):
        carried.append(consec)
        stop, total, consec = _tail_rule(np.array(terms[lo:hi]), total, consec, rel_tol)
        if stop is not None:
            return lo + stop, carried
    return None, carried


def series_stop(terms, first_block, max_terms):
    """The index of the last term _tail_series keeps (its rule runs at
    REL_TOL), or None when it raises."""
    arr = np.array(terms)

    def block_terms(j0, hi):
        c = arr[j0 - 1 : hi]
        return c, c

    try:
        out = _tail_series(block_terms, first_block, max_terms, "test series")
    except ToleranceError:
        return None
    assert np.array_equal(out, arr[: len(out)])
    return len(out) - 1


class TestTailRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(TERMS, st.lists(st.integers(1, 59), max_size=8))
    # the run carried into the second block is 1, then 2
    @example([1.0, 1e-13, 1e-13, 1e-13, 1.0], [2])
    @example([1.0, 1e-13, 1e-13, 1e-13, 1.0], [3])
    def test_block_boundaries_do_not_move_the_stop(self, terms, cuts):
        expect = reference_stop(terms, REL_TOL, len(terms))
        assert chunked_stop(terms, REL_TOL, cuts)[0] == expect
        assert chunked_stop(terms, REL_TOL, [])[0] == expect

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(TERMS, st.integers(1, 70), st.integers(1, 70))
    def test_series_matches_term_by_term_loop(self, terms, first_block, max_terms):
        # the budget may end anywhere inside the terms, or at their end
        max_terms = min(max_terms, len(terms))
        expect = reference_stop(terms, REL_TOL, max_terms)
        assert series_stop(terms, first_block, max_terms) == expect

    @pytest.mark.parametrize("carry", [1, 2])
    def test_carried_run_completes_in_the_next_block(self, carry):
        terms = [1.0] + [1e-13] * 3 + [1.0]
        cut = 1 + carry
        stop, carried = chunked_stop(terms, REL_TOL, [cut])
        assert carried == [0, carry]
        assert stop == 3 == reference_stop(terms, REL_TOL, len(terms))

    def test_carried_run_broken_by_a_big_term(self):
        terms = [1.0, 1e-13, 1e-13, 1.0, 1e-13, 1e-13, 1e-13]
        stop, carried = chunked_stop(terms, REL_TOL, [3, 5])
        assert carried == [0, 2, 1]
        assert stop == 6 == reference_stop(terms, REL_TOL, len(terms))

    def test_all_small_block(self):
        # a block of only small terms stops at its third, or at the first
        # when two small terms were carried in
        stop, total, consec = _tail_rule(np.full(5, 1e-20), 1.0, 0, REL_TOL)
        assert stop == 2
        stop, total, consec = _tail_rule(np.full(5, 1e-20), 1.0, 2, REL_TOL)
        assert stop == 0
        # zeros at the start of a series are small against the 1e-300 floor
        assert reference_stop([0.0] * 4, REL_TOL, 4) == 2
        assert series_stop([0.0] * 4, 1, 4) == 2

    def test_short_block_carries_sum_and_run(self):
        stop, total, consec = _tail_rule(np.array([1.0, 0.5]), 2.0, 0, REL_TOL)
        assert (stop, total, consec) == (None, 3.5, 0)
        stop, total, consec = _tail_rule(np.array([1e-13, 1e-13]), 3.5, 0, REL_TOL)
        assert (stop, consec) == (None, 2)
        assert total == 3.5 + 1e-13 + 1e-13

    def test_budget_exhaustion_raises(self):
        terms = [1.0, 1e-13, 1e-13, 1.0] * 10
        assert reference_stop(terms, REL_TOL, len(terms)) is None
        for first_block in (1, 3, 64):
            assert series_stop(terms, first_block, len(terms)) is None
        # the limit ends just before the run that would have stopped it
        terms = [1.0] * 6 + [1e-13] * 3
        assert series_stop(terms, 2, 8) is None
        assert series_stop(terms, 2, 9) == 8
