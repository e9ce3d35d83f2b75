"""Assignment solver tests: worked examples, oracle cross-checks, transforms."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ulsched.assignment import (
    AssignmentError,
    brute_force_assignment,
    pad_with_zero_dummies,
    replicate_penalty_dummies,
    solve,
    solve_max_assignment,
)


def test_single_cell_identity():
    a = solve_max_assignment([[5]])
    assert a.mapping == (0,)
    assert a.objective == 5


def test_two_users_one_chunk_plus_zero_dummy():
    # one real column, one zero dummy: the 400-byte row wins the real chunk
    a = solve_max_assignment([[400, 0], [300, 0]])
    assert a.mapping == (0, 1)
    assert a.objective == 400


def test_brute_force_tie_break_lowest_row_then_col():
    # both permutations score 5; lexicographic rule keeps row0->col0
    a = brute_force_assignment([[1, 2], [3, 4]])
    assert a.mapping == (0, 1)
    assert a.objective == 5


def test_brute_force_all_zero_matrix():
    a = brute_force_assignment([[0, 0], [0, 0]])
    assert a.mapping == (0, 1)
    assert a.objective == 0


def test_solver_matches_brute_force_tie_break():
    assert solve_max_assignment([[1, 2], [3, 4]]).mapping == (0, 1)
    assert solve_max_assignment([[0, 0], [0, 0]]).mapping == (0, 1)
    assert solve_max_assignment([[0] * 4] * 4).mapping == (0, 1, 2, 3)


def test_row_of_minima_still_assigned():
    m = np.array([[5, 6, 7], [-10**6, -10**6, -10**6], [1, 2, 3]])
    a = brute_force_assignment(m)
    assert sorted(a.mapping) == [0, 1, 2]  # perfect matching required
    b = solve_max_assignment(m)
    assert sorted(b.mapping) == [0, 1, 2]
    assert b.objective == a.objective


def test_dimension_and_limit_errors():
    with pytest.raises(AssignmentError):
        solve_max_assignment([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(AssignmentError):
        brute_force_assignment(np.zeros((9, 9), dtype=int))
    with pytest.raises(AssignmentError):
        solve_max_assignment([[np.inf, 1], [1, 2]])


def test_random_objectives_match_brute_force():
    rng = np.random.default_rng(1234)
    for _ in range(400):
        n = rng.integers(2, 8)
        m = rng.integers(-999, 1000, size=(n, n))
        s = solve_max_assignment(m)
        b = brute_force_assignment(m)
        assert s.objective == b.objective
        assert s.objective == sum(m[i, c] for i, c in enumerate(s.mapping))


def test_random_mappings_match_brute_force():
    # stronger than the objective check: the tie canonicalization must agree
    # with lexicographic enumeration, including on matrices dense with ties
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = rng.integers(2, 7)
        m = rng.integers(0, 4, size=(n, n))  # few levels -> many ties
        assert solve_max_assignment(m).mapping == brute_force_assignment(m).mapping


def test_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 7)
        m = rng.integers(-500, 500, size=(n, n))
        c = int(rng.integers(-300, 300))
        base = solve_max_assignment(m)
        shifted = solve_max_assignment(m + c)
        assert shifted.mapping == base.mapping
        assert shifted.objective == base.objective + n * c


def test_determinism():
    rng = np.random.default_rng(5)
    m = rng.integers(0, 3, size=(6, 6))
    first = solve_max_assignment(m)
    for _ in range(5):
        again = solve_max_assignment(m)
        assert again == first


def test_pad_with_zero_dummies_column_construction():
    out = pad_with_zero_dummies(np.array([[400], [300], [252]]))
    assert out.shape == (3, 3)
    assert np.array_equal(out[:, 0], [400, 300, 252])
    assert np.all(out[:, 1:] == 0)

    out2 = pad_with_zero_dummies([[7], [9]])
    assert np.array_equal(out2, [[7, 0], [9, 0]])


def test_pad_square_is_noop_and_wide_rejected():
    sq = np.arange(9).reshape(3, 3)
    assert np.array_equal(pad_with_zero_dummies(sq), sq)
    with pytest.raises(AssignmentError):
        pad_with_zero_dummies(np.zeros((2, 3)))


def test_replicate_penalty_dummies_columns():
    gamma = np.array([[400], [300], [252]])
    k = np.array([50, 100, 255])
    out = replicate_penalty_dummies(gamma, k)
    assert out.shape == (3, 3)
    assert np.array_equal(out[:, 0], [400, 300, 252])
    for j in (1, 2):
        assert np.array_equal(out[:, j], [-50, -100, -255])
    # the three-user single-chunk case: scheduling row 2 wins (252-50-100)
    a = solve_max_assignment(out)
    assert a.mapping[2] == 0
    assert a.objective == 102


def test_replicate_zero_penalties_degenerates_to_zero_padding():
    rng = np.random.default_rng(11)
    gamma = rng.integers(0, 756, size=(5, 2))
    zk = np.zeros(5, dtype=int)
    padded = pad_with_zero_dummies(gamma)
    replicated = replicate_penalty_dummies(gamma, zk)
    assert np.array_equal(padded, replicated)
    assert solve_max_assignment(padded).objective == solve_max_assignment(replicated).objective


def test_replicate_errors():
    with pytest.raises(AssignmentError):
        replicate_penalty_dummies(np.zeros((3, 1)), [1, 2])  # wrong k length
    with pytest.raises(AssignmentError):
        replicate_penalty_dummies(np.zeros((2, 2)), [0, 0])  # nothing to replicate
    with pytest.raises(AssignmentError):
        replicate_penalty_dummies(np.zeros((3, 1)), [1, -2, 0])


def _enumerate_rectangular_optimum(gamma, k):
    """Direct enumeration of the rectangular problem: every real column gets a
    distinct row, every unassigned row pays k. Independent of the solver."""
    from itertools import permutations

    n, m = gamma.shape
    best = None
    for chosen in permutations(range(n), m):
        val = sum(gamma[r, j] for j, r in enumerate(chosen))
        val -= sum(k[r] for r in range(n) if r not in chosen)
        if best is None or val > best:
            best = val
    return best


def test_replication_pipeline_equals_rectangular_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(3, n - 1) + 1))
        if m >= n:
            continue
        gamma = rng.integers(-200, 757, size=(n, m))
        k = rng.integers(0, 757, size=n)
        sq = replicate_penalty_dummies(gamma, k)
        got = solve_max_assignment(sq).objective
        assert got == _enumerate_rectangular_optimum(gamma, k)


def test_solve_rejects_non_integral_input():
    # the core never truncates: 3.0000001 must not silently become 3
    with pytest.raises(AssignmentError):
        solve([[1, 3.0000001], [2, 2]])
    with pytest.raises(AssignmentError):
        solve([[1, 2], [3, 4], [5, 6]], penalty=[0, 0.5, 0])
    with pytest.raises(AssignmentError):
        solve([[1, np.nan]])
    with pytest.raises(AssignmentError):
        solve([[1], [2]], penalty=[0, np.inf])
    with pytest.raises(AssignmentError):
        solve_max_assignment([[0.5, 1], [1, 2]])


def test_solve_with_no_columns_leaves_every_row_unmatched():
    # a channel configured with zero chunks gives n x 0 reward matrices
    assert solve(np.zeros((2, 0), dtype=int), [1, 2]) == ([-1, -1], -3)
    assert solve(np.zeros((0, 3), dtype=int)) == ([], 0)


def _lexi_oracle(rewards, penalty):
    """The tie rule rebuilt from scipy's linear_sum_assignment, which has no
    tie rule of its own: on the literal square problem, fix rows in order,
    each to its smallest real column that keeps the optimum, else to a
    dummy (unmatched, -1)."""
    n, m = rewards.shape
    work = replicate_penalty_dummies(rewards, penalty) if n > m else rewards.copy()
    work = work.astype(np.int64)
    big = int(np.abs(work).max()) * (2 * len(work) + 2) + 1

    def best(a):
        r, c = linear_sum_assignment(a, maximize=True)
        return int(a[r, c].sum())

    target = best(work)
    cols = []
    for i in range(n):
        for c in range(m):
            trial = work.copy()
            keep = trial[i, c]
            trial[i] = -big
            trial[i, c] = keep
            if best(trial) == target:
                work = trial
                break
        else:
            c = -1
        cols.append(c)
    return cols, target


def test_tie_rule_holds_above_64_rows():
    rng = np.random.default_rng(6464)
    for trial in range(5):
        r = rng.integers(0, 3, size=(70, 70))  # three levels: ties everywhere
        cols, obj = solve(r)
        assert (cols, obj) == _lexi_oracle(r, np.zeros(70, dtype=np.int64)), trial
        assert solve_max_assignment(r).mapping == tuple(cols)
    r = rng.integers(0, 3, size=(100, 70))
    k = rng.integers(0, 3, size=100)
    cols, obj = solve(r, k)
    assert (cols, obj) == _lexi_oracle(r, k)
    assert cols.count(-1) == 30
