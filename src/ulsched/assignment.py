"""The assignment core every scheduling decision reduces to, plus the
oracles that check it.

solve(rewards, penalty) matches min(n, m) (row, column) pairs of an integer
reward matrix and charges every unmatched row its penalty: dham is the case
penalty = 0, darts passes the imminent-drop bytes k, and the surplus rounds
(fewer rows than columns) solve only their real rows, the zero-reward dummy
users that would square them entering through their implied duals. One tie
rule holds: among optimal solutions the lexicographically smallest column
vector wins, an unmatched row ordering last. A row-max certificate runs
first in both regimes: the min(n, m) rows with the largest folded row
maxima take their lowest free row-max columns, and when each finds one that
is the tie-rule answer without any dual (see solve). Otherwise Jonker-Volgenant
shortest augmenting paths (1987) solve it and an alternating-path search
over the optimum's tight cells (_lexi_cascade) enforces the tie rule; with
more rows than columns only the candidate rows are solved, those reaching
some column's m-th best folded reward. Inputs must be integers; anything
else raises AssignmentError instead of being truncated.

pad_with_zero_dummies and replicate_penalty_dummies build the literal square
problems the core is equivalent to, and brute_force_assignment solves them
by enumeration; tests use them as independent oracles.
"""

from functools import cache
from itertools import permutations
from operator import sub

import numpy as np


class AssignmentError(ValueError):
    pass


def _as_matrix(m):
    a = np.asarray(m)
    if a.ndim != 2 or a.size == 0:
        raise AssignmentError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if a.dtype.kind not in "iub" and not np.all(np.isfinite(a.astype(np.float64))):
        raise AssignmentError("matrix entries must be finite")
    return a


def _as_ints(a, what):
    """a as int64; a non-integral or non-finite entry raises, never truncates."""
    if a.dtype.kind not in "iub" and (
            a.dtype.kind != "f" or not np.all(np.isfinite(a)) or np.any(a != np.round(a))):
        raise AssignmentError(f"{what} must be integers")
    return a.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def _jv_min(cost_rows, n_rows, n_cols):
    """Shortest-augmenting-path assignment for a nonnegative cost matrix
    given as a list of row lists, n_rows <= n_cols (minimization). Every row
    gets a column; surplus columns stay unmatched with dual 0, and since v
    only ever falls, v <= 0 everywhere. Returns (row_to_col, u, v); duals
    stay integral for integral costs, so reduced costs can be tested exactly
    afterwards.

    Each row's Dijkstra starts at a virtual column (way -1) and scans the
    still-free columns in index order, keeping absolute path lengths (a
    column reached through row i0 costs reach[j0] + c[i0][j] - u[i0] - v[j])
    and the first minimum (strict <; `best` starts one above the first free
    column's reach, not at inf). The first scan runs in C: reach = c[i] - v,
    and a free first minimum ends the phase. A phase ending at length d
    moves the used columns and their rows by d - reach[j], and u[i] to d.
    """
    u = [0] * n_rows
    v = [0] * n_cols
    p = [-1] * n_cols    # p[j]: row matched to column j, -1 while free
    for i in range(n_rows):
        reach = list(map(sub, cost_rows[i], v))
        best = min(reach)
        j0 = reach.index(best)
        if p[j0] >= 0:
            way = [-1] * n_cols
            free = [*range(n_cols)]
            used = []
            while p[j0] >= 0:
                used.append(j0)
                free.remove(j0)
                i0 = p[j0]
                base = reach[j0] - u[i0]
                row = cost_rows[i0]
                best = reach[free[0]] + 1
                for j in free:
                    cur = base + row[j] - v[j]
                    r = reach[j]
                    if cur < r:
                        reach[j] = cur
                        way[j] = j0
                        if cur < best:
                            best = cur
                            j1 = j
                    elif r < best:
                        best = r
                        j1 = j
                j0 = j1
            for j in used:
                t = best - reach[j]
                u[p[j]] += t
                v[j] -= t
            while (j1 := way[j0]) >= 0:
                p[j0] = p[j1]
                j0 = j1
        u[i] = best
        p[j0] = i
    col_of = dict(zip(p, range(n_cols)))   # free columns all land on key -1
    return [col_of[i] for i in range(n_rows)], u, v


def _lexi_cascade(tight, may_exit, row_of_col, rows):
    """Canonicalize an optimal matching to the tie rule.

    tight[c][i] marks the zero-reduced-cost cells of an optimal dual and
    may_exit[i] the rows whose dual lets them stay unmatched; by
    complementary slackness the optimal solutions are exactly the
    column-perfect matchings over tight cells that keep every other row
    matched, so reshaping one only resolves ties. row_of_col is such a
    matching (every column held). The unmatched rows share one exit slot,
    -1, which orders after every column. Rows 0..rows-1 in turn try each
    unlocked tight column below their slot, in index order, and take the
    first one whose holder an alternating path re-homes (home); the row's
    slot is then locked, and later rows are left as they fall. Returns
    col_of_row with -1 for unmatched rows.

    A row builds `seen` once, not once per try, so each column is searched
    at most once per row (O(E) per row, not O(m E)). This finds the same
    paths as resetting `seen` before every try, for four reasons:
    - a failed try applies no moves, so the matching, `cur` and `locked`
      stay as they were for the row's later tries;
    - when home(h, cur) fails, every tight column of h is seen, h is not
      tight on cur, and the exit slot, if h may take it, failed too; so
      from any column seen in a failed try every alternating path stays
      inside seen or locked columns and never succeeds;
    - the exit slot's refill test reads only i, `old` (= cur) and the
      unchanged matching, never the path that reached it, so an exit that
      failed once fails on every later try of the row; this is the step a
      refill that searches paths (home(x, old), ROADMAP item 2) must
      re-check;
    - a per-try search would enter such dead columns and fail there,
      marking only columns that are already dead, so skipping them leaves
      the order and the first successful path unchanged.
    """
    m, n = len(tight), len(may_exit)
    col_of_row = [-1] * n
    for c, i in enumerate(row_of_col):
        col_of_row[i] = c
    locked = [False] * (m + 1)   # index -1 is the exit slot, never locked

    def home(h, old):
        """Re-seat displaced row h so that slot `old` is held again; record the moves."""
        if old >= 0 and tight[old][h]:
            moves.append((h, old))
            return True
        for c in range(m):
            if not seen[c] and tight[c][h]:
                seen[c] = True
                if home(row_of_col[c], old):
                    moves.append((h, c))
                    return True
        if may_exit[h] and not seen[-1]:
            seen[-1] = True
            if old < 0:
                moves.append((h, -1))
                return True
            # ROADMAP item 2: the refill takes only a row tight on `old` and
            # follows no chain; the fix replaces tight[old][x] with home(x, old).
            for x in range(i + 1, n):
                if col_of_row[x] < 0 and tight[old][x]:
                    moves.extend(((x, old), (h, -1)))
                    return True
        return False

    for i in range(rows):
        cur = col_of_row[i]
        seen = locked.copy()
        if cur >= 0:
            seen[cur] = True
        for c in range(cur if cur >= 0 else m):
            if seen[c] or not tight[c][i]:
                continue
            seen[c] = True
            moves = [(i, c)]
            if home(row_of_col[c], cur):
                for r, s in moves:
                    col_of_row[r] = s
                    if s >= 0:
                        row_of_col[s] = r
                cur = c
                break
        if cur >= 0:
            locked[cur] = True
    return col_of_row


def _row_max_greedy(rows, tops):
    """Rows (lists) in order take their lowest free column holding tops[i], their
    maximum, in one scan of the free columns: row i reads at most m - i cells, a
    flat row one. Returns (col_of_row, sum(tops)), or None at a row finding none."""
    free, cols = [*range(len(rows[0]))], []
    for row, top in zip(rows, tops):
        for j in free:
            if row[j] == top:
                free.remove(j)
                cols.append(j)
                break
        else:
            return None
    return cols, sum(tops)


def solve(rewards, penalty=None):
    """Maximize the matched rewards minus penalty[i] for every unmatched row,
    matching exactly min(n, m) (row, column) pairs of the integer n x m
    matrix. Returns (col_of_row, objective), -1 marking an unmatched row.

    Tie rule: among optimal solutions, the lexicographically smallest column
    vector, an unmatched row ordering after every column - exactly what
    replicate_penalty_dummies (n > m) or zero dummy rows (n < m) followed by
    a square solve give. With n > m the penalty folds into the rewards: the
    square problem with n - m dummy columns of -k_i equals f = rewards + k
    with every column matched, minus sum(k); with n <= m, f = rewards.

    Let t_i be row i's maximum of f and S the min(n, m) rows with the
    largest t_i, the earlier row first on ties. First the rows of S take,
    in row order, their lowest free column holding t_i (_row_max_greedy),
    each scanning the free columns once (one read for a flat row). If each
    finds one, that matching is exact, for four reasons:
    - a solution matches min(n, m) rows, each adding at most its t_i, so
      the sum over S bounds every objective, and the greedy meets it;
    - every optimum then matches each row above tau, the smallest t_i in
      S, and as many rows at tau as S holds, each on a row-max column;
    - at the first row where an optimum differs from the greedy, one that
      seats the row on a smaller column needs a free row-max column there,
      which the greedy would have taken; one that leaves it unmatched is
      lexicographically larger; one that matches a row the greedy left out
      matches a row below tau, or one row at tau too many;
    - with n < m the zero-reward dummy rows order after the real rows.
    The argument uses no dual, so the answer does not rest on _lexi_cascade
    and keeps the tie rule where that search breaks it (ROADMAP item 2).

    Otherwise, with n <= m, _jv_min solves the n real rows; the m - n
    zero-reward dummy rows get dual 0 and sit on the columns the real rows
    leave free. With n > m the transposed m x n problem is solved on the
    candidate rows only: those whose folded reward reaches the m-th best of
    at least one column, ties included (at least m rows, kept in their
    order); every other row is unmatched. This changes no result, for three
    reasons:
    - a row below the m-th best of column c holds c in no optimum: of the m
      rows strictly better on c at least one is free, and a swap would gain;
    - _jv_min's matching after each column is optimal for the columns so
      far, so it never reaches a dropped row (each stays free with v = 0,
      never the first minimum of a scan), and u, v and the matching are
      the same with or without those rows;
    - _lexi_cascade moves rows only along tight cells, letting only rows
      with v = 0 exit, so every matching it reaches is an optimum: it never
      seats a dropped row, by a chain or by a refill.
    A canonicalizer whose output depends only on the set of optima keeps
    the reduction exact as well.
    """
    r = np.asarray(rewards)
    if r.ndim != 2:
        raise AssignmentError(f"expected a 2-D matrix, got shape {r.shape}")
    r = _as_ints(r, "rewards")
    n, m = r.shape
    k = np.zeros(n, np.int64) if penalty is None else _as_ints(np.asarray(penalty), "penalties")
    if k.shape != (n,):
        raise AssignmentError(f"penalty vector must have length {n}, got shape {k.shape}")
    if n == 0 or m == 0:
        return [-1] * n, -int(k.sum())
    if n > m:
        folded = r + k[:, None]
        t = folded.max(axis=1)
        # S: the m rows with the largest maxima, the earlier row first on ties
        best = (-t).argsort(kind="stable")[:m]
        best.sort()
        certified = _row_max_greedy(folded.take(best, 0).tolist(), t[best].tolist())
        if certified is not None:
            cols = [-1] * n
            for i, c in zip(best.tolist(), certified[0]):
                cols[i] = c
            return cols, certified[1] - sum(k.tolist())
        # only rows reaching some column's m-th best can be in an optimum
        ranks = np.sort(folded, axis=0)
        top = ranks[n - 1]
        keep = (folded >= ranks[n - m]).any(1).nonzero()[0]
        folded = folded[keep] if len(keep) < n else folded
        cost = (top - folded).T  # (m, n'): columns take rows
        row_of_col, u, v = _jv_min(cost.tolist(), m, len(keep))
        tight = (cost - np.array(v) == np.array(u)[:, None]).tolist()
        kept = _lexi_cascade(tight, [x == 0 for x in v], row_of_col, len(keep))
        cols = [-1] * n
        for i, c in zip(keep.tolist(), kept):
            cols[i] = c
        # every column is held, at cost sum(u) + sum(v) (v = 0 on free rows)
        return cols, sum(top.tolist()) - sum(u) - sum(v) - sum(k.tolist())
    rows, t = r.tolist(), r.max(axis=1)
    if (certified := _row_max_greedy(rows, t.tolist())) is not None:
        return certified
    cost = t[:, None] - r
    col_of, u, v = _jv_min(cost.tolist(), n, m)
    # dummy rows (cost 0, dual 0) are tight exactly where v = 0, a set
    # that holds every column the real rows left free
    dummies, held = iter(range(n, m)), dict(zip(col_of, range(n)))
    row_of_col = [held[c] if c in held else next(dummies) for c in range(m)]
    v = np.array(v)
    tight = np.empty((m, m), bool)
    tight[:, :n] = (cost - np.array(u)[:, None] - v == 0).T
    tight[:, n:] = (v == 0)[:, None]
    cols = _lexi_cascade(tight.tolist(), [False] * m, row_of_col, n)[:n]
    return cols, sum(row[c] for row, c in zip(rows, cols))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@cache
def _perms(n: int) -> np.ndarray:
    """Every permutation of range(n) in lexicographic order, one per row."""
    return np.array(list(permutations(range(n))), dtype=np.intp)


def brute_force_assignment(m, limit: int = 8):
    """Exact optimum of a square matrix by full permutation enumeration
    (test oracle, n <= 8), as solve's (col_of_row, objective).

    Permutations are generated in lexicographic order and argmax keeps the
    first maximum, which is solve's tie rule by construction.
    """
    a = _as_matrix(m)
    n, cols = a.shape
    if n != cols:
        raise AssignmentError(f"matrix must be square, got {n}x{cols}")
    if n > limit:
        raise AssignmentError(f"brute force limited to n <= {limit}, got {n}")
    perms = _perms(n)
    objs = a[np.arange(n), perms].sum(axis=1)
    best = int(np.argmax(objs))
    return perms[best].tolist(), objs[best].item()


# ---------------------------------------------------------------------------
# squaring transforms
# ---------------------------------------------------------------------------

def pad_with_zero_dummies(m):
    """Square an n_ue x n_rc reward matrix (n_ue >= n_rc) by appending
    all-zero dummy columns. Rows assigned to a dummy get no resource."""
    a = _as_matrix(m)
    n_ue, n_rc = a.shape
    if n_ue < n_rc:
        raise AssignmentError(
            "more columns than rows: pad dummy rows instead (surplus-resource regime)")
    if n_ue == n_rc:
        return a.copy()
    out = np.zeros((n_ue, n_ue), dtype=a.dtype)
    out[:, :n_rc] = a
    return out


def replicate_penalty_dummies(gamma, k):
    """Square an n_ue x n_rc matrix (n_ue > n_rc) with replicated penalty
    columns: every dummy column equals (-k_1, ..., -k_n). Assigning row i to
    any dummy then contributes -k_i, so the square optimum equals the
    rectangular problem where each unassigned row pays k_i.
    """
    g = _as_matrix(gamma)
    n_ue, n_rc = g.shape
    kv = np.asarray(k)
    if kv.shape != (n_ue,):
        raise AssignmentError(f"penalty vector must have length {n_ue}, got shape {kv.shape}")
    if np.any(kv < 0):
        raise AssignmentError("penalties must be nonnegative")
    if n_ue <= n_rc:
        raise AssignmentError("replication requires more rows than real columns")
    out = np.empty((n_ue, n_ue), dtype=np.result_type(g.dtype, kv.dtype))
    out[:, :n_rc] = g
    out[:, n_rc:] = -kv[:, None]
    return out
