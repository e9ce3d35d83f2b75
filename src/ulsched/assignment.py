"""The assignment core every scheduling decision reduces to, plus the
oracles that check it.

solve(rewards, penalty) matches min(n, m) (row, column) pairs of an integer
reward matrix and charges every unmatched row its penalty: dham is the case
penalty = 0, darts passes the imminent-drop bytes k, and the surplus rounds
(fewer rows than columns) solve only their real rows, the zero-reward dummy
users that would square them entering through their implied duals. It is
built on Jonker-Volgenant shortest augmenting paths (1987) and one tie
rule: among optimal solutions the lexicographically smallest column vector
wins, an unmatched row ordering last. With more rows than columns only the
candidate rows are solved, those reaching some column's m-th best folded
reward; no optimum matches any other row. Inputs must be integers; anything
else raises AssignmentError instead of being truncated.

pad_with_zero_dummies and replicate_penalty_dummies build the literal square
problems the core is equivalent to, and brute_force_assignment solves them
by enumeration; tests use them as independent oracles.
"""

from itertools import permutations

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
    return a.astype(np.int64)


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

    Each row's Dijkstra scans only the still-free columns, in index order,
    and keeps absolute path lengths: a column reached through row i0 at
    reach[j0] costs reach[j0] + c[i0][j] - u[i0] - v[j]. The duals of the
    used columns and their rows move once, by d - reach[j], when the phase
    ends at a free column of length d.
    """
    INF = float("inf")
    u = [0] * (n_rows + 1)
    v = [0] * (n_cols + 1)
    p = [0] * (n_cols + 1)    # p[j]: 1-based row matched to column j; column 0 is virtual
    way = [0] * (n_cols + 1)
    for i in range(1, n_rows + 1):
        p[0] = i
        j0 = 0
        reach = [INF] * (n_cols + 1)
        reach[0] = 0
        free = list(range(1, n_cols + 1))
        used = [0]
        while True:
            i0 = p[j0]
            base = reach[j0] - u[i0]
            row = cost_rows[i0 - 1]
            best = INF
            for j in free:
                cur = base + row[j - 1] - v[j]
                if cur < reach[j]:
                    reach[j] = cur
                    way[j] = j0
                else:
                    cur = reach[j]
                if cur < best:
                    best = cur
                    j1 = j
            j0 = j1
            if p[j0] == 0:
                break
            used.append(j0)
            free.remove(j0)
        for j in used:
            t = best - reach[j]
            u[p[j]] += t
            v[j] -= t
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [-1] * n_rows
    for j in range(1, n_cols + 1):
        if p[j]:
            row_to_col[p[j] - 1] = j - 1
    return row_to_col, u[1:], v[1:]


def _lexi_cascade(tight, may_exit, row_of_col, rows):
    """Canonicalize an optimal matching to the tie rule.

    tight[c][i] marks the zero-reduced-cost cells of an optimal dual and
    may_exit[i] the rows whose dual lets them stay unmatched; by
    complementary slackness the optimal solutions are exactly the
    column-perfect matchings over tight cells that keep every other row
    matched, so reshaping one only resolves ties. row_of_col is such a
    matching (every column held). Rows 0..rows-1 in turn take the
    lowest-indexed column some optimum still allows, else none; later rows
    are left as they fall. Returns col_of_row with -1 for unmatched rows.
    """
    m, n = len(tight), len(may_exit)
    col_of_row = [-1] * n
    for c, i in enumerate(row_of_col):
        col_of_row[i] = c
    locked_rows = [False] * n
    locked_cols = 0
    all_cols = (1 << m) - 1

    def entry_row(col):
        # lowest unlocked, unmatched row that can legally take `col`
        trow = tight[col]
        for e in range(n):
            if not locked_rows[e] and col_of_row[e] == -1 and trow[e]:
                return e
        return -1

    def place(d, visited, vacated, vac_filled):
        """Row d lost its column; re-home it along tight cells. One row may
        leave the matching (may_exit), pairing with an entry that refills
        the vacated column. Mutates the matching only on success."""
        if vacated is not None and not vac_filled[0] and tight[vacated][d]:
            row_of_col[vacated] = d
            col_of_row[d] = vacated
            vac_filled[0] = True
            return True
        for c2 in range(m):
            bit = 1 << c2
            if visited[0] & bit or not tight[c2][d]:
                continue
            visited[0] |= bit
            holder = row_of_col[c2]
            if place(holder, visited, vacated, vac_filled):
                row_of_col[c2] = d
                col_of_row[d] = c2
                return True
        if may_exit[d]:
            if vacated is None or vac_filled[0]:
                col_of_row[d] = -1
                return True
            e = entry_row(vacated)
            if e >= 0:
                row_of_col[vacated] = e
                col_of_row[e] = vacated
                vac_filled[0] = True
                col_of_row[d] = -1
                return True
        return False

    for i in range(rows):
        if locked_cols == all_cols:
            break
        cur = col_of_row[i]
        stop = cur if cur >= 0 else m
        for c in range(stop):
            if (locked_cols >> c) & 1 or not tight[c][i]:
                continue
            displaced = row_of_col[c]
            if cur >= 0:
                row_of_col[cur] = -1
            row_of_col[c] = i
            col_of_row[i] = c
            visited = [locked_cols | (1 << c)]
            vac_filled = [cur < 0]
            if place(displaced, visited, cur if cur >= 0 else None, vac_filled):
                cur = c
                break
            # revert the tentative move
            row_of_col[c] = displaced
            col_of_row[displaced] = c
            col_of_row[i] = cur
            if cur >= 0:
                row_of_col[cur] = i
        locked_rows[i] = True
        if cur >= 0:
            locked_cols |= 1 << cur
    return col_of_row


def solve(rewards, penalty=None):
    """Maximize the matched rewards minus penalty[i] for every unmatched row,
    matching exactly min(n, m) (row, column) pairs of the integer n x m
    matrix. Returns (col_of_row, objective), -1 marking an unmatched row.

    Tie rule: among optimal solutions, the lexicographically smallest column
    vector, an unmatched row ordering after every column - exactly what
    replicate_penalty_dummies (n > m) or zero dummy rows (n < m) followed by
    a square solve give. With more rows than columns the penalty folds into
    the rewards: a square problem whose n - m dummy columns all hold -k_i
    equals rewards + k with every column matched, so the transposed m x n
    problem is solved directly. Otherwise only the n real rows are solved;
    the m - n zero-reward dummy rows of the square problem get dual 0 and
    sit on the columns the real rows leave free.

    The first case solves only the candidate rows: those whose folded reward
    reaches the m-th best of at least one column, ties included (at least m
    rows, kept in their order); every other row is unmatched. This changes
    no result, for three reasons:
    - a row below the m-th best of column c holds c in no optimum: of the m
      rows strictly better on c at least one is free, and a swap would gain;
    - _jv_min's matching after each column is optimal for the columns so
      far, so it never reaches a dropped row (each stays free with v = 0,
      never the first minimum of a scan), and u, v and the matching are
      the same with or without those rows;
    - every state _lexi_cascade accepts is an optimum, so it never places a
      dropped row, and no dropped row is what entry_row returns.
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
        # only rows reaching some column's m-th best can be matched in an optimum
        mth = np.partition(folded, n - m, axis=0)[n - m]
        keep = np.flatnonzero((folded >= mth).any(axis=1))
        folded = folded[keep]
        cost = (folded.max(axis=0, keepdims=True) - folded).T  # (m, n'): columns take rows
        row_of_col, u, v = _jv_min(cost.tolist(), m, len(keep))
        tight = (cost - np.array(u)[:, None] - np.array(v) == 0).tolist()
        kept = _lexi_cascade(tight, [x == 0 for x in v], row_of_col, len(keep))
        cols = [-1] * n
        for i, c in zip(keep.tolist(), kept):
            cols[i] = c
    else:
        cost = r.max(axis=1, keepdims=True) - r
        col_of, u, v = _jv_min(cost.tolist(), n, m)
        # dummy rows (cost 0, dual 0) are tight exactly where v = 0, a set
        # that holds every column the real rows left free
        row_of_col = [-1] * m
        for i, c in enumerate(col_of):
            row_of_col[c] = i
        dummies = iter(range(n, m))
        row_of_col = [i if i >= 0 else next(dummies) for i in row_of_col]
        v = np.array(v)
        tight = np.empty((m, m), bool)
        tight[:, :n] = (cost - np.array(u)[:, None] - v == 0).T
        tight[:, n:] = (v == 0)[:, None]
        cols = _lexi_cascade(tight.tolist(), [False] * m, row_of_col, n)[:n]
    idx = np.array(cols)
    hit = idx >= 0
    objective = int(r[hit, idx[hit]].sum() - k[~hit].sum())
    return cols, objective


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_PERM_CACHE: dict = {}


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
    perms = _PERM_CACHE.get(n)
    if perms is None:
        perms = np.array(list(permutations(range(n))), dtype=np.intp)
        _PERM_CACHE[n] = perms
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
