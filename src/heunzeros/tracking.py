"""Tracking zeros across polynomial degrees and estimating d2(B).

Two jobs live here.  First, bookkeeping: solve several c_m for their
zeros, match zero sets between consecutive degrees by optimal
assignment, count how many digits each matched pair shares, and report
how many zeros have stabilized.  Second, the connection-coefficient
limit: the scaled coefficient sequence

    a_k = [k! / ((delta-1) delta ... (delta+k-2))] * c_k(B)

converges to d2(B), the weight of the singular local solution at z = 1
inside the holomorphic solution at z = 0.  Zeros of d2 are where the
stabilized polynomial zeros accumulate, so the search for them is the
numerical heart of the package.

The raw tail a_K approaches d2 only at O(1/K); a_k admits an asymptotic
expansion in 1/k (at s = 0 it is d2*(1 + (gamma(delta-1)-B)/k + ...)),
so the reported estimate is a Neville extrapolation of trailing a_k
against 1/k, which buys many orders of magnitude at the same K.  The
raw tail and the plain |a_K - a_{K-1}| indicator stay available.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import isqrt, lcm
from operator import rshift

import mpmath as mp

from .families import FamilyKind, InvalidSpecError, RecurrenceSpec
from .perturbation import (
    _highest_order,
    perturbative_seeds,
    recurrence_row,
    zero_expansion,
)
from . import rootfind
from .rootfind import (
    _KERNEL_GUARD,
    _head,
    Continuant,
    NonConvergenceError,
    ZeroSet,
    find_all_roots,
    tridiagonal_eigenvalues,
)
from .scalars import (
    _fixed_div,
    _from_fixed,
    _to_fixed,
    exact_value,
    to_mpc,
    working_precision,
)


# -- solving one degree with labelled zeros -----------------------------------

def solve_zeros(spec: RecurrenceSpec, m: int,
                precision_bits: int = 256) -> ZeroSet:
    """Zeros of c_m(B), labelled by grid index where estimates exist.

    The seeds are the eigenvalues of the Jacobi matrix of the recurrence,
    taken from a ladder of QL precisions that double from 53 bits and stop
    at precision_bits: 53, 106, 212, ..., precision_bits
    (`tridiagonal_eigenvalues`: the double QL on `Continuant.double_matrix`
    at 53, and above it the rational QL on the exact rows in fixed point,
    so no rung builds a big float).  A rung that gives seeds hands them
    to `find_all_roots`, which polishes each by Newton's method on the
    recurrence itself (the `continuant` rows, evaluated in fixed point;
    the dense coefficients of c_m are never built) and keeps the results
    when disks around them, each holding a zero, are disjoint and every
    residual meets the tolerance 2^-(precision_bits/2)
    (`rootfind.default_tol`); the ZeroSet records that rung as `seed_bits`.
    Every rung and the Newton kernel read one set of exact rows.  A rung
    without seeds, whose polished disks overlap, or whose double seeds fail
    their first Newton step, gives way to the next one.  NonConvergenceError
    names the degree and every rung tried, and how each failed, when the top
    rung fails too, or at once when a rung's disks are disjoint but
    residuals miss the tolerance: no seeds can lower those, so
    precision_bits is too low.  When the top rung's disks meet because
    Newton steps ended where p' = 0, the error names those seeds (its
    `stationary`) and says that more precision does not separate zeros
    there, as at a multiple zero.
    Labels come from the `perturbative_seeds` estimates of c_m's zeros
    (second order, first order at the edge indices k = m-2, m-1) when
    the grid is nondegenerate and |s| <= 2 (they degrade as |s| grows);
    otherwise every label is None.
    """
    if m < 1:
        raise InvalidSpecError("need m >= 1 for a nontrivial polynomial")
    rows = continuant(spec, m)
    rungs = [53]
    while rungs[-1] < precision_bits:
        rungs.append(min(2 * rungs[-1], precision_bits))
    tried = []
    for bits in rungs:
        stationary = ()
        seeds = tridiagonal_eigenvalues(rows, bits)
        if seeds is None:
            tried.append(f"{bits} bits: the QL failed")
            continue
        try:
            zs = replace(find_all_roots(rows, seeds, precision_bits),
                         seed_bits=bits)
        except NonConvergenceError as exc:
            tried.append(f"{bits} bits: {exc}")
            stationary = exc.stationary
            if not exc.overlapping:
                # disjoint disks: higher-rung seeds polish to the same points
                break
            continue
        if not spec.is_d_degenerate and spec.s.abs2() <= 4:
            zs = zs.with_labels(_labels_by_proximity(
                zs, perturbative_seeds(spec, m - 1)))
        return zs
    if stationary:
        advice = (
            f"At {bits} bits the Newton steps of {len(stationary)} seeds "
            f"(indices {_head(list(stationary))}) ended where p' = 0, as "
            "at a multiple zero; more precision does not separate zeros "
            "where p' vanishes")
    else:
        advice = f"precision_bits = {precision_bits} is too low; raise it"
    raise NonConvergenceError(
        f"no rung of the seed ladder gave the zeros of the degree-{m} "
        f"polynomial: {'; '.join(tried)}. {advice}", stationary=stationary)


def continuant(spec: RecurrenceSpec, m: int) -> Continuant:
    """The rows of p_m = m! (gamma)_m c_m, the monic polynomial with the
    zeros of c_m: p_{k+1} = (B + A_k) p_k - N_k p_{k-1} with
    A_k = D_k + s E_k and N_k = s G_k, G_k = k (k-1+gamma) F_k, for
    k = 0..m-1 (docs/math_notes.md, section 8), exact."""
    rows = [recurrence_row(spec, k) for k in range(m)]
    return Continuant(A=tuple(D + spec.s * E for D, E, _ in rows),
                      N=tuple(spec.s * G for _, _, G in rows))


def _labels_by_proximity(zs, estimates) -> list:
    """Scan the points of the ZeroSet zs in display order; each takes
    its nearest unused estimate's index, the lowest among equally near
    ones, comparing exact squared distances to the estimates floored to
    the same F (`scalars._to_fixed`).  Deterministic, injective."""
    estimates = [_to_fixed(e, zs.F) for e in estimates]
    free = list(range(len(estimates)))
    labels = []
    for x, y in zs.points:
        best = min(free, default=None,
                   key=lambda k: (x - estimates[k][0]) ** 2
                   + (y - estimates[k][1]) ** 2)
        labels.append(best)
        if best is not None:
            free.remove(best)
    return labels


def _points(zs) -> tuple:
    """(points, L): the zeros of the ZeroSet zs, or the scalars zs, each
    an exact Gaussian-integer pair (x, y) over one denominator L,
    standing for (x + iy) / L: a ZeroSet's `points`, L = 2^F; scalars
    as their exact values (`exact_value`: a binary float is its dyadic
    value), L the lcm of their denominators."""
    if isinstance(zs, ZeroSet):
        return zs.points, 1 << zs.F
    qs = [exact_value(z) for z in zs]
    L = lcm(*(q.d for q in qs))
    return [(q.a * (L // q.d), q.b * (L // q.d)) for q in qs], L


# -- matching zero sets --------------------------------------------------------

@dataclass(frozen=True)
class MatchResult:
    """Injective pairing between two zero sets.

    pairs: (index_a, index_b, distance), sorted by index_a.
    new_in_b: indices of b-zeros with no partner (b is the larger set).
    """

    pairs: tuple
    new_in_b: tuple


def match_zeros(za, zb) -> MatchResult:
    """Optimal assignment of za into zb (ZeroSets, or sequences of
    scalars): the injective pairing that minimizes the summed distance,
    each distance the exact one, correctly rounded to a double.

    Both sets are read exactly over one denominator (`_points`), so the
    costs, and the pairing, do not depend on the working precision.
    The assignment is Crouse's shortest augmenting path method, run
    step for step as SciPy's `linear_sum_assignment` runs it, so among
    tied optimal assignments this one picks the same pairing as
    SciPy does (`_assignment`).  The distance of each pair is given as
    an mpf at the working precision.

    If every za zero also appears in zb the pairing is the identity on
    values.
    """
    (pa, La), (pb, Lb) = _points(za), _points(zb)
    if len(pa) > len(pb):
        raise InvalidSpecError("match_zeros expects len(a) <= len(b)")
    L = lcm(La, Lb)
    pa = [(x * (L // La), y * (L // La)) for x, y in pa]
    pb = [(u * (L // Lb), v * (L // Lb)) for u, v in pb]
    cols = _assignment(_costs(pa, pb, L))
    a = za.zeros if isinstance(za, ZeroSet) else [to_mpc(z) for z in za]
    b = zb.zeros if isinstance(zb, ZeroSet) else [to_mpc(z) for z in zb]
    pairs = tuple((i, j, abs(a[i] - b[j])) for i, j in enumerate(cols))
    matched_b = set(cols)
    new_b = tuple(j for j in range(len(b)) if j not in matched_b)
    return MatchResult(pairs=pairs, new_in_b=new_b)


def _costs(a, b, L: int) -> list:
    """The cost matrix of `match_zeros`: |p - q| / L for p in a (rows)
    and q in b, Gaussian-integer pairs over the denominator L, each
    correctly rounded to a double.  r = floor(sqrt(|p - q|^2 4^k / L^2))
    has at least 55 bits, its last bit is set when the root is inexact
    (a sticky bit, which cannot cross a rounding boundary of a 53-bit
    mantissa), and r / 2^k is one correctly rounded int/int division."""
    L2, top = L * L, 110 + 2 * L.bit_length()
    rows = []
    for x, y in a:
        row = []
        for u, v in b:
            dx, dy = x - u, y - v
            n = dx * dx + dy * dy
            k = max(0, (top - n.bit_length()) // 2)
            q, rem = divmod(n << 2 * k, L2)
            r = isqrt(q)
            if rem or r * r != q:
                r |= 1
            row.append(r / (1 << k))
        rows.append(row)
    return rows


def _assignment(cost) -> list:
    """The column of each row in a least-sum assignment of the rows of
    cost (a list of rows of finite floats, no longer than each row) to
    distinct columns.

    A port of SciPy's rectangular_lsap: the shortest augmenting path
    method of Crouse (IEEE Trans. Aerosp. Electron. Syst. 52(4), 2016),
    a variant of Jonker and Volgenant's.  Rows join one at a time; each
    grows a shortest-path tree over the reduced costs
    min_val + cost[i][j] - u[i] - v[j] until it reaches a free column,
    then the duals u, v move and the path flips.  The column scan keeps
    SciPy's order (columns left in reverse, removed by swapping in the
    last) and its tie rule (an equal reduced cost moves the choice to a
    free column), which makes ties resolve as they do in SciPy.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    u, v = [0.0] * nr, [0.0] * nc
    path = [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        shortest = [float("inf")] * nc
        remaining = list(range(nc - 1, -1, -1))
        tree_rows, tree_cols = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            index, lowest = -1, float("inf")
            tree_rows.append(i)
            ci, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if (shortest[j] < lowest
                        or shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            tree_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in tree_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in tree_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


_DIGIT_CAP = 60       # digits reported for identical values


def stabilized_digits(za, zb) -> int:
    """Shared significant digits: the largest d >= 0 with
    |za-zb| < 0.5 * 10^-d * max(|za|, |zb|), at most _DIGIT_CAP, and
    _DIGIT_CAP for equal values; 0 when even d = 0 fails.  Decided
    exactly on the exact values of za and zb (`_points`), whatever the
    working precision."""
    (p, q), _ = _points((za, zb))
    return _shared_digits(p, q)


def _shared_digits(p, q) -> int:
    """`stabilized_digits` of the Gaussian-integer pairs p and q over
    one denominator, which cancels: the largest d with
    4 |p - q|^2 100^d < max(|p|, |q|)^2, by exact integer comparison
    from a lower bound read off the bit lengths."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    lhs = 4 * (dx * dx + dy * dy)
    if not lhs:
        return _DIGIT_CAP
    rhs = max(p[0] * p[0] + p[1] * p[1], q[0] * q[0] + q[1] * q[1])
    # lhs 100^d < 2^(bits(lhs) + d log2(100)) <= rhs for these d, as
    # 3/20 < 1/log2(100)
    d = max(0, (rhs.bit_length() - lhs.bit_length() - 1) * 3 // 20)
    while d < _DIGIT_CAP and lhs * 100 ** (d + 1) < rhs:
        d += 1
    return min(d, _DIGIT_CAP)


# -- convergence report --------------------------------------------------------

@dataclass
class ZeroTrack:
    """One zero followed through increasing polynomial degree."""

    label_k: int | None
    entries: dict                 # m -> zero value
    stabilized: dict = field(default_factory=dict)   # (m1, m2) -> digits

    def value_at(self, m: int):
        return self.entries.get(m)


@dataclass
class ConvergenceReport:
    spec: RecurrenceSpec
    m_list: tuple
    digits: int
    tracks: list
    zero_sets: dict
    precision_bits: int

    def n_stable(self, digits: int | None = None) -> int:
        """The number of stable_tracks(digits)."""
        return len(self.stable_tracks(digits))

    def stable_tracks(self, digits: int | None = None) -> list:
        """Tracks whose values at the last two degrees agree to at
        least `digits` significant digits (default: the report's)."""
        digits = self.digits if digits is None else digits
        m1, m2 = self.m_list[-2], self.m_list[-1]
        return [t for t in self.tracks
                if t.stabilized.get((m1, m2), -1) >= digits]


def convergence_report(spec: RecurrenceSpec, m_list=(30, 40),
                       digits: int = 10,
                       precision_bits: int = 256) -> ConvergenceReport:
    """Solve each degree in m_list, chain-match the zero sets, and
    count stabilized digits along every track, each decided exactly on
    the zeros, whatever the caller's working precision (the matching's
    costs are doubles).  Each track carries the label its top-degree
    zero has in that degree's own ZeroSet."""
    given = tuple(int(m) for m in m_list)
    m_list = tuple(sorted(set(given)))
    if len(m_list) < 2:
        raise InvalidSpecError(
            "m_list needs at least two distinct degrees, got "
            + (", ".join(map(str, given)) or "none"))
    zero_sets = {m: solve_zeros(spec, m, precision_bits=precision_bits)
                 for m in m_list}
    m0 = m_list[0]
    tracks = [ZeroTrack(label_k=None, entries={m0: z})
              for z in zero_sets[m0].zeros]
    chain = list(tracks)   # chain[i]: the track through zero i of degree ma
    for ma, mb in zip(m_list, m_list[1:]):
        za, zb = zero_sets[ma], zero_sets[mb]
        res = match_zeros(za, zb)
        nxt = [None] * len(zb.zeros)
        for ia, ib, _ in res.pairs:
            t = chain[ia]
            t.entries[mb] = zb.zeros[ib]
            t.stabilized[(ma, mb)] = _shared_digits(za.points[ia],
                                                    zb.points[ib])
            nxt[ib] = t
        for ib in res.new_in_b:
            nxt[ib] = ZeroTrack(label_k=None, entries={mb: zb.zeros[ib]})
            tracks.append(nxt[ib])
        chain = nxt
    # match_zeros pairs every zero of the smaller set, so every track
    # reaches the top degree
    for t, lab in zip(chain, zero_sets[m_list[-1]].labels):
        t.label_k = lab

    tracks.sort(key=lambda t: (t.label_k is None,
                               t.label_k if t.label_k is not None else 0))
    return ConvergenceReport(spec=spec, m_list=m_list, digits=digits,
                             tracks=tracks, zero_sets=zero_sets,
                             precision_bits=precision_bits)


def zero_table(spec: RecurrenceSpec, zero_sets: dict, k_max: int) -> list:
    """Rows of the approximation-vs-zero table for {m: ZeroSet}.

    Row k (k <= min(k_max, top - 1), top the highest degree) holds the
    0th/1st/2nd-order estimates of the zero of c_top near -D_k and the
    zero each degree's own labels tie to k.  The estimates truncate one
    expansion at the highest order the edge allows (second order, first
    order at k = top-2, top-1).  A missing estimate or label is None.
    """
    top = max(zero_sets)
    columns = {
        m: {lab: z for z, lab in zip(zs.zeros, zs.labels) if lab is not None}
        for m, zs in sorted(zero_sets.items())
    }
    rows = []
    for k in range(min(k_max, top - 1) + 1):
        orders = [None] * 3
        if not spec.is_d_degenerate:
            exp = zero_expansion(spec, k, top - 1, _highest_order(k, top - 1))
            for order in range(exp.order + 1):
                orders[order] = replace(exp, order=order)(spec.s)
        rows.append({
            "k": k,
            "orders": orders,
            "zeros": {m: col.get(k) for m, col in columns.items()},
        })
    return rows


# -- the d2 limit --------------------------------------------------------------

@dataclass(frozen=True)
class D2Estimate:
    """Estimate of the connection coefficient d2(B) from the scaled
    coefficient tail a_k = c_k(B) k!/(delta-1)_k, which `d2_sequence`
    computes as a continuant over its normaliser, without forming c_k."""

    B: object
    K: int
    estimate: object           # Neville-extrapolated limit
    tail: object               # raw a_K
    error_indicator: object    # |a_K - a_{K-1}|


def _check_d2_spec(spec: RecurrenceSpec, precision_bits: int):
    """Refuse gamma or delta that is an integer at precision_bits."""
    with working_precision(precision_bits):
        for name in ("gamma", "delta"):
            v = to_mpc(getattr(spec, name))
            if v.imag == 0 and v.real == mp.floor(v.real):
                raise InvalidSpecError(
                    f"d2 limit needs non-integer gamma and delta; "
                    f"{name} = {v}"
                )


@lru_cache(maxsize=1)
def _d2_setup(spec: RecurrenceSpec, F: int) -> _D2Setup:
    """The set-up of `d2_sequence` for spec and F, built once
    `_check_d2_spec` passes at F - _KERNEL_GUARD bits.  Only the last
    is kept: a spec that passed is not checked again while it stays, and
    a refused one is checked, and raises, on every call and leaves the
    kept set-up in place.  A new set-up holds no rows yet, so the one it
    replaces is dropped before its table grows."""
    _check_d2_spec(spec, F - _KERNEL_GUARD)
    return _D2Setup(spec, F)


class _D2Setup:
    """What `d2_sequence` keeps for one spec and F: the rows of
    `continuant(spec, K).fixed_rows(F)`, in `rootfind._short_rows` form,
    and whether they are `real`; `norm`, the record (K, states) of the
    last normaliser n_k = (gamma)_k (delta-1)_k run; and `tails`: for the
    two most recent fixed-point B, the most recent first, (b, record,
    (a_K, a_{K-1}, estimate)).  A record is (K, the kernel states at the
    nodes of K), as `_run` resumes it."""

    def __init__(self, spec: RecurrenceSpec, F: int):
        # A_k has degree at most 2 in k and N_k at most 4, so `continuant`
        # runs only for k = 0..4, and the rows are real exactly when
        # those five are; the normaliser's rows, (k+gamma)(k+delta-1) with
        # coupling 0 and shift 0, are real exactly when their three head
        # rows are
        W = F + _KERNEL_GUARD
        head = continuant(spec, 5).fixed_rows(W)
        self.F, self.real = F, not any(r[1] or r[3] for r in head)
        self.rows = []
        self._more = rootfind._short_rows(_summed_rows(head, (2, 2, 4, 4)))
        self._norm_head = [
            _to_fixed((k + spec.gamma) * (k + spec.delta - 1), W) + (0, 0, 0)
            for k in range(3)]
        self.norm = None
        self.tails = ()

    def rows_to(self, K: int) -> list:
        """The row list, extended to at least K rows."""
        if len(self.rows) < K:
            self.rows.extend(islice(self._more, K - len(self.rows)))
        return self.rows

    def normaliser(self, K: int, stops) -> list:
        """The `rootfind._continuant_kernel` states of n_k at stops, the
        nodes of K, from z = 0, kept as the record `norm` of the last K
        asked for.  Its rows are summed afresh from the head rows, their
        coupling and its shift 0, and `_run` resumes the record."""
        if not self.norm or self.norm[0] != K:
            head = self._norm_head
            self.norm = _run(_summed_rows(head, (2, 2, 0, 0, 0)), self.F,
                             (0, 0), stops, not any(r[1] for r in head),
                             self.norm)
        return self.norm[1]


def _run(rows, F: int, z, stops, real: bool, kept) -> tuple:
    """The record (K, states) of a `rootfind._continuant_kernel` run
    without p' on the rows from row 0 on: its states at the ascending
    stops, the last of them K.  Given the record kept of a run on the
    same rows, F and z, and every stop at or beyond its K, the run goes
    on from its state at that K and steps rows K.. only; otherwise it
    runs from 0."""
    start = (kept[0], kept[1][-1]) if kept and kept[0] <= stops[0] else None
    return stops[-1], rootfind._continuant_kernel(
        islice(rows, start[0] if start else 0, stops[-1]), F, z, stops,
        real=real, start=start)


def d2_sequence(spec: RecurrenceSpec, B, K: int = 500,
                precision_bits: int = 256) -> D2Estimate:
    """The limit of a_k = c_k(B) k!/(delta-1)_k extrapolated from the
    tail of a_1..a_K, with the raw tail a_K and |a_K - a_{K-1}|.

    a_k = p_k(B) / n_k, with p_k = k! (gamma)_k c_k the monic continuant
    of `continuant` and n_k = (gamma)_k (delta-1)_k, both run by
    `rootfind._continuant_kernel` with F = precision_bits + _KERNEL_GUARD
    fraction bits on the rows of the set-up kept for the last spec and F
    (`_d2_setup`), in its real arm when the rows and B are real.  Each
    Neville node and a_{K-1} is one rounded division of the two, nine at
    most, the extrapolation runs on those Gaussian integers, and only its
    result, a_K and a_{K-1} return to mpc at precision_bits
    (docs/math_notes.md, section 6).  The set-up keeps the two most
    recent fixed-point B, each with the record of its tail and its three
    fixed-point results: asking again for the same tail, as
    `d2_zero_search` does at its start point, runs no kernel, and a
    larger K whose nodes all lie at or beyond the kept K, as when the
    search doubles K, runs the tail on from the kept state (`_run`),
    rows K.. only.
    Heun members only converge for |s| < 1; outside that disk a warning
    is emitted and the numbers are returned as-is."""
    if K < 2:
        raise InvalidSpecError("K >= 2 required")
    F = precision_bits + _KERNEL_GUARD
    setup = _d2_setup(spec, F)
    if spec.kind == FamilyKind.HEUN and spec.s.abs2() >= 1:
        warnings.warn(
            "the d2 limit for the full family is only proven for "
            "|s| < 1; the scaled sequence may diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    with working_precision(precision_bits):
        b = _to_fixed(to_mpc(B), F)
    old = next((t for t in setup.tails if t[0] == b), None)
    if old and old[1][0] == K:
        results = old[2]
    else:
        nodes = _tail_nodes(K)
        stops = nodes[::-1]
        tail = _run(setup.rows_to(K), F, b, stops, setup.real,
                    old and old[1])
        p, n = tail[1], setup.normaliser(K, stops)
        # a_k at the nodes, ascending, and a_{K-1}, with F fraction bits
        a = [_ratio(x[0], y[0], F + x[3] - y[3]) for x, y in zip(p, n)]
        x, y = p[-1], n[-1]
        results = (a[-1], _ratio(x[1], y[1], F + x[3] - y[3]),
                   _neville_at_zero(nodes, a[::-1]))
        setup.tails = ((b, tail, results),) + tuple(
            t for t in setup.tails if t[0] != b)[:1]
    with working_precision(precision_bits):
        cur, prev, estimate = (_from_fixed(*x, F) for x in results)
        indicator = abs(cur - prev)
    return D2Estimate(B=B, K=K, estimate=estimate, tail=cur,
                      error_indicator=indicator)


def _ratio(p, n, shift: int) -> tuple:
    """p / n times 2^shift, rounded to the floor, for Gaussian-integer
    pairs p and n, n nonzero."""
    if shift < 0:
        p, shift = (p[0] >> -shift, p[1] >> -shift), 0
    return _fixed_div(*p, *n, shift)


def _summed_rows(head, degrees):
    """The iterator of rows k = 0, 1, ... of columns that are
    polynomials in k of the given degrees, at most 4, from head[k],
    their values as ints with W = F + _KERNEL_GUARD fraction bits at
    k = 0..max(degrees): each column's forward differences of those
    ints, up to its last nonzero one, are summed by a chain of
    `itertools.accumulate`, one addition per difference and row, and
    each row is shifted down to F bits (docs/math_notes.md, section 6).
    """
    columns = []
    for j, degree in enumerate(degrees):
        column, diff = [row[j] for row in head[:degree + 1]], []
        while column:
            diff.append(column[0])
            column = [y - x for x, y in zip(column, column[1:])]
        while len(diff) > 1 and not diff[-1]:
            diff.pop()
        values = repeat(diff.pop())
        while diff:
            values = accumulate(values, initial=diff.pop())
        columns.append(map(rshift, values, repeat(_KERNEL_GUARD)))
    return zip(*columns)


_TAIL_NODES = 8       # Neville nodes of the tail extrapolation


def _tail_nodes(K: int) -> tuple:
    """The k, largest first, whose a_k the extrapolation reads: K alone
    below 5 * _TAIL_NODES terms, where the raw tail a_K stands."""
    if K < 5 * _TAIL_NODES:
        return (K,)
    step = K // 16
    return tuple(K - i * step for i in range(_TAIL_NODES))


def _neville_at_zero(ks, values) -> tuple:
    """Neville extrapolation against h = 1/k to h = 0 of the
    Gaussian-integer pairs values at the distinct nodes ks, whose weights
    (k_i t_i - k_j t_{i+1}) / (k_i - k_j) are integers.  The weights are
    real, so each part runs on its own, and a part that is 0 at every
    node is 0 throughout, (k_i 0 - k_j 0) // (k_i - k_j), and not run."""
    result = []
    for t in map(list, zip(*values)):
        if any(t):
            for j in range(1, len(t)):
                for i in range(len(t) - j):
                    a, b = ks[i], ks[i + j]
                    t[i] = (a * t[i] - b * t[i + 1]) // (a - b)
        result.append(t[0])
    return tuple(result)


def d2_closed_form_s0(spec: RecurrenceSpec, B, precision_bits: int = 256):
    """d2 at s = 0 via the classical two-point connection formula:
    Gamma(gamma) Gamma(delta-1) / (Gamma(l1) Gamma(l2)) with l1, l2 the
    roots of l^2 - (gamma+delta-1) l + B = 0."""
    _check_d2_spec(spec, precision_bits)
    with working_precision(precision_bits):
        g, d, b = to_mpc(spec.gamma), to_mpc(spec.delta), to_mpc(B)
        tr = g + d - 1
        disc = mp.sqrt(tr * tr - 4 * b)
        l1, l2 = (tr + disc) / 2, (tr - disc) / 2
        return mp.gamma(g) * mp.gamma(d - 1) * mp.rgamma(l1) * mp.rgamma(l2)


@dataclass(frozen=True)
class D2ZeroResult:
    B: object
    d2: object
    iterations: int
    K_used: int


_D2_K_MAX = 12800     # largest K the search doubles to
_D2_MAX_STEPS = 40    # secant steps allowed per search


def d2_zero_search(spec: RecurrenceSpec, B0, tol=1e-10, K: int = 400,
                   precision_bits: int = 256) -> D2ZeroResult:
    """Secant iteration on B -> d2(B) from the scaled-tail estimate.

    Both points of a secant step stand at one K (`_at_one_k`): K
    doubles, up to _D2_K_MAX, whenever the plain tail indicator of a
    point is not at least an order of magnitude below
    max(|estimate|, tol), so accuracy escalates exactly where the zero
    is being pinned down, and then both points are evaluated again at
    the new K.  Convergence is declared only on a step after which K
    stayed as it was; otherwise the search could stop on a zero of the
    coarser estimate.  A search that has not settled after
    _D2_MAX_STEPS secant steps raises NonConvergenceError.  The first
    points are B0 + 10^-3 (1 + |B0|) and B0, each at K, and `d2_sequence`
    at B0 runs no kernel when the caller has just asked for that tail at
    the same precision, as `heunzeros d2 --search` does.  Both points of
    a step are the two tails the set-up of `d2_sequence` keeps
    (`_d2_setup`), so a doubled K at either runs the tail and its
    normaliser on from the old K, rows K..2K only.
    """
    with working_precision(precision_bits):
        tol = mp.mpf(tol)
        b = to_mpc(B0)
        points = [(b + mp.mpf("1e-3") * (1 + abs(b)), None, None),
                  (b, None, None)]
        K = _at_one_k(spec, points, K, tol, precision_bits)
        for it in range(1, _D2_MAX_STEPS + 1):
            (b1, f1, _), (b0, f0, _) = points
            den = f1 - f0
            if den == 0:
                raise NonConvergenceError("flat d2 sequence in secant step")
            b = b1 - f1 * (b1 - b0) / den
            points = [(b, None, None), points[0]]
            K_step, K = K, _at_one_k(spec, points, K, tol, precision_bits)
            if K == K_step and abs(b - b1) < tol * (1 + abs(b)):
                return D2ZeroResult(B=b, d2=points[0][1], iterations=it,
                                    K_used=K)
    raise NonConvergenceError(
        f"d2-zero secant did not settle in {_D2_MAX_STEPS} iterations from "
        f"B0 = {mp.nstr(to_mpc(B0), 8)}"
    )


def _at_one_k(spec: RecurrenceSpec, points: list, K: int, tol,
              precision_bits: int) -> int:
    """Bring the secant points (b, d2 estimate, its K), newest first, to
    one K, in place, and return that K: each point without a value at K
    gets one from `d2_sequence`, and where its indicator is not at least
    an order of magnitude below max(|estimate|, tol), K doubles, up to
    _D2_K_MAX, and the round starts again from the newest point."""
    while True:
        for i, (b, _, k) in enumerate(points):
            if k == K:
                continue
            est = d2_sequence(spec, b, K, precision_bits)
            points[i] = b, est.estimate, K
            if K < _D2_K_MAX and not (
                    est.error_indicator < max(abs(est.estimate), tol) / 10):
                K = min(2 * K, _D2_K_MAX)
                break
        else:
            return K
