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

import mpmath as mp

from .families import FamilyKind, InvalidSpecError, RecurrenceSpec
from .perturbation import (
    BoundaryOrderError,
    DegenerateGridError,
    perturbative_seeds,
    recurrence_row,
    zero_estimate,
)
from .recurrence import _scaled_step_table, build_family
from .rootfind import (
    NonConvergenceError,
    ZeroSet,
    find_all_roots,
    tridiagonal_eigenvalues,
)
from .scalars import _from_fixed, _to_fixed, to_mpc, working_precision


# -- solving one degree with labelled zeros -----------------------------------

def solve_zeros(spec: RecurrenceSpec, m: int, precision_bits: int = 256,
                tol=None, order: int = 2) -> ZeroSet:
    """Zeros of c_m(B), labelled by grid index where estimates exist.

    The seeds are the eigenvalues of the Jacobi matrix of the recurrence
    (`jacobi_matrix`), found by `jacobi_seeds`: in doubles where the QL
    of the matrix and of its reversal agree, else once more at
    min(106, precision_bits) bits.  `find_all_roots` polishes each seed
    by Newton's method and keeps the results when disks around them,
    each holding a zero, are disjoint, else runs Aberth sweeps from the
    seeds; when the double eigenvalue solve fails, it sweeps from
    Newton-polygon circles.  The ZeroSet records the seed precision
    (`seed_bits`, None for circles) and the number of sweeps.  Labels
    come from the order-`order` perturbative estimates whenever they are
    defined and |s| <= 2 (they degrade as |s| grows); otherwise every
    label is None.
    """
    if m < 1:
        raise InvalidSpecError("need m >= 1 for a nontrivial polynomial")
    fam = build_family(spec, m, precision_bits)
    with working_precision(precision_bits):
        labelled = not spec.is_d_degenerate and abs(to_mpc(spec.s)) <= 2
        seeds, seed_bits = jacobi_seeds(*jacobi_matrix(spec, m),
                                        precision_bits)
    zs = find_all_roots(fam[m], seeds=seeds, precision_bits=precision_bits,
                        tol=tol)
    zs = replace(zs, seed_bits=seed_bits)
    if labelled:
        raw = perturbative_seeds(spec, m - 1, order)
        with working_precision(precision_bits):
            estimates = [to_mpc(e) for e in raw]
        zs = zs.with_labels(_labels_by_proximity(zs.zeros, estimates))
    return zs


def jacobi_matrix(spec: RecurrenceSpec, m: int) -> tuple:
    """(diagonal, off-diagonal) as mpc at the working precision of the
    m x m complex-symmetric tridiagonal matrix whose eigenvalues are the
    zeros of c_m: diagonal -(D_j + s E_j) for j = 0..m-1, off-diagonal
    sqrt(s G_j) for j = 1..m-1 with G_j = j (j-1+gamma) F_j
    (docs/math_notes.md, section 8)."""
    diag, off = [], []
    for j in range(m):
        D, E, G = recurrence_row(spec, j)
        diag.append(-to_mpc(D + spec.s * E))
        if j:
            off.append(mp.sqrt(to_mpc(spec.s * G)))
    return diag, off


_SEED_AGREEMENT = 2.0 ** -20   # forward/reversed QL gap that trusts doubles
_SEED_BITS = 106               # the one escalated QL precision


def jacobi_seeds(diag, off, precision_bits: int) -> tuple:
    """(eigenvalues, bits) of the Jacobi matrix, or (None, None).

    The double QL runs on the matrix and on its reversal (the same
    eigenvalues, reached along another rounding path).  When every
    eigenvalue of either run lies within 2^-20 (1 + |lambda|) of one of
    the other, the forward doubles are the seeds.  Otherwise, including
    a failed reversed run, the same QL runs once in fixed point at
    min(106, precision_bits) bits; if that run fails, the forward
    doubles stand, as they do when precision_bits is 53 or less.  A
    failed forward double run gives no seeds.
    """
    fwd = tridiagonal_eigenvalues(diag, off)
    if fwd is None:
        return None, None
    bits = min(_SEED_BITS, precision_bits)
    if bits > 53:
        rev = tridiagonal_eigenvalues(diag[::-1], off[::-1])
        if rev is None or _nearest_gap(fwd, rev) > _SEED_AGREEMENT:
            high = tridiagonal_eigenvalues(diag, off, bits)
            if high is not None:
                return high, bits
    return fwd, 53


def _nearest_gap(xs, ys) -> float:
    """Largest distance, relative to 1 + |x|, from a point of either
    list to the nearest point of the other."""
    def one_way(a, b):
        return max(min(abs(x - y) for y in b) / (1 + abs(x)) for x in a)
    return max(one_way(xs, ys), one_way(ys, xs))


def _labels_by_proximity(zeros, estimates) -> list:
    """Scan zeros in display order; each takes its nearest unused
    estimate's index.  Deterministic, injective."""
    free = list(range(len(estimates)))
    labels = []
    for z in zeros:
        best, best_d = None, None
        for k in free:
            d = abs(z - estimates[k])
            if best_d is None or d < best_d:
                best, best_d = k, d
        labels.append(best)
        if best is not None:
            free.remove(best)
    return labels


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
    """Optimal assignment of za into zb: the injective pairing that
    minimizes the summed distance (Kuhn's Hungarian method, via scipy).

    If every za zero also appears in zb the pairing is the identity on
    values.
    """
    a = list(za.zeros) if isinstance(za, ZeroSet) else [to_mpc(z) for z in za]
    b = list(zb.zeros) if isinstance(zb, ZeroSet) else [to_mpc(z) for z in zb]
    if len(a) > len(b):
        raise InvalidSpecError("match_zeros expects len(a) <= len(b)")
    pairs = ()
    if a:
        # scipy rejects an empty cost matrix
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(
            [[float(abs(x - y)) for y in b] for x in a])
        pairs = tuple((int(i), int(j), abs(a[i] - b[j]))
                      for i, j in zip(rows, cols))
    matched_b = {j for _, j, _ in pairs}
    new_b = tuple(j for j in range(len(b)) if j not in matched_b)
    return MatchResult(pairs=pairs, new_in_b=new_b)


_DIGIT_CAP = 60       # digits reported for identical values


def stabilized_digits(za, zb) -> int:
    """Shared significant digits: the largest d with
    |za-zb| < 0.5 * 10^-d * max(|za|, |zb|), at most _DIGIT_CAP."""
    za, zb = to_mpc(za), to_mpc(zb)
    scale = max(abs(za), abs(zb))
    if scale == 0:
        return _DIGIT_CAP
    diff = abs(za - zb)
    if diff == 0:
        return _DIGIT_CAP
    rel = diff / scale
    d = int(mp.floor(-mp.log10(2 * rel)))
    return max(min(d, _DIGIT_CAP), 0)


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
    count stabilized digits along every track.  Each track carries the
    label its top-degree zero has in that degree's own ZeroSet."""
    m_list = tuple(sorted(set(int(m) for m in m_list)))
    if len(m_list) < 2:
        raise InvalidSpecError("m_list needs at least two degrees")
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
            t.stabilized[(ma, mb)] = stabilized_digits(za.zeros[ia],
                                                       zb.zeros[ib])
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
    zero each degree's own labels tie to k.  A missing estimate or
    label is None.
    """
    top = max(zero_sets)
    columns = {
        m: {lab: z for z, lab in zip(zs.zeros, zs.labels) if lab is not None}
        for m, zs in sorted(zero_sets.items())
    }
    rows = []
    with working_precision(zero_sets[top].precision_bits):
        for k in range(min(k_max, top - 1) + 1):
            orders = []
            for order in (0, 1, 2):
                try:
                    orders.append(zero_estimate(spec, k, top - 1, order))
                except (BoundaryOrderError, DegenerateGridError):
                    orders.append(None)
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
    computes by the scaled recurrence without forming c_k."""

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


_D2_GUARD = 32        # fraction bits of the d2 kernel beyond precision_bits


def d2_sequence(spec: RecurrenceSpec, B, K: int = 500,
                precision_bits: int = 256) -> D2Estimate:
    """The limit of a_k = c_k(B) k!/(delta-1)_k extrapolated from the
    tail of a_1..a_K, with the raw tail a_K and |a_K - a_{K-1}|.

    a_k is run directly by the recurrence
    a_{k+1} = ((B + A_k) a_k - G_k a_{k-1}) H_k, a_0 = 1, in fixed
    point: every value is a Gaussian integer pair standing for its value
    times 2^F, F = precision_bits + _D2_GUARD, and a step is twelve
    integer multiplications and four shifts, each shift rounding to the
    floor.  The B-independent rows (A_k, G_k, H_k) come from a table
    kept for the most recent spec, parameter types and F
    (`recurrence._scaled_step_table`).  Since a_0 = 1 and the errors
    reach the limit through the dominant solution, an absolute rounding
    error of 2^-F per step costs no more than mpc's relative one
    (docs/math_notes.md, section 6).  Only the extrapolation nodes and
    the last two terms are kept, and they return to mpc at
    precision_bits.  Heun members only converge for |s| < 1; outside
    that disk a warning is emitted and the numbers are returned
    as-is."""
    _check_d2_spec(spec, precision_bits)
    if K < 2:
        raise InvalidSpecError("K >= 2 required")
    F = precision_bits + _D2_GUARD
    with working_precision(precision_bits):
        if spec.kind == FamilyKind.HEUN and abs(to_mpc(spec.s)) >= 1:
            warnings.warn(
                "the d2 limit for the full family is only proven for "
                "|s| < 1; the scaled sequence may diverge",
                RuntimeWarning,
                stacklevel=2,
            )
        br, bi = _to_fixed(to_mpc(B), F)
    rows = _scaled_step_table(spec, K, F)
    nodes = _tail_nodes(K)
    at_nodes = {}
    pr = pi = 0                    # a_{-1} (G_0 = 0)
    cr, ci = 1 << F, 0             # a_0
    for k in range(K):
        Ar, Ai, Gr, Gi, Hr, Hi = rows[k]
        ur, ui = br + Ar, bi + Ai
        tr = (ur * cr - ui * ci - Gr * pr + Gi * pi) >> F
        ti = (ur * ci + ui * cr - Gr * pi - Gi * pr) >> F
        pr, pi = cr, ci
        cr, ci = (tr * Hr - ti * Hi) >> F, (tr * Hi + ti * Hr) >> F
        if k + 1 in nodes:
            at_nodes[k + 1] = (cr, ci)
    with working_precision(precision_bits):
        cur, prev = _from_fixed(cr, ci, F), _from_fixed(pr, pi, F)
        estimate = (_extrapolate_tail(
            nodes, [_from_fixed(*at_nodes[k], F) for k in nodes])
            if nodes else cur)
        indicator = abs(cur - prev)
    return D2Estimate(B=B, K=K, estimate=estimate, tail=cur,
                      error_indicator=indicator)


_TAIL_NODES = 8       # Neville nodes of the tail extrapolation


def _tail_nodes(K: int) -> tuple:
    """The k, largest first, whose a_k the extrapolation reads: none
    below 5 * _TAIL_NODES terms, where the raw tail a_K stands."""
    if K < 5 * _TAIL_NODES:
        return ()
    step = K // 16
    return tuple(K - i * step for i in range(_TAIL_NODES))


def _extrapolate_tail(ks, values):
    """Neville extrapolation of the a_k at the nodes ks against h = 1/k
    to h = 0."""
    xs = [mp.mpf(1) / k for k in ks]
    t = list(values)
    n = len(t)
    for j in range(1, n):
        for i in range(n - j):
            t[i] = (xs[i + j] * t[i] - xs[i] * t[i + 1]) / (xs[i + j] - xs[i])
    return t[0]


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

    K doubles, up to _D2_K_MAX, whenever the plain tail indicator is not
    at least an order of magnitude below max(|estimate|, tol), so
    accuracy escalates exactly where the zero is being pinned down.
    Both points of a secant step are evaluated at the same K: when K
    doubles, the older point is evaluated again at the new K, and
    convergence is declared only on a step taken at the K of the point
    it produced.
    Otherwise the search could stop on a zero of the coarser estimate.
    A search that has not settled after _D2_MAX_STEPS secant steps
    raises NonConvergenceError.
    """
    with working_precision(precision_bits):
        tol = mp.mpf(tol)
        K_cur = K

        def f(b):
            """(estimate, K) at b, doubling K_cur until the indicator is
            good or _D2_K_MAX is reached."""
            nonlocal K_cur
            while True:
                est = d2_sequence(spec, b, K_cur, precision_bits)
                if (est.error_indicator < max(abs(est.estimate), tol) / 10
                        or K_cur >= _D2_K_MAX):
                    return est.estimate, K_cur
                K_cur = min(2 * K_cur, _D2_K_MAX)

        def at_current_k(b_a, f_a, b_b, f_b):
            """Re-evaluate either point until both are at K_cur."""
            while f_a[1] != K_cur or f_b[1] != K_cur:
                if f_a[1] != K_cur:
                    f_a = f(b_a)
                else:
                    f_b = f(b_b)
            return f_a, f_b

        b_prev = to_mpc(B0)
        f_prev = f(b_prev)
        step0 = mp.mpf("1e-3") * (1 + abs(b_prev))
        b_cur = b_prev + step0
        f_prev, f_cur = at_current_k(b_prev, f_prev, b_cur, f(b_cur))
        for it in range(1, _D2_MAX_STEPS + 1):
            den = f_cur[0] - f_prev[0]
            if den == 0:
                raise NonConvergenceError("flat d2 sequence in secant step")
            b_next = b_cur - f_cur[0] * (b_cur - b_prev) / den
            K_step = K_cur
            b_prev, f_prev = b_cur, f_cur
            b_cur = b_next
            f_cur = f(b_cur)
            if K_cur != K_step:
                f_prev, f_cur = at_current_k(b_prev, f_prev, b_cur, f_cur)
            elif abs(b_cur - b_prev) < tol * (1 + abs(b_cur)):
                return D2ZeroResult(B=b_cur, d2=f_cur[0], iterations=it,
                                    K_used=K_cur)
    raise NonConvergenceError(
        f"d2-zero secant did not settle in {_D2_MAX_STEPS} iterations from "
        f"B0 = {mp.nstr(to_mpc(B0), 8)}"
    )
