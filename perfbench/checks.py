"""Output checks against reference.py, in exact rational arithmetic.

Outputs and references are decimal strings; both are read exactly as
Fractions, so no check depends on float rounding except the size of a
tolerance.  verify() returns a list of failure messages; an empty list
means the task passed.
"""

import json
import math
import re
from fractions import Fraction

import reference as ref

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(
    rf"^(?P<re>{_NUM})?(?:(?P<sign>[+-])(?P<im>(?:\d+\.?\d*|\.\d+)"
    rf"(?:[eE][+-]?\d+)?)?[ij])?$"
)
_PURE_IM = re.compile(rf"^(?P<im>{_NUM})?[ij]$|^(?P<sign>[+-])[ij]$")


def split_complex(text: str):
    """(real part, imaginary part) of a displayed scalar, as strings."""
    s = text.replace(" ", "")
    m = _PURE_IM.match(s)
    if m:
        if m.group("sign"):
            return "0", m.group("sign") + "1"
        return "0", m.group("im") or "1"
    m = _COMPLEX.match(s)
    if not m or (m.group("re") is None and m.group("sign") is None):
        raise ValueError(f"not a scalar: {text!r}")
    re_s = m.group("re") or "0"
    if m.group("sign") is None:
        return re_s, "0"
    return re_s, m.group("sign") + (m.group("im") or "1")


def parse(text: str):
    """Exact (re, im) pair of Fractions."""
    re_s, im_s = split_complex(text)
    return Fraction(re_s), Fraction(im_s)


def half_ulp(component: str) -> Fraction:
    """Half a unit in the last displayed place; 0 for integers."""
    mant, _, exp = component.lower().partition("e")
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    if not decimals and not exp:
        return Fraction(0)
    return Fraction(1, 2) * Fraction(10) ** (int(exp or 0) - decimals)


def distance(a, b) -> float:
    return math.hypot(float(a[0] - b[0]), float(a[1] - b[1]))


def sig_tol(w, digits: int) -> float:
    """Half an ulp at the digits-th significant digit of |w| (of 1 when
    w = 0)."""
    size = math.hypot(float(w[0]), float(w[1])) or 1.0
    return 10.0 ** (math.floor(math.log10(size)) - digits + 1) / 2


def match_shown(computed, shown, digits: int = 8, what: str = "") -> list:
    """Every reference in `shown` has its own computed value within half
    an ulp at the digits-th significant digit; no ordering assumed."""
    pool = list(computed)
    errors = []
    for text in shown:
        w = parse(text)
        if not pool:
            errors.append(f"{what}: no computed value left for {text}")
            continue
        dist, idx = min((distance(z, w), i) for i, z in enumerate(pool))
        if dist > sig_tol(w, digits):
            errors.append(f"{what}: {text} is off by {dist:.3g}")
        else:
            pool.pop(idx)
    return errors


def _tail(zeros):
    """The zero with the most negative real part (ties: larger imag),
    the last one in the package's display order."""
    return min(zeros, key=lambda z: (z[0], -z[1]))


def check_degree(name, m, zeros, what) -> list:
    shown, tail = ref.ZEROS[name][m]
    errors = match_shown(zeros, shown, what=f"{what} c_{m}")
    if tail is not None:
        w = parse(tail)
        if distance(_tail(zeros), w) > sig_tol(w, 8):
            errors.append(f"{what} c_{m}: tail zero is not {tail}")
    return errors


def _check_poly(out) -> list:
    rows = [[r if Fraction(i) == 0 else f"{r}+({i})i" for r, i in row]
            for row in json.loads(out)["coeffs"]]
    if rows != ref.POLY_RCHEUN_S0:
        return [f"poly: coefficients {rows} differ from the README"]
    return []


def _check_zeros(out, name, m) -> list:
    data = json.loads(out)
    zeros = [(Fraction(z["re"]), Fraction(z["im"])) for z in data["zeros"]]
    errors = [] if data["converged"] else ["zeros: not converged"]
    return errors + check_degree(name, m, zeros, "zeros")


def _check_table(out, name) -> list:
    data = json.loads(out)
    errors = []
    for m in data["m_list"]:
        cells = [row["zeros"][str(m)] for row in data["rows"]]
        if "-" in cells:
            errors.append(f"table c_{m}: missing zero")
            continue
        shown, _ = ref.ZEROS[name][m]
        # the table lists the low grid indices only: match those against
        # the reference list, not the other way round
        pool = [parse(t) for t in shown]
        for text in cells:
            z = parse(text)
            dist, idx = min((distance(z, w), i) for i, w in enumerate(pool))
            if dist > sig_tol(pool[idx], 8):
                errors.append(f"table c_{m}: {text} matches no reference")
            else:
                pool.pop(idx)
    for row in data["rows"]:
        want = ref.APPROXIMATIONS[name][row["k"]]
        for order, expected in enumerate(want):
            got = row[f"order{order}"]
            for g, e in zip(split_complex(got), split_complex(expected)):
                if abs(Fraction(g) - Fraction(e)) > half_ulp(e) + half_ulp(g):
                    errors.append(f"table k={row['k']} order {order}: "
                                  f"{got} != {expected}")
    return errors


def _check_track(out, name) -> list:
    data = json.loads(out)
    errors = []
    for m in data["m_list"]:
        zeros = [tuple(Fraction(p) for p in t["entries"][str(m)])
                 for t in data["tracks"] if str(m) in t["entries"]]
        if m in ref.ZEROS[name]:
            errors += check_degree(name, m, zeros, "track")
    floor = ref.MIN_STABLE.get(name)
    if floor is not None and data["n_stable"] < floor:
        errors.append(f"track: n_stable = {data['n_stable']} < {floor}")
    return errors


def real_parts(zeros):
    """Real parts of the zeros with |Im z| < 1e-6 (1 + |Re z|),
    largest first."""
    lim = Fraction(1, 10 ** 6)
    return sorted((z[0] for z in zeros if abs(z[1]) < lim * (1 + abs(z[0]))),
                  reverse=True)


def _check_whill(zeros, m) -> list:
    errors = []
    if m in ref.WHILL_STRONG_ZEROS:
        errors += match_shown(zeros, ref.WHILL_STRONG_ZEROS[m],
                              what=f"whill c_{m}")
    if m in ref.WHILL_STRONG_REAL_COUNT:
        reals = real_parts(zeros)
        want = ref.WHILL_STRONG_REAL_COUNT[m]
        if len(reals) != want:
            errors.append(f"whill c_{m}: {len(reals)} real zeros, not {want}")
        elif want:
            errors += match_shown([(r, Fraction(0)) for r in reals[:2]],
                                  ref.WHILL_STRONG_LEADING_REAL, digits=7,
                                  what=f"whill c_{m} leading real")
    return errors


def _check_d2(out, expected_zero, routes: bool) -> list:
    data = json.loads(out)
    errors = []
    found = parse(data["zero_search"]["B"])
    w = parse(expected_zero)
    if distance(found, w) > sig_tol(w, 8):
        errors.append(f"d2: zero {data['zero_search']['B']} "
                      f"is not {expected_zero}")
    tol = float(ref.D2_ROUTE_TOL)
    residual = distance(parse(data["zero_search"]["d2"]), (0, 0))
    if residual >= tol:
        errors.append(f"d2: |d2| = {residual:.3g} at the found zero")
    if routes:
        values = {key: parse(data[key]) for key in ("estimate", "midpoint",
                                                    "closed_form")
                  if key in data}
        if "midpoint" not in values:
            errors.append("d2: midpoint route missing")
        keys = list(values)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                gap = distance(values[a], values[b])
                if gap >= tol:
                    errors.append(f"d2: {a} and {b} differ by {gap:.3g}")
    return errors


def parse_pair(pair):
    return Fraction(pair[0]), Fraction(pair[1])


def verify(task, output) -> list:
    """Failure messages for one task's output (empty: passed)."""
    kind, *args = task["check"]
    try:
        if kind == "poly":
            return _check_poly(output)
        if kind == "zeros":
            return _check_zeros(output, *args)
        if kind == "table":
            return _check_table(output, *args)
        if kind == "track":
            return _check_track(output, *args)
        if kind == "whill":
            return _check_whill([parse_pair(z) for z in output], *args)
        if kind == "d2":
            name, k = args
            return _check_d2(output, ref.D2_ZEROS[name][k], routes=True)
        if kind == "d2-edge":
            s, k = args
            return _check_d2(output, ref.D2_EDGE_ZEROS[(s, k)], routes=False)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"unknown check {kind!r}"]
