"""Exact verification sweeps over the face-count sequences.

One loop walks the dimension range once.  Every per-dimension quantity steps
from the dimension before: the binomial row by Pascal's rule, the two-power
factor row by one new entry in front, and inside the checks ``3**d``,
``S(d+2, 3)`` and the factor identity.  At each dimension the loop multiplies
the two rows into the face-count row once and hands the row and the binomials
to every check still open; a check is a predicate
``(d, row, binomials) -> (ok, witness)`` in arbitrary-precision integers,
and the witnesses are its per-dimension evidence.  A check closes at its first
failure, which lands in the report's counterexample slot, so the suite is
falsifiable rather than a list of assertions.

The checks cover: the extremes inequality with its exact equality cases,
log-concavity and unimodality of the counts, the stated location of the
maximum at ``floor(d/3)`` (false from d = 5 for d = 2 mod 3, where the peak is
at ``floor((d+1)/3)``), the lower bound by the facet count, the alternating-sum
identity ``3**(d+1) - 2**(d+2) + 2`` with its Stirling form, the flag-count
formula against a maximal-chain recount, and non-negativity of the second
cubical g-entry.
"""

from __future__ import annotations

from itertools import compress, count
from math import factorial
from operator import add, ge, gt, mul
from typing import Callable, Sequence

from ._record import Record, _require_ints
from .combinatorics import (
    FVector,
    _binomial_row,
    _check_dim,
    _factor_row,
    _factor_step,
    _isocanted_row,
    count_flags,
    count_flags_by_chains,
    isocanted_fvector,
)

DEFAULT_D_MIN = 2
DEFAULT_D_MAX = 60

#: One dimension of a check: ``(d, row, binomials) -> (ok, witness)``, where
#: ``row`` is ``isocanted_fvector(d)`` and ``binomials`` is ``C(d+1, 0..d+1)``,
#: or both are ``None`` if no open check reads them.
Predicate = Callable[[int, FVector | None, list[int] | None], tuple[bool, dict]]


class ConjectureReport(Record):
    """Outcome of one sweep: pass/fail plus per-dimension witnesses."""

    name: str
    d_min: int
    d_max: int
    passed: bool
    witnesses: tuple[dict, ...]
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "d_range": [self.d_min, self.d_max],
            "status": "pass" if self.passed else "fail",
            "witnesses": list(self.witnesses),
            "counterexample": self.counterexample,
        }


def is_log_concave(seq: Sequence[int]) -> bool:
    """``seq[k+1]**2 >= seq[k] * seq[k+2]`` for every interior index."""
    tail = seq[1:]
    return all(map(ge, map(mul, tail, tail), map(mul, seq, seq[2:])))


def is_unimodal(seq: Sequence[int]) -> bool:
    """Non-decreasing up to some peak, then non-increasing; the empty sequence is not."""
    tail = seq[1:]
    # From the first strict fall on, every step must be non-increasing.
    fall = next(compress(count(), map(gt, seq, tail)), len(tail))
    return len(seq) > 0 and all(map(ge, seq[fall:], tail[fall:]))


def _stirling_step(row: list[int]) -> list[int]:
    """``S(n, 0..k)`` to ``S(n+1, 0..k)`` by ``S(n+1, j) = j S(n, j) + S(n, j-1)``."""
    return [0] + [j * row[j] + row[j - 1] for j in range(1, len(row))]


def _stirling_row(n: int, k: int) -> list[int]:
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    row = [1] + [0] * k
    for _ in range(n):
        row = _stirling_step(row)
    return row


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, by the standard recurrence."""
    _require_ints((n, k), "indices must be ints")
    return _stirling_row(n, k)[k]


def short_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Short cubical h-vector of a cubical (d-1)-complex from its face counts.

    Coefficients of ``sum_j f_j (2t)^j (1 - t)^(d-1-j)`` as a polynomial in
    ``t``; for the boundary of a cubical polytope this equals the sum of the
    simplicial h-vectors of all vertex links.  ``d`` is an int ``>= 1``, and
    so is every face count.
    """
    _check_dim(d, 1)
    if len(f) != d:
        raise ValueError("need face counts f_0 .. f_{d-1}")
    _require_ints(f, "face counts must be ints")
    out = [0] * d
    for j, fj in enumerate(f):
        weight = fj * 2**j
        # (1 - t)^(d-1-j): the row C(d-1-j, m), each term signed by the parity of m.
        for m, c in enumerate(_binomial_row(d - 1 - j, d - j)):
            out[j + m] += -weight * c if m & 1 else weight * c
    return tuple(out)


def long_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Cubical h-vector: ``h[0] = 2**(d-1)`` and ``h[i+1] = h_sc[i] - h[i]``."""
    hsc = short_cubical_h(f, d)
    h = [2 ** (d - 1)]
    for i in range(d):
        h.append(hsc[i] - h[i])
    return tuple(h)


_G2_FLOOR = "the second cubical g-entry needs dimension >= 4"


def _g2(d: int, f0: int, f1: int) -> int:
    h1 = f0 - (1 << (d - 1))
    h2 = 2 * f1 - (d - 1) * f0 - h1
    return h2 - h1


def cubical_g2_value(d: int) -> int:
    """Second cubical g-entry ``h[2] - h[1]`` of the d-dimensional polytope.

    Only ``f_0`` and ``f_1`` enter, through the first two short h-coefficients.
    """
    if d < 4:
        raise ValueError(_G2_FLOOR)
    return _g2(d, *isocanted_fvector(d)[:2])


def _extremes(d: int, row: FVector | None, binomials: list[int] | None) -> tuple[bool, dict]:
    lhs = (d + 1) * d // 2
    rhs = (1 << d) - 1
    equal = lhs == rhs
    ok = lhs <= rhs and equal == (d in (0, 1, 2))
    return ok, {"d": d, "lhs": lhs, "rhs": rhs, "equal": equal}


def _factor_identity(m: int) -> bool:
    # With t_m = 2**m - 1: t_{m+1}**2 - t_m t_{m+2} = 2**m.
    return ((2 << m) - 1) ** 2 - ((1 << m) - 1) * ((4 << m) - 1) == 1 << m


def _log_concave(d_min: int) -> Predicate:
    # Dimension d needs the identity for m = 1 .. d-2: the first dimension
    # checks them all, and each later one adds only m = d-2.
    factor_ok = all(_factor_identity(m) for m in range(1, d_min - 2))

    def per_d(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
        nonlocal factor_ok
        factor_ok = factor_ok and (d < 3 or _factor_identity(d - 2))
        pascal_ok = is_log_concave(binomials)
        ok = is_log_concave(row) and factor_ok and pascal_ok
        return ok, {"d": d, "log_concave": ok, "factor_identity": factor_ok}

    return per_d


def _unimodal(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
    ok = is_unimodal(row)
    return ok, {"d": d, "unimodal": ok}


def _argmax(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
    target = d // 3
    peak = max(row)
    equiv_ok = True
    rises = []
    for k in range(d - 1):
        rise = row[k + 1] >= row[k]
        if rise != ((1 << (d - k - 1)) * (d - 3 * k - 1) >= d - 2 * k):
            equiv_ok = False
        rises.append(rise)
    # The window is (d-2)/3 <= k <= d/3, compared as 3k against d-2 and d.
    bracket_ok = all(r for k, r in enumerate(rises) if 3 * k < d - 2) and not any(
        r for k, r in enumerate(rises) if 3 * k > d
    )
    last_rise = max((k for k, r in enumerate(rises) if r), default=-1)
    if last_rise >= 0:
        bracket_ok = bracket_ok and any(
            d - 2 <= 3 * k <= d for k in (last_rise, last_rise + 1) if k < d
        )
    ok = row[target] == peak and equiv_ok and bracket_ok
    return ok, {
        "d": d,
        "argmax": row.index(peak),
        "expected": target,
        "tie": row.count(peak) > 1,
        "bracket_ok": bracket_ok,
        "quotient_equivalence": equiv_ok,
    }


def _barany(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
    bound = (d + 1) * d
    low = min(row)
    return low >= bound and row[-1] == bound, {"d": d, "min": low, "bound": bound}


def _three_d(d_min: int) -> Predicate:
    # 3**d and S(d+2, 3) move one step per dimension from the first one.
    power = 3**d_min
    stirling = _stirling_row(d_min + 2, 3)

    def per_d(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
        nonlocal power, stirling
        total = sum(row) + 1  # f_d = 1 extends the row
        closed = 3 * power - (4 << d) + 2
        stirling_form = 2 * stirling[3] + 1
        ok = total == closed == stirling_form and total > power
        power *= 3
        stirling = _stirling_step(stirling)
        return ok, {"d": d, "total": total, "closed_form": closed, "stirling_form": stirling_form}

    return per_d


def _flag(d: int, row: FVector | None, binomials: list[int] | None) -> tuple[bool, dict]:
    flags = count_flags(d)
    bound = (1 << d) * factorial(d)
    # Compare 4*lhs > 4*rhs to stay in integers at d = 2.
    support = ((1 << (d - 1)) - 1) * (d + 1) * 4 > (1 << d) * d
    chains = count_flags_by_chains(d)
    ok = flags > bound and support and chains == flags
    return ok, {
        "d": d,
        "flags": flags,
        "box_flags": bound,
        "chain_recount": chains,
        "chain_checked": True,
    }


def _cubical_g2(d: int, row: FVector, binomials: list[int]) -> tuple[bool, dict]:
    g2 = _g2(d, row[0], row[1])
    return g2 >= 0, {"d": d, "g2": g2}


def _validate(name: str, d_min: int, d_max: int) -> None:
    _require_ints((d_min, d_max), "dimension bounds must be ints")
    floor, below = _PREDICATES[name][1:3]
    if d_min < floor:
        raise ValueError(below)
    if d_min > d_max:
        raise ValueError("empty dimension range")


def _sweep_once(sweeps: list[tuple[str, int]], d_max: int) -> list[ConjectureReport]:
    """Walk ``d`` once for validated ``(name, first dimension)`` sweeps.

    Each dimension builds its row at most once, for the checks that are due
    and still open; a check closes at its first failure, and the due checks
    are listed again only where one opens or closes.  The binomial row
    ``C(d+1, 0..d+1)`` and the factor row ``2**(d+1-j) - 2`` move to the next
    dimension in one step each (Pascal's rule, one new entry in front), and
    are built from scratch only where the dimension before built no row.
    """
    firsts = [lo for _, lo in sweeps]
    opening = set(firsts)
    reads_row = [_PREDICATES[name][3] for name, _ in sweeps]
    predicates = [_PREDICATES[name][4](lo) for name, lo in sweeps]
    witnesses: list[list[dict]] = [[] for _ in sweeps]
    failures: list[dict | None] = [None] * len(sweeps)
    still_open = list(range(len(sweeps)))
    binomials = factors = row = None
    stale = True
    for d in range(min(firsts, default=d_max + 1), d_max + 1):
        if stale or d in opening:
            still_open = [k for k in still_open if failures[k] is None]
            if not still_open:
                break
            due = [k for k in still_open if firsts[k] <= d]
            reads = any([reads_row[k] for k in due])
            stale = False
        if reads:
            # Set at d-1 or reset there: C(d+1, j) = C(d, j-1) + C(d, j).
            if binomials is None:
                binomials = _binomial_row(d + 1, d + 2)
                factors = _factor_row(d)
            else:
                binomials = [1, *map(add, binomials, binomials[1:]), 1]
                factors = _factor_step(factors, d)
            row = _isocanted_row(factors, binomials)
        else:
            binomials = factors = row = None
        for k in due:
            ok, witness = predicates[k](d, row, binomials)
            witnesses[k].append(witness)
            if not ok:
                failures[k] = dict(witness)
                stale = True
    return [
        ConjectureReport(name, lo, d_max, failures[k] is None, tuple(witnesses[k]), failures[k])
        for k, (name, lo) in enumerate(sweeps)
    ]


def _sweep_one(name: str, d_min: int, d_max: int) -> ConjectureReport:
    _validate(name, d_min, d_max)
    return _sweep_once([(name, d_min)], d_max)[0]


def check_extremes(d_min: int = 0, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """``(d+1)d/2 <= 2**d - 1`` with equality exactly at d = 0, 1, 2."""
    return _sweep_one("extremes", d_min, d_max)


def check_log_concave(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Log-concavity of the counts, plus the two factor sequences separately.

    The two-power factor ``2**(d-k) - 1`` satisfies the exact identity
    ``(t[k+1])^2 - t[k] t[k+2] = 2**(d-k-2) > 0`` and every binomial row is
    log-concave; the entrywise product inherits the property.
    """
    return _sweep_one("log_concave", d_min, d_max)


def check_unimodal(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    return _sweep_one("unimodal", d_min, d_max)


def check_argmax(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """The stated claim that the maximum count sits at index ``floor(d/3)``.

    The claim is false from d = 5 for d = 2 mod 3 (first at d = 5, where the
    peak is at index 2); the true location is ``floor((d+1)/3)``.

    Ties report the smaller index and are flagged; the pass condition is that
    the value at ``floor(d/3)`` equals the maximum.  The quotient test
    ``seq[k+1] >= seq[k]`` is cross-checked against the equivalent integer
    comparison ``2**(d-k-1) * (d - 3k - 1) >= d - 2k``, and the monotonicity
    switch is bracketed: the sequence provably rises below ``(d-2)/3``, falls
    above ``d/3``, and the rise-to-fall boundary meets the integer window in
    between.

    Witnesses record the true argmax; the sweep is falsifiable and a failing
    dimension surfaces as the counterexample.
    """
    return _sweep_one("argmax", d_min, d_max)


def check_barany(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Every count is at least the facet count ``(d+1)d``."""
    return _sweep_one("barany", d_min, d_max)


def check_3d(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """The extended counts sum to ``3**(d+1) - 2**(d+2) + 2``, above ``3**d``.

    The closed form also equals ``2 * S(d+2, 3) + 1`` with Stirling numbers of
    the second kind, carried along the sweep by the standard recurrence.
    """
    return _sweep_one("3d", d_min, d_max)


def check_flag(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Flag count beats the box count ``2**d d!`` and equals a chain recount.

    The supporting inequality ``(2**(d-1) - 1)(d+1) > 2**(d-2) d`` (the
    per-vertex comparison behind the bound) is verified along the way.
    """
    return _sweep_one("flag", d_min, d_max)


def cubical_g2(d_min: int = 4, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Non-negativity of the second cubical g-entry over the sweep."""
    return _sweep_one("cubical_g2", d_min, d_max)


_BELOW_2 = "dimension range must start at 2 or above"

#: name -> (public check, lowest first dimension, error below it, whether it
#: reads the row, predicate for a sweep from a given first dimension).
_PREDICATES: dict[str, tuple[Callable[..., ConjectureReport], int, str, bool, Callable[[int], Predicate]]] = {
    "extremes": (check_extremes, 0, "dimension must be non-negative", False, lambda lo: _extremes),
    "log_concave": (check_log_concave, 2, _BELOW_2, True, _log_concave),
    "unimodal": (check_unimodal, 2, _BELOW_2, True, lambda lo: _unimodal),
    "argmax": (check_argmax, 2, _BELOW_2, True, lambda lo: _argmax),
    "barany": (check_barany, 2, _BELOW_2, True, lambda lo: _barany),
    "3d": (check_3d, 2, _BELOW_2, True, _three_d),
    "flag": (check_flag, 2, _BELOW_2, False, lambda lo: _flag),
    "cubical_g2": (cubical_g2, 4, _G2_FLOOR, True, lambda lo: _cubical_g2),
}

CHECKS: dict[str, Callable[..., ConjectureReport]] = {name: row[0] for name, row in _PREDICATES.items()}


def run_all(
    names: Sequence[str] | None = None,
    d_min: int = DEFAULT_D_MIN,
    d_max: int = DEFAULT_D_MAX,
) -> list[ConjectureReport]:
    """Run the named checks (default: all) over one dimension range, in one pass.

    The extremes check keeps the requested floor (it is defined from zero);
    the cubical g-entry check clamps its floor to 4, where it is defined.  A
    range that ends below 4 leaves that check out of the default selection,
    and names its floor in the error when it is asked for.  Bounds that are
    not ints (bools included) raise ``TypeError`` before any name is read;
    names are checked in order, so the first bad name or range is the error
    raised.
    """
    _require_ints((d_min, d_max), "dimension bounds must be ints")
    sweeps = []
    for name in list(CHECKS) if names is None else names:
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name!r}")
        floor, below = _PREDICATES[name][1:3]
        lo = max(floor, d_min) if name == "cubical_g2" else d_min
        if d_min <= d_max < lo:
            if names is None:
                continue
            raise ValueError(below)
        _validate(name, lo, d_max)
        sweeps.append((name, lo))
    return _sweep_once(sweeps, d_max)
