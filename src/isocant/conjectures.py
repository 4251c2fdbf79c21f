"""Exact verification sweeps over the face-count sequences.

Each check walks a dimension range with arbitrary-precision integers (and
exact rationals where halving is involved), recording per-dimension evidence.
A failure at any dimension aborts the sweep and lands in the report's
counterexample slot, so the suite is falsifiable rather than a list of
assertions.

The checks cover: the extremes inequality with its exact equality cases,
log-concavity and unimodality of the counts, the stated location of the
maximum at ``floor(d/3)`` (false from d = 5 for d = 2 mod 3, where the peak is
at ``floor((d+1)/3)``), the lower bound by the facet count, the alternating-sum
identity ``3**(d+1) - 2**(d+2) + 2`` with its Stirling form, the flag-count
formula against a maximal-chain recount, and non-negativity of the second
cubical g-entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .combinatorics import count_flags, count_flags_by_chains, isocanted_fvector

#: Flag recount by lattice chains is exhaustive; cap the dimensions it covers.
CHAIN_CHECK_LIMIT = 7

DEFAULT_D_MIN = 2
DEFAULT_D_MAX = 60


@dataclass(frozen=True)
class ConjectureReport:
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
    return all(
        seq[k + 1] * seq[k + 1] >= seq[k] * seq[k + 2] for k in range(len(seq) - 2)
    )


def is_unimodal(seq: Sequence[int]) -> bool:
    """Non-decreasing up to some peak, then non-increasing."""
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    while k + 1 < len(seq) and seq[k] >= seq[k + 1]:
        k += 1
    return k == len(seq) - 1


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, by the standard recurrence."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def short_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Short cubical h-vector of a cubical (d-1)-complex from its face counts.

    Coefficients of ``sum_j f_j (2t)^j (1 - t)^(d-1-j)`` as a polynomial in
    ``t``; for the boundary of a cubical polytope this equals the sum of the
    simplicial h-vectors of all vertex links.
    """
    if len(f) != d:
        raise ValueError("need face counts f_0 .. f_{d-1}")
    out = [0] * d
    for j, fj in enumerate(f):
        weight = fj * 2**j
        for m in range(d - j):
            out[j + m] += weight * comb(d - 1 - j, m) * (-1) ** m
    return tuple(out)


def long_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Cubical h-vector: ``h[0] = 2**(d-1)`` and ``h[i+1] = h_sc[i] - h[i]``."""
    hsc = short_cubical_h(f, d)
    h = [2 ** (d - 1)]
    for i in range(d):
        h.append(hsc[i] - h[i])
    return tuple(h)


def cubical_g2_value(d: int) -> int:
    """Second cubical g-entry ``h[2] - h[1]`` of the d-dimensional polytope."""
    if d < 4:
        raise ValueError("the second cubical g-entry needs dimension >= 4")
    h = long_cubical_h(isocanted_fvector(d), d)
    return h[2] - h[1]


def _sweep(
    name: str,
    d_min: int,
    d_max: int,
    per_d: Callable[[int], tuple[bool, dict]],
) -> ConjectureReport:
    if d_min > d_max:
        raise ValueError("empty dimension range")
    witnesses: list[dict] = []
    for d in range(d_min, d_max + 1):
        ok, witness = per_d(d)
        witnesses.append(witness)
        if not ok:
            return ConjectureReport(
                name, d_min, d_max, False, tuple(witnesses), dict(witness)
            )
    return ConjectureReport(name, d_min, d_max, True, tuple(witnesses), None)


def check_extremes(d_min: int = 0, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """``(d+1)d/2 <= 2**d - 1`` with equality exactly at d = 0, 1, 2."""
    if d_min < 0:
        raise ValueError("dimension must be non-negative")

    def per_d(d: int) -> tuple[bool, dict]:
        lhs = (d + 1) * d // 2
        rhs = 2**d - 1
        equal = lhs == rhs
        ok = lhs <= rhs and equal == (d in (0, 1, 2))
        return ok, {"d": d, "lhs": lhs, "rhs": rhs, "equal": equal}

    return _sweep("extremes", d_min, d_max, per_d)


def check_log_concave(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Log-concavity of the counts, plus the two factor sequences separately.

    The two-power factor ``2**(d-k) - 1`` satisfies the exact identity
    ``(t[k+1])^2 - t[k] t[k+2] = 2**(d-k-2) > 0`` and every binomial row is
    log-concave; the entrywise product inherits the property.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = isocanted_fvector(d)
        ok = is_log_concave(seq)
        factor_ok = True
        for k in range(d - 2):
            t0 = 2 ** (d - k) - 1
            t1 = 2 ** (d - k - 1) - 1
            t2 = 2 ** (d - k - 2) - 1
            gap = t1 * t1 - t0 * t2
            if gap != 2 ** (d - k - 2) or gap <= 0:
                factor_ok = False
                break
        pascal_ok = is_log_concave([comb(d + 1, k) for k in range(d)])
        ok = ok and factor_ok and pascal_ok
        return ok, {"d": d, "log_concave": ok, "factor_identity": factor_ok}

    return _sweep("log_concave", d_min, d_max, per_d)


def check_unimodal(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = isocanted_fvector(d)
        ok = is_unimodal(seq)
        return ok, {"d": d, "unimodal": ok}

    return _sweep("unimodal", d_min, d_max, per_d)


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
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = isocanted_fvector(d)
        target = d // 3
        peak = max(seq)
        argmax_first = seq.index(peak)
        tie = seq.count(peak) > 1
        equiv_ok = True
        rises = []
        for k in range(d - 1):
            rise = seq[k + 1] >= seq[k]
            lhs = 2 ** (d - k - 1) * (d - 3 * k - 1)
            rhs = d - 2 * k
            if rise != (lhs >= rhs):
                equiv_ok = False
            rises.append(rise)
        lo = Fraction(d - 2, 3)
        hi = Fraction(d, 3)
        bracket_ok = all(
            rises[k] for k in range(len(rises)) if k < lo
        ) and all(
            not rises[k] for k in range(len(rises)) if k > hi
        )
        last_rise = max((k for k, r in enumerate(rises) if r), default=-1)
        if last_rise >= 0:
            window = [k for k in range(d) if lo <= k <= hi]
            bracket_ok = bracket_ok and any(
                k in (last_rise, last_rise + 1) for k in window
            )
        ok = seq[target] == peak and equiv_ok and bracket_ok
        return ok, {
            "d": d,
            "argmax": argmax_first,
            "expected": target,
            "tie": tie,
            "bracket_ok": bracket_ok,
            "quotient_equivalence": equiv_ok,
        }

    return _sweep("argmax", d_min, d_max, per_d)


def check_barany(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Every count is at least the facet count ``(d+1)d``."""
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = isocanted_fvector(d)
        bound = (d + 1) * d
        ok = min(seq) >= bound and seq[-1] == bound
        return ok, {"d": d, "min": min(seq), "bound": bound}

    return _sweep("barany", d_min, d_max, per_d)


def check_3d(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """The extended counts sum to ``3**(d+1) - 2**(d+2) + 2``, above ``3**d``.

    The closed form also equals ``2 * S(d+2, 3) + 1`` with Stirling numbers of
    the second kind, checked via the standard recurrence.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        total = sum(isocanted_fvector(d, extended=True))
        closed = 3 ** (d + 1) - 2 ** (d + 2) + 2
        stirling_form = 2 * stirling2(d + 2, 3) + 1
        ok = total == closed == stirling_form and total > 3**d
        return ok, {"d": d, "total": total, "closed_form": closed, "stirling_form": stirling_form}

    return _sweep("3d", d_min, d_max, per_d)


def check_flag(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Flag count beats the box count ``2**d d!``; recounted by chains when small.

    The supporting inequality ``(2**(d-1) - 1)(d+1) > 2**(d-2) d`` (the
    per-vertex comparison behind the bound) is verified along the way.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        flags = count_flags(d)
        bound = 2**d * factorial(d)
        # Compare 4*lhs > 4*rhs to stay in integers at d = 2.
        support = (2 ** (d - 1) - 1) * (d + 1) * 4 > 2**d * d
        chains = count_flags_by_chains(d) if d <= CHAIN_CHECK_LIMIT else None
        ok = flags > bound and support and (chains is None or chains == flags)
        return ok, {
            "d": d,
            "flags": flags,
            "box_flags": bound,
            "chain_recount": chains,
            "chain_checked": chains is not None,
        }

    return _sweep("flag", d_min, d_max, per_d)


def cubical_g2(d_min: int = 4, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Non-negativity of the second cubical g-entry over the sweep."""
    if d_min < 4:
        raise ValueError("the second cubical g-entry needs dimension >= 4")

    def per_d(d: int) -> tuple[bool, dict]:
        g2 = cubical_g2_value(d)
        return g2 >= 0, {"d": d, "g2": g2}

    return _sweep("cubical_g2", d_min, d_max, per_d)


def _require_min(d_min: int) -> None:
    if d_min < 2:
        raise ValueError("dimension range must start at 2 or above")


CHECKS: dict[str, Callable[..., ConjectureReport]] = {
    "extremes": check_extremes,
    "log_concave": check_log_concave,
    "unimodal": check_unimodal,
    "argmax": check_argmax,
    "barany": check_barany,
    "3d": check_3d,
    "flag": check_flag,
    "cubical_g2": cubical_g2,
}


def run_all(
    names: Sequence[str] | None = None,
    d_min: int = DEFAULT_D_MIN,
    d_max: int = DEFAULT_D_MAX,
) -> list[ConjectureReport]:
    """Run the named checks (default: all) over one dimension range.

    The extremes check keeps the requested floor (it is defined from zero);
    the cubical g-entry check clamps its floor to 4, where it is defined.
    """
    selected = list(CHECKS) if names is None else list(names)
    reports = []
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name!r}")
        if name == "cubical_g2":
            reports.append(CHECKS[name](max(4, d_min), d_max))
        else:
            reports.append(CHECKS[name](d_min, d_max))
    return reports
