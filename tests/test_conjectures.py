"""The exact verification sweeps, including the two known-false stated claims."""

import inspect
import math
import random
from fractions import Fraction as F

import pytest

from isocant import conjectures
from isocant.conjectures import (
    CHECKS,
    check_3d,
    check_argmax,
    check_barany,
    check_extremes,
    check_flag,
    check_log_concave,
    check_unimodal,
    cubical_g2,
    cubical_g2_value,
    is_log_concave,
    is_unimodal,
    long_cubical_h,
    run_all,
    short_cubical_h,
    stirling2,
)
from isocant.combinatorics import isocanted_fvector

import reference


def test_extremes_full_range_with_equality_cases():
    report = check_extremes(0, 60)
    assert report.passed
    equalities = [w["d"] for w in report.witnesses if w["equal"]]
    assert equalities == [0, 1, 2]
    assert report.counterexample is None


def test_extremes_sample_values():
    report = check_extremes(3, 10)
    by_d = {w["d"]: w for w in report.witnesses}
    assert by_d[3]["lhs"] == 6 and by_d[3]["rhs"] == 7
    assert by_d[10]["lhs"] == 55 and by_d[10]["rhs"] == 1023


def test_log_concave_and_unimodal_sweeps():
    assert check_log_concave(2, 60).passed
    assert check_unimodal(2, 60).passed


def test_log_concavity_spot_values():
    f4 = isocanted_fvector(4)
    assert f4 == (30, 70, 60, 20)
    assert 70 * 70 >= 30 * 60 and 60 * 60 >= 70 * 20
    assert is_unimodal(isocanted_fvector(2))


def test_helper_predicates_are_falsifiable():
    assert not is_log_concave([1, 3, 2, 4])
    assert not is_unimodal([1, 3, 2, 4])
    assert is_unimodal([1, 2, 2, 1])
    assert is_log_concave([2, 4, 4, 2])


def test_argmax_known_failure_at_d5():
    # The stated location floor(d/3) is wrong for d = 2 mod 3 from d = 5 on:
    # the counts there are (62, 180, 210, 120, 30) with the peak at index 2.
    report = check_argmax(2, 60)
    assert not report.passed
    assert report.counterexample["d"] == 5
    assert report.counterexample["argmax"] == 2
    assert report.counterexample["expected"] == 1
    # The supporting machinery (quotient equivalence, rise/fall bracketing)
    # holds even at the failing dimension.
    assert report.counterexample["quotient_equivalence"]
    assert report.counterexample["bracket_ok"]


def test_argmax_passes_where_claim_is_true():
    assert check_argmax(2, 4).passed
    by_d = {w["d"]: w for w in check_argmax(2, 4).witnesses}
    assert by_d[2]["tie"] and by_d[2]["argmax"] == 0
    assert by_d[3]["argmax"] == 1
    assert by_d[4]["argmax"] == 1


def test_argmax_true_location_is_ceiling_on_residue_two():
    for d in range(2, 61):
        seq = isocanted_fvector(d)
        peak = max(seq)
        assert seq[(d + 1) // 3] == peak


def test_barany_sweep_and_values():
    report = check_barany(2, 60)
    assert report.passed
    by_d = {w["d"]: w for w in report.witnesses}
    assert by_d[4]["min"] == 20 and by_d[4]["bound"] == 20
    assert by_d[3]["min"] == 12


def test_3d_sweep_and_values():
    report = check_3d(2, 60)
    assert report.passed
    by_d = {w["d"]: w for w in report.witnesses}
    assert by_d[2]["total"] == 13 == 27 - 16 + 2
    assert by_d[4]["total"] == 181 == 243 - 64 + 2


def test_stirling_and_short_h_refuse_bad_arguments():
    for n, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="^indices must be non-negative$"):
            stirling2(n, k)
    for f in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=r"^need face counts f_0 \.\. f_\{d-1\}$"):
            short_cubical_h(f, 3)


def test_stirling_values():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(4, 3) == 6
    assert stirling2(5, 3) == 25
    assert stirling2(6, 3) == 90
    for d in (2, 5, 10, 20):
        assert 3 ** (d + 1) - 2 ** (d + 2) + 2 == 2 * stirling2(d + 2, 3) + 1


def test_flag_known_failure_at_d4():
    # The stated closed formula undercounts from d = 4 on: the chain recount
    # (confirmed geometrically) gives 2^(d-1) (d+1)!.
    report = check_flag(2, 60)
    assert not report.passed
    assert report.counterexample["d"] == 4
    assert report.counterexample["flags"] == 840
    assert report.counterexample["chain_recount"] == 960


def test_flag_recount_refutes_formula_at_every_dimension():
    # Every dimension is recounted by chains, so a sweep starting anywhere
    # from 4 on fails at once with the true count.
    for d in range(4, 61):
        report = check_flag(d, d)
        assert not report.passed, d
        assert report.counterexample["chain_recount"] == 2 ** (d - 1) * math.factorial(d + 1)
        assert report.counterexample["chain_checked"] is True


def test_flag_passes_where_formula_matches():
    report = check_flag(2, 3)
    assert report.passed
    by_d = {w["d"]: w for w in report.witnesses}
    assert by_d[2]["flags"] == 12 and by_d[2]["box_flags"] == 8
    assert by_d[3]["flags"] == 96 and by_d[3]["box_flags"] == 48


def test_cubical_h_vector_structure():
    # Symmetric with ends 2^(d-1), as expected for a cubical sphere boundary.
    for d in range(2, 12):
        h = long_cubical_h(isocanted_fvector(d), d)
        assert len(h) == d + 1
        assert h[0] == h[-1] == 2 ** (d - 1)
        assert h == tuple(reversed(h))
    assert short_cubical_h((6, 6), 2) == (6, 6)
    assert short_cubical_h((30, 70, 60, 20), 4) == (30, 50, 50, 30)


def test_cubical_h_vectors_match_the_term_by_term_reference():
    # The library takes each binomial row in one pass and the sign by parity;
    # the reference writes every term as C(d-1-j, m) (-1)^m.  Isocanted rows
    # and seeded rows of mixed sign, d = 2..40, and the length refusal.
    rng = random.Random(3300)
    for d in range(2, 41):
        rows = [isocanted_fvector(d), tuple(rng.randint(-50, 10**6) for _ in range(d))]
        for f in rows:
            assert short_cubical_h(f, d) == reference.short_cubical_h(f, d), (d, f)
            assert long_cubical_h(f, d) == reference.long_cubical_h(f, d), (d, f)
        for f in (rows[1][:-1], (*rows[1], 1)):
            for fn in (short_cubical_h, long_cubical_h, reference.short_cubical_h, reference.long_cubical_h):
                with pytest.raises(ValueError, match=r"^need face counts f_0 \.\. f_\{d-1\}$"):
                    fn(f, d)


@pytest.mark.parametrize("d, f", [(0, ()), (-1, ()), (True, (4,)), (2.0, (1, 2))])
def test_cubical_h_vectors_refuse_a_dimension_that_is_not_an_int_of_at_least_one(d, f):
    # Each row has the length that the dimension's value would ask for, so
    # only the dimension check refuses it: no float h[0] = 2 ** -1 at d = 0.
    for fn in (short_cubical_h, long_cubical_h):
        with pytest.raises(ValueError, match=r"^dimension must be an integer >= 1$"):
            fn(f, d)


def test_cubical_g2_printed_values():
    assert [cubical_g2_value(d) for d in range(4, 9)] == [6, 20, 50, 112, 238]
    for d in range(4, 30):
        assert cubical_g2_value(d) == 2**d - 2 * d - 2


def test_cubical_g2_matches_full_h_vector():
    # The entry from f_0 and f_1 alone against the whole long h-vector.
    for d in range(4, 101):
        h = long_cubical_h(isocanted_fvector(d), d)
        assert cubical_g2_value(d) == h[2] - h[1]


def test_cubical_g2_sweep():
    report = cubical_g2(4, 60)
    assert report.passed
    assert all(w["g2"] >= 0 for w in report.witnesses)
    with pytest.raises(ValueError):
        cubical_g2(2, 10)
    with pytest.raises(ValueError):
        cubical_g2_value(3)


def test_run_all_structure_and_determinism():
    first = run_all(["barany", "3d"], 2, 20)
    second = run_all(["barany", "3d"], 2, 20)
    assert first == second
    assert [r.name for r in first] == ["barany", "3d"]
    payload = first[0].to_json()
    assert payload["status"] == "pass"
    assert payload["d_range"] == [2, 20]
    assert payload["counterexample"] is None


def test_run_all_clamps_cubical_g2_floor():
    reports = run_all(["cubical_g2"], 2, 10)
    assert reports[0].d_min == 4
    assert run_all(["cubical_g2"], 5, 10)[0].d_min == 5
    assert run_all(None, 2, 4)[-1].d_min == 4
    # A range that ends below 4 runs the seven checks defined there, and a
    # named g-entry check says why it cannot run.
    reports = run_all(None, 2, 3)
    assert [r.name for r in reports] == [n for n in CHECKS if n != "cubical_g2"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError, match="the second cubical g-entry needs dimension >= 4"):
        run_all(["barany", "cubical_g2"], 2, 3)


def test_run_all_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_all(["nope"], 2, 10)


def test_sweeps_reject_bad_ranges():
    with pytest.raises(ValueError):
        check_log_concave(1, 10)
    with pytest.raises(ValueError):
        check_extremes(-1, 10)
    with pytest.raises(ValueError):
        check_barany(10, 2)


@pytest.mark.parametrize("d_min, d_max", [(2.5, 10), (True, 3), (0, 10.0), (2, None), (F(2), 5)])
def test_sweeps_reject_non_int_bounds(d_min, d_max):
    message = "dimension bounds must be ints, got "
    for call in (
        lambda: run_all(None, d_min, d_max),
        lambda: run_all(["cubical_g2"], d_min, d_max),
        lambda: run_all([], d_min, d_max),
        lambda: check_extremes(d_min, d_max),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return [r.to_json() for r in result] if isinstance(result, list) else result.to_json()


def _expected_run_all(names, lo, hi):
    # The old sweep, with its two intended changes for ranges that end below
    # 4: the default selection drops the g-entry check, and a named one says
    # why it cannot run instead of calling the range empty.
    g2_undefined = lo <= hi < 4
    if names is None and g2_undefined:
        names = [n for n in reference.CHECKS if n != "cubical_g2"]
    expected = _outcome(reference.run_all, names, lo, hi)
    if g2_undefined and expected == ("ValueError", "empty dimension range"):
        expected = ("ValueError", "the second cubical g-entry needs dimension >= 4")
    return expected


def _sweep_cases(rng):
    for lo in range(-1, 7):
        for hi in range(lo - 1, lo + 6):
            yield None, lo, hi
    yield ["nope"], 2, 10
    yield ["barany", "nope"], 1, 10
    yield ["cubical_g2"], 2, 3
    yield ["cubical_g2"], 3, 2
    yield ["extremes", "cubical_g2"], -1, 3
    yield ["flag", "argmax", "flag"], 2, 10
    yield [], 2, 10
    pool = list(CHECKS)
    for _ in range(20):
        lo = rng.randint(-1, 6)
        hi = rng.randint(lo - 1, 120)
        names = rng.sample(pool, rng.randint(0, len(pool)))
        if rng.random() < 0.5:
            names += ["argmax", "flag"]
            rng.shuffle(names)
        if rng.random() < 0.1:
            names.insert(rng.randrange(len(names) + 1), "nope")
        yield (None if rng.random() < 0.2 else names), lo, hi
    yield None, 2, 200


def test_one_pass_sweep_matches_per_check_reference():
    # Every report (or error) of the one-pass sweep against the old sweeps,
    # which ran each check over its own range and rebuilt the row each time.
    for names, lo, hi in _sweep_cases(random.Random(12)):
        assert _outcome(run_all, names, lo, hi) == _expected_run_all(names, lo, hi), (names, lo, hi)
        if hi <= 30:
            for name in CHECKS:
                got = _outcome(CHECKS[name], lo, hi)
                assert got == _outcome(reference.CHECKS[name], lo, hi), (name, lo, hi)


def test_log_concave_factor_identity_carried_along_sweep():
    # Each dimension adds one factor identity to those of the first one;
    # witnesses match the check-major sweep, which checks every identity at
    # every dimension.
    for lo, hi in ((2, 2), (2, 3), (2, 40), (3, 9), (5, 5), (7, 60), (30, 100)):
        expected = reference.check_log_concave(lo, hi).to_json()
        assert check_log_concave(lo, hi).to_json() == expected, (lo, hi)
        assert run_all(["log_concave", "3d"], lo, hi)[0].to_json() == expected, (lo, hi)


def test_isocanted_fvector_matches_binomial_formula():
    for d in range(2, 301):
        row = tuple((2 ** (d + 1 - j) - 2) * math.comb(d + 1, j) for j in range(d))
        assert isocanted_fvector(d) == row
        assert isocanted_fvector(d, extended=True) == row + (1,)


def _random_sequences(rng):
    # Short int sequences from a small pool, so plateaus, zeros and negatives
    # are common, with every length from the empty sequence up to 8.
    yield []
    for length in range(9):
        for _ in range(2200):
            low = rng.choice((-3, -1, 0, 0, 1))
            yield [rng.randint(low, low + rng.choice((1, 2, 4, 9))) for _ in range(length)]


def test_sequence_predicates_match_loop_references():
    checked = 0
    for seq in _random_sequences(random.Random(17)):
        for given in (seq, tuple(seq)):
            assert is_log_concave(given) is reference.is_log_concave(given), seq
            assert is_unimodal(given) is reference.is_unimodal(given), seq
        checked += 1
    assert checked > 19000
    # The edges a naive rewrite gets wrong: an empty sequence is not
    # unimodal, and a plateau may sit on either side of the peak.
    assert is_unimodal([]) is False and is_unimodal(()) is False
    assert is_unimodal([0]) and is_unimodal([-2, -2]) and is_unimodal([0, 0, 1, 1, 0, 0])
    assert not is_unimodal([1, 0, 0, 1]) and not is_unimodal([-1, -2, -2, -1])
    assert is_log_concave([]) and is_log_concave([5]) and is_log_concave([0, 0, 0])
    assert not is_log_concave([1, 0, 1]) and is_log_concave([-1, 1, -1])


def test_each_check_is_declared_by_one_row():
    # CHECKS is read off the rows, and each check's default first dimension
    # is its row's floor.
    floors = {name: row[1] for name, row in conjectures._PREDICATES.items()}
    assert floors == {
        "extremes": 0, "log_concave": 2, "unimodal": 2, "argmax": 2,
        "barany": 2, "3d": 2, "flag": 2, "cubical_g2": 4,
    }
    assert CHECKS == {name: row[0] for name, row in conjectures._PREDICATES.items()}
    for name, check in CHECKS.items():
        assert inspect.signature(check).parameters["d_min"].default == floors[name], name
        assert check(d_max=floors[name] + 3).d_min == floors[name], name


def _spy_on_rows(monkeypatch, name):
    # Wrap one check so the sweep's rows and binomials at each dimension are
    # recorded as handed out.
    seen = []
    check, floor, below, reads, make = conjectures._PREDICATES[name]

    def make_spy(lo):
        inner = make(lo)

        def per_d(d, row, binomials):
            seen.append((d, row, None if binomials is None else list(binomials)))
            return inner(d, row, binomials)

        return per_d

    monkeypatch.setitem(conjectures._PREDICATES, name, (check, floor, below, reads, make_spy))
    return seen


#: d -> (C(d+1, 0..d+1) by ``math.comb``, the reference face-count row).
_COMB_ROWS = {d: ([math.comb(d + 1, j) for j in range(d + 2)], reference.fvector(d)) for d in range(2, 301)}


def test_sweep_carries_binomial_row_along_the_range(monkeypatch):
    seen = _spy_on_rows(monkeypatch, "barany")
    for names, lo, hi in [
        (None, 2, 300), (None, 3, 300), (None, 4, 257), (None, 5, 300),
        (["barany"], 2, 3), (["barany"], 5, 5), (["extremes", "barany"], 2, 90),
    ]:
        seen.clear()
        run_all(names, lo, hi)
        assert [d for d, _, _ in seen] == list(range(lo, hi + 1))
        for d, row, binomials in seen:
            assert (binomials, row) == _COMB_ROWS[d], (lo, d)


def test_sweep_builds_binomial_row_where_none_came_before(monkeypatch):
    # The g-entry check starts at 4; extremes and flag read no row, so the
    # first row at 4 is built from scratch and then carried.
    seen = _spy_on_rows(monkeypatch, "cubical_g2")
    run_all(["extremes", "flag", "cubical_g2"], 2, 120)
    assert [d for d, _, _ in seen] == list(range(4, 121))
    for d, row, binomials in seen:
        assert (binomials, row) == _COMB_ROWS[d], d


def test_bench_shaped_sweeps_match_reference():
    # The shape the benchmark runs: every check, from 2..5 up to 100.
    for lo in range(2, 6):
        got = [r.to_json() for r in run_all(None, lo, 100)]
        assert got == [r.to_json() for r in reference.run_all(None, lo, 100)], lo


def test_log_concave_check_reads_the_binomials_it_is_handed():
    # Binomial rows are always log-concave, so only a forged row shows that
    # the check tests the one the sweep hands out.
    per_d = conjectures._PREDICATES["log_concave"][4](5)
    row = isocanted_fvector(5)
    binomials = [math.comb(6, j) for j in range(7)]
    assert per_d(5, row, binomials)[0]
    forged = binomials[:3] + [1] + binomials[4:]
    assert per_d(5, row, forged) == (False, {"d": 5, "log_concave": False, "factor_identity": True})
