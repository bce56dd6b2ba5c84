"""Structure of the index operations: duality, refinement, compositions."""

import math

import pytest
from hypothesis import given, strategies as st

from akzkit import verify
from akzkit.ak_zeta import eta_symmetric_oracle, xi_series_oracle
from akzkit.exact_series import mpl_coeffs, stirling2
from akzkit.index_algebra import (
    PoleError,
    _unword,
    b_coefficient,
    coarsenings,
    compositions,
    depth,
    dual,
    indices_up_to_weight,
    is_admissible,
    plus_one,
    refinements,
    require_index,
    require_int,
    require_tolerance,
    weight,
    word,
)
from akzkit.level2 import ath_coeffs, height_one_duality_check, odd_zeta_relation_check, psi_formula_crosscheck
from akzkit.mzv_numeric import bernoulli_number, duality_numeric_check, mzv_direct, t0_direct, zeta_nonpositive
from akzkit.pbn import B_symbolic, finite_mzv_mod_p

indices = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(tuple)
# Refinement sets grow like 2^weight, so the tests that enumerate them
# stick to small indices.
small_indices = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
admissible = st.tuples(
    st.lists(st.integers(1, 5), max_size=4).map(tuple), st.integers(2, 6)
).map(lambda pair: pair[0] + (pair[1],))


@given(admissible)
def test_dual_is_an_involution(k):
    assert dual(dual(k)) == k


@given(admissible)
def test_dual_preserves_weight(k):
    assert weight(dual(k)) == weight(k)


@given(admissible)
def test_depths_of_a_dual_pair_sum_to_the_weight(k):
    assert depth(k) + depth(dual(k)) == weight(k)


@given(admissible)
def test_dual_output_is_admissible(k):
    assert is_admissible(dual(k))


def test_dual_small_table():
    # weight-3 and weight-4 pairs by hand
    assert dual((3,)) == (1, 2)
    assert dual((1, 2)) == (3,)
    assert dual((2,)) == (2,)
    assert dual((4,)) == (1, 1, 2)
    assert dual((2, 2)) == (2, 2)
    assert dual((2, 3)) == (1, 2, 2)
    assert dual((1, 1, 2)) == (4,)


def test_dual_rejects_non_admissible():
    with pytest.raises(PoleError):
        dual((2, 1))


@given(indices)
def test_plus_one_bumps_only_the_last_entry(k):
    lifted = plus_one(k)
    assert lifted[:-1] == k[:-1]
    assert lifted[-1] == k[-1] + 1
    assert weight(lifted) == weight(k) + 1
    assert is_admissible(lifted)


@given(small_indices)
def test_refinement_count_is_a_power_product(k):
    assert len(refinements(k)) == math.prod(2 ** (p - 1) for p in k)


@given(indices)
def test_coarsening_count_depends_only_on_depth(k):
    assert len(coarsenings(k)) == 2 ** (depth(k) - 1)


@given(small_indices)
def test_refinements_and_coarsenings_invert_each_other(k):
    for fine in refinements(k):
        assert k in coarsenings(fine)
        assert weight(fine) == weight(k)
    for coarse in coarsenings(k):
        assert k in refinements(coarse)
        assert weight(coarse) == weight(k)


@given(small_indices)
def test_every_index_refines_and_coarsens_itself(k):
    assert k in refinements(k)
    assert k in coarsenings(k)


def test_refinements_and_coarsenings_small_tables():
    assert refinements((1, 3)) == ((1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3))
    assert coarsenings((1, 1, 2)) == ((1, 1, 2), (1, 3), (2, 2), (4,))


@given(st.lists(st.integers(0, 1), max_size=12).map(lambda w: tuple(w) + (1,)))
def test_word_round_trips_with_one_symbol_per_unit_of_weight(w):
    # Every binary word ending in 1 is the word of exactly one index.
    k = _unword(w)
    assert word(k) == w
    assert weight(k) == len(w)
    assert depth(k) == sum(w)
    assert is_admissible(k) == (w[0] == 0)


@pytest.mark.parametrize("bad", [(), (0,), (1, 0)])
def test_a_word_must_end_in_one(bad):
    with pytest.raises(ValueError, match="malformed index word"):
        _unword(bad)


@given(admissible)
def test_dual_word_is_the_reversed_complement(k):
    assert word(dual(k)) == tuple(1 - s for s in reversed(word(k)))


@given(st.integers(0, 9), st.integers(1, 5))
def test_composition_enumeration_is_complete_and_ordered(total, parts):
    out = compositions(total, parts)
    assert len(out) == math.comb(total + parts - 1, parts - 1)
    assert len(set(out)) == len(out)
    for c in out:
        assert len(c) == parts
        assert sum(c) == total
        assert min(c) >= 0
    assert sorted(out, reverse=True) == out


def test_b_coefficient_matches_the_binomial_product():
    k = (2, 3)
    j = (1, 4)
    assert b_coefficient(k, j) == math.comb(2, 1) * math.comb(6, 4)


@pytest.mark.parametrize("bad", [(), (0,), (2, -1), (1.5,), (True,), "21"])
def test_require_index_rejects_malformed_input(bad):
    with pytest.raises((ValueError, TypeError)):
        require_index(bad)


def test_indices_up_to_weight_lists_each_index_once_in_order():
    got = indices_up_to_weight(6)
    assert got == sorted(set(got))
    for w in range(1, 7):
        assert sum(1 for k in got if weight(k) == w) == 2 ** (w - 1)


@pytest.mark.parametrize("bad", [True, 1.0, "3", None, 0])
def test_require_int_names_the_argument(bad):
    with pytest.raises(ValueError, match="^depth must be an integer >= 1"):
        require_int(bad, "depth", 1)
    assert require_int(-4, "depth") == -4


@pytest.mark.parametrize(
    "call",
    [
        lambda: mzv_direct((2,), 0),
        lambda: mzv_direct((2,), 10.7),
        lambda: mzv_direct((2,), "100"),
        lambda: t0_direct((2,), 0),
        lambda: eta_symmetric_oracle(2, 2, 0),
        lambda: xi_series_oracle(2, 2, 0),
        lambda: mpl_coeffs((2,), -1),
        lambda: ath_coeffs((2,), -1),
        lambda: B_symbolic(2).evaluate_exact(1.5),
        lambda: bernoulli_number(True),
        lambda: bernoulli_number(2.0),
        lambda: zeta_nonpositive(-1.0),
        lambda: zeta_nonpositive(1),
        lambda: compositions(True, 1),
        lambda: compositions(2.0, 2),
        lambda: stirling2(3.0, 2),
        lambda: finite_mzv_mod_p((2,), 2.0),
        lambda: verify.verify_all(jobs=True),
    ],
    ids=[
        "mzv_direct-zero-cutoff",
        "mzv_direct-float-cutoff",
        "mzv_direct-str-cutoff",
        "t0_direct-zero-cutoff",
        "eta_symmetric_oracle-zero-cutoff",
        "xi_series_oracle-zero-cutoff",
        "mpl_coeffs-negative-cap",
        "ath_coeffs-negative-cap",
        "evaluate_exact-float-argument",
        "bernoulli_number-bool",
        "bernoulli_number-float",
        "zeta_nonpositive-float",
        "zeta_nonpositive-positive",
        "compositions-bool-total",
        "compositions-float-total",
        "stirling2-float",
        "finite_mzv_mod_p-float-prime",
        "verify_all-bool-jobs",
    ],
)
def test_public_entries_refuse_what_require_int_refuses(call, monkeypatch):
    # An accepted verify_all(jobs=...) runs an empty battery, not the full one.
    monkeypatch.setattr(verify, "default_tasks", lambda **settings: [])
    with pytest.raises(ValueError, match="^[a-z ]+ must be an integer"):
        call()


@pytest.mark.parametrize("bad", [True, float("inf"), -float("inf"), float("nan"), -1, -1e-300, "1e-8", None])
def test_require_tolerance_refuses_what_would_pass_or_fail_every_row(bad):
    with pytest.raises(ValueError, match="^tolerance must be a finite number >= 0"):
        require_tolerance(bad)


@pytest.mark.parametrize("good", [0, 0.0, 1e-8, 1e-4, 3, 2**70])
def test_require_tolerance_returns_what_it_accepts_unchanged(good):
    assert require_tolerance(good) is good


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: odd_zeta_relation_check(tolerance=float("inf")), "tolerance"),
        (lambda: duality_numeric_check(max_weight=1), "max_weight"),
        (lambda: height_one_duality_check(max_rk=0), "max_rk"),
        (lambda: psi_formula_crosscheck(max_r=0), "max_r"),
        (lambda: psi_formula_crosscheck(max_k=0), "max_k"),
    ],
    ids=["odd_zeta-inf-tolerance", "duality-max_weight-1", "ht1-max_rk-0", "psi-max_r-0", "psi-max_k-0"],
)
def test_checks_refuse_on_their_own_what_the_command_line_refuses(call, name):
    # Each would otherwise pass every row, or run none.
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
