import numpy as np
import pytest

from conftest import (
    EX41_TEXT,
    EX42_TEXT,
    build_vandermonde,
    constant_denominator_representative,
    fixture_system,
    lattice_is_empty,
    multidegree,
)
from decksym import interp, monodromy, scaling
from decksym.expr import (
    Polynomial,
    RationalFunction,
    monomial_values,
    monomials_up_to_degree,
    parse_deck_formulas,
    parse_expression,
    parse_system,
)
from decksym.interp import (
    derive_deck_permutation,
    get_representative,
    held_out_fibers,
    interpolate_dense,
    interpolate_graded,
    monomial_classes,
    representative_to_rational,
    snap_rational,
    verify_deck,
)
from decksym.monodromy import sample_orbit
from decksym.numcore import nullspace, rref
from decksym.permgrp import centralizer_in_symmetric, identity
from decksym.tracker import FiberSample


def deck_perms_of(result):
    return [p for p in centralizer_in_symmetric(result.group()) if p != identity(result.degree)]


def rf_equal_on_samples(rf1, rf2, points, rtol=1e-8):
    for pt in points:
        v1, v2 = rf1.evaluate(pt), rf2.evaluate(pt)
        if abs(v1 - v2) > rtol * (1 + abs(v2)):
            return False
    return True


def fiber_points(system, result, rng, count=20):
    """Fresh on-variety points (x, p) obtained by tracking the base fiber."""
    from decksym.tracker import FiberTrackingError, draw_gamma, track_fiber

    pts = []
    while len(pts) < count:
        target = rng.standard_normal(system.m) + 1j * rng.standard_normal(system.m)
        try:
            sample = track_fiber(system, result.base, target, gamma=draw_gamma(rng))
        except FiberTrackingError:
            continue
        for sol in sample.solutions:
            pts.append(np.concatenate([sol, sample.params]))
    return pts[:count]


def test_vandermonde_single_sample_shape():
    pair = (np.array([2.0, 3.0]), np.array([5.0, 3.0]))
    a = build_vandermonde([pair], 0, [(0, 0)], [(0, 0)])
    assert a.shape == (1, 2)
    assert np.allclose(a, [[1.0, -5.0]])


def test_vandermonde_rejects_empty_input():
    with pytest.raises(ValueError, match="sample pair"):
        build_vandermonde([], 0, [(0, 0)], [(0, 0)])


def test_vandermonde_ex41_nullspace_two_dimensional(mono41):
    system, result, rng = mono41
    deck = deck_perms_of(result)
    samples = sample_orbit(system, result, deck, 6, rng)
    monos = monomials_up_to_degree(1, 1, 1, True)
    pairs = [
        (np.concatenate([s.solutions[0], s.params]), np.concatenate([s.solutions[1], s.params]))
        for s in samples
    ]
    a = build_vandermonde(pairs, 0, monos, monos)
    assert a.shape == (6, 6)
    assert nullspace(a).shape[1] == 2


def test_vandermonde_ex42_is_8x8(mono42):
    system, result, rng = mono42
    deck = deck_perms_of(result)
    samples = sample_orbit(system, result, deck, 8, rng)
    monos = monomials_up_to_degree(2, 1, 1, True)
    pairs = [
        (np.concatenate([s.solutions[0], s.params]), np.concatenate([s.solutions[1], s.params]))
        for s in samples
    ]
    a = build_vandermonde(pairs, 0, monos, monos)
    assert a.shape == (8, 8)


def test_monomial_values_match_direct():
    """The Vandermonde columns come from the kernel's monomial rows."""
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    exps = [(0, 0, 0), (2, 1, 0), (0, 0, 3)]
    vals = monomial_values(exps, pts)
    assert vals.shape == (4, 3)
    for s in range(4):
        for k, e in enumerate(exps):
            direct = np.prod([pts[s, v] ** e[v] for v in range(3)])
            assert abs(vals[s, k] - direct) < 1e-12 * (1 + abs(direct))


def test_get_representative_prefers_sparser_row():
    # rows encode 1/x (3 nonzeros) and -x-p (4 nonzeros)
    n = np.array(
        [[1, 0, 0, 0, 1, 0], [0, 1, 1, -1, 0, 0]], dtype=complex
    )
    a, b = get_representative(n, 3)
    assert np.allclose(a, [1, 0, 0]) and np.allclose(b, [0, 1, 0])


def test_get_representative_rejects_one_sided_rows():
    n = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]], dtype=complex)
    assert get_representative(n, 3) is None


def test_get_representative_constant_function():
    n = np.array([[1.0, 1.0]])
    a, b = get_representative(n, 1)
    assert a[0] == 1 and b[0] == 1


def test_get_representative_truncates_noise():
    n = np.array([[1, 1e-7, 0, 0, 1, 3e-6]], dtype=complex)
    a, b = get_representative(n, 3)
    assert np.count_nonzero(a) == 1 and np.count_nonzero(b) == 1


def ex42_reduced_nullspace(mono42, coordinate):
    system, result, rng = mono42
    deck = deck_perms_of(result)
    samples = sample_orbit(system, result, deck, 8, rng)
    monos = monomials_up_to_degree(2, 1, 1, True)
    pairs = [
        (np.concatenate([s.solutions[0], s.params]), np.concatenate([s.solutions[1], s.params]))
        for s in samples
    ]
    a = build_vandermonde(pairs, coordinate, monos, monos)
    return rref(nullspace(a).T), monos


def test_constant_denominator_ex42_psi1(mono42):
    system = mono42[0]
    reduced, monos = ex42_reduced_nullspace(mono42, 0)
    got = constant_denominator_representative(reduced, len(monos))
    assert got is not None
    rf = snap_rational(representative_to_rational(got[0], got[1], monos, monos, 3))
    expected = parse_expression("-x - 1", system.names)
    assert rf.numerator == expected.numerator
    assert rf.denominator == expected.denominator


def test_constant_denominator_ex42_psi2_polynomial_row(mono42):
    system = mono42[0]
    reduced, monos = ex42_reduced_nullspace(mono42, 1)
    got = constant_denominator_representative(reduced, len(monos))
    rf = snap_rational(representative_to_rational(got[0], got[1], monos, monos, 3))
    expected = parse_expression("1 - y - 2*p", system.names)
    assert rf.numerator == expected.numerator


def test_constant_denominator_without_constant_support():
    # denominator block has no constant column content
    n = np.array([[1.0, 0.0, 0.0, 1.0]])
    assert constant_denominator_representative(n, 2) is None


def test_snap_rational():
    num = Polynomial(2, [((1, 0), 0.499999999993 + 0j)])
    den = Polynomial.constant(2, 1.0 + 1e-12)
    rf = snap_rational(RationalFunction(num, den))
    from fractions import Fraction

    assert rf.numerator.terms[0][1] == (Fraction(1, 2), Fraction(0))


def test_interpolate_dense_ex41(mono41):
    system, result, rng = mono41
    decks, stats = interpolate_dense(
        system, result, deck_perms_of(result), 1, True, rng
    )
    assert len(decks) == 1 and decks[0].complete
    rf = decks[0].coords[0]
    one_over_x = parse_expression("1/x", system.names)
    pts = fiber_points(system, result, rng)
    assert rf_equal_on_samples(rf, one_over_x, pts)
    assert stats.largest_vandermonde == 6


def test_interpolate_dense_sextic(mono_sextic):
    system, result, rng = mono_sextic
    decks, _ = interpolate_dense(
        system, result, deck_perms_of(result), 1, True, rng
    )
    assert decks[0].complete
    one_over_x = parse_expression("1/x", system.names)
    pts = fiber_points(system, result, rng, count=12)
    assert rf_equal_on_samples(rf1=decks[0].coords[0], rf2=one_over_x, points=pts)


def test_interpolate_dense_ex42_psi2(mono42):
    system, result, rng = mono42
    decks, _ = interpolate_dense(
        system, result, deck_perms_of(result), 1, True, rng
    )
    assert decks[0].complete
    expected = parse_expression("1 - y - 2*p", system.names)
    pts = fiber_points(system, result, rng, count=12)
    assert rf_equal_on_samples(decks[0].coords[1], expected, pts)


def test_graded_reduces_to_dense_on_empty_lattice(mono41):
    system, result, rng = mono41
    lattice = scaling.ScalingLattice(2, scaling.IntMatrix(0, 2, ()), ())
    assert lattice_is_empty(lattice)
    monos = monomials_up_to_degree(1, 1, 1, True)
    classes = monomial_classes(monos, lattice)
    assert len(classes) == 1
    decks, stats = interpolate_graded(
        system, result, deck_perms_of(result), lattice, 1, True, rng
    )
    assert decks[0].complete
    one_over_x = parse_expression("1/x", system.names)
    pts = fiber_points(system, result, rng, count=10)
    assert rf_equal_on_samples(decks[0].coords[0], one_over_x, pts)
    assert stats.largest_vandermonde == 6


def test_graded_matches_dense_on_sextic(mono_sextic):
    system, result, rng = mono_sextic
    lattice = scaling.detect_scalings(system)
    decks_d, _ = interpolate_dense(system, result, deck_perms_of(result), 1, True, rng)
    decks_g, _ = interpolate_graded(
        system, result, deck_perms_of(result), lattice, 1, True, rng
    )
    pts = fiber_points(system, result, rng, count=20)
    assert rf_equal_on_samples(decks_d[0].coords[0], decks_g[0].coords[0], pts)


def test_class_partition_refines(mono_sextic):
    system = mono_sextic[0]
    lattice = scaling.detect_scalings(system)
    monos = monomials_up_to_degree(1, 4, 2, True)
    classes = monomial_classes(monos, lattice)
    assert sum(len(v) for v in classes.values()) == len(monos)
    for key, exps in classes.items():
        for e in exps:
            assert multidegree(e, lattice) == key


def test_interpolation_draws_only_the_shortfall(mono41, monkeypatch):
    """With no candidate accepted, degrees 1-3 all run; their orbit samples
    are kept, so ``sample_orbit`` is asked for the last degree's budget in
    total, one shortfall per degree."""
    system, result, _ = mono41
    asked = []

    def counting(system, mono, perms, count, rng):
        asked.append(count)
        return real(system, mono, perms, count, rng)

    real = monodromy.sample_orbit
    monkeypatch.setattr(monodromy, "sample_orbit", counting)
    monkeypatch.setattr(interp, "_try_candidate", lambda *args: None)
    interpolate_dense(system, result, deck_perms_of(result), 3, True, np.random.default_rng(0))

    def budget(degree):
        fit = 2 * len(monomials_up_to_degree(system.n, system.m, degree, True))
        return fit + interp._holdout_count(fit)

    assert asked == [budget(1), budget(2) - budget(1), budget(3) - budget(2)]
    assert sum(asked) == budget(3)


def test_verify_deck_passes_for_true_formula(mono41):
    system, result, rng = mono41
    decks, _ = interpolate_dense(system, result, deck_perms_of(result), 1, True, rng)
    report = verify_deck(system, decks[0], held_out_fibers(system, result.base, 5, rng), 5, rng)
    assert report.passed
    assert report.worst_pairing <= 1e-6


def test_verify_deck_fails_for_corrupted_formula(mono41):
    system, result, rng = mono41
    decks, _ = interpolate_dense(system, result, deck_perms_of(result), 1, True, rng)
    rf = decks[0].coords[0]
    corrupted = RationalFunction(
        rf.numerator + Polynomial.constant(2, 1e-3), rf.denominator
    )
    bad = decks[0]
    bad.coords[0] = corrupted
    report = verify_deck(system, bad, held_out_fibers(system, result.base, 5, rng), 5, rng)
    assert not report.pairing_ok


def test_verify_deck_fails_for_p3p_coefficient_perturbed_by_1e_4():
    """The bundled P3P deck formulas pass; the same formulas with one
    coefficient moved from 2 to 2.0001 fail the pairing check."""
    from decksym.expr import parse_deck_formulas, parse_seed_pair
    from decksym.fixtures import deck_path, seed_path
    from decksym.interp import DeckMap
    from decksym.monodromy import run_monodromy

    system = fixture_system("p3p_quasihom")
    seed = parse_seed_pair(seed_path("p3p_quasihom").read_text())
    rng = np.random.default_rng(0)
    result = run_monodromy(system, seed, rng, expected_degree=8)
    text = deck_path("p3p_quasihom").read_text()
    perm, coords = derive_deck_permutation(system, parse_deck_formulas(text, system), result.base)
    fibers = held_out_fibers(system, result.base, 2, rng)
    assert verify_deck(system, DeckMap(perm, coords, 3), fibers, 2, rng).passed

    doctored = text.replace("t1 = (2*(", "t1 = (2.0001*(")
    assert doctored != text
    formulas = parse_deck_formulas(doctored, system)
    bad = DeckMap(perm, [formulas[name] for name in system.unknowns], 3)
    report = verify_deck(system, bad, held_out_fibers(system, result.base, 2, rng), 2, rng)
    assert report.trials == 2
    assert not report.pairing_ok and not report.passed
    assert report.worst_pairing > 1e-5


def test_verify_deck_fails_for_nan_formula(mono41):
    """A formula whose every value is NaN fails both checks: a running
    maximum that skips NaN would pass it."""
    from decksym.interp import DeckMap

    system, result, rng = mono41
    nan_x = RationalFunction.from_polynomial(Polynomial(2, [((1, 0), complex("nan"))]))
    nan_deck = DeckMap(deck_perms_of(result)[0], [nan_x], 1)
    report = verify_deck(system, nan_deck, held_out_fibers(system, result.base, 2, rng), 2, rng)
    assert report.trials == 2
    assert not report.pairing_ok and not report.fiber_ok and not report.passed


def test_verify_deck_fails_when_no_fiber_tracks(mono41, monkeypatch):
    """A wrong formula must not pass because every held-out fiber failed."""
    from decksym import tracker
    from decksym.interp import DeckMap
    from decksym.tracker import FiberTrackingError

    system, result, _ = mono41

    def fail(*args, **kwargs):
        raise FiberTrackingError("injected")

    monkeypatch.setattr(tracker, "track_fiber", fail)
    x_plus_one = RationalFunction.from_polynomial(
        Polynomial.variable(2, 0) + Polynomial.constant(2, 1)
    )
    wrong = DeckMap((1, 0), [x_plus_one], 1)
    rng = np.random.default_rng(0)
    report = verify_deck(system, wrong, held_out_fibers(system, result.base, 5, rng), 5, rng)
    assert report.trials == 0
    assert not report.passed


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_deck_rejects_fewer_than_one_trial(mono41, trials):
    """Fewer than one trial would pass vacuously: the call raises before it
    draws or tracks anything."""
    from decksym.interp import DeckMap

    system, result, _ = mono41
    ident = DeckMap((0, 1), [RationalFunction.from_polynomial(Polynomial.variable(2, 0))], 1)
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(ValueError, match="trial_count must be >= 1"):
        verify_deck(system, ident, held_out_fibers(system, result.base, trials, rng), trials, rng)
    assert rng.random() == twin.random()


def test_verify_deck_identity_map(mono42):
    system, result, rng = mono42
    from decksym.interp import DeckMap

    ident = DeckMap(
        identity(result.degree),
        [
            RationalFunction.from_polynomial(Polynomial.variable(3, j))
            for j in range(system.n)
        ],
        1,
    )
    report = verify_deck(system, ident, held_out_fibers(system, result.base, 3, rng), 3, rng)
    assert report.passed


def test_derive_deck_permutation_ex42(mono42):
    system, result, rng = mono42
    from decksym.expr import parse_deck_formulas

    formulas = parse_deck_formulas("x = -x - 1\ny = 1 - y - 2*p\n", system)
    perm, coords = derive_deck_permutation(system, formulas, result.base)
    assert perm == (1, 0)
    assert coords[0] is not None and coords[1] is not None


@pytest.mark.parametrize(
    "formula, message",
    [("x = x + 1", "image of solution 0 does not lie in the fiber"), ("x = x + 0.00001", "ambiguous")],
    ids=["new", "band"],
)
def test_derive_deck_permutation_rejects_an_unmatched_image(formula, message):
    """An image 1 from the fiber is new; one 1e-5 from a solution lies
    between ``MATCH_TOL`` and 100 times it, and is ambiguous."""
    system = parse_system(EX41_TEXT)
    base = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([0.5])))
    with pytest.raises(ValueError, match=message):
        derive_deck_permutation(system, parse_deck_formulas(formula, system), base)


def test_derive_deck_permutation_ambiguous_on_partial_coordinates():
    """Only x is supplied, and two base points share their x to within 5e-7:
    an image 1e-7 from one is 4e-7 from the other, not 100 times farther.
    (The base points need not solve the system: the formulas are only
    evaluated on them and matched.)"""
    system = parse_system(EX42_TEXT)
    base = FiberSample(np.array([0.1]), (np.array([0.0, 1.0]), np.array([5e-7, 2.0])))
    formulas = parse_deck_formulas("x = x + 0.0000001", system)
    with pytest.raises(ValueError, match="ambiguous on the fiber; supply more coordinates"):
        derive_deck_permutation(system, formulas, base)


def test_interpolation_commutation_guard(mono_sextic):
    system, result, rng = mono_sextic
    # a transposition of two labels in the same pair block does not commute
    # with the full monodromy group
    bogus = (0, 1, 3, 2, 4, 5)
    with pytest.raises(ValueError, match="centralize"):
        interpolate_dense(system, result, [bogus], 1, True, rng)
    with pytest.raises(ValueError, match="degree"):
        interpolate_dense(system, result, [(0, 1, 2)], 1, True, rng)
