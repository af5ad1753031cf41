import numpy as np
import pytest

from conftest import max_residual
from decksym import tracker
from decksym.expr import parse_system
from decksym.monodromy import (
    MonodromyConfig,
    MonodromyError,
    replay_loop,
    run_monodromy,
    sample_orbit,
    seed_from_linear_params,
)
from decksym.permgrp import (
    centralizer_in_symmetric,
    group_order_capped,
    identity,
    is_permutation,
    is_transitive,
)

EX41 = parse_system("unknowns x; parameters p; equations x^2 + p*x + 1;")
EX42 = parse_system("unknowns x, y; parameters p; equations x^2 + x + p; x + y + p;")
SEXTIC = parse_system(
    "unknowns x; parameters a, b, c, d;"
    "equations a*x^6 + b*x^5 + c*x^4 + d*x^3 + c*x^2 + b*x + a;"
)
NONLINEAR_P = parse_system("unknowns x; parameters p; equations x^2 + p^2;")


def mono_ex41(seed=0):
    rng = np.random.default_rng(seed)
    cfg = MonodromyConfig(expected_degree=2)
    pair = seed_from_linear_params(EX41, np.array([2.0 + 0j]), rng)
    return run_monodromy(EX41, pair, cfg, rng), cfg, rng


def test_seed_oracle_hand_computed():
    rng = np.random.default_rng(0)
    x, p = seed_from_linear_params(EX41, np.array([2.0 + 0j]), rng)
    assert abs(p[0] + 2.5) < 1e-12


def test_seed_oracle_consistent_point_ex42():
    x, p = seed_from_linear_params(EX42, np.array([1.0 + 0j, 1.0 + 0j]))
    assert abs(p[0] + 2.0) < 1e-10


def test_seed_oracle_random_ex42_fails_residual():
    # generic (x, y) cannot satisfy both equations with a single p
    with pytest.raises(MonodromyError, match="residual"):
        seed_from_linear_params(EX42, rng=np.random.default_rng(1))


def test_seed_oracle_rejects_nonlinear_parameters():
    with pytest.raises(MonodromyError, match="affine-linear"):
        seed_from_linear_params(NONLINEAR_P, rng=np.random.default_rng(0))


def test_monodromy_ex41_full_s2():
    result, cfg, _ = mono_ex41()
    assert result.degree == 2
    group = result.group()
    assert is_transitive(group)
    assert group_order_capped(group, 100) == 2
    assert max_residual(EX41, result.base) <= cfg.tracker.path_tol


def test_monodromy_permutations_are_bijections_and_replayable():
    result, cfg, _ = mono_ex41()
    for perm in result.permutations:
        assert is_permutation(perm)
    assert result.loop_log
    for record in result.loop_log:
        assert replay_loop(EX41, result, record, cfg)


def test_monodromy_sextic_degree_and_group_order():
    rng = np.random.default_rng(3)
    pair = seed_from_linear_params(SEXTIC, rng=rng)
    cfg = MonodromyConfig(expected_degree=6)
    result = run_monodromy(SEXTIC, pair, cfg, rng)
    assert result.degree == 6
    assert group_order_capped(result.group(), 10**4) == 48
    cent = centralizer_in_symmetric(result.group())
    assert len(cent) == 2


def test_sample_orbit_vieta_pairs():
    result, cfg, rng = mono_ex41()
    deck = [p for p in centralizer_in_symmetric(result.group()) if p != identity(2)]
    assert deck == [(1, 0)]
    samples = sample_orbit(EX41, result, deck, 5, cfg, rng)
    assert len(samples) == 5
    for s in samples:
        x, ximg = s.solutions[0][0], s.solutions[1][0]
        assert abs(x * ximg - 1.0) < 1e-7  # product of the two roots is 1


def test_sample_orbit_identity_only():
    result, cfg, rng = mono_ex41()
    samples = sample_orbit(EX41, result, [identity(2)], 2, cfg, rng)
    for s in samples:
        assert len(s.solutions) == 1
        assert max_residual(EX41, s) <= cfg.tracker.path_tol


def test_sample_orbit_rejects_non_centralizing_perm():
    result, cfg, rng = mono_ex41()
    bogus = (0, 1, 2)
    with pytest.raises(ValueError):
        sample_orbit(EX41, result, [bogus], 1, cfg, rng)


def test_fiber_closure_under_permutations():
    result, _, _ = mono_ex41()
    sols = result.base.solutions
    for perm in result.permutations:
        permuted = [sols[perm[i]] for i in range(len(sols))]
        for a in permuted:
            assert min(float(np.abs(a - b).max()) for b in sols) < 1e-6


def test_sample_orbit_fails_after_three_draws(monkeypatch):
    """Fault injection: when no orbit tracks, sampling stops with an error
    after three target and gamma draws."""
    result, cfg, _ = mono_ex41()
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise tracker.FiberTrackingError("injected")

    monkeypatch.setattr(tracker, "track_fiber", fail)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(MonodromyError, match="orbit sampling failed"):
        sample_orbit(EX41, result, [(1, 0)], 2, cfg, rng)
    assert len(calls) == 3
    for _ in range(3):
        twin.standard_normal(2)
        twin.random()
    assert rng.random() == twin.random()


def test_deterministic_given_seed():
    r1, _, _ = mono_ex41(seed=7)
    r2, _, _ = mono_ex41(seed=7)
    assert r1.permutations == r2.permutations
    assert np.allclose(
        np.array(r1.base.solutions), np.array(r2.base.solutions), atol=1e-10
    )
