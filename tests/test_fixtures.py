"""Smoke tests for all bundled fixtures, including the stretch ones.

The stretch systems (radial, alt) are far too large to solve in CI, but
their seeds must lie on the variety with a regular Jacobian, and the
reference deck formulas must map the seed back onto the variety.
"""

import numpy as np
import pytest

from conftest import fixture_system
from decksym.expr import parse_deck_formulas, parse_seed_pair
from decksym.fixtures import EXPECTED_DEGREE, FIXTURES, deck_path, seed_path
from decksym.tracker import compiled


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_parses_and_seed_is_regular(name):
    system = fixture_system(name)
    assert len(system.equations) == system.n
    x, p = parse_seed_pair(seed_path(name).read_text())
    assert len(x) == system.n and len(p) == system.m
    comp = compiled(system)
    assert float(np.abs(comp.f_at(x, p)).max()) < 1e-8
    s = np.linalg.svd(comp.jx_at(x, p), compute_uv=False)
    assert s[-1] > 1e-10 * s[0]
    assert name in EXPECTED_DEGREE


DECK_FILES = {
    "p3p_quasihom": ["p3p_quasihom"],
    "fivepoint_quasihom": ["fivepoint_quasihom"],
    "radial": ["radial_psi1", "radial_psi2", "radial_psi3", "radial_psi4"],
    "alt": ["alt_swap", "alt_roberts"],
}


@pytest.mark.parametrize(
    "system_name,deck_name",
    [(s, d) for s, decks in DECK_FILES.items() for d in decks],
)
def test_reference_deck_maps_seed_onto_variety(system_name, deck_name):
    """Evaluating the reference formulas at the seed must land on the
    structural variety again: a strong consistency check of both the
    formulas and the generated equations."""
    system = fixture_system(system_name)
    x, p = parse_seed_pair(seed_path(system_name).read_text())
    formulas = parse_deck_formulas(deck_path(deck_name).read_text(), system)
    assert set(formulas) == set(system.unknowns)
    pt = np.concatenate([x, p])
    image = np.array([formulas[n].evaluate(pt) for n in system.unknowns])
    comp = compiled(system)
    residuals = np.abs(comp.f_at(image, p))
    skip = set(system.patch_indices)
    worst = max(
        (float(residuals[i]) for i in range(system.n) if i not in skip), default=0.0
    )
    scale = 1.0 + float(np.abs(image).max()) ** 3
    assert worst <= 1e-8 * scale, f"{deck_name}: residual {worst:.3e}"
    # the image must be a genuinely different point for non-identity decks
    assert float(np.abs(image - x).max()) > 1e-6
