"""Bundled example systems with seed pairs and reference formula files."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

FIXTURES = (
    "ex4_1",
    "ex4_2",
    "sextic",
    "triangular",
    "ex5_7",
    "fivepoint_inhom",
    "fivepoint_quasihom",
    "p3p_inhom",
    "p3p_quasihom",
    "radial",
    "alt",
)

# degree of the branched cover over a generic parameter point
EXPECTED_DEGREE = {
    "ex4_1": 2,
    "ex4_2": 2,
    "sextic": 6,
    "triangular": 32,
    "ex5_7": 6,
    "fivepoint_inhom": 20,
    "fivepoint_quasihom": 20,
    "p3p_inhom": 8,
    "p3p_quasihom": 8,
    "radial": 3584,
    "alt": 8652,
}


def fixture_path(name: str) -> Path:
    return Path(str(resources.files(__package__) / f"{name}.sys"))


def seed_path(name: str) -> Path:
    return Path(str(resources.files(__package__) / f"{name}.seed"))


def deck_path(name: str) -> Path:
    return Path(str(resources.files(__package__) / f"{name}.deck"))
