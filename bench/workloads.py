"""Workloads of the decksym benchmark and the checks on their reports.

A workload is a list of pipeline jobs, each one ``decksym.cli.run`` call on a
bundled fixture.  The benchmark seed draws the input presentation: the order
in which every fixture lists its equations.  Reordering equations changes the
input file but not the tracking work: residual norms do not depend on the
order and LU with partial pivoting picks the same pivots in any row order,
so paths, steps and monodromy loops repeat exactly (triangular_d32's traced
counters match across seeds).  On p3p_graded the scaling filter and the
interpolation can take a slightly different route (2238 against 2263
subproblems).  The pipeline's own random stream stays at ``PIPELINE_SEED``:
it decides how many monodromy loops run (triangular takes 14 to 26 loops,
15 to 26 s, over pipeline seeds 0-9), so a timing at a seed-drawn pipeline
seed would measure the draw, not the code.  Every report is checked
whatever the presentation, so the benchmark also checks that results do
not depend on equation order.

Nothing here imports decksym at module level: the worker generates inputs
before it starts timing the import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "decksym" / "fixtures"

PIPELINE_SEED = 0


@dataclass(frozen=True)
class Job:
    fixture: str
    command: str
    options: dict = field(default_factory=dict)
    check: Callable[[dict, object], list[str]] | None = None

    @property
    def label(self) -> str:
        return f"{self.command} {self.fixture}"


def _formula_values(report: dict, system, formulas) -> list[tuple[complex, complex]]:
    """(report formula, reference formula) values on the report's base fiber."""
    from decksym.expr import parse_complex, parse_expression

    params = [parse_complex(z) for z in report["fiber"]["params"]]
    coords = report["deck_maps"][0]["coordinates"]
    out = []
    for sol in report["fiber"]["solutions"]:
        point = [parse_complex(z) for z in sol] + params
        for name, reference in formulas.items():
            got = parse_expression(coords[name], system.names).evaluate(point)
            out.append((got, reference.evaluate(point)))
    return out


def _agree(values, rtol: float) -> bool:
    return all(abs(got - want) <= rtol * (1 + abs(want)) for got, want in values)


def _check_decks(report: dict) -> list[str]:
    """Every analyze job: one complete deck map per nontrivial element of the
    deck group, each one verified.  Interpolation that gives up leaves
    coordinates missing and verification skipped, yet exits with code 0."""
    decks = report.get("deck_maps", [])
    if len(decks) != report["group"]["centralizer_order"] - 1:
        return [f"{len(decks)} deck maps for a deck group of order "
                f"{report['group']['centralizer_order']}"]
    if any(d["missing_coordinates"] for d in decks):
        return ["deck map with missing coordinates"]
    ver = report.get("verification", [])
    if len(ver) != len(decks) or not all(
        v.get("pairing_ok") is True and v.get("fiber_preservation_ok") is True for v in ver
    ):
        return ["deck map verification skipped or failed"]
    return []


def _check_p3p(report: dict, system) -> list[str]:
    from decksym.expr import parse_deck_formulas

    if report["verification"][0].get("quasi_homogeneity_ok") is not True:
        return ["deck map is not quasi-homogeneous"]
    reference = parse_deck_formulas(
        (FIXTURES / "p3p_quasihom.deck").read_text(), system
    )
    if not _agree(_formula_values(report, system, reference), 1e-6):
        return ["deck formulas disagree with p3p_quasihom.deck on the base fiber"]
    return []


def _check_triangular(report: dict, system) -> list[str]:
    shapes = [sorted(len(b) for b in part) for part in report["group"]["block_systems"]]
    problems = []
    if [4] * 8 not in shapes:
        problems.append("no block system of 8 blocks of 4")
    if report["group"]["centralizer_order"] != 1:
        problems.append("deck group is not trivial")
    return problems


def _check_reciprocal(report: dict, system) -> list[str]:
    from decksym.expr import parse_expression

    formula = {"x": parse_expression("1/x", system.names)}
    if not _agree(_formula_values(report, system, formula), 1e-8):
        return ["deck map is not x -> 1/x on the base fiber"]
    return []


_DENSE = dict(degree_bound=1, parameter_dependent=True)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "p3p_graded": (
        Job("p3p_quasihom", "analyze", dict(graded=True, degree_bound=3), _check_p3p),
    ),
    "triangular_d32": (Job("triangular", "analyze", {}, _check_triangular),),
    "small_dense": (
        Job("ex4_1", "analyze", _DENSE, _check_reciprocal),
        Job("ex4_2", "analyze", _DENSE),
        Job("sextic", "analyze", _DENSE),
        Job("ex5_7", "analyze", _DENSE),
        Job("ex5_7", "scalings", dict(degree_bound=1)),
    ),
}


def shuffled_system(fixture: str, rng: random.Random) -> str:
    """The fixture's system text with its equation lines in a random order."""
    lines = (FIXTURES / f"{fixture}.sys").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "equations") + 1
    equations = [line for line in lines[start:] if line.strip()]
    if not all(line.rstrip().endswith(";") for line in equations):
        raise ValueError(f"{fixture}: expected one equation per line")
    rng.shuffle(equations)
    return "\n".join(lines[:start] + equations) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the seed's presentation of every fixture of the workload into
    ``directory``; return the system file of each fixture."""
    rng = random.Random(f"{workload}/{seed}")
    paths: dict[str, Path] = {}
    for job in WORKLOADS[workload]:
        if job.fixture not in paths:
            paths[job.fixture] = directory / f"{job.fixture}.sys"
            paths[job.fixture].write_text(shuffled_system(job.fixture, rng))
    return paths


def run_configs(workload: str, paths: dict[str, Path]):
    """One ``decksym.cli.RunConfig`` per job of the workload."""
    from decksym.cli import RunConfig
    from decksym.fixtures import EXPECTED_DEGREE

    return [
        RunConfig(
            command=job.command,
            system_path=str(paths[job.fixture]),
            seed_path=str(FIXTURES / f"{job.fixture}.seed"),
            expected_degree=EXPECTED_DEGREE[job.fixture],
            rng_seed=PIPELINE_SEED,
            threads=1,
            **job.options,
        )
        for job in WORKLOADS[workload]
    ]


def _structure(report: dict) -> dict:
    out = {
        "degree": report["monodromy"]["degree"],
        "centralizer_order": report["group"]["centralizer_order"],
        "block_shapes": sorted(
            sorted(len(b) for b in part) for part in report["group"]["block_systems"]
        ),
    }
    if "scaling" in report:
        out["free_rank"] = report["scaling"]["free_rank"]
        out["commuting_ranks"] = report["scaling"].get("commuting_ranks", [])
    return out


def check(job: Job, report: dict, code: int, system) -> list[str]:
    """Problems with one job's report; an empty list means it is correct.

    The structural fields compared with the fixture's snapshot do not depend
    on the command the snapshot was taken with.
    """
    if code != 0:
        return [f"exit code {code}: {report.get('error', '')}"]
    try:
        got = _structure(report)
    except KeyError as exc:
        return [f"report lacks {exc}"]
    want = json.loads((FIXTURES / "expected" / f"{job.fixture}.json").read_text())
    want = want["structural"]
    problems = [
        f"{key}: got {got[key]!r}, snapshot has {want[key]!r}"
        for key in got
        if got[key] != want[key]
    ]
    if job.command == "analyze" and not problems:
        problems += _check_decks(report)
    if job.check is not None and not problems:
        problems += job.check(report, system)
    return problems
