"""Command-line frontend: run the pipeline with reproducible configuration.

Commands (``COMMANDS`` lists each one's stages and the flags they read)
    monodromy    fiber discovery and group diagnostics only
    scalings     + scaling detection and the probability-one filter
    analyze      monodromy -> group diagnostics -> (scalings if --graded)
                 -> interpolation -> verification
    verify       the verification stage for the one deck map that user-supplied
                 formulas define, after the scaling stage if --graded

Only the input stage reads files; each file flag takes a path or the name of
a bundled fixture file, suffix optional.  Reports are JSON (versioned schema,
deterministic key order) plus a text rendering on stdout.  Exit codes: 0
success, 1 stage failure (a partial report naming the failing stage is still
written), 2 input error (a flag value out of range, or a missing or malformed
input file, reported before any path is tracked).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fixtures, interp, monodromy, numcore, permgrp, scaling, tracker
from .expr import (
    System,
    format_complex,
    format_rational,
    parse_deck_formulas,
    parse_seed_pair,
    parse_system,
)
from .monodromy import MonodromyError, MonodromyResult

SCHEMA_VERSION = 2
GROUP_ORDER_CAP = 10**6

# Each flag's argparse options; ``dest`` is the RunConfig field it sets, and
# an absent flag leaves that field at its default.
FLAGS = {
    "--system": dict(dest="system_path", required=True, help="system file or fixture name"),
    "--seed-pair": dict(dest="seed_path", help="seed file (x: ...; p: ...;)"),
    "--rng-seed": dict(dest="rng_seed", type=int),
    "--expected-degree": dict(dest="expected_degree", type=int),
    "--out": dict(dest="out_path", help="write the JSON report here"),
    "--degree-bound": dict(dest="degree_bound", type=int),
    "--param-dependent": dict(dest="parameter_dependent", action="store_true"),
    "--graded": dict(dest="graded", action="store_true"),
    "--verify-trials": dict(dest="verify_trials", type=int),
    "--formulas": dict(dest="formulas_path", required=True, help="deck formula file"),
}
COMMON_FLAGS = ("--system", "--seed-pair", "--rng-seed", "--expected-degree", "--out")
# Flags whose RunConfig field a report echoes in ``config`` when its command
# takes the flag.
ECHOED_FLAGS = ("--degree-bound", "--param-dependent", "--graded")
# Each command's stages after input, monodromy and group, in order, and the
# flags beyond COMMON_FLAGS that its stages read.  A command that takes
# --graded runs its scaling stage only with it.
COMMANDS = {
    "analyze": (
        ("scaling", "interpolation", "verification"),
        ("--degree-bound", "--param-dependent", "--graded", "--verify-trials"),
    ),
    "monodromy": ((), ()),
    "scalings": (("scaling",), ()),
    "verify": (("scaling", "verify"), ("--formulas", "--verify-trials", "--graded")),
}


@dataclass
class RunConfig:
    command: str
    system_path: str
    seed_path: str | None = None
    formulas_path: str | None = None
    rng_seed: int = 0
    degree_bound: int = 3
    parameter_dependent: bool = False
    graded: bool = False
    expected_degree: int | None = None
    threads: int = 1  # no CLI flag and not in reports
    out_path: str | None = None
    verify_trials: int = 5

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng seed must be >= 0")
        # run_monodromy never returns fewer than 2 solutions.
        if self.expected_degree is not None and self.expected_degree < 2:
            raise ValueError("expected degree must be >= 2")
        if self.verify_trials < 1:
            raise ValueError("verify trials must be >= 1")


class StageFailure(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _read(name: str, suffix: str, parse):
    """Parse one input file: an existing path, else the bundled fixture file
    of that name with or without ``suffix``.  Any failure names the file."""
    path = Path(name)
    if not path.exists():
        path = fixtures.fixture_path(name.removesuffix(suffix)).with_suffix(suffix)
        if not path.exists():
            raise StageFailure("input", f"{name}: no such file or bundled fixture")
    try:
        return parse(path.read_text())
    except (OSError, ValueError) as exc:
        raise StageFailure("input", f"{path}: {exc}")


def _jsonify(value):
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _verification_entry(perm, rep: interp.DeckVerification) -> dict:
    """One deck map's verification block; ``passed`` is the verdict."""
    return {
        "permutation_cycles": permgrp.cycles_string(perm),
        "passed": rep.passed,
        "pairing_ok": rep.pairing_ok,
        "fiber_preservation_ok": rep.fiber_ok,
        "quasi_homogeneity_ok": rep.quasi_ok,
        "worst_pairing": rep.worst_pairing,
        "worst_fiber_residual": rep.worst_fiber_residual,
        "worst_quasi_homogeneity": rep.worst_quasi,
        "trials": rep.trials,
        "trials_requested": rep.trials_requested,
    }


class Pipeline:
    """Runs the stages requested by one CLI invocation and collects the report."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.rng_seed)
        flags = COMMANDS[cfg.command][1]
        echoed = [FLAGS[f]["dest"] for f in ECHOED_FLAGS if f in flags]
        self.report: dict = {
            "schema_version": SCHEMA_VERSION,
            "command": cfg.command,
            "config": {
                "system": cfg.system_path,
                "seed_pair": cfg.seed_path,
                "rng_seed": cfg.rng_seed,
                **{field: getattr(cfg, field) for field in echoed},
                "expected_degree": cfg.expected_degree,
                "tolerances": {
                    "newton": tracker.NEWTON_TOL,
                    "path": tracker.PATH_TOL,
                    "rank": numcore.DEFAULT_RANK_TOL,
                    "truncate": interp.TRUNCATE_TOL,
                },
            },
            "timings": {},
            "status": "ok",
        }
        self.system: System | None = None
        self.seed_pair: tuple[np.ndarray, np.ndarray] | None = None
        self.mono: MonodromyResult | None = None
        self.deck_perms: list = []
        self.lattice = None
        self.decks: list = []

    def _stage(self, name, fn):
        start = time.perf_counter()
        try:
            fn()
        except StageFailure:
            raise
        except (MonodromyError, ValueError, RuntimeError) as exc:
            raise StageFailure(name, str(exc))
        finally:
            self.report["timings"][name] = round(time.perf_counter() - start, 6)

    # -- stages ----------------------------------------------------------

    def load(self):
        """The input stage, the only one that reads files (see ``_read``)."""
        # parse_system is looked up on this module at call time: tracing patches it here.
        self.system = _read(self.cfg.system_path, ".sys", parse_system)
        self.report["system"] = {
            "unknowns": list(self.system.unknowns),
            "parameters": list(self.system.parameters),
            "equations": len(self.system.equations),
            "patch_equations": len(self.system.patch_indices),
        }
        if self.cfg.seed_path:
            self.seed_pair = _read(self.cfg.seed_path, ".seed", self._parse_seed_pair)
        if self.cfg.formulas_path:
            self.formulas = _read(
                self.cfg.formulas_path, ".deck", lambda t: parse_deck_formulas(t, self.system)
            )

    def _parse_seed_pair(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        x, p = parse_seed_pair(text)
        if len(x) != self.system.n or len(p) != self.system.m:
            raise ValueError("seed pair dimensions do not match the system")
        return x, p

    def run_monodromy(self):
        pair = self.seed_pair
        if pair is None:
            pair = monodromy.seed_from_linear_params(self.system, "random", self.rng)
        self.mono = monodromy.run_monodromy(
            self.system, pair, self.rng, expected_degree=self.cfg.expected_degree
        )
        base = self.mono.base
        self.report["fiber"] = {
            "params": [format_complex(z) for z in base.params],
            "solutions": [[format_complex(z) for z in sol] for sol in base.solutions],
        }
        self.report["monodromy"] = {
            "degree": self.mono.degree,
            "loop_count": self.mono.loop_count,
            "edges": self.mono.edges,
            "paths_tracked": self.mono.paths_tracked,
            "paths_failed": self.mono.paths_failed,
            "generators_cycles": [permgrp.cycles_string(g) for g in self.mono.permutations],
            "generators_images": [list(g) for g in self.mono.permutations],
        }

    def group_diagnostics(self):
        group = self.mono.group()
        transitive = permgrp.is_transitive(group)
        order = permgrp.group_order_capped(group, GROUP_ORDER_CAP)
        entry = {
            "transitive": transitive,
            "order": order,
            "order_cap": GROUP_ORDER_CAP,
        }
        if transitive:
            systems = permgrp.minimal_block_systems(group)
            entry["block_systems"] = [
                sorted(sorted(b) for b in part) for part in systems
            ]
            entry["decomposable"] = bool(systems)
            cent = permgrp.centralizer_in_symmetric(group)
            self.deck_perms = [p for p in cent if p != permgrp.identity(group.degree)]
            entry["centralizer_cycles"] = [permgrp.cycles_string(c) for c in cent]
            entry["centralizer_images"] = [list(c) for c in cent]
            entry["centralizer_order"] = len(cent)
            entry["deck_group"] = permgrp.describe_group(cent)
            if len(cent) == 1:
                entry["deck_note"] = "no nontrivial deck transformations"
        else:
            entry["note"] = "monodromy group not transitive; exploration incomplete"
        self.report["group"] = entry

    def run_scaling(self):
        lattice = scaling.detect_scalings(self.system)
        entry = {
            "free_rows": [list(r) for r in lattice.free.data],
            "free_rank": lattice.free_rank,
            "torsion_blocks": [
                {"modulus": b.modulus, "rows": [list(r) for r in b.rows.data]}
                for b in lattice.torsion
            ],
        }
        if lattice.torsion and self.mono is not None:
            filt = scaling.commuting_discrete_scalings(
                lattice,
                self.system,
                self.mono,
                self.deck_perms,
                self.rng,
            )
            self.lattice = filt.lattice
            entry["commuting_blocks"] = [
                {"modulus": b.modulus, "rows": [list(r) for r in b.rows.data]}
                for b in filt.lattice.torsion
            ]
            entry["commuting_ranks"] = [
                {"modulus": b.modulus, "rank": b.rank} for b in filt.lattice.torsion
            ]
            entry["candidates"] = [
                {"modulus": c.modulus, "vector": list(c.vector), "status": c.status}
                for c in filt.candidates
            ]
            entry["enumeration_truncated"] = filt.enumeration_truncated
            if filt.composite_modulus_note:
                entry["composite_modulus_note"] = (
                    "composite modulus: only original passing rows kept"
                )
        else:
            self.lattice = lattice
        self.report["scaling"] = entry

    def run_interpolation(self):
        if not self.deck_perms:
            self.report["deck_maps"] = []
            self.report["interpolation"] = {
                "skipped": "no nontrivial deck transformations"
            }
            return
        if self.cfg.graded:
            if self.lattice is None:
                raise StageFailure("interpolation", "scaling stage did not run")
            self.decks, stats = interp.interpolate_graded(
                self.system,
                self.mono,
                self.deck_perms,
                self.lattice,
                self.cfg.degree_bound,
                self.cfg.parameter_dependent,
                self.rng,
            )
        else:
            self.decks, stats = interp.interpolate_dense(
                self.system,
                self.mono,
                self.deck_perms,
                self.cfg.degree_bound,
                self.cfg.parameter_dependent,
                self.rng,
            )
        self.report["interpolation"] = {
            "graded": stats.graded,
            "parameter_dependent": stats.parameter_dependent,
            "largest_vandermonde": stats.largest_vandermonde,
            "subproblems": stats.subproblems,
            "class_count": stats.class_count,
            "largest_class": stats.largest_class,
        }
        self.report["deck_maps"] = [self._deck_entry(d) for d in self.decks]

    def _deck_entry(self, deck: interp.DeckMap) -> dict:
        names = self.system.names
        return {
            "permutation_cycles": permgrp.cycles_string(deck.permutation),
            "permutation_images": list(deck.permutation),
            "degree_bound_used": deck.degree_bound_used,
            "coordinates": {
                self.system.unknowns[j]: (
                    format_rational(c, names) if c is not None else None
                )
                for j, c in enumerate(deck.coords)
            },
            "missing_coordinates": [self.system.unknowns[j] for j in deck.missing()],
        }

    def run_verification(self):
        """Check every deck map on one set of held-out fibers, tracked before
        the first map with coordinates; a failed verdict fails the stage."""
        out = []
        fibers = None
        for deck in self.decks:
            if all(c is None for c in deck.coords):
                out.append(
                    {
                        "permutation_cycles": permgrp.cycles_string(deck.permutation),
                        "skipped": "no interpolated coordinates",
                    }
                )
                continue
            if fibers is None:
                fibers = interp.held_out_fibers(
                    self.system, self.mono.base, self.cfg.verify_trials, self.rng
                )
            rep = interp.verify_deck(
                self.system,
                deck,
                fibers,
                self.cfg.verify_trials,
                self.rng,
                lattice=self.lattice,
            )
            out.append(_verification_entry(deck.permutation, rep))
        self.report["verification"] = out
        if not all(entry.get("passed", True) for entry in out):
            raise ValueError("a deck formula failed verification on held-out fibers")

    def run_verify_formulas(self):
        perm, coords = interp.derive_deck_permutation(self.system, self.formulas, self.mono.base)
        self.decks = [interp.DeckMap(perm, coords, 0)]
        self.run_verification()

    # -- driver -----------------------------------------------------------

    def run(self) -> int:
        methods = dict(
            input=self.load, monodromy=self.run_monodromy, group=self.group_diagnostics,
            scaling=self.run_scaling, interpolation=self.run_interpolation,
            verification=self.run_verification, verify=self.run_verify_formulas,
        )
        stages, flags = COMMANDS[self.cfg.command]
        try:
            for stage in ("input", "monodromy", "group", *stages):
                if stage == "scaling" and "--graded" in flags and not self.cfg.graded:
                    continue
                self._stage(stage, methods[stage])
        except StageFailure as exc:
            self.report["status"] = "failed"
            self.report["failed_stage"] = exc.stage
            self.report["error"] = str(exc)
            return 2 if exc.stage == "input" else 1
        return 0


def render_text(report: dict) -> str:
    lines = [f"decksym {report['command']} (status: {report['status']})"]
    if "system" in report:
        s = report["system"]
        lines.append(
            f"  system: {len(s['unknowns'])} unknowns, {len(s['parameters'])} parameters, "
            f"{s['equations']} equations ({s['patch_equations']} patch)"
        )
    if "monodromy" in report:
        m = report["monodromy"]
        lines.append(
            f"  fiber: {m['degree']} solutions after {m['loop_count']} rounds "
            f"({m['edges']} edges, {m['paths_tracked']} paths, {m['paths_failed']} failed); "
            f"{len(m['generators_cycles'])} generators"
        )
    if "group" in report:
        g = report["group"]
        order = g.get("order")
        lines.append(
            "  group: "
            + ("transitive, " if g.get("transitive") else "NOT transitive, ")
            + (f"order {order}" if order is not None else f"order > {g['order_cap']}")
            + (", decomposable" if g.get("decomposable") else "")
        )
        if "centralizer_order" in g:
            lines.append(
                f"  deck action: centralizer order {g['centralizer_order']} "
                f"({g.get('deck_group', '?')})"
            )
            if g.get("deck_note"):
                lines.append(f"    {g['deck_note']}")
    if "scaling" in report:
        sc = report["scaling"]
        tor = ", ".join(
            f"Z{b['modulus']}^{len(b['rows'])}" for b in sc.get("commuting_blocks", [])
        )
        lines.append(
            f"  scalings: free rank {sc['free_rank']}"
            + (f", commuting discrete {tor}" if tor else "")
        )
    for deck in report.get("deck_maps", []):
        lines.append(f"  deck {deck['permutation_cycles']}:")
        for name, formula in deck["coordinates"].items():
            lines.append(f"    {name} -> {formula if formula is not None else '(missing)'}")
    for v in report.get("verification", []):
        if "skipped" in v:
            lines.append(f"  verification {v['permutation_cycles']}: {v['skipped']}")
        else:
            lines.append(
                f"  verification {v['permutation_cycles']}: "
                + ("PASS" if v["passed"] else "FAIL")
                + f" (worst pairing {v['worst_pairing']:.2e})"
            )
    if report["status"] == "failed":
        lines.append(f"  FAILED at stage {report['failed_stage']}: {report['error']}")
    if "timings" in report:
        total = sum(report["timings"].values())
        lines.append(f"  total time: {total:.2f}s")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decksym",
        description="Recover hidden symmetries of parametric polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in COMMON_FLAGS + flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def run(cfg: RunConfig) -> tuple[dict, int]:
    pipeline = Pipeline(cfg)
    code = pipeline.run()
    report = _jsonify(pipeline.report)
    if cfg.out_path:
        Path(cfg.out_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, code = run(cfg)
    print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
