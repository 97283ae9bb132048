"""Workbench for difference sets avoiding shifted primes.

The package studies sets A of positive integers whose pairwise differences
never hit (p - 1) / d for a prime p.  It ships the arithmetic tables and
Dirichlet characters needed for Chebyshev sums in progressions, a discrete
Fourier layer with Farey arc dissections, exponential sums over von
Mangoldt weights, an energy-based density increment step, exact and
heuristic extremal-set search, and an iteration driver whose traces can be
independently re-certified.  The `primediff` console script exposes all of
it as reproducible, manifest-stamped experiments.

Each layer is imported on first access to one of its names (PEP 562), so
`import primediff` loads no layer and a CLI run loads only the layers its
subcommand uses; numpy stays behind module boundaries (see arith).  The
records are namedtuples or plain classes, not dataclasses: importing
dataclasses loads inspect, which took longer than a short search runs.
"""

import importlib

__version__ = "0.1.0"

# home module of each exported name
_EXPORTS = {
    "arith": (
        "euler_phi",
        "is_prime",
        "psi",
    ),
    "avoider": (
        "ForbiddenSet",
        "SearchResult",
        "find_forbidden_pair",
        "greedy_avoiding",
        "is_avoiding",
        "max_avoiding_exact",
    ),
    "driver": (
        "Budget",
        "DensityIncrement",
        "IterationConfig",
        "LargeDOrSmallAlpha",
        "SmallAlpha",
        "SmallN",
        "StructureFound",
        "Trace",
        "TraceStep",
        "certify",
        "iterate_once",
        "run",
        "trace_to_jsonl",
    ),
    "energy": (
        "EnergyTable",
        "averaging_projection",
        "energy_table",
        "extract_progression",
        "rescale",
    ),
    "errors": (
        "CertificationError",
        "DomainError",
        "PreconditionError",
        "ResourceError",
    ),
    "increment": (
        "DensitySet",
        "EnergyStats",
        "IncrementOutcome",
        "Progression",
    ),
    "mangoldt": (
        "MangoldtWeight",
        "Prediction",
        "SpectrumReport",
        "lambda_hat_rational",
        "major_prediction",
        "major_sup_ratio",
        "spectrum_report",
        "vinogradov_bound",
    ),
    "spectral": (
        "TorusPoint",
        "transform_at",
    ),
    "tables": (
        "ArithTables",
        "DirichletCharacter",
        "ExceptionalDatum",
        "build_tables",
        "characters_mod",
        "psi_chi",
        "ramanujan",
        "tau",
        "tau_closed_form",
        "verify_inversion",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer, as in primediff.driver after a bare import
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _HOME.keys())
