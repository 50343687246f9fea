"""Kurihara numbers, divisibility statistics, and Selmer-group predictions.

Exact-arithmetic toolkit for rational elliptic curves: modular-symbol
eigensymbols from first principles, Kolyvagin-type prime sieves, Kurihara
number computation with stratified divisibility statistics, structure-theorem
predictions for Selmer groups over Q and imaginary quadratic fields, a
synthetic bipartite Euler-system algebra, and local Gross-point matrices.
"""

from .bipartite_algebra import (
    ArtinianContext,
    SyntheticSelmerState,
    generate_system,
    lambda_profile,
    limit_profile,
    recover_shape,
    simulate_prime_step,
)
from .curves import (
    EllipticCurve,
    hecke_an_list,
    quadratic_twist,
    reduction_type,
    split_conductor,
    trace_of_frobenius,
)
from .errors import (
    HypothesisError,
    InconclusiveRegionError,
    InputError,
    InternalInvariantError,
    SelmerkitError,
)
from .gross_points import (
    QuadraticData,
    gross_point_component,
    local_embedding_J,
    local_embedding_theta,
    make_theta,
    padic_sqrt,
    relation_report,
)
from .kurihara import DeltaStats, KuriharaNumber, RegionSpec, delta_stats, kurihara_number
from .modsym import EigenSymbol, isolate_eigensymbol, twist_eigensymbol
from .selmer_predict import (
    ModuleShape,
    combine_over_K,
    heegner_profile_to_shapes,
    predict_heegner_profile,
    predict_selmer_Q,
    predict_waldspurger_profile,
    synthetic_delta_stats,
)
from .sieves import KolyvaginPrime, SquarefreeIndex, build_indices, sieve

__version__ = "0.1.0"

# The cli names load on first use, so `python -m selmerkit.cli` does not find
# selmerkit.cli already imported by the package.
_CLI_NAMES = ("CurveRecord", "RunConfig", "gz_pair", "ingest", "main", "run_pipeline")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArtinianContext",
    "CurveRecord",
    "DeltaStats",
    "EigenSymbol",
    "EllipticCurve",
    "HypothesisError",
    "InconclusiveRegionError",
    "InputError",
    "InternalInvariantError",
    "KolyvaginPrime",
    "KuriharaNumber",
    "ModuleShape",
    "QuadraticData",
    "RegionSpec",
    "RunConfig",
    "SelmerkitError",
    "SquarefreeIndex",
    "SyntheticSelmerState",
    "build_indices",
    "combine_over_K",
    "delta_stats",
    "generate_system",
    "gross_point_component",
    "gz_pair",
    "hecke_an_list",
    "heegner_profile_to_shapes",
    "ingest",
    "isolate_eigensymbol",
    "kurihara_number",
    "lambda_profile",
    "limit_profile",
    "local_embedding_J",
    "local_embedding_theta",
    "main",
    "make_theta",
    "padic_sqrt",
    "predict_heegner_profile",
    "predict_selmer_Q",
    "predict_waldspurger_profile",
    "quadratic_twist",
    "recover_shape",
    "reduction_type",
    "relation_report",
    "run_pipeline",
    "sieve",
    "simulate_prime_step",
    "split_conductor",
    "synthetic_delta_stats",
    "trace_of_frobenius",
    "twist_eigensymbol",
]
