"""Exact arithmetic toolkit for Erdos matrices.

A bistochastic matrix A is an Erdos matrix when its squared Frobenius
norm equals its maximal trace, the extremal case of the Marcus-Ree
inequality.  This package verifies, decomposes and exhaustively
enumerates such matrices per dimension, entirely in exact rational
arithmetic.
"""

__version__ = "0.1.0"

from .rational import Rational, as_rational, format_rational, parse_rational
from .perms import (
    Permutation,
    agreement_count,
    all_permutations,
    conjugacy_class_reps,
    partitions,
)
from .linalg import (
    BistochasticMatrix,
    Matrix,
    MatrixParseError,
    NotBistochasticError,
    SingularMatrixError,
    affine_independent,
    det,
    format_matrix,
    frobenius_inner,
    inverse,
    kernel_vector,
    linear_independent,
    parse_matrix,
    rank,
    solve,
)
from .assignment import (
    MaxTraceCertificate,
    delta,
    frobenius_sq,
    is_erdos,
    max_delta_matrix,
    max_trace,
)
from .birkhoff import (
    ConvexDecomposition,
    decompose,
    reduce_affine,
    reduce_linear,
)
from .gram import (
    CandidateSolution,
    GramSystem,
    PipelineResult,
    assemble,
    build_gram,
    count_bound,
    half_identity_family,
    pipeline,
    solve_candidate,
)
from .enumeration import (
    EnumerationReport,
    ErdosClass,
    canonical_form,
    enumerate_erdos,
)
from .sampling import random_bistochastic, random_permutation
from .surd import Surd, delta2, omega2, omega2_classes, sqrt_rational

__all__ = [
    "__version__",
    "Rational",
    "as_rational",
    "format_rational",
    "parse_rational",
    "Permutation",
    "agreement_count",
    "all_permutations",
    "conjugacy_class_reps",
    "partitions",
    "BistochasticMatrix",
    "Matrix",
    "MatrixParseError",
    "NotBistochasticError",
    "SingularMatrixError",
    "affine_independent",
    "det",
    "format_matrix",
    "frobenius_inner",
    "inverse",
    "kernel_vector",
    "linear_independent",
    "parse_matrix",
    "rank",
    "solve",
    "MaxTraceCertificate",
    "delta",
    "frobenius_sq",
    "is_erdos",
    "max_delta_matrix",
    "max_trace",
    "ConvexDecomposition",
    "decompose",
    "reduce_affine",
    "reduce_linear",
    "CandidateSolution",
    "GramSystem",
    "PipelineResult",
    "assemble",
    "build_gram",
    "count_bound",
    "half_identity_family",
    "pipeline",
    "solve_candidate",
    "EnumerationReport",
    "ErdosClass",
    "canonical_form",
    "enumerate_erdos",
    "random_bistochastic",
    "random_permutation",
    "Surd",
    "delta2",
    "omega2",
    "omega2_classes",
    "sqrt_rational",
]
