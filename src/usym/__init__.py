"""Exact computation with universal coacting bialgebras of finite-dimensional
associative algebras: presentations, endomorphism monoids and automorphism
groups over prime fields, and the enumeration and classification of group
gradings."""

from importlib import resources
from pathlib import Path

from .algebra import FinAlgebra, Violation, is_algebra_map, validate_algebra
from .errors import (
    CompletionBoundError,
    InputError,
    PresentationContradiction,
    SearchSizeError,
    UsymError,
)
from .fields import GF, QQ, Field, FpElement, PrimeField, RationalField, field_from_spec
from .gradings import (
    Grading,
    GradingPoint,
    classify,
    conjugate_point,
    enumerate_gradings_oracle,
    enumerate_points,
    grading_from_point,
    is_grading_point,
    point_from_grading,
    validate_grading,
)
from .groups import FiniteGroup, cyclic_group, validate_group
from .endomorphisms import (
    EndoMonoid,
    automorphism_group,
    counit_point,
    enumerate_endomorphisms,
    enumerate_homs,
    enumerate_measuring_points,
)
from .linalg import Matrix, Subspace, column_space, enumerate_subspaces
from .ncpoly import (
    NCPoly,
    RewriteRule,
    RewriteSystem,
    TensorPoly,
    complete,
    ideal_member_bounded,
    interreduce,
    tensor_normal_form,
)
from .universal import (
    Presentation,
    build_presentation,
    build_relations,
    check_bialgebra,
    check_comodule,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path to one of the packaged example input files."""
    return Path(resources.files(__name__) / "fixtures" / name)


def schema_path() -> Path:
    """Path to the JSON report schema shipped with the package."""
    return Path(resources.files(__name__) / "schema" / "report.schema.json")
