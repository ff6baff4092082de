"""Finite-set category theory made mechanical: an explicit category of finite
sets, a powerset monad whose coherence diagrams are checked by exhaustive
enumeration, container functor/monad instances, and a counterexample-reporting
law harness with a demo CLI."""

from .finset import (
    CodomainViolationError,
    CompositionMismatchError,
    DuplicateKeyError,
    EnumerationTooLargeError,
    FiniteFunction,
    FiniteSet,
    FinsetError,
    MissingMappingError,
    NotInDomainError,
    apply,
    compose,
    enumerate_functions,
    identity,
    make_finite_set,
    make_function,
    make_subset,
)
from .powerset import (
    ETA,
    Endofunctor,
    IDENTITY_FUNCTOR,
    MU,
    NatTransform,
    POWERSET,
    POWERSET_SQUARED,
    PowersetTooLargeError,
    check_associativity,
    check_naturality,
    check_unit_laws,
    eta_component,
    mu_component,
    naturality_sweep,
    powerset_arrow,
    powerset_object,
)
from .containers import (
    F1,
    F2,
    F3,
    F4,
    INSTANCES,
    Just,
    LIST,
    MULTI_SHAPE,
    NOTHING,
    OPTION,
    PHONEBOOK,
    UnsupportedOperationError,
    WRAP,
    Wrap,
    extract_or_zero,
    guarded_log,
    guarded_one_minus_sqrt,
    guarded_sqrt,
    lookup,
    nub,
    pythagorean_triples,
    safe_head,
)
from .laws import (
    Generators,
    check_bind_join_coherence,
    check_functor_laws,
    check_monad_laws,
    default_generators,
    random_generators,
    run_suite,
)
from .reports import Counterexample, LawReport
from .render import show

__version__ = "0.1.0"
