"""Exact arithmetic in quantized Weyl algebras at roots of unity.

The package provides PBW normal forms in the generic and specialized
algebras, the center and its commutative model, the divided-commutator
Poisson bracket, endomorphisms with canonical lifts, prime-limit transport
of endomorphisms to polynomial symplectomorphisms, and explicit matrix
representations with a Burnside spanning oracle.
"""

from .scalars import (
    Cyclo,
    Jet,
    LaurentPoly,
    Rational,
    cyclotomic_polynomial,
    embed,
    qint,
    specialize,
)
from .weylcore import (
    AlgebraContext,
    ContextMismatchError,
    WeylElement,
    act_on_polynomial,
    bernstein_degree,
    commutator,
    divisible_by_f,
    f_element,
    f_i,
    mul,
    power,
    q_commutator,
    specialize_element,
)
from .center import (
    CenterPoly,
    MaxIdealPoint,
    NotCentralError,
    azumaya_test,
    f_power_closed_form,
    is_central,
    theta,
    theta_inverse,
)
from .exprio import ParseError, parse_center, parse_weyl, print_center, print_weyl
from .poisson import (
    DivisionFailureError,
    PoissonContext,
    bracket_of_lifts,
    lift,
    poisson_bracket,
    standard_bracket,
    transported_bracket,
)
from .morphisms import (
    DegreeLimitExceeded,
    Endomorphism,
    UnvalidatedError,
    apply_endo,
    compose,
    lift_phi,
    lift_psi,
    make_endomorphism,
    specialize_endomorphism,
    validate,
)
from .hatmap import (
    ConvergenceReport,
    HatEndoReport,
    check_center_preservation,
    hat,
    hat_endo,
    hat_step,
    transport_limit,
)
from .matrep import (
    MatRep,
    NilpotentRep,
    NoExactRootError,
    build_rep,
    burnside_span_dim,
    cross_check,
)

__version__ = "0.1.0"
