import random
from fractions import Fraction

import pytest
from hypothesis import settings

from qweyl import AlgebraContext, Endomorphism

# Property tests draw the same examples on every run and keep no example
# database, so a run never replays failures cached by an earlier one.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return random.Random(20240913)


def random_element(rng, ctx, max_terms=4, max_exp=2, degree_cap=4, denom=3):
    """Random normal-form element with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            al = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
            be = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
            if sum(al) + sum(be) <= degree_cap:
                break
        c = Fraction(rng.randint(-4, 4), rng.randint(1, denom))
        if c:
            key = (al, be)
            terms[key] = terms.get(key, Fraction(0)) + c
    return ctx.from_terms({k: v for k, v in terms.items() if v})


def standard_contexts():
    return [
        AlgebraContext.symbolic(1),
        AlgebraContext.symbolic(2),
        AlgebraContext.root_of_unity(1, 3),
        AlgebraContext.root_of_unity(1, 4),
        AlgebraContext.root_of_unity(2, 5),
    ]


def identity_endomorphism(ctx):
    """The identity map of the algebra of ctx, built without validation."""
    return Endomorphism(ctx, [ctx.x(i) for i in range(1, ctx.n + 1)],
                        [ctx.d(i) for i in range(1, ctx.n + 1)])
