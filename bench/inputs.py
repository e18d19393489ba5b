"""Seeded input generators of the benchmark.

Everything here depends only on the seed it is given, never on flagrank, so
the engine sees nothing but the generated text.  ``random.Random`` seeded with
an int or a str is reproducible across runs and interpreter builds.
"""

from __future__ import annotations

import random

EQ3_VARIABLES = ("x", "u1", "u2", "z")
EQ4_VARIABLES = ("x", "u1", "u2", "z", "w")
# Denominators 1 + v^2 use a variable other than w: in the eq4 family w becomes
# u3 + y*z, and a single branch_classify on p/(1 + w^2) ran for over four
# minutes, longer than a whole run may take.
RATIONAL_VARIABLES = ("x", "u1", "u2", "z")
# A job dividing by 1 + z^2 costs about twice one dividing by 1 + x^2,
# 1 + u1^2 or 1 + u2^2.
SLOW_DENOMINATOR = "z"

# Degrees of the monomials of a family parameter.  The degrees are fixed and
# the seed picks the monomials: how long a job takes depends mostly on them.
FAMILY_DEGREES = (1, 1, 2, 2, 3)
FAMILY_MAX_COEFF = 9
# One family pair in four gets rational parameters p/(1 + v^2).
RATIONAL_EVERY = 4


def _monomial(variables, exps):
    factors = []
    for v, k in zip(variables, exps):
        if k == 1:
            factors.append(v)
        elif k > 1:
            factors.append(f"{v}^{k}")
    return "*".join(factors)


def family_shape(rng, variables, denominator=None):
    """A parameter before scaling: (coefficient, monomial) pairs of distinct
    monomials with the FAMILY_DEGREES, and ``denominator``, the variable v of
    a divisor 1 + v^2, or None.

    Coefficients are nonzero integers in [-9, 9].
    """
    exps = set()
    for degree in FAMILY_DEGREES:
        while True:
            e = [0] * len(variables)
            for _ in range(degree):
                e[rng.randrange(len(variables))] += 1
            if tuple(e) not in exps:
                exps.add(tuple(e))
                break
    terms = tuple((rng.randint(1, FAMILY_MAX_COEFF) * rng.choice((-1, 1)),
                   _monomial(variables, e)) for e in sorted(exps))
    return terms, denominator


def family_parameter(shape):
    """Parameter text of ``shape``."""
    terms, denominator = shape
    text = " + ".join(f"{c}*{m}" for c, m in terms)
    if denominator is not None:
        text = f"({text})/(1 + {denominator}^2)"
    return text


def family_job(seed, round_index, index):
    """(family, shape) of job ``index`` in round ``round_index``.

    Jobs alternate eq3 and eq4.  The last of every RATIONAL_EVERY pairs has
    rational parameters: the eq3 one divides by 1 + SLOW_DENOMINATOR^2, the
    eq4 one by 1 + v^2 with v seeded from the other RATIONAL_VARIABLES.  A
    random pick for each would make the work of a run depend on the seed.
    Every job draws its own monomials, so a run's 70 to 90 jobs average over
    as many parameters and its work depends little on the seed.
    """
    rng = random.Random(f"families:{seed}:{round_index}:{index}")
    family = "eq3" if index % 2 == 0 else "eq4"
    variables = EQ3_VARIABLES if family == "eq3" else EQ4_VARIABLES
    denominator = None
    if (index // 2) % RATIONAL_EVERY == RATIONAL_EVERY - 1:
        fast = tuple(v for v in RATIONAL_VARIABLES if v != SLOW_DENOMINATOR)
        denominator = SLOW_DENOMINATOR if family == "eq3" else rng.choice(fast)
    return family, family_shape(rng, variables, denominator)


def point_text(rng, dimension):
    """A rational point in the CLI's ``--point`` syntax."""
    coords = []
    for _ in range(dimension):
        num = rng.randint(-5, 5)
        den = rng.choice((1, 1, 2, 3, 5))
        coords.append(str(num) if den == 1 or num == 0 else f"{num}/{den}")
    return "(" + ", ".join(coords) + ")"


def candidate_points(model_name, dimension):
    """Deterministic stream of candidate points for one builtin model."""
    rng = random.Random(f"points:{model_name}")
    while True:
        yield point_text(rng, dimension)


def cli_kinds(seed, models, table):
    """One (model, point) request per model, the point drawn by the seed from
    that model's recorded points."""
    rng = random.Random(f"catalog_cli:{seed}")
    return [(name, rng.choice(table[name])["point"]) for name in models]


def scan_seed(seed, round_index, index):
    """Seed of the regularity scan of model ``index`` in round ``round_index``."""
    return random.Random(f"dense_scan:{seed}:{round_index}:{index}").randrange(1 << 30)
