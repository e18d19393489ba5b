"""The flag's bracket table against the slow twins it replaced.

``verify_flag_relations`` and the depth-4 check of ``Analysis.branch`` read
one ``BracketTable`` per flag.  ``util.ref_flag_relations`` and
``util.ref_depth4_closed`` bracket each relation's own pair of stratum frames
and compare spans from scratch.  Every verdict must agree: on the catalog, on
seeded family members, and on perturbed flags, nested or not, under either
branch label, where some relations fail.
"""

import random

import pytest

from flagrank import Distribution, FlagBranch, ParabolicFlag, coordinate_field, \
    parabolic_flag, verify_flag_relations
from flagrank.models import get_model, model_eq3, model_eq4
from util import family_parameter, ref_depth4_closed, ref_flag_relations, sc

PARABOLIC = ("j21", "eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")
FAMILIES = {"eq3": model_eq3, "eq4": model_eq4}


def table_verdicts(flag):
    relations = [(c.name, c.holds) for c in verify_flag_relations(flag)]
    return relations, flag.brackets.contained(4, 4, 5)


def twin_verdicts(flag):
    return ref_flag_relations(flag), ref_depth4_closed(flag)


@pytest.mark.parametrize("name", PARABOLIC)
def test_table_matches_twin_on_catalog(name):
    flag = parabolic_flag(get_model(name).distribution())
    assert flag.brackets.nested
    relations, closed = table_verdicts(flag)
    assert all(holds for _, holds in relations)
    assert (relations, closed) == twin_verdicts(flag)


@pytest.mark.parametrize("seed", range(3))
def test_table_matches_twin_on_family_flags(seed):
    rng = random.Random(seed)
    for family, build in FAMILIES.items():
        denominator = rng.choice((None, "x", "u1"))
        flag = parabolic_flag(build(family_parameter(rng, family, denominator)))
        assert flag.brackets.nested
        assert table_verdicts(flag) == twin_verdicts(flag)


def perturbed_flag(flag, rng, nested):
    """The flag with one field moved by a multiple of a coordinate field.

    ``nested``: the field is one of the table's nested frame f1..f5 and
    every stratum is rebuilt on its prefix, so the strata still nest unless
    the move drops a rank.  Otherwise the field is one of a single stratum's
    own frame and the other strata keep theirs.
    """
    chart = flag[1].chart
    shift = coordinate_field(chart, rng.choice(chart.variables)).scale(
        sc(chart, rng.choice(("1", "-2", "3", rng.choice(chart.variables)))))
    if nested:
        frame = list(flag.brackets.fields[4])
        j = rng.randrange(5)
        frame[j] = frame[j] + shift
        strata = tuple(Distribution(chart, frame[:k]) for k in range(1, 6))
    else:
        k = rng.randrange(5)
        own = list(flag.strata[k].frame)
        i = rng.randrange(len(own))
        own[i] = own[i] + shift
        strata = flag.strata[:k] + (Distribution(chart, own),) + flag.strata[k + 1:]
    return ParabolicFlag(strata, rng.choice(list(FlagBranch)))


@pytest.mark.parametrize("seed", range(8))
def test_table_matches_twin_on_perturbed_flags(seed):
    rng = random.Random(seed)
    flags = {name: parabolic_flag(get_model(name).distribution())
             for name in ("j21", "eq5", "eq6", "g1_flat")}
    failed = 0
    nesting = set()
    for _ in range(6):
        for nested in (True, False):
            flag = perturbed_flag(flags[rng.choice(sorted(flags))], rng, nested)
            relations, closed = table_verdicts(flag)
            assert (relations, closed) == twin_verdicts(flag), \
                [d.frame for d in flag.strata]
            failed += sum(not holds for _, holds in relations)
            nesting.add(flag.brackets.nested)
    assert failed
    assert nesting == {True, False}


@pytest.mark.parametrize("name", ("j21", "eq6"))
def test_table_matches_twin_when_strata_share_fields(name):
    # a field object of a higher stratum in a lower one's frame: the table
    # skips the elimination of a stratum's own fields only
    flag = parabolic_flag(get_model(name).distribution())
    for k in range(1, 5):
        for j in range(k + 1, 6):
            own = list(flag[k].frame)
            own[0] = flag[j].frame[-1]
            strata = list(flag.strata)
            strata[k - 1] = Distribution(own[0].chart, own)
            for branch in FlagBranch:
                shared = ParabolicFlag(tuple(strata), branch)
                assert table_verdicts(shared) == twin_verdicts(shared), (k, j)
