"""Unit tests for the symmetric-constraint template cache.

Sharing is read off ``compile_program(...).cache_stats`` (one miss per
template class, one hit per further member); relabeling soundness is
checked on :func:`build_template` / :func:`instantiate_template`
directly.
"""

import itertools

from repro.compile import build_template, compile_program, instantiate_template, template_key
from repro.compile.synthesize import verify_constraint_qubo
from repro.core import Env, nck


def namer():
    counter = itertools.count()
    return lambda: f"_n{next(counter)}"


def stats_of(*constraints) -> dict:
    """In-memory cache statistics of compiling ``constraints`` together."""
    env = Env()
    for constraint in constraints:
        env.add_constraint(constraint)
    stats = compile_program(env).cache_stats
    return {k: stats[k] for k in ("hits", "misses", "templates")}


def shared_template(first, second):
    """The template synthesized for ``first``, which ``second`` shares."""
    assert template_key(first, False) == template_key(second, False)
    return build_template(first, False)


class TestCaching:
    def test_hit_on_symmetric_constraint(self):
        stats = stats_of(nck(["a", "b"], [1, 2]), nck(["c", "d"], [1, 2]))
        assert stats == {"hits": 1, "misses": 1, "templates": 1}

    def test_miss_on_different_selection(self):
        stats = stats_of(nck(["a", "b"], [1, 2]), nck(["a", "b"], [1]))
        assert stats == {"hits": 0, "misses": 2, "templates": 2}

    def test_miss_on_different_multiplicity_profile(self):
        """Def. 7-symmetric but different truth tables must not share."""
        stats = stats_of(nck(["a", "a", "b"], [2]), nck(["c", "d", "e"], [2]))
        assert stats["hits"] == 0


class TestRelabelingCorrectness:
    def test_cached_result_valid_for_new_variables(self):
        c1 = nck(["a", "b", "c"], [0, 2])
        c2 = nck(["p", "q", "r"], [0, 2])
        result = instantiate_template(shared_template(c1, c2), c2, namer())
        assert verify_constraint_qubo(c2, result)

    def test_cached_result_with_multiplicities(self):
        c1 = nck(["a", "a", "b"], [2])
        c2 = nck(["y", "x", "x"], [2])  # x has multiplicity 2 like a
        template = shared_template(c1, c2)
        n = namer()
        assert verify_constraint_qubo(c1, instantiate_template(template, c1, n))
        assert verify_constraint_qubo(c2, instantiate_template(template, c2, n))

    def test_fresh_ancillas_per_use(self):
        c1 = nck(["a", "b", "c"], [0, 2])
        c2 = nck(["d", "e", "f"], [0, 2])
        template = shared_template(c1, c2)
        n = namer()
        r1 = instantiate_template(template, c1, n)
        r2 = instantiate_template(template, c2, n)
        assert r1.ancillas and r2.ancillas
        assert set(r1.ancillas).isdisjoint(r2.ancillas)

    def test_variables_in_relabeled_qubo(self):
        constraint = nck(["p", "q"], [1])
        result = instantiate_template(build_template(constraint, False), constraint, namer())
        assert set(result.qubo.variables) <= {"p", "q"} | set(result.ancillas)
