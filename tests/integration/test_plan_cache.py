"""Session-level compiled-plan cache behaviour.

The :class:`repro.session.PlanCache` keeps compiled conjunction kernels
warm across queries.  Its key embeds ``kb.rules_version`` and the
executor, so rule changes invalidate implicitly while fact-only mutations
keep plans warm — that is the payoff: a repeat point lookup after EDB
churn misses the statement memo (keyed on relation versions) but skips
query-plan compilation.
"""

import pytest

from repro.logic.terms import Constant
from repro.session import PlanCache, Session


def seeded_session(**kwargs):
    session = Session(**kwargs)
    session.load(
        """
        edge(a, b).  edge(b, c).  edge(c, d).
        path(X, Y) <- edge(X, Y).
        path(X, Z) <- edge(X, Y) and path(Y, Z).
        """
    )
    return session


class TestPlanCacheLRU:
    def test_get_counts_hits_and_misses(self):
        cache = PlanCache()
        assert cache.get(("k",)) is None
        cache[("k",)] = "plan"
        assert cache.get(("k",)) == "plan"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bounded_eviction_is_lru(self):
        cache = PlanCache(limit=2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")  # refresh "a": "b" becomes the eviction candidate
        cache["c"] = 3
        assert "b" not in cache
        assert set(cache) == {"a", "c"}


@pytest.mark.parametrize("executor", ["kernel"])
class TestSessionPlanCache:
    def test_fact_mutation_keeps_plans_warm(self, executor):
        session = seeded_session(executor=executor)
        session.query("retrieve path(a, X)")
        compile_misses = session.plan_cache.misses
        # New fact: statement memo (relation-version keyed) misses, but
        # the compiled plan is reused — no new cache misses.
        session.query("edge(d, e).")
        answers = session.query("retrieve path(a, X)")
        assert (Constant("e"),) in answers.to_set()
        assert session.plan_cache.misses == compile_misses
        assert session.plan_cache.hits > 0

    def test_rule_change_keys_out_stale_plans(self, executor):
        session = seeded_session(executor=executor)
        session.query("retrieve path(a, X)")
        misses = session.plan_cache.misses
        session.query("reach(X) <- path(a, X).")
        session.query("retrieve path(a, X)")
        # rules_version moved: the old entry cannot be served.
        assert session.plan_cache.misses > misses

    def test_cache_can_be_disabled(self, executor):
        session = seeded_session(executor=executor, plan_cache=False)
        assert session.plan_cache is None
        answers = session.query("retrieve path(a, X)")
        assert (Constant("d"),) in answers.to_set()
