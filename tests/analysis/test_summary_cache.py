"""The per-knowledge-base analysis summary cache releases dropped bases."""

import gc

from repro import kb_from_program
from repro.analysis.absint.summary import cache_info, reset_cache, summary_for

PROGRAM = "e(a, b).\ne(b, c).\np(X) <- e(X, Y).\n"


class TestSummaryCacheLifetime:
    def test_dropped_knowledge_base_frees_its_entry(self):
        reset_cache()
        bases = [kb_from_program(PROGRAM) for _ in range(50)]
        for kb in bases:
            summary_for(kb)
        assert cache_info()["entries"] == 50
        del kb, bases
        gc.collect()
        assert cache_info()["entries"] == 0

    def test_live_knowledge_base_stays_reachable_from_its_model(self):
        kb = kb_from_program(PROGRAM)
        summary = summary_for(kb)
        assert summary.model.source_kb is kb
        assert summary_for(kb) is summary
