"""The optimiser plan cache: fingerprints, invalidation, LRU, metrics.

A cached plan may be reused only while everything it depended on is
unchanged: the normalised query, the catalog contents and statistics,
the optimiser configuration, the cost model instance, and the planned
worker count. Each of those dimensions gets an invalidation test here;
the tail of the file covers the parallel option space the worker
dimension exists for.
"""

import numpy as np
import pytest

from repro.core import (
    DynamicProgrammingOptimizer,
    PlanCache,
    disable_plan_cache,
    dqo_config,
    enable_plan_cache,
    get_plan_cache,
    optimize_dqo,
    set_plan_cache,
    sqo_config,
)
from repro.core.optimizer import extract_query, spec_fingerprint
from repro.core.optimizer.exhaustive import enumerate_exhaustive
from repro.core.optimizer.greedy import optimize_greedy
from repro.core.optimizer.plancache import config_fingerprint
from repro.core.optimizer.rules import grouping_options, join_options
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import GroupingAlgorithm, JoinAlgorithm
from repro.obs import capture_observability
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Catalog, Table
from repro.storage.catalog import ForeignKey

#: a scan group-by: where a parallel loop pays for itself at four workers.
SCAN_GROUP_BY = "SELECT K, COUNT(*) FROM T GROUP BY K"


@pytest.fixture
def catalog():
    return make_join_scenario(
        n_r=800,
        n_s=2_000,
        num_groups=80,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=3,
    ).build_catalog()


@pytest.fixture
def scan_catalog():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.register(
        "T", Table.from_arrays({"K": rng.integers(0, 50, 20_000), "V": rng.integers(0, 9, 20_000)})
    )
    return catalog


@pytest.fixture
def spec(catalog, paper_query):
    return extract_query(plan_query(paper_query, catalog))


class TestSpecFingerprint:
    def test_stable_across_parses(self, catalog, paper_query):
        a = extract_query(plan_query(paper_query, catalog))
        b = extract_query(plan_query(paper_query, catalog))
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_conjunct_order_is_normalised(self, catalog):
        a = extract_query(
            plan_query(
                "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID "
                "WHERE R.A > 3 AND R.ID > 10 GROUP BY R.A",
                catalog,
            )
        )
        b = extract_query(
            plan_query(
                "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID "
                "WHERE R.ID > 10 AND R.A > 3 GROUP BY R.A",
                catalog,
            )
        )
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_different_queries_differ(self, catalog, paper_query):
        a = extract_query(plan_query(paper_query, catalog))
        b = extract_query(
            plan_query(
                "SELECT R.A, COUNT(*), SUM(S.B) FROM R JOIN S ON "
                "R.ID = S.R_ID GROUP BY R.A",
                catalog,
            )
        )
        assert spec_fingerprint(a) != spec_fingerprint(b)


class TestCatalogFingerprint:
    def test_register_replace_bumps_version(self, catalog):
        before = catalog.fingerprint()
        catalog.register("R", catalog.table("R"), replace=True)
        after = catalog.fingerprint()
        assert before != after
        assert after[0] == before[0]  # same catalog, new version

    def test_add_foreign_key_bumps_version(self, catalog):
        before = catalog.fingerprint()
        catalog.add_foreign_key(ForeignKey("S", "R_ID", "R", "ID"))
        assert catalog.fingerprint() != before

    def test_distinct_catalogs_never_collide(self):
        a = make_join_scenario(n_r=200, n_s=400, num_groups=20, seed=1)
        b = make_join_scenario(n_r=200, n_s=400, num_groups=20, seed=1)
        assert a.build_catalog().fingerprint() != b.build_catalog().fingerprint()


class TestPlanCacheUnit:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_miss_then_hit(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        first = optimizer.optimize_spec(spec)
        assert not first.cached
        assert cache.misses == 1 and cache.hits == 0
        second = optimizer.optimize_spec(spec)
        assert second.cached
        assert cache.hits == 1
        assert second.cost == first.cost
        assert second.explain(deep=True) == first.explain(deep=True)

    def test_cached_result_skips_the_search(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        first = optimizer.optimize_spec(spec)
        assert first.stats.generated > 0
        second = optimizer.optimize_spec(spec)
        assert second.stats.generated == 0
        assert second.stats.closures == 0
        assert second.stats.retained == 0

    def test_hit_does_not_expose_stored_alternatives(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        optimizer.optimize_spec(spec)
        hit = optimizer.optimize_spec(spec)
        hit.alternatives.clear()
        again = optimizer.optimize_spec(spec)
        assert again.cached
        assert len(again.alternatives) == len(
            optimizer.optimize_spec(spec).alternatives
        )

    def test_lru_eviction(self, catalog, paper_query):
        cache = PlanCache(capacity=2)
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        queries = [
            paper_query,
            "SELECT R.A, COUNT(*), SUM(S.B) FROM R JOIN S ON R.ID = S.R_ID "
            "GROUP BY R.A",
            "SELECT S.B, COUNT(*) FROM S GROUP BY S.B",
        ]
        specs = [extract_query(plan_query(q, catalog)) for q in queries]
        for spec in specs:
            optimizer.optimize_spec(spec)
        assert len(cache) == 2
        assert cache.evictions == 1
        # The oldest entry is gone: re-optimising it is a miss...
        assert not optimizer.optimize_spec(specs[0]).cached
        # ...and the most recent two were still resident.
        assert cache.info()["evictions"] == 2

    def test_clear_keeps_counters(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        optimizer.optimize_spec(spec)
        optimizer.optimize_spec(spec)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert not optimizer.optimize_spec(spec).cached


class TestInvalidation:
    def test_stats_update_invalidates(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        optimizer.optimize_spec(spec)
        catalog.register("R", catalog.table("R"), replace=True)
        result = optimizer.optimize_spec(spec)
        assert not result.cached
        assert cache.misses == 2
        assert len(cache) == 2  # old entry retained under the old version

    def test_config_is_part_of_the_key(self, catalog, spec):
        cache = PlanCache()
        deep = DynamicProgrammingOptimizer(
            catalog, config=dqo_config(), plan_cache=cache
        )
        shallow = DynamicProgrammingOptimizer(
            catalog, config=sqo_config(), plan_cache=cache
        )
        deep.optimize_spec(spec)
        assert not shallow.optimize_spec(spec).cached
        assert len(cache) == 2
        assert config_fingerprint(dqo_config()) != config_fingerprint(sqo_config())

    def test_workers_are_part_of_the_key(self, catalog, spec):
        cache = PlanCache()
        serial = DynamicProgrammingOptimizer(
            catalog, config=dqo_config(workers=1), plan_cache=cache
        )
        wide = DynamicProgrammingOptimizer(
            catalog, config=dqo_config(workers=4), plan_cache=cache
        )
        serial.optimize_spec(spec)
        assert not wide.optimize_spec(spec).cached
        assert len(cache) == 2
        assert wide.optimize_spec(spec).cached

    @pytest.mark.parametrize("first", ["dqo", "greedy"])
    def test_search_strategy_is_part_of_the_key(self, catalog, paper_query, first):
        """DQO and greedy search one configuration but never share an
        entry, whichever runs first."""
        searches = {"dqo": optimize_dqo, "greedy": optimize_greedy}
        (second,) = set(searches) - {first}
        logical = plan_query(paper_query, catalog)
        previous = get_plan_cache()
        set_plan_cache(PlanCache())
        try:
            searches[first](logical, catalog)
            result = searches[second](logical, catalog)
            again = searches[second](logical, catalog)
            entries = len(get_plan_cache())
        finally:
            set_plan_cache(previous)
        assert not result.cached and result.stats.generated > 0
        assert again.cached and again.plan_fingerprint == result.plan_fingerprint
        assert entries == 2

    def test_stateless_cost_models_share_entries(self, catalog, spec):
        from repro.core import PaperCostModel

        cache = PlanCache()
        a = DynamicProgrammingOptimizer(
            catalog, cost_model=PaperCostModel(), plan_cache=cache
        )
        b = DynamicProgrammingOptimizer(
            catalog, cost_model=PaperCostModel(), plan_cache=cache
        )
        a.optimize_spec(spec)
        # PaperCostModel is stateless: a different instance costs
        # identically, so its fingerprint carries no instance identity.
        assert b.optimize_spec(spec).cached

    def test_stateful_cost_models_keep_instance_identity(self):
        from repro.core import CalibratedCostModel

        a = CalibratedCostModel()
        b = CalibratedCostModel()
        assert a.cache_fingerprint() != b.cache_fingerprint()


class TestMetricsAndGlobalCache:
    def test_hit_miss_counters_in_snapshot(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        with capture_observability() as (metrics, __):
            optimizer.optimize_spec(spec)
            optimizer.optimize_spec(spec)
            snapshot = metrics.snapshot()
        assert snapshot["optimizer.plancache.miss"] == 1
        assert snapshot["optimizer.plancache.hit"] == 1

    def test_eviction_counter_in_snapshot(self, catalog, paper_query):
        cache = PlanCache(capacity=1)
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        specs = [
            extract_query(plan_query(q, catalog))
            for q in (
                paper_query,
                "SELECT S.B, COUNT(*) FROM S GROUP BY S.B",
            )
        ]
        with capture_observability() as (metrics, __):
            for spec in specs:
                optimizer.optimize_spec(spec)
            snapshot = metrics.snapshot()
        assert snapshot["optimizer.plancache.evictions"] == 1

    def test_process_wide_cache_serves_optimize_dqo(self, catalog, paper_query):
        previous = get_plan_cache()
        try:
            cache = enable_plan_cache()
            assert enable_plan_cache() is cache  # idempotent
            logical = plan_query(paper_query, catalog)
            first = optimize_dqo(logical, catalog)
            second = optimize_dqo(logical, catalog)
            assert not first.cached
            assert second.cached
            assert cache.hits >= 1
        finally:
            set_plan_cache(previous)

    def test_disable_plan_cache(self):
        previous = get_plan_cache()
        try:
            enable_plan_cache()
            disable_plan_cache()
            assert get_plan_cache() is None
        finally:
            set_plan_cache(previous)


class TestParallelOptionSpace:
    """The worker dimension the cache keys on: what it unlocks and what
    it must not disturb."""

    def test_serial_space_has_no_parallel_options(self):
        assert not any(o.parallel for o in grouping_options(dqo_config(), 1))
        assert not any(o.parallel for o in join_options(dqo_config()))

    def test_deep_multiworker_space_adds_parallel_variants(self):
        grouping = grouping_options(dqo_config(), 4)
        parallel_algorithms = {o.algorithm for o in grouping if o.parallel}
        assert parallel_algorithms  # the lattice's parallel-loop recipes

    def test_sqo_never_sees_the_loop_granule(self):
        assert not any(o.parallel for o in grouping_options(sqo_config(), 4))
        assert not any(o.parallel for o in join_options(sqo_config()))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_join_option_is_serial(self, catalog, paper_query, workers, backend):
        """Whatever the configuration plans for, every join of every plan
        in the space runs the serial kernel; the grouping keeps its loop."""
        config = dqo_config(workers=workers, backend=backend)
        plans = enumerate_exhaustive(plan_query(paper_query, catalog), catalog, config=config)
        nodes = [node for entry in plans for node in entry.plan.walk()]
        joins = [node.option for node in nodes if node.op == "join"]
        assert joins and all(option.mode == "serial" for option in joins)
        assert {option.mode for option in join_options(config)} == {"serial"}
        groupings = {node.option.parallel for node in nodes if node.op == "group_by"}
        assert groupings == ({False, True} if workers > 1 else {False})

    def test_optimizer_picks_parallel_plan_when_cheaper(self, scan_catalog):
        logical = plan_query(SCAN_GROUP_BY, scan_catalog)
        serial = optimize_dqo(logical, scan_catalog, workers=1)
        wide = optimize_dqo(logical, scan_catalog, workers=4)
        assert wide.cost < serial.cost
        assert any(node.option and node.option.parallel for node in wide.plan.walk())
        assert not any(
            node.option and node.option.parallel for node in serial.plan.walk()
        )

    def test_figure5_costs_invariant_to_ambient_workers(
        self, catalog, paper_query, scan_catalog
    ):
        # The default config plans for one worker regardless of
        # REPRO_WORKERS, so published cost ratios never drift with the
        # runtime executor setting — not even where a parallel loop
        # would pay, as it does for a scan group-by.
        for queried, sql in ((catalog, paper_query), (scan_catalog, SCAN_GROUP_BY)):
            logical = plan_query(sql, queried)
            baseline = optimize_dqo(logical, queried)
            with scoped_settings(workers=4):
                under_ambient = optimize_dqo(logical, queried)
            assert under_ambient.cost == baseline.cost
        # Opting in to the ambient setting is explicit:
        with scoped_settings(workers=4):
            ambient_aware = optimize_dqo(logical, scan_catalog, workers=None)
        assert ambient_aware.cost < baseline.cost


class TestBackendOptionSpace:
    """The execution-backend dimension: process options are opt-in,
    keyed into the cache, and costed per node."""

    def test_thread_config_excludes_process_options(self):
        for option in grouping_options(dqo_config(workers=4), 4):
            assert option.backend == "thread"
        for option in join_options(dqo_config(workers=4)):
            assert option.backend == "thread"

    def test_process_config_adds_backend_variants(self):
        config = dqo_config(workers=4, backend="process")
        grouping = grouping_options(config, 4)
        assert any(o.mode == "parallel@process" for o in grouping)

    def test_backend_changes_config_fingerprint(self):
        thread = dqo_config(workers=4)
        process = dqo_config(workers=4, backend="process")
        assert config_fingerprint(thread) != config_fingerprint(process)

    def test_backend_is_part_of_the_cache_key(self, catalog, spec):
        cache = PlanCache()
        thread = DynamicProgrammingOptimizer(
            catalog, config=dqo_config(workers=4), plan_cache=cache
        )
        process = DynamicProgrammingOptimizer(
            catalog,
            config=dqo_config(workers=4, backend="process"),
            plan_cache=cache,
        )
        thread.optimize_spec(spec)
        assert not process.optimize_spec(spec).cached
        assert len(cache) == 2
        assert process.optimize_spec(spec).cached

    def test_thread_plans_keep_historical_fingerprints(
        self, catalog, paper_query
    ):
        # Sentinel baselines hash thread plans with the pre-backend
        # tokens; those hashes must not drift.
        logical = plan_query(paper_query, catalog)
        wide = optimize_dqo(logical, catalog, workers=4)
        for node in wide.plan.walk():
            assert node.option is None or node.option.backend == "thread"
        assert "@" not in wide.plan_fingerprint


class TestEntryStats:
    def test_entries_report_hits_age_and_identity(self, catalog, spec):
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        result = optimizer.optimize_spec(spec)
        for __ in range(3):
            optimizer.optimize_spec(spec)
        rows = cache.entry_stats()
        assert len(rows) == 1
        row = rows[0]
        assert row["spec_fingerprint"] == spec_fingerprint(spec)
        assert row["plan_hash"] == result.plan_fingerprint
        assert row["hits"] == 3
        assert row["age_seconds"] >= 0.0
        assert row["cost"] == pytest.approx(result.cost)
        assert row["workers"] == 1

    def test_hottest_first_and_limit(self, catalog, spec):
        cache = PlanCache()
        hot = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        hot.optimize_spec(spec)
        for __ in range(4):
            hot.optimize_spec(spec)
        cold = DynamicProgrammingOptimizer(
            catalog, plan_cache=cache, config=dqo_config(workers=2)
        )
        cold.optimize_spec(spec)
        rows = cache.entry_stats()
        assert len(rows) == 2
        assert rows[0]["hits"] == 4 and rows[1]["hits"] == 0
        limited = cache.entry_stats(limit=1)
        assert len(limited) == 1
        assert limited[0]["plan_hash"] == rows[0]["plan_hash"]

    def test_cached_hits_keep_fingerprints(self, catalog, spec):
        """dataclasses.replace on a hit must preserve the identity pair
        the sentinel correlates on."""
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        fresh = optimizer.optimize_spec(spec)
        hit = optimizer.optimize_spec(spec)
        assert hit.cached
        assert hit.plan_fingerprint == fresh.plan_fingerprint != ""
        assert hit.spec_fingerprint == fresh.spec_fingerprint != ""
