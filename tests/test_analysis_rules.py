"""Golden-fixture tests for every vilint rule.

Each rule gets positive fixtures (snippets that must produce a diagnostic
with the right rule id and line) and negative fixtures (idiomatic code
that must stay clean).  Snippets run through
:func:`repro.analysis.lint_source`, the same path the CLI uses.
"""

import textwrap

import pytest

from repro.analysis import lint_source, rule_names


def findings(source, rule=None):
    select = [rule] if rule else None
    return lint_source(textwrap.dedent(source), path="fixture.py", select=select)


def lines_for(source, rule):
    return [d.line for d in findings(source, rule)]


def test_registry_lists_every_rule_in_code_order():
    assert rule_names() == [
        "future-annotations",
        "seeded-rng",
        "counter-discipline",
        "boundary-validation",
        "float-equality",
        "wall-clock-discipline",
        "injected-clock",
        "guard-discipline",
        "lock-order-inversion",
        "blocking-while-locked",
        "duck-sniffing",
    ]


# ---------------------------------------------------------------------------
# future-annotations
# ---------------------------------------------------------------------------
class TestFutureAnnotations:
    def test_missing_import_flagged_at_line_one(self):
        diagnostics = findings(
            '''\
            """Docstring."""

            import os

            x: int = 1
            ''',
            "future-annotations",
        )
        assert [(d.rule, d.line) for d in diagnostics] == [
            ("future-annotations", 1)
        ]
        assert diagnostics[0].code == "VIL001"

    def test_present_after_docstring_clean(self):
        assert not findings(
            '''\
            """Docstring."""

            from __future__ import annotations

            import os
            ''',
            "future-annotations",
        )

    def test_present_without_docstring_clean(self):
        assert not findings(
            "from __future__ import annotations\nimport os\n",
            "future-annotations",
        )

    def test_import_after_other_code_still_flagged(self):
        assert lines_for(
            "import os\nfrom __future__ import annotations\n",
            "future-annotations",
        ) == [1]

    def test_empty_and_docstring_only_modules_clean(self):
        assert not findings("", "future-annotations")
        assert not findings('"""Only a docstring."""\n', "future-annotations")


# ---------------------------------------------------------------------------
# seeded-rng
# ---------------------------------------------------------------------------
class TestSeededRng:
    def test_np_random_call_flagged(self):
        source = """\
        from __future__ import annotations

        import numpy as np

        def sample():
            return np.random.uniform(0.0, 1.0)
        """
        diagnostics = findings(source, "seeded-rng")
        assert [d.line for d in diagnostics] == [6]
        assert "numpy.random.uniform" in diagnostics[0].message

    def test_default_rng_and_seed_flagged(self):
        source = """\
        import numpy as np

        np.random.seed(0)
        rng = np.random.default_rng()
        """
        assert lines_for(source, "seeded-rng") == [3, 4]

    def test_stdlib_random_flagged(self):
        source = """\
        import random
        from random import randint

        def roll():
            return random.random() + randint(1, 6)
        """
        assert lines_for(source, "seeded-rng") == [5, 5]

    def test_threaded_generator_clean(self):
        source = """\
        from __future__ import annotations

        from repro.utils.rng import ensure_rng

        def sample(seed=None):
            rng = ensure_rng(seed)
            return rng.normal(size=4)
        """
        assert not findings(source, "seeded-rng")

    def test_generator_annotation_clean(self):
        source = """\
        import numpy as np

        def centre(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            return data[rng.integers(len(data))]
        """
        assert not findings(source, "seeded-rng")

    def test_unrelated_local_named_random_clean(self):
        source = """\
        def pick(random):
            return random.choice()
        """
        assert not findings(source, "seeded-rng")


# ---------------------------------------------------------------------------
# counter-discipline
# ---------------------------------------------------------------------------
class TestCounterDiscipline:
    def test_kernel_call_without_counters_param_flagged(self):
        source = """\
        from repro.core.similarity import video_similarity

        def score_pair(x, y):
            return video_similarity(x, y)
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [4]
        assert "video_similarity" in diagnostics[0].message

    def test_counters_param_dropped_on_call_flagged(self):
        source = """\
        from repro.core.similarity import video_similarity

        def score_pair(x, y, counters=None):
            return video_similarity(x, y)
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [4]
        assert "drops" in diagnostics[0].message

    def test_counters_propagated_clean(self):
        source = """\
        from repro.core.similarity import video_similarity

        def score_pair(x, y, counters=None):
            return video_similarity(x, y, counters)
        """
        assert not findings(source, "counter-discipline")

    def test_counters_propagated_as_keyword_clean(self):
        source = """\
        from repro.core.similarity import video_similarity

        def score_pair(x, y, counters=None):
            return video_similarity(x, y, counters=counters)
        """
        assert not findings(source, "counter-discipline")

    def test_raw_kernel_with_self_accounting_clean(self):
        source = """\
        from repro.core.similarity import _estimate_from_scalars

        class Accumulator:
            def evaluate(self, record):
                value = _estimate_from_scalars(2, 1.0, 3, 1.0, 3, 0.5)
                self.evaluations += 1
                return value
        """
        assert not findings(source, "counter-discipline")

    def test_raw_kernel_without_accounting_flagged(self):
        source = """\
        from repro.core.similarity import _estimate_from_scalars

        def estimate(record):
            return _estimate_from_scalars(2, 1.0, 3, 1.0, 3, 0.5)
        """
        assert lines_for(source, "counter-discipline") == [4]

    def test_raw_pager_io_outside_storage_flagged(self):
        diagnostics = lint_source(
            "def peek(pager):\n    return pager.read_page(0)\n",
            path="src/repro/core/index.py",
            select=["counter-discipline"],
        )
        assert [d.line for d in diagnostics] == [2]
        assert "BufferPool" in diagnostics[0].message

    def test_raw_pager_io_inside_storage_clean(self):
        assert not lint_source(
            "def peek(pager):\n    return pager.read_page(0)\n",
            path="src/repro/storage/buffer_pool.py",
            select=["counter-discipline"],
        )

    def test_querystats_from_global_pool_delta_flagged(self):
        source = """\
        def knn(self, query, k):
            pool = self._btree.buffer_pool
            requests_before = pool.requests
            stats = QueryStats(
                page_requests=pool.requests - requests_before,
                physical_reads=pool.misses,
            )
            return stats
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [5, 6]
        assert "global counter 'requests'" in diagnostics[0].message
        assert "per-query CostCounters bundle" in diagnostics[0].message

    def test_querystats_from_tree_node_visits_flagged(self):
        source = """\
        def knn(self, query, k):
            return QueryStats(
                node_visits=self._btree.node_visits - visits_before,
            )
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [3]
        assert "node_visits" in diagnostics[0].message

    def test_querystats_from_bundle_clean(self):
        source = """\
        def knn(self, query, k):
            counters = CostCounters()
            return QueryStats(
                page_requests=counters.page_requests,
                physical_reads=counters.page_reads,
                node_visits=counters.btree_node_visits,
            )
        """
        assert not findings(source, "counter-discipline")

    def test_querystats_from_attribute_bundle_clean(self):
        source = """\
        def serve(self, view, query, k):
            return QueryStats(
                page_requests=view.counters.page_requests,
                physical_reads=view.counters.page_reads,
            )
        """
        assert not findings(source, "counter-discipline")

    def test_global_counter_read_outside_querystats_clean(self):
        source = """\
        def hit_rate(pool):
            return pool.hits / pool.requests
        """
        assert not findings(source, "counter-discipline")

    def test_querystats_reaggregated_from_stats_flagged(self):
        # The shard-router temptation: build global stats by summing the
        # per-shard QueryStats objects instead of folding their bundles.
        source = """\
        def merge(self, results):
            return QueryStats(
                page_requests=sum(r.stats.page_requests for r in results),
                wall_time=sum(r.stats.wall_time for r in results),
            )
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [3, 4]
        assert "re-aggregating 'page_requests'" in diagnostics[0].message
        assert "fold" in diagnostics[0].message

    def test_querystats_from_direct_stats_attribute_flagged(self):
        source = """\
        def widen(self, stats):
            return QueryStats(candidates=stats.candidates + 1)
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [2]
        assert "'candidates'" in diagnostics[0].message

    def test_querystats_from_folded_bundles_clean(self):
        # The sanctioned pattern: fold per-shard bundles, then build the
        # aggregate from the folded CostCounters alone.
        source = """\
        def merge(self, bundles, elapsed):
            total_counters = CostCounters()
            for bundle in bundles:
                total_counters.add(bundle)
            return QueryStats(
                page_requests=total_counters.page_requests,
                physical_reads=total_counters.page_reads,
                node_visits=total_counters.btree_node_visits,
                wall_time=elapsed,
            )
        """
        assert not findings(source, "counter-discipline")

    def test_stats_field_read_outside_querystats_clean(self):
        # Reading stats fields is fine anywhere else (reporting, tests);
        # only re-aggregation into a new QueryStats is the hazard.
        source = """\
        def report(results):
            return sum(r.stats.page_requests for r in results)
        """
        assert not findings(source, "counter-discipline")

    # -- convention 6: batched reads stay record-accurate ---------------

    def test_batched_read_without_counters_param_flagged(self):
        source = """\
        def scan_batches(self):
            return [self._page(i) for i in range(self.num_pages)]
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [1]
        assert "batched read API" in diagnostics[0].message
        assert "counters" in diagnostics[0].message

    def test_batched_read_with_counters_param_clean(self):
        source = """\
        def range_search_many(self, ranges, *, counters=None):
            out = []
            for low, high in ranges:
                entries = self._walk(low, high)
                if counters is not None:
                    counters.records_scanned += len(entries)
                out.append(entries)
            return out
        """
        assert not findings(source, "counter-discipline")

    def test_batched_read_charging_constant_flagged(self):
        source = """\
        def decode_batch(self, payloads, *, counters=None):
            if counters is not None:
                counters.records_decoded += 1
            return self._decode_all(payloads)
        """
        diagnostics = findings(source, "counter-discipline")
        assert [d.line for d in diagnostics] == [3]
        assert "literal constant" in diagnostics[0].message

    def test_batched_read_charging_batch_size_clean(self):
        source = """\
        def decode_batch(self, payloads, *, counters=None):
            if counters is not None:
                counters.records_decoded += len(payloads)
            return self._decode_all(payloads)
        """
        assert not findings(source, "counter-discipline")

    def test_bulk_load_is_not_a_batched_read(self):
        # "load" is deliberately not a read verb: one-time construction
        # is not query work and carries no per-query bundle.
        source = """\
        def bulk_load(self, entries):
            for key, payload in entries:
                self._append(key, payload)
        """
        assert not findings(source, "counter-discipline")

    def test_batch_marker_without_read_verb_clean(self):
        source = """\
        def knn_many(self, queries, k):
            return [self._knn(query, k) for query in queries]
        """
        assert not findings(source, "counter-discipline")

    def test_raw_batch_kernel_exempt_from_convention_six(self):
        # estimated_shared_frames_many is a RAW_KERNELS member: its
        # callers account for it (convention 2), the kernel itself stays
        # signature-free.
        source = """\
        def estimated_shared_frames_many(query, positions, radii, counts):
            return _compute(query, positions, radii, counts)
        """
        assert not findings(source, "counter-discipline")


# ---------------------------------------------------------------------------
# boundary-validation
# ---------------------------------------------------------------------------
class TestBoundaryValidation:
    CORE = "src/repro/core/example.py"

    def test_public_array_function_without_check_flagged(self):
        diagnostics = lint_source(
            "def centroid(frames):\n    return frames.mean(axis=0)\n",
            path=self.CORE,
            select=["boundary-validation"],
        )
        assert [d.line for d in diagnostics] == [1]
        assert "'frames'" in diagnostics[0].message

    def test_annotated_array_param_flagged(self):
        source = (
            "import numpy as np\n"
            "def centroid(cloud: np.ndarray):\n"
            "    return cloud.mean(axis=0)\n"
        )
        diagnostics = lint_source(
            source, path=self.CORE, select=["boundary-validation"]
        )
        assert [d.line for d in diagnostics] == [2]

    def test_check_call_clean(self):
        source = (
            "from repro.utils.validation import check_matrix\n"
            "def centroid(frames):\n"
            "    frames = check_matrix(frames, 'frames')\n"
            "    return frames.mean(axis=0)\n"
        )
        assert not lint_source(
            source, path=self.CORE, select=["boundary-validation"]
        )

    def test_private_function_exempt(self):
        assert not lint_source(
            "def _centroid(frames):\n    return frames.mean(axis=0)\n",
            path=self.CORE,
            select=["boundary-validation"],
        )

    def test_outside_core_and_baselines_exempt(self):
        assert not lint_source(
            "def centroid(frames):\n    return frames.mean(axis=0)\n",
            path="src/repro/eval/example.py",
            select=["boundary-validation"],
        )

    def test_baselines_module_covered(self):
        assert lint_source(
            "def centroid(frames):\n    return frames.mean(axis=0)\n",
            path="src/repro/baselines/example.py",
            select=["boundary-validation"],
        )


# ---------------------------------------------------------------------------
# float-equality
# ---------------------------------------------------------------------------
class TestFloatEquality:
    @pytest.mark.parametrize(
        "expression",
        [
            "x == 0.0",
            "0.0 == x",
            "x != 1.5",
            "x == -2.0",
            "x == float(y)",
            "x == 2.0 * y",
        ],
    )
    def test_float_comparisons_flagged(self, expression):
        assert lines_for(f"def f(x, y):\n    return {expression}\n",
                         "float-equality") == [2]

    def test_math_inf_comparison_flagged(self):
        source = """\
        import math

        def degenerate(log_volume):
            return log_volume == -math.inf
        """
        assert lines_for(source, "float-equality") == [4]

    @pytest.mark.parametrize(
        "expression",
        [
            "x == 0",  # int literal: not provably float
            "x <= 0.0",  # ordered comparison is the accepted idiom
            "math.isclose(x, 0.0)",
            "x is None",
        ],
    )
    def test_accepted_idioms_clean(self, expression):
        source = f"import math\ndef f(x):\n    return {expression}\n"
        assert not findings(source, "float-equality")

    def test_chained_comparison_single_finding(self):
        assert lines_for("def f(a, b, c):\n    return a == 0.0 == b\n",
                         "float-equality") == [2]


# ---------------------------------------------------------------------------
# wall-clock-discipline
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged(self):
        source = """\
        import time

        def measure(fn):
            start = time.time()
            fn()
            return time.time() - start
        """
        assert lines_for(source, "wall-clock-discipline") == [4, 6]

    def test_perf_counter_and_monotonic_flagged(self):
        source = """\
        import time

        def stamp():
            return time.perf_counter() + time.monotonic()
        """
        assert len(lines_for(source, "wall-clock-discipline")) == 2

    def test_timer_usage_clean(self):
        source = """\
        from repro.utils.counters import Timer

        def measure(fn):
            with Timer() as timer:
                fn()
            return timer.elapsed
        """
        assert not findings(source, "wall-clock-discipline")

    def test_time_sleep_clean(self):
        source = """\
        import time

        def backoff():
            time.sleep(0.1)
        """
        assert not findings(source, "wall-clock-discipline")


# ---------------------------------------------------------------------------
# injected-clock
# ---------------------------------------------------------------------------
class TestInjectedClock:
    RESILIENCE = "src/repro/shard/resilience.py"
    FAULTS = "src/repro/shard/faults.py"

    def test_time_sleep_flagged_in_resilience(self):
        source = textwrap.dedent(
            """\
            import time

            def backoff(delay):
                time.sleep(delay)
            """
        )
        diagnostics = lint_source(
            source, path=self.RESILIENCE, select=["injected-clock"]
        )
        assert [(d.rule, d.line) for d in diagnostics] == [
            ("injected-clock", 4)
        ]
        assert diagnostics[0].code == "VIL007"

    def test_random_and_numpy_random_flagged(self):
        source = textwrap.dedent(
            """\
            import random

            import numpy as np

            def jitter():
                return random.random() + np.random.random()
            """
        )
        assert [
            d.line
            for d in lint_source(
                source, path=self.FAULTS, select=["injected-clock"]
            )
        ] == [6, 6]

    def test_time_call_flagged_even_where_vil006_is_silent(self):
        # time.sleep is clean under wall-clock-discipline repo-wide, but in
        # the resilience layer even a sleep breaks virtual-clock replays.
        source = textwrap.dedent(
            """\
            import time

            def wait():
                time.sleep(0.1)
            """
        )
        assert not lint_source(
            source, path=self.RESILIENCE, select=["wall-clock-discipline"]
        )
        assert lint_source(
            source, path=self.RESILIENCE, select=["injected-clock"]
        )

    def test_injected_clock_usage_clean(self):
        source = textwrap.dedent(
            """\
            from repro.utils.clock import Clock

            def backoff(clock: Clock, delay: float) -> None:
                clock.sleep(delay)
                now = clock.now()
            """
        )
        assert not lint_source(
            source, path=self.RESILIENCE, select=["injected-clock"]
        )

    def test_out_of_scope_path_clean(self):
        source = textwrap.dedent(
            """\
            import time

            def measure():
                time.sleep(0.1)
            """
        )
        assert not findings(source, "injected-clock")

    def test_ingest_layer_is_in_scope(self):
        # The ingest pipeline's pump backoff and drift floors must replay
        # under a virtual clock, so repro/ingest/ carries VIL007 too.
        source = textwrap.dedent(
            """\
            import time

            def pump_backoff(delay):
                time.sleep(delay)
            """
        )
        diagnostics = lint_source(
            source,
            path="src/repro/ingest/pipeline.py",
            select=["injected-clock"],
        )
        assert [(d.rule, d.line) for d in diagnostics] == [
            ("injected-clock", 4)
        ]
        assert diagnostics[0].code == "VIL007"


# ---------------------------------------------------------------------------
# duck-sniffing
# ---------------------------------------------------------------------------
class TestDuckSniffing:
    ROUTER = "src/repro/shard/router.py"

    def test_literal_probes_flagged(self):
        source = textwrap.dedent(
            """            def dispatch(shard, target):
                if hasattr(target, "rebuild_shard"):
                    pass
                extra = getattr(shard, "replica_aware", False)
                return getattr(shard, "serving_engines", None)
            """
        )
        diagnostics = lint_source(
            source, path=self.ROUTER, select=["duck-sniffing"]
        )
        assert [(d.rule, d.line) for d in diagnostics] == [
            ("duck-sniffing", 2),
            ("duck-sniffing", 4),
            ("duck-sniffing", 5),
        ]
        assert diagnostics[0].code == "VIL011"

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/serve/shard_server.py",
            "src/repro/replication/group.py",
            "src/repro/ingest/pipeline.py",
        ],
    )
    def test_every_serving_layer_is_in_scope(self, path):
        source = "def f(x):\n    return hasattr(x, 'sync')\n"
        assert [
            d.line for d in lint_source(source, path=path, select=["duck-sniffing"])
        ] == [2]

    def test_dynamic_name_delegation_clean(self):
        source = textwrap.dedent(
            """            class Proxy:
                def __getattr__(self, name):
                    return getattr(self._shard, name)

                def _serve(self, copy, method_name, args):
                    return getattr(copy.target, method_name)(*args)

                def strict(self, shard):
                    return getattr(shard, "knn")
            """
        )
        assert not lint_source(
            source, path=self.ROUTER, select=["duck-sniffing"]
        )

    def test_out_of_scope_path_clean(self):
        source = "def f(x):\n    return getattr(x, 'lineno', 1)\n"
        assert not findings(source, "duck-sniffing")
        assert not lint_source(
            source,
            path="src/repro/analysis/registry.py",
            select=["duck-sniffing"],
        )
