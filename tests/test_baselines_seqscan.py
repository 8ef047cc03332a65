"""Tests for the sequential-scan baseline."""

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScan


class TestSequentialScan:
    def test_results_match_index(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        for query_id in range(0, len(small_summaries), 4):
            query = small_summaries[query_id]
            a = scan.knn(query, 6)
            b = small_index.knn(query, 6, cold=True)
            assert a.videos == b.videos
            assert np.allclose(a.scores, b.scores)

    def test_reads_every_data_page(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        result = scan.knn(small_summaries[0], 5, cold=True)
        assert result.stats.page_requests == scan.heap.num_data_pages

    def test_evaluates_every_pair(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        query = small_summaries[3]
        result = scan.knn(query, 5)
        expected = small_index.num_vitris * len(query.vitris)
        assert result.stats.similarity_computations == expected
        assert result.stats.candidates == small_index.num_vitris

    def test_cpu_cost_at_least_index(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        for query_id in (0, 7):
            query = small_summaries[query_id]
            a = scan.knn(query, 5)
            b = small_index.knn(query, 5, cold=True)
            assert a.stats.similarity_computations >= b.stats.similarity_computations

    def test_warm_scan_still_counts_requests(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        first = scan.knn(small_summaries[0], 5, cold=True)
        warm = scan.knn(small_summaries[0], 5, cold=False)
        assert warm.stats.page_requests == first.stats.page_requests

    def test_invalid_arguments(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        with pytest.raises(ValueError):
            scan.knn(small_summaries[0], 0)
        with pytest.raises(TypeError):
            scan.knn("nope", 5)
        with pytest.raises(TypeError):
            SequentialScan("not an index")
