"""Oracle-equivalence harness for the vectorized query path.

The vectorized implementation (page-batched leaf reads, columnar
deserialisation, numpy geometry, deferred bincount score folding) is
contractually **bit-identical** to the scalar oracle — not approximately
equal.  Every assertion in this module uses ``==`` on floats; a single
ulp of drift is a failure.

Three layers are pinned, mirroring the three layers of the rewrite:

1. geometry — ``_estimate_batch`` against ``_estimate_from_scalars``,
   over randomized sweeps including degenerate radii, coincident
   centres and point-mass clusters;
2. storage — ``decode_columns`` / ``decode_batch`` against per-record
   ``decode``, and ``range_search_many`` against per-range
   ``range_search`` (keys, payload bytes *and* cost counters);
3. end-to-end — ``knn`` / ``similarity_range`` with ``impl="scalar"``
   against ``impl="vectorized"``: identical rankings, identical score
   floats, identical logical counter signatures, and the vectorized
   side never touching *more* pages than the scalar one.
"""

import os

import numpy as np
import pytest

import repro
from repro.core.index import VitriIndex
from repro.core.similarity import (
    _estimate_batch,
    _estimate_from_scalars,
    estimated_shared_frames,
)
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary, ViTri
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.storage.serialization import ViTriRecord, ViTriRecordCodec
from repro.utils.counters import CostCounters
from repro.utils.rng import ensure_rng

# Counter fields that must match *exactly* between implementations: the
# logical work is identical even though the physical access pattern is
# batched.  page_requests / node visits are asserted separately as <=
# (the bulk path may skip redundant root-to-leaf descents).
LOGICAL_COUNTERS = (
    "similarity_computations",
    "distance_computations",
    "records_scanned",
    "records_decoded",
)


def logical_signature(counters):
    return {name: getattr(counters, name) for name in LOGICAL_COUNTERS}


# ---------------------------------------------------------------------------
# Layer 1: geometry kernel vs scalar oracle
# ---------------------------------------------------------------------------


def random_vitri_params(rng, *, degenerate_fraction=0.25):
    """Random (radius, count) with a controlled share of point masses."""
    if rng.random() < degenerate_fraction:
        radius = 0.0
    else:
        radius = float(rng.uniform(0.0, 2.0))
    count = int(rng.integers(1, 500))
    return radius, count


class TestGeometryKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 20240601])
    @pytest.mark.parametrize("dim", [1, 2, 16, 64])
    def test_batch_matches_scalar_oracle(self, seed, dim):
        """Every lane of _estimate_batch equals the scalar oracle bitwise."""
        rng = ensure_rng(seed)
        batch = 64
        radius_q, count_q = random_vitri_params(rng)
        radii = np.empty(batch)
        counts = np.empty(batch)
        for i in range(batch):
            radii[i], counts[i] = random_vitri_params(rng)
        # Distance mix: disjoint, containment, lens, coincident centres.
        distances = np.concatenate(
            [
                rng.uniform(0.0, 4.0, size=batch - 16),
                np.zeros(8),
                np.abs(radii[:8] - radius_q),  # boundary of containment
            ]
        )
        got = _estimate_batch(
            dim, radius_q, count_q, radii, counts, distances
        )
        for i in range(batch):
            want = _estimate_from_scalars(
                dim,
                radius_q,
                count_q,
                float(radii[i]),
                int(counts[i]),
                float(distances[i]),
            )
            assert got[i] == want, (
                f"lane {i}: batch={got[i]!r} oracle={want!r} "
                f"(rq={radius_q}, r={radii[i]}, d={distances[i]})"
            )

    def test_batch_is_batch_size_independent(self):
        """Slicing a batch in half must not change any lane's bits."""
        rng = ensure_rng(3)
        dim = 16
        radii = rng.uniform(0.0, 1.5, size=40)
        counts = rng.integers(1, 300, size=40).astype(np.float64)
        distances = rng.uniform(0.0, 3.0, size=40)
        full = _estimate_batch(dim, 0.4, 50, radii, counts, distances)
        halves = np.concatenate(
            [
                _estimate_batch(
                    dim, 0.4, 50, radii[:13], counts[:13], distances[:13]
                ),
                _estimate_batch(
                    dim, 0.4, 50, radii[13:], counts[13:], distances[13:]
                ),
            ]
        )
        assert np.array_equal(full, halves)

    def test_point_mass_pairs(self):
        """Zero-radius (zero-variance cluster) cases on both sides."""
        dim = 8
        for rq, rc, d, expect_nonzero in [
            (0.0, 0.0, 0.0, True),  # coincident point masses
            (0.0, 0.0, 0.5, False),  # separated point masses
            (0.0, 1.0, 0.5, True),  # point query inside a sphere
            (1.0, 0.0, 0.5, True),  # point candidate inside the query
            (1.0, 0.0, 1.5, False),  # point candidate outside
        ]:
            got = _estimate_batch(
                dim, rq, 10, np.asarray([rc]), np.asarray([20.0]),
                np.asarray([d]),
            )
            want = _estimate_from_scalars(dim, rq, 10, rc, 20, d)
            assert got[0] == want
            assert (want > 0.0) is expect_nonzero

    def test_public_entry_point_uses_oracle(self):
        """estimated_shared_frames routes through the same oracle."""
        rng = ensure_rng(9)
        for _ in range(25):
            dim = int(rng.integers(1, 32))
            a = ViTri(
                position=rng.normal(size=dim),
                radius=float(rng.uniform(0.0, 1.0)),
                count=int(rng.integers(1, 100)),
            )
            b = ViTri(
                position=rng.normal(size=dim),
                radius=float(rng.uniform(0.0, 1.0)),
                count=int(rng.integers(1, 100)),
            )
            diff = a.position - b.position
            distance = float(np.sqrt(np.sum(diff * diff)))
            assert estimated_shared_frames(a, b) == _estimate_from_scalars(
                dim, a.radius, a.count, b.radius, b.count, distance
            )


# ---------------------------------------------------------------------------
# Layer 2a: columnar decode vs per-record decode
# ---------------------------------------------------------------------------


def assert_records_equal(got, want):
    assert got.video_id == want.video_id
    assert got.vitri_id == want.vitri_id
    assert got.count == want.count
    assert got.radius == want.radius
    assert np.array_equal(got.position, want.position)


def random_records(rng, dim, n):
    return [
        ViTriRecord(
            video_id=int(rng.integers(0, 2**32 - 2)),
            vitri_id=int(rng.integers(0, 2**32 - 1)),
            count=int(rng.integers(1, 2**31)),
            radius=float(rng.uniform(0.0, 5.0)),
            position=rng.normal(size=dim),
        )
        for _ in range(n)
    ]


class TestColumnarDecodeEquivalence:
    @pytest.mark.parametrize("seed", [0, 11, 202])
    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_decode_columns_matches_per_record_decode(self, seed, dim):
        rng = ensure_rng(seed)
        codec = ViTriRecordCodec(dim)
        records = random_records(rng, dim, 17)
        buffer = b"".join(codec.encode(r) for r in records)

        counters = CostCounters()
        columns = codec.decode_columns(buffer, len(records), counters=counters)
        assert counters.records_decoded == len(records)
        assert len(columns) == len(records)
        for i, record in enumerate(records):
            scalar = codec.decode(codec.encode(record))
            assert columns.video_ids[i] == scalar.video_id
            assert columns.vitri_ids[i] == scalar.vitri_id
            assert columns.counts[i] == scalar.count
            assert columns.radii[i] == scalar.radius
            assert np.array_equal(columns.positions[i], scalar.position)
            assert_records_equal(columns.record(i), scalar)

    def test_decode_batch_matches_concatenated_decode(self):
        rng = ensure_rng(5)
        codec = ViTriRecordCodec(4)
        records = random_records(rng, 4, 9)
        payloads = [codec.encode(r) for r in records]
        counters = CostCounters()
        columns = codec.decode_batch(payloads, counters=counters)
        assert counters.records_decoded == len(records)
        for i, payload in enumerate(payloads):
            assert_records_equal(columns.record(i), codec.decode(payload))

    def test_empty_inputs(self):
        codec = ViTriRecordCodec(2)
        counters = CostCounters()
        columns = codec.decode_columns(b"", 0, counters=counters)
        assert len(columns) == 0
        assert counters.records_decoded == 0
        assert len(codec.decode_batch([], counters=counters)) == 0

    def test_offset_decode(self):
        """decode_columns honours a nonzero byte offset into the page."""
        rng = ensure_rng(8)
        codec = ViTriRecordCodec(3)
        records = random_records(rng, 3, 5)
        buffer = b"\xaa" * 7 + b"".join(codec.encode(r) for r in records)
        columns = codec.decode_columns(buffer, len(records), offset=7)
        for i in range(len(records)):
            assert_records_equal(columns.record(i), records[i])


# ---------------------------------------------------------------------------
# Layer 2b: bulk range search vs per-range range search
# ---------------------------------------------------------------------------


def scalar_leaf_walk(tree, low, high):
    """Page ids of the leaves ``range_search(low, high)`` reads, in order."""
    from repro.btree.node import NO_LEAF, LeafNode

    if high < low or tree.num_entries == 0:
        return []
    leaf, _ = tree._descend_to_leaf(low, leftmost=True)
    walked = [leaf.page.page_id]
    while not (leaf.keys and leaf.keys[-1] > high) and leaf.next_leaf != NO_LEAF:
        leaf = LeafNode.load(
            tree.buffer_pool.fetch(leaf.next_leaf), tree.payload_size
        )
        walked.append(leaf.page.page_id)
    return walked


def internal_ancestors(tree):
    """Leaf page id -> page ids of the internal nodes above it, root first."""
    from repro.btree.node import InternalNode

    above = {tree._root: ()}
    for _ in range(tree.height - 1):
        above = {
            child: path + (page_id,)
            for page_id, path in above.items()
            for child in InternalNode.load(tree.buffer_pool.fetch(page_id)).children
        }
    return above


def assert_bulk_matches_scalar(tree, ranges, payload_dtype=None):
    """``range_search_many`` equals ``range_search`` per range: same
    payloads in the same order, same ``records_scanned``, and never a
    page or node the scalar walk does not touch — save the internal
    nodes a range running off the end of a level-1 node has to enter
    (the chain walk needs no parent there; a run does)."""
    above = internal_ancestors(tree)
    entered = 0
    for low, high in ranges:
        paths = [above[leaf] for leaf in scalar_leaf_walk(tree, low, high)]
        entered += len({node for path in paths for node in path})
        entered -= len(paths[0]) if paths else 0  # the descent's own
    scalar_counters = CostCounters()
    bulk_counters = CostCounters()
    bulk = tree.range_search_many(
        ranges, payload_dtype=payload_dtype, counters=bulk_counters
    )
    assert len(bulk) == len(ranges)
    total = 0
    for (low, high), (keys, payloads) in zip(ranges, bulk):
        entries = tree.range_search(low, high, counters=scalar_counters)
        assert keys.tolist() == [key for key, _ in entries]
        assert [row.tobytes() for row in payloads] == [p for _, p in entries]
        total += len(entries)
    assert bulk_counters.records_scanned == total
    assert bulk_counters.page_requests <= scalar_counters.page_requests + entered
    assert (
        bulk_counters.btree_node_visits
        <= scalar_counters.btree_node_visits + entered
    )
    return total


class TestBulkRangeSearchEquivalence:
    @pytest.fixture()
    def tree(self):
        from repro.btree.tree import BPlusTree
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.pager import Pager

        pool = BufferPool(Pager(), capacity=64)
        return BPlusTree.create(pool, payload_size=24)

    def payload(self, i):
        return i.to_bytes(8, "little") * 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_ranges(self, tree, seed):
        rng = ensure_rng(seed)
        keys = rng.uniform(-100.0, 100.0, size=400)
        for i, key in enumerate(keys):
            tree.insert(float(key), self.payload(i))
        ranges = []
        for _ in range(30):
            a, b = sorted(rng.uniform(-120.0, 120.0, size=2))
            ranges.append((float(a), float(b)))
        # Overlapping, duplicate, inverted and empty ranges too.
        ranges += [ranges[0], (50.0, -50.0), (200.0, 300.0)]
        found = assert_bulk_matches_scalar(tree, ranges)
        assert found > 0

    def test_duplicate_keys_and_boundaries(self, tree):
        for i in range(60):
            tree.insert(float(i % 5), self.payload(i))
        ranges = [(0.0, 0.0), (1.0, 3.0), (4.0, 4.0), (2.5, 2.5)]
        assert_bulk_matches_scalar(tree, ranges)

    def test_after_deletes_leave_sparse_leaves(self, tree):
        """Lazy deletes leave underfull/empty leaves the walk must skip."""
        for i in range(300):
            tree.insert(float(i), self.payload(i))
        for i in range(0, 300, 2):
            tree.delete(float(i))
        for i in range(100, 140):  # empty out a whole stretch
            if i % 2 == 1:
                tree.delete(float(i))
        ranges = [(-10.0, 320.0), (99.0, 141.0), (100.0, 100.0)]
        assert_bulk_matches_scalar(tree, ranges)

    def test_backward_jump_re_descends(self, tree):
        """A later range left of the cached leaf must re-descend, not scan."""
        for i in range(200):
            tree.insert(float(i), self.payload(i))
        ranges = [(150.0, 160.0), (10.0, 20.0), (155.0, 156.0)]
        assert_bulk_matches_scalar(tree, ranges)

    def test_nan_rejected(self, tree):
        tree.insert(1.0, self.payload(1))
        with pytest.raises(ValueError, match="NaN"):
            tree.range_search_many([(float("nan"), 1.0)])

    def test_payload_dtype_itemsize_checked(self, tree):
        tree.insert(1.0, self.payload(1))
        with pytest.raises(ValueError, match="itemsize"):
            tree.range_search_many([(0.0, 2.0)], payload_dtype=np.dtype("<f8"))


TREE_SHAPES = ("bulk", "grown", "sparse", "duplicates", "height1")
STORES = ("memory", "file", "wal-pending", "fault-injecting")


def wide_payload(i):
    """1300 bytes: three entries per leaf, so modest trees get deep."""
    return i.to_bytes(4, "little") * 325


def grow_tree(tree, shape, seed):
    """Fill *tree* into the named shape; returns the key span."""
    rng = ensure_rng(seed)
    if shape == "height1":
        for i in range(2):  # room for the wal-pending store's extra insert
            tree.insert(float(i), wide_payload(i))
        return 0.0, 1.0
    if shape == "bulk":
        # Sparse fill: 26-way internal nodes, so 1 500 leaves sit under
        # 58 level-1 nodes (height 4) and one range crosses many of them.
        tree.bulk_load(
            [(float(i), wide_payload(i)) for i in range(3000)], fill_factor=0.1
        )
        return 0.0, 2999.0
    if shape == "duplicates":
        # Every key fills ~30 leaves: duplicates straddle leaf (and
        # level-1) boundaries wherever a range starts or stops.
        for i in range(900):
            tree.insert(float(rng.integers(0, 10)), wide_payload(i))
        return 0.0, 9.0
    # Random inserts split leaves out of page order: no two neighbours
    # in the chain are neighbours in the file.
    keys = rng.permutation(900).astype(float)
    for i, key in enumerate(keys):
        tree.insert(float(key), wide_payload(i))
    if shape == "sparse":
        for key in range(0, 900, 2):
            tree.delete(float(key))
        for key in range(300, 420):  # whole stretches of empty leaves
            tree.delete(float(key))
    return 0.0, 899.0


def probe_ranges(low, high, seed):
    rng = ensure_rng(seed)
    span = high - low
    ranges = [(low - 1.0, high + 1.0), (low, low), (high, high)]
    for _ in range(6):
        a, b = sorted(rng.uniform(low - 0.1 * span, high + 0.1 * span, size=2))
        ranges.append((float(a), float(b)))
    # Ascending overlapping ranges (reuse of the last run), one behind
    # the cursor, an inverted one and an empty one.
    ranges += [
        (low + 0.2 * span, low + 0.5 * span),
        (low + 0.45 * span, low + 0.7 * span),
        (low + 0.1 * span, low + 0.15 * span),
        (high, low),
        (high + 5.0, high + 9.0),
    ]
    return ranges


@pytest.fixture(params=STORES)
def store(request, tmp_path):
    """``(pager, settle)``: *settle* is called once the tree is built and
    leaves the pages where the store kind reads them from."""
    from repro.storage.faults import FaultInjectingPager
    from repro.storage.pager import Pager

    kind = request.param
    if kind == "memory":
        pager = Pager()
    elif kind == "fault-injecting":
        pager = FaultInjectingPager(str(tmp_path / "tree.pages"))
    else:
        pager = Pager(tmp_path / "tree.pages")

    def settle(tree):
        tree.flush()
        if kind != "wal-pending":
            pager.sync()
            return
        # Commit, then touch the tree again: new and rewritten pages now
        # exist only as uncommitted images in the write-ahead log.
        pager.sync()
        tree.insert(0.5, wide_payload(7))
        tree.flush()
        assert pager.wal.has_pending

    yield pager, settle
    pager.crash()


class TestRunAtATimeRangeSearch:
    @pytest.mark.parametrize("shape", TREE_SHAPES)
    def test_every_shape_store_and_pool_size(self, store, shape):
        from repro.btree.checker import check_tree
        from repro.btree.tree import BPlusTree
        from repro.storage.buffer_pool import BufferPool

        pager, settle = store
        writer = BPlusTree.create(BufferPool(pager, capacity=64), 1300)
        low, high = grow_tree(writer, shape, seed=17)
        settle(writer)
        check_tree(writer)
        assert writer.height == {"height1": 1, "bulk": 4}.get(shape, 3)
        for capacity in (0, 1, 3, 64):
            reader = BPlusTree.open(BufferPool(pager, capacity=capacity))
            found = assert_bulk_matches_scalar(
                reader, probe_ranges(low, high, seed=capacity)
            )
            assert found > 0

    def test_structured_payload_dtype(self):
        from repro.btree.tree import BPlusTree
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.pager import Pager

        codec = ViTriRecordCodec(60)
        tree = BPlusTree.create(BufferPool(Pager(), 8), codec.record_size)
        rng = ensure_rng(4)
        records = random_records(rng, 60, 400)
        keys = np.sort(rng.uniform(0.0, 1.0, size=400))
        tree.bulk_load(
            [(float(k), codec.encode(r)) for k, r in zip(keys, records)]
        )
        assert_bulk_matches_scalar(
            tree, [(0.1, 0.8), (0.75, 0.95)], payload_dtype=codec.record_dtype
        )

    def test_corruption_inside_a_run_names_the_page(self, tmp_path):
        """A flipped byte in the middle of a leaf run surfaces as that
        page's ChecksumError, not as silently wrong entries."""
        from repro.btree.tree import BPlusTree
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.page import PAGE_SIZE
        from repro.storage.pager import Pager
        from repro.storage.serialization import ChecksumError

        path = tmp_path / "tree.pages"
        pager = Pager(path)
        tree = BPlusTree.create(BufferPool(pager, capacity=8), 1300)
        tree.bulk_load([(float(i), wide_payload(i)) for i in range(300)])
        tree.flush()
        pager.sync()
        victim = scalar_leaf_walk(tree, 30.0, 200.0)[20]
        with open(path, "r+b") as handle:
            handle.seek(victim * PAGE_SIZE + 2000)
            handle.write(b"\xff")
        reader = BPlusTree.open(BufferPool(pager, capacity=128))
        with pytest.raises(ChecksumError, match=f"page {victim}: checksum"):
            reader.range_search_many([(30.0, 200.0)])
        # The root stays cached in the reader's pool; the file now ends
        # inside the victim leaf.
        os.truncate(path, victim * PAGE_SIZE + 512)
        with pytest.raises(ChecksumError, match=f"page {victim}: torn frame"):
            reader.range_search_many([(30.0, 200.0)])
        pager.crash()

    def test_file_reads_scale_with_runs_not_pages(self, tmp_path):
        """The deterministic perf guard: a 500-leaf range over a
        bulk-loaded (page-contiguous) file-backed tree costs a handful of
        file reads — one per run plus the internal nodes — not 500."""
        from repro.btree.tree import BPlusTree
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.pager import Pager
        from tests.test_storage_pager import CountingFile

        pager = Pager(tmp_path / "tree.pages")
        tree = BPlusTree.create(BufferPool(pager, capacity=16), 1300)
        tree.bulk_load([(float(i), wide_payload(i)) for i in range(1800)])
        tree.flush()
        pager.sync()
        reader = BPlusTree.open(BufferPool(pager, capacity=16))
        pager._file = counting = CountingFile(pager._file)
        counters = CostCounters()
        ((keys, _),) = reader.range_search_many(
            [(100.5, 1600.5)], counters=counters
        )
        pager._file = counting.raw
        assert keys.size == 1500
        assert counters.page_reads >= 500
        # 3 entries a leaf, 256 leaves a level-1 node: 500 leaves lie
        # under at most 3 level-1 nodes, each one run (+ a trailing leaf),
        # plus the 2-node descent and 2 moves to the next level-1 node.
        assert counting.reads <= 10
        pager.crash()


# ---------------------------------------------------------------------------
# Layer 3: end-to-end query equivalence
# ---------------------------------------------------------------------------


def build_corpus(seed, *, dim=16, epsilon=0.3):
    config = DatasetConfig(
        dim=dim,
        num_families=3,
        family_size=3,
        num_distractors=5,
        duration_classes=((30, 0.6), (20, 0.4)),
    )
    dataset = generate_dataset(config, seed=seed)
    summaries = [
        summarize_video(i, dataset.frames(i), epsilon, seed=seed + i)
        for i in range(dataset.num_videos)
    ]
    return summaries, VitriIndex.build(summaries, epsilon)


def assert_query_equivalent(index, query, k, method):
    scalar_counters = CostCounters()
    vector_counters = CostCounters()
    scalar = index.knn(
        query, k, method=method, impl="scalar", out_counters=scalar_counters
    )
    vector = index.knn(
        query, k, method=method, impl="vectorized",
        out_counters=vector_counters,
    )
    assert scalar.videos == vector.videos
    assert scalar.scores == vector.scores  # bitwise, not approx
    assert scalar.stats.candidates == vector.stats.candidates
    assert scalar.stats.ranges == vector.stats.ranges
    assert logical_signature(scalar_counters) == logical_signature(
        vector_counters
    )
    assert vector_counters.page_requests <= scalar_counters.page_requests
    assert (
        vector_counters.btree_node_visits
        <= scalar_counters.btree_node_visits
    )
    return vector


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("method", ["composed", "naive"])
    def test_knn_equivalent_across_seeds(self, seed, method):
        summaries, index = build_corpus(seed)
        for query in summaries[:5]:
            assert_query_equivalent(index, query, 5, method)

    def test_similarity_range_equivalent(self):
        summaries, index = build_corpus(77)
        for query in summaries[:4]:
            for threshold in (0.05, 0.5, 0.99):
                scalar = index.similarity_range(
                    query, threshold, impl="scalar"
                )
                vector = index.similarity_range(
                    query, threshold, impl="vectorized"
                )
                assert scalar.videos == vector.videos
                assert scalar.scores == vector.scores

    def test_equivalent_after_inserts_and_tombstones(self):
        """Splits from inserts and tombstones from deletes keep identity."""
        summaries, index = build_corpus(55)
        held_out = summaries[-3:]
        base = summaries[: len(summaries) - 3]
        _, index = held_out, VitriIndex.build(base, 0.3)
        for extra in held_out:
            index.insert_video(extra)
        index.remove_video(base[1].video_id)
        index.remove_video(base[4].video_id)
        for query in summaries[:4]:
            for method in ("composed", "naive"):
                result = assert_query_equivalent(index, query, 6, method)
                assert base[1].video_id not in result.videos
                assert base[4].video_id not in result.videos

    def test_zero_variance_clusters(self):
        """Hand-built point-mass ViTris (radius exactly 0.0) end to end."""
        rng = ensure_rng(13)
        dim, epsilon = 8, 0.4
        summaries = []
        for video_id in range(12):
            anchor = rng.normal(size=dim)
            vitris = []
            for j in range(3):
                position = anchor + 0.05 * rng.normal(size=dim)
                radius = 0.0 if (video_id + j) % 2 == 0 else float(
                    rng.uniform(0.0, epsilon / 2.0)
                )
                vitris.append(
                    ViTri(
                        position=position,
                        radius=radius,
                        count=int(rng.integers(1, 40)),
                    )
                )
            summaries.append(
                VideoSummary(video_id=video_id, vitris=tuple(vitris))
            )
        index = VitriIndex.build(summaries, epsilon)
        for query in summaries:
            for method in ("composed", "naive"):
                assert_query_equivalent(index, query, 4, method)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_full_length_rankings_for_1_to_12_query_vitris(self, m):
        """k = N, every video scored against all m query ViTris: the
        array fold's row sums cross numpy's 8-element pairwise-summation
        threshold and must still equal the oracle's per-video ``.sum()``
        bit for bit."""
        rng = ensure_rng(100 + m)
        dim, epsilon = 6, 0.5
        anchor = rng.normal(size=dim)

        def crowded_summary(video_id, num_vitris):
            return VideoSummary(
                video_id=video_id,
                vitris=tuple(
                    ViTri(
                        position=anchor + 0.04 * rng.normal(size=dim),
                        radius=float(rng.uniform(0.15, epsilon / 2.0)),
                        count=int(rng.integers(5, 60)),
                    )
                    for _ in range(num_vitris)
                ),
            )

        summaries = [
            crowded_summary(video_id, int(rng.integers(1, 6)))
            for video_id in range(40)
        ]
        index = VitriIndex.build(summaries, epsilon)
        query = crowded_summary(999, m)
        for method in ("composed", "naive"):
            result = assert_query_equivalent(index, query, len(summaries), method)
            assert len(result.videos) == len(summaries)
            assert result.stats.similarity_computations >= m * len(summaries)

    def test_single_video_single_vitri(self):
        """Smallest possible database: one video, one point-mass ViTri."""
        vitri = ViTri(position=np.zeros(4), radius=0.0, count=5)
        summary = VideoSummary(video_id=0, vitris=(vitri,))
        index = VitriIndex.build([summary], 0.5)
        assert_query_equivalent(index, summary, 1, "composed")
        assert_query_equivalent(index, summary, 1, "naive")

    def test_engine_impl_selection(self):
        """The serving engine has no impl knob: it serves the vectorized
        path, whose answers equal the scalar oracle's (reachable from
        ``VitriIndex`` only) for both query forms."""
        summaries, index = build_corpus(31)
        engine = repro.QueryEngine(index)
        for query in summaries[:3]:
            a = index.knn(query, 4, impl="scalar")
            b = engine.knn(query, 4)
            assert a.videos == b.videos
            assert a.scores == b.scores
            a = index.similarity_range(query, 0.2, impl="scalar")
            b = engine.similarity_range(query, 0.2)
            assert a.videos == b.videos
            assert a.scores == b.scores

    def test_unknown_impl_rejected(self):
        summaries, index = build_corpus(41)
        with pytest.raises(ValueError, match="impl"):
            index.knn(summaries[0], 3, impl="simd")
        with pytest.raises(ValueError, match="impl"):
            index.similarity_range(summaries[0], 0.5, impl="")

    def test_seqscan_agrees_with_both_impls(self):
        """The brute-force baseline stays bit-identical to the index."""
        from repro.baselines.seqscan import SequentialScan

        summaries, index = build_corpus(61)
        scan = SequentialScan(index)
        for query in summaries[:4]:
            brute = scan.knn(query, 5)
            scalar = index.knn(query, 5, impl="scalar")
            assert brute.videos == scalar.videos
            assert brute.scores == scalar.scores
