"""Tests for repro.storage.page and repro.storage.pager."""

import os

import pytest

from repro.storage.page import CHECKSUM_SIZE, PAGE_CONTENT_SIZE, PAGE_SIZE, Page
from repro.storage.pager import Pager
from repro.storage.serialization import ChecksumError


class TestPage:
    def test_default_zeroed(self):
        page = Page(0)
        assert len(page.data) == PAGE_CONTENT_SIZE
        assert not any(page.data)
        assert not page.dirty

    def test_frame_budget(self):
        assert PAGE_CONTENT_SIZE + CHECKSUM_SIZE == PAGE_SIZE

    def test_mark_dirty(self):
        page = Page(1)
        page.mark_dirty()
        assert page.dirty

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Page(0, bytearray(10))

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Page(-1)

    def test_repr(self):
        assert "clean" in repr(Page(3))


class TestMemoryPager:
    def test_allocate_and_read(self):
        pager = Pager()
        pid = pager.allocate_page()
        assert pid == 0
        assert pager.num_pages == 1
        page = pager.read_page(pid)
        assert not any(page.data)

    def test_write_read_round_trip(self):
        pager = Pager()
        pid = pager.allocate_page()
        page = pager.read_page(pid)
        page.data[:5] = b"hello"
        pager.write_page(page)
        again = pager.read_page(pid)
        assert bytes(again.data[:5]) == b"hello"

    def test_reads_are_copies(self):
        pager = Pager()
        pid = pager.allocate_page()
        a = pager.read_page(pid)
        a.data[0] = 99
        b = pager.read_page(pid)
        assert b.data[0] == 0

    def test_counters(self):
        pager = Pager()
        pid = pager.allocate_page()
        assert pager.physical_writes == 1
        pager.read_page(pid)
        pager.read_page(pid)
        assert pager.physical_reads == 2
        pager.write_page(Page(pid))
        assert pager.physical_writes == 2

    def test_out_of_range_read(self):
        pager = Pager()
        with pytest.raises(ValueError):
            pager.read_page(0)
        pager.allocate_page()
        with pytest.raises(ValueError):
            pager.read_page(5)

    def test_closed_pager_raises(self):
        pager = Pager()
        pager.close()
        with pytest.raises(RuntimeError):
            pager.allocate_page()

    def test_double_close_is_noop(self):
        pager = Pager()
        pager.close()
        pager.close()


class TestFilePager:
    def test_persistence(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:3] = b"abc"
            pager.write_page(page)
            pager.sync()
        with Pager(path) as pager:
            assert pager.num_pages == 1
            assert bytes(pager.read_page(0).data[:3]) == b"abc"

    def test_writes_honour_seek(self, tmp_path):
        """Regression: append-mode files ignore seek() on write."""
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            first = pager.allocate_page()
            pager.allocate_page()
            page = pager.read_page(first)
            page.data[:2] = b"hi"
            pager.write_page(page)
            assert bytes(pager.read_page(first).data[:2]) == b"hi"
            assert bytes(pager.read_page(1).data[:2]) == b"\x00\x00"

    def test_file_size_is_page_multiple(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pager.allocate_page()
            pager.allocate_page()
            pager.sync()
        assert os.path.getsize(path) == 2 * PAGE_SIZE

    def test_rejects_corrupt_size(self, tmp_path):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"x" * 100)
        with pytest.raises(ValueError, match="multiple"):
            Pager(path)

    def test_path_property(self, tmp_path):
        path = tmp_path / "p.pages"
        with Pager(path) as pager:
            assert pager.path == str(path)
        assert Pager().path is None

    def test_exit_syncs_unsynced_writes(self, tmp_path):
        """Regression: leaving the context manager without an explicit
        sync() must still persist every write."""
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:6] = b"synced"
            pager.write_page(page)
            # no pager.sync() here — __exit__ must do it
        with Pager(path) as pager:
            assert bytes(pager.read_page(0).data[:6]) == b"synced"

    def test_close_syncs_unsynced_writes(self, tmp_path):
        path = tmp_path / "data.pages"
        pager = Pager(path)
        pid = pager.allocate_page()
        page = pager.read_page(pid)
        page.data[:4] = b"also"
        pager.write_page(page)
        pager.close()
        with Pager(path) as reopened:
            assert bytes(reopened.read_page(0).data[:4]) == b"also"

    def test_close_is_idempotent(self, tmp_path):
        pager = Pager(tmp_path / "data.pages")
        pager.allocate_page()
        pager.close()
        pager.close()
        with pytest.raises(RuntimeError):
            pager.allocate_page()

    def test_read_before_sync_sees_pending_writes(self, tmp_path):
        with Pager(tmp_path / "data.pages") as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:3] = b"wip"
            pager.write_page(page)
            assert bytes(pager.read_page(pid).data[:3]) == b"wip"

    def test_wal_file_created_alongside(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pager.allocate_page()
        assert os.path.exists(str(path) + ".wal")

    def test_wal_disabled_mode_round_trips(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path, wal=False) as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:2] = b"ok"
            pager.write_page(page)
        assert not os.path.exists(str(path) + ".wal")
        with Pager(path, wal=False) as pager:
            assert bytes(pager.read_page(0).data[:2]) == b"ok"


class TestChecksums:
    def test_verify_checksums_clean_file(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pager.allocate_page()
            pager.allocate_page()
            pager.sync()
            assert pager.verify_checksums() == 2

    def test_verify_checksums_memory(self):
        pager = Pager()
        pager.allocate_page()
        assert pager.verify_checksums() == 1

    def test_corrupt_page_raises_on_read(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:4] = b"good"
            pager.write_page(page)
        # Flip one content byte on disk without fixing the trailer.
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with Pager(path) as pager:
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                pager.read_page(0)

    def test_corrupt_page_caught_by_verify(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            pid = pager.allocate_page()
            page = pager.read_page(pid)
            page.data[:4] = b"good"
            pager.write_page(page)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0x01
        path.write_bytes(bytes(raw))
        with Pager(path) as pager:
            with pytest.raises(ChecksumError):
                pager.verify_checksums()

    def test_all_zero_frame_is_valid(self, tmp_path):
        """Fresh-page convention: a zeroed frame decodes to zero content."""
        path = tmp_path / "data.pages"
        path.write_bytes(bytes(PAGE_SIZE))
        with Pager(path) as pager:
            assert pager.num_pages == 1
            assert not any(pager.read_page(0).data)
            assert pager.verify_checksums() == 1


class TestReadLatency:
    """The pager models no disk service time (``read_latency`` is gone):
    what is left of these gates is that reads are counted, correct and
    safe to issue concurrently."""

    def test_default_zero(self):
        pager = Pager()
        assert (pager.physical_reads, pager.physical_writes) == (0, 0)

    def test_validation(self):
        with pytest.raises(TypeError):
            Pager(read_latency=0.001)

    def test_reads_still_correct(self):
        pager = Pager()
        page_id = pager.allocate_page()
        page = Page(page_id)
        page.data[0] = 42
        pager.write_page(page)
        assert pager.read_page(page_id).data[0] == 42
        assert pager.physical_reads == 1

    def test_concurrent_reads_overlap_waits(self):
        """Four readers released together all get the page, and the
        lock-guarded counter loses none of them."""
        import threading

        pager = Pager()
        page = Page(pager.allocate_page())
        page.data[0] = 42
        pager.write_page(page)
        barrier = threading.Barrier(4)
        seen = []

        def read() -> None:
            barrier.wait()
            seen.append(pager.read_page(page.page_id).data[0])

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == [42] * 4
        assert pager.physical_reads == 4


def _fill(pager, count):
    """``count`` pages whose content names their own id."""
    for _ in range(count):
        page = Page(pager.allocate_page())
        page.data[:] = bytes([page.page_id + 1]) * PAGE_CONTENT_SIZE
        pager.write_page(page)


class TestReadRun:
    """``read_run`` is ``read_page`` per id, with fewer file reads."""

    IDS = [3, 4, 5, 6, 9, 1, 2, 2, 7, 8, 0]  # runs, a gap, a repeat

    def _check(self, pager):
        reads = pager.physical_reads
        images = pager.read_run(self.IDS)
        assert images.shape == (len(self.IDS), PAGE_CONTENT_SIZE)
        assert pager.physical_reads == reads + len(self.IDS)
        for row, page_id in zip(images, self.IDS):
            assert row.tobytes() == bytes(pager.read_page(page_id).data)
            assert row[0] == page_id + 1

    def test_memory(self):
        pager = Pager()
        _fill(pager, 10)
        self._check(pager)

    def test_file_committed(self, tmp_path):
        with Pager(tmp_path / "data.pages") as pager:
            _fill(pager, 10)
            pager.sync()
            self._check(pager)

    def test_file_without_wal(self, tmp_path):
        with Pager(tmp_path / "data.pages", wal=False) as pager:
            _fill(pager, 10)
            self._check(pager)

    def test_uncommitted_wal_images_win(self, tmp_path):
        """Pages 0-5 are on disk, 6-9 exist only in the log, and page 4's
        newest image is in the log too."""
        with Pager(tmp_path / "data.pages") as pager:
            _fill(pager, 6)
            pager.sync()
            _fill(pager, 4)
            page = pager.read_page(4)
            page.data[1] = 0xEE
            pager.write_page(page)
            self._check(pager)
            assert pager.read_run([3, 4, 5])[1, 1] == 0xEE

    def test_empty(self):
        assert Pager().read_run([]).shape == (0, PAGE_CONTENT_SIZE)

    def test_out_of_range(self):
        pager = Pager()
        _fill(pager, 4)
        with pytest.raises(ValueError):
            pager.read_run([2, 3, 4])

    def test_flipped_byte_inside_a_run_names_its_page(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            _fill(pager, 10)
            pager.sync()
            with open(path, "r+b") as handle:
                handle.seek(6 * PAGE_SIZE + 100)
                handle.write(b"\x00")
            with pytest.raises(ChecksumError, match="page 6: checksum mismatch"):
                pager.read_run([3, 4, 5, 6, 7, 8])
            assert pager.read_run([3, 4, 5])[2, 0] == 6  # the rest still reads

    def test_torn_frame_inside_a_run_names_its_page(self, tmp_path):
        path = tmp_path / "data.pages"
        pager = Pager(path)
        _fill(pager, 10)
        pager.sync()
        os.truncate(path, 7 * PAGE_SIZE + 100)
        with pytest.raises(ChecksumError, match="page 7: torn frame"):
            pager.read_run([5, 6, 7, 8])
        pager.crash()

    def test_all_zero_frame_inside_a_run_is_valid(self, tmp_path):
        path = tmp_path / "data.pages"
        with Pager(path) as pager:
            _fill(pager, 4)
            pager.sync()
            with open(path, "r+b") as handle:
                handle.seek(2 * PAGE_SIZE)
                handle.write(bytes(PAGE_SIZE))
            images = pager.read_run([1, 2, 3])
            assert not images[1].any()
            assert images[2, 0] == 4

    def test_one_file_read_per_run(self, tmp_path):
        with Pager(tmp_path / "data.pages") as pager:
            _fill(pager, 40)
            pager.sync()
            pager._file = counting = CountingFile(pager._file)
            pager.read_run(list(range(2, 30)) + list(range(31, 40)))
            assert counting.reads == 2
            pager._file = counting.raw

    def test_fault_injector_consulted(self, tmp_path):
        from repro.storage.faults import FaultInjectingPager, SimulatedCrash

        pager = FaultInjectingPager(tmp_path / "data.pages", wal=False)
        _fill(pager, 4)
        assert pager.read_run([0, 1, 2])[2, 0] == 3
        pager.faults.crashed = True
        with pytest.raises(SimulatedCrash):
            pager.read_run([0, 1, 2])
        pager.crash()


class CountingFile:
    """A raw file that counts the read calls made on it."""

    def __init__(self, raw):
        self.raw = raw
        self.reads = 0

    def read(self, size):
        self.reads += 1
        return self.raw.read(size)

    def readinto(self, buffer):
        self.reads += 1
        return self.raw.readinto(buffer)

    def __getattr__(self, name):
        return getattr(self.raw, name)
