"""Tests for the command-line interface."""

import os
import queue
import re
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.cli import main


def flip_byte(file_path, offset):
    with open(file_path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture()
def dataset_path(tmp_path):
    path = str(tmp_path / "ads.npz")
    code = main(
        [
            "generate",
            "--out", path,
            "--preset", "precision",
            "--families", "3",
            "--family-size", "3",
            "--distractors", "4",
            "--seed", "5",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset_path, capsys):
        from repro.datasets.loader import VideoDataset

        dataset = VideoDataset.load(dataset_path)
        assert dataset.num_videos == 3 * 3 + 4

    def test_default_preset(self, tmp_path, capsys):
        path = str(tmp_path / "d.npz")
        assert main(["generate", "--out", path, "--families", "1",
                     "--family-size", "1", "--distractors", "1"]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 videos" in out


class TestStats:
    def test_prints_table(self, dataset_path, capsys):
        assert main(["stats", "--dataset", dataset_path]) == 0
        out = capsys.readouterr().out
        assert "Frames per video" in out
        assert "13 videos" in out


class TestSummarize:
    def test_prints_row(self, dataset_path, capsys):
        assert main(
            ["summarize", "--dataset", dataset_path, "--epsilon", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert "0.3" in out


class TestBuildAndQuery:
    def test_round_trip(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(
            [
                "build",
                "--dataset", dataset_path,
                "--out", path,
                "--epsilon", "0.3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "built" in out

        assert main(
            [
                "query",
                "--index", path,
                "--dataset", dataset_path,
                "--video-id", "0",
                "--k", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "top-5 for video 0" in out
        assert "page accesses" in out
        # The query video itself must rank first.
        first_row = [
            line for line in out.splitlines() if line.startswith("1 ")
        ][0]
        assert " 0 " in f" {first_row} "

    def test_query_naive_method(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        capsys.readouterr()
        assert main(
            [
                "query",
                "--index", path,
                "--dataset", dataset_path,
                "--video-id", "1",
                "--method", "naive",
            ]
        ) == 0
        assert "naive method" in capsys.readouterr().out

    def test_query_bad_video_id(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        capsys.readouterr()
        assert main(
            [
                "query",
                "--index", path,
                "--dataset", dataset_path,
                "--video-id", "999",
            ]
        ) == 1
        assert "out of range" in capsys.readouterr().err

    def test_query_missing_or_corrupt_index(
        self, dataset_path, tmp_path, capsys
    ):
        path = str(tmp_path / "idx")
        query = ["query", "--dataset", dataset_path, "--video-id", "0"]
        nowhere = str(tmp_path / "nowhere")
        assert main(query + ["--index", nowhere]) == 1
        assert "holds no index" in capsys.readouterr().err
        assert not os.path.exists(nowhere)

        main(["build", "--dataset", dataset_path, "--out", path])
        # The tree's metadata page, which opening reads.
        flip_byte(os.path.join(path, "index.btree"), 100)
        capsys.readouterr()
        assert main(query + ["--index", path]) == 1
        err = capsys.readouterr().err
        assert "cannot open index" in err and "checksum" in err

    def test_query_rejects_nonpositive_k(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        capsys.readouterr()
        assert main(
            [
                "query",
                "--index", path,
                "--dataset", dataset_path,
                "--video-id", "0",
                "--k", "0",
            ]
        ) == 1
        assert "k must be a positive int" in capsys.readouterr().err


class TestSameAnswers:
    """A built-then-reopened database directory answers exactly like an
    in-memory index over the same summaries: ranking and cost line."""

    @pytest.mark.parametrize("reference", ["optimal", "space_center"])
    def test_matches_in_memory_index(
        self, dataset_path, tmp_path, capsys, reference
    ):
        from repro.core.index import VitriIndex
        from repro.core.summarize import summarize_video
        from repro.datasets.loader import VideoDataset

        path = str(tmp_path / "idx")
        assert main(
            [
                "build", "--dataset", dataset_path, "--out", path,
                "--reference", reference,
            ]
        ) == 0
        dataset = VideoDataset.load(dataset_path)
        summaries = [
            summarize_video(i, dataset.frames(i), 0.3, seed=i)
            for i in range(dataset.num_videos)
        ]
        oracle = VitriIndex.build(summaries, 0.3, reference=reference)
        for method in ("composed", "naive"):
            for video_id in (0, 4, 12):
                capsys.readouterr()
                assert main(
                    [
                        "query", "--index", path, "--dataset", dataset_path,
                        "--video-id", str(video_id), "--k", "5",
                        "--method", method,
                    ]
                ) == 0
                out = capsys.readouterr().out
                want = oracle.knn(
                    summaries[video_id], 5, method=method, cold=True
                )
                rows = [
                    line.split("|")
                    for line in out.splitlines()
                    if line[:1].isdigit()
                ]
                assert [
                    (int(rank), int(video), score.strip())
                    for rank, video, score in rows
                ] == [
                    (rank, video, f"{score:.4f}")
                    for rank, (video, score) in enumerate(
                        zip(want.videos, want.scores), 1
                    )
                ]
                stats = want.stats
                assert (
                    f"cost: {stats.page_requests} page accesses, "
                    f"{stats.similarity_computations} similarity "
                    f"computations, {stats.ranges} range search(es)"
                ) in out


class TestCheck:
    def test_consistent_database(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        before = sorted(os.listdir(path))
        capsys.readouterr()
        assert main(["check", "--index", path]) == 0
        out = capsys.readouterr().out
        assert "page frame(s) verified, invariants hold" in out
        assert f"{path}: consistent (13 videos)" in out
        # Read-only: no checkpoint, no new files.
        assert sorted(os.listdir(path)) == before

    def test_flipped_byte_names_the_page(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        flip_byte(os.path.join(path, "index.btree"), 2 * 4096 + 50)
        capsys.readouterr()
        assert main(["check", "--index", path]) == 1
        err = capsys.readouterr().err
        assert f"{path} checksum: page 2: checksum mismatch" in err

    def test_build_refuses_a_non_empty_directory(
        self, dataset_path, tmp_path, capsys
    ):
        path = str(tmp_path / "idx")
        main(["build", "--dataset", dataset_path, "--out", path])
        capsys.readouterr()
        assert main(["build", "--dataset", dataset_path, "--out", path]) == 1
        assert "is not empty" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        # Retired subcommands are unknown like any other.
        retired = [
            f"bench-{name}"
            for name in ("serve", "shard", "faults", "service", "replication")
        ]
        for command in ["frobnicate", *retired, "fleet-health"]:
            with pytest.raises(SystemExit):
                main([command])


class TestSummaryCache:
    def test_build_with_cached_summaries(self, dataset_path, tmp_path, capsys):
        cache = str(tmp_path / "cache.npz")
        path1 = str(tmp_path / "idx1")
        path2 = str(tmp_path / "idx2")
        assert main(
            [
                "build", "--dataset", dataset_path, "--out", path1,
                "--save-summaries", cache,
            ]
        ) == 0
        assert main(
            [
                "build", "--dataset", dataset_path, "--out", path2,
                "--summaries", cache,
            ]
        ) == 0
        capsys.readouterr()
        # Both indexes answer identically.
        main(["query", "--index", path1, "--dataset", dataset_path,
              "--video-id", "0", "--k", "3"])
        first = capsys.readouterr().out
        main(["query", "--index", path2, "--dataset", dataset_path,
              "--video-id", "0", "--k", "3"])
        second = capsys.readouterr().out
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_cache_epsilon_mismatch(self, dataset_path, tmp_path, capsys):
        cache = str(tmp_path / "cache.npz")
        main(["build", "--dataset", dataset_path,
              "--out", str(tmp_path / "a"), "--save-summaries", cache])
        capsys.readouterr()
        with pytest.raises(ValueError, match="epsilon"):
            main(["build", "--dataset", dataset_path,
                  "--out", str(tmp_path / "b"), "--summaries", cache,
                  "--epsilon", "0.5"])


class TestCheckSharded:
    def _build_fleet(self, dataset_path, path):
        from repro.datasets.loader import VideoDataset
        from repro.shard import ShardedVideoDatabase

        dataset = VideoDataset.load(dataset_path)
        fleet = ShardedVideoDatabase(
            0.3, partitioner="hash", num_shards=3, path=path
        )
        for i in range(dataset.num_videos):
            fleet.add(dataset.frames(i))
        fleet.close()

    def test_reports_consistent_fleet(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "fleet")
        self._build_fleet(dataset_path, path)
        assert main(["check", "--index", path]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out
        assert "3 shards" in out
        assert "hash placement" in out

    def _stray(self, path, video_id, *, move):
        """Copy (``move=False``) or move a video onto the next shard,
        writing the shard directory behind the router's back."""
        from repro.shard import Shard, ShardedVideoDatabase

        fleet = ShardedVideoDatabase(path=path)
        owner = fleet.shard_of(video_id)
        summary = next(
            s for s in fleet.shards[owner].summaries() if s.video_id == video_id
        )
        if move:
            fleet.remove(video_id)
        fleet.close()
        target = (owner + 1) % 3
        shard = Shard(
            target, epsilon=0.3, path=os.path.join(path, f"shard-{target:04d}")
        )
        shard.add_summary(summary)
        shard.close()

    def test_video_on_two_shards_fails(self, dataset_path, tmp_path, capsys):
        path = str(tmp_path / "fleet")
        self._build_fleet(dataset_path, path)
        self._stray(path, 0, move=False)
        assert main(["check", "--index", path]) == 1
        err = capsys.readouterr().err
        assert "error: cannot open fleet: video 0 is on shard" in err

    def test_video_off_its_partitioned_shard_fails(
        self, dataset_path, tmp_path, capsys
    ):
        path = str(tmp_path / "fleet")
        self._build_fleet(dataset_path, path)
        self._stray(path, 0, move=True)
        assert main(["check", "--index", path]) == 1
        err = capsys.readouterr().err
        assert "error: placement: 1 video(s) off their partitioned shard" in err

    def test_missing_fleet_errors(self, tmp_path, capsys):
        # Neither a fleet nor a database: refused, and nothing created.
        nowhere = str(tmp_path / "nowhere")
        assert main(["check", "--index", nowhere]) == 1
        assert "holds no index" in capsys.readouterr().err
        assert not os.path.exists(nowhere)

    def test_flipped_byte_in_a_shard_names_the_page(
        self, dataset_path, tmp_path, capsys
    ):
        path = str(tmp_path / "fleet")
        self._build_fleet(dataset_path, path)
        flip_byte(os.path.join(path, "shard-0000", "index.btree"), 4096 + 50)
        assert main(["check", "--index", path]) == 1
        err = capsys.readouterr().err
        assert "shard 0 checksum: page 1: checksum mismatch" in err

    def test_failed_check_closes_the_fleet(
        self, dataset_path, tmp_path, capsys, monkeypatch
    ):
        """Regression: a failing check returned before releasing the
        reopened fleet, leaking every shard's open files.  The release
        is ``detach()``, which writes nothing."""
        from repro.shard import ShardedVideoDatabase

        path = str(tmp_path / "fleet")
        self._build_fleet(dataset_path, path)
        flip_byte(os.path.join(path, "shard-0000", "index.btree"), 4096 + 50)
        detaches = []
        detach = ShardedVideoDatabase.detach

        def spy(self):
            detaches.append(self)
            detach(self)

        monkeypatch.setattr(ShardedVideoDatabase, "detach", spy)
        assert main(["check", "--index", path]) == 1
        assert "shard 0 checksum" in capsys.readouterr().err
        assert len(detaches) == 1


class TestInspectingWritesNothing:
    """``check`` only reads the fleet it opens."""

    def test_check_leaves_every_file_as_it_was(
        self, dataset_path, tmp_path, capsys
    ):
        path = str(tmp_path / "fleet")
        TestCheckSharded()._build_fleet(dataset_path, path)
        # Backdate every file, so any rewrite moves its mtime whatever
        # the filesystem's timestamp resolution.
        past = 1_000_000_000 * 10**9
        files = sorted(
            os.path.join(root, name)
            for root, _, names in os.walk(path)
            for name in names
        )
        for name in files:
            os.utime(name, ns=(past, past))

        def state():
            contents = {}
            for root, _, names in os.walk(path):
                for name in names:
                    full = os.path.join(root, name)
                    with open(full, "rb") as handle:
                        contents[full] = (handle.read(), os.stat(full).st_mtime_ns)
            return contents

        before = state()
        assert main(["check", "--index", path]) == 0
        capsys.readouterr()
        after = state()
        assert sorted(after) == files
        for name in files:
            assert after[name][0] == before[name][0], name
            # Opening a database recovers its write-ahead log, which
            # reopens (and so touches) db.wal with the same bytes; a
            # read-only open that skips recovery is separate work.
            if os.path.basename(name) != "db.wal":
                assert after[name][1] == past, name


class TestServe:
    """``repro-video serve`` as a supervisor runs it: stdout is a pipe."""

    WAIT = 60.0

    def test_prints_its_address_through_a_pipe(self, dataset_path, tmp_path):
        """Regression: the serving line was printed without a flush, so
        under a pipe (block-buffered, no ``PYTHONUNBUFFERED``) a
        ``--port 0`` address stayed unread until the server exited."""
        path = str(tmp_path / "fleet")
        TestCheckSharded()._build_fleet(dataset_path, path)
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--index", path,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines: queue.Queue = queue.Queue()

        def pump():
            for line in server.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            address = None
            while address is None:
                line = lines.get(timeout=self.WAIT)
                assert line is not None, "serve exited before serving"
                address = re.match(r"serving 13 videos .* on (.+):(\d+)$", line)
            # Interrupted as soon as the address is known.
            server.send_signal(signal.SIGINT)
            code = server.wait(timeout=self.WAIT)
            reader.join(self.WAIT)
            output = []
            while (line := lines.get_nowait()) is not None:
                output.append(line)
            assert code == 0, "".join(output)
            assert "drained; all shard servers stopped\n" in output
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()


class TestCheckSegments:
    """`repro-video check` needs an index; the offline `--segments` mode
    is gone (no process writes a segment file to check)."""

    def test_check_requires_a_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        assert "--index" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["check", "--segments", "segments.log"])
