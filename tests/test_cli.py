"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.base import Dataset
from repro.datasets.io import write_dataset


@pytest.fixture
def dataset_file(tmp_path: Path) -> Path:
    path = tmp_path / "data.txt"
    records = [
        [1, 2, 3, 4],
        [2, 3, 4, 5],
        [10, 11, 12, 13],
        [10, 11, 12, 14],
        [20, 21, 22],
    ]
    write_dataset(Dataset(records, name="clitest"), path)
    return path


_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro.cli ARGS`` in a fresh interpreter."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO_ROOT / "src")] + ([environment["PYTHONPATH"]] if "PYTHONPATH" in environment else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self) -> None:
        args = build_parser().parse_args(["join", "data.txt"])
        assert args.threshold == 0.5
        assert args.algorithm == "cpsjoin"

    def test_unknown_algorithm_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "data.txt", "--algorithm", "magic"])

    def test_experiment_names_restricted(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["join", "data.txt", "--backend", "python"],
            ["join", "data.txt", "--executor", "threads"],
            ["index", "build", "data.txt", "--out", "x.idx", "--backend", "python"],
            ["experiment", "backend-bench"],
        ],
    )
    def test_removed_choices_rejected(self, argv) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestBadValuesExitTwo:
    """Bad values and OS-level failures become a usage error, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["join", "{data}", "--workers", "0"],
            ["join", "{data}", "--threshold", "1.5"],
            ["join", "{data}", "--repetitions", "0"],
            ["join", "{data}", "--measure", "overlap"],
            ["index", "build", "{data}", "--threshold", "0", "--out", "{tmp}/x.idx"],
            ["join", "{tmp}/missing.txt"],
            ["serve", "{tmp}/missing.txt"],
            ["index", "query", "{tmp}/missing.idx", "{data}"],
            ["serve", "{data}", "--port", "70000"],
            ["serve", "{data}", "--port", "-1"],
            ["serve", "{data}", "--max-batch", "0"],
        ],
        ids=[
            "workers",
            "threshold",
            "repetitions",
            "measure",
            "index-threshold",
            "join-missing",
            "serve-missing",
            "index-query-missing",
            "serve-port-70000",
            "serve-port-negative",
            "serve-max-batch-0",
        ],
    )
    def test_exit_code_two_without_traceback(self, dataset_file, tmp_path, argv) -> None:
        argv = [arg.format(data=dataset_file, tmp=tmp_path) for arg in argv]
        completed = run_cli(*argv)
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        assert "repro-join: error: " in completed.stderr

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash"])
    def test_join_with_unhashable_token(self, tmp_path, algorithm) -> None:
        path = tmp_path / "big.txt"
        path.write_text("1 2 3\n1 2 4294967296\n")
        completed = run_cli("join", str(path), "--algorithm", algorithm)
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        errors = [line for line in completed.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "record 1 has token 4294967296, outside [0, 2**32)" in errors[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "build", "{data}", "--out", "{tmp}/x.idx"],
            ["index", "query", "{tmp}/x.idx", "{data}"],
            ["index", "query-topk", "{tmp}/x.idx", "{data}", "--k", "1"],
            ["serve", "{data}"],
        ],
        ids=["index-build", "index-query", "index-query-topk", "serve"],
    )
    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--executor", "serial"]])
    def test_index_and_serve_have_no_parallel_flags(
        self, dataset_file, tmp_path, capsys, argv, flag
    ) -> None:
        # The index runs queries serially: neither flag exists, so each is a usage error.
        argv = [arg.format(data=dataset_file, tmp=tmp_path) for arg in argv] + flag
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"repro-join: error: unrecognized arguments: {' '.join(flag)}"]

    def test_serve_port_in_use(self, dataset_file) -> None:
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            completed = run_cli("serve", str(dataset_file), "--port", str(port))
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        assert "repro-join: error: " in completed.stderr
        assert "address already in use" in completed.stderr


class TestJoinCommand:
    def test_join_to_stdout(self, dataset_file, capsys) -> None:
        exit_code = main(["join", str(dataset_file), "--threshold", "0.5", "--algorithm", "allpairs"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "first,second" in captured.out
        assert "0,1" in captured.out
        assert "2,3" in captured.out

    def test_join_to_file(self, dataset_file, tmp_path, capsys) -> None:
        out = tmp_path / "pairs.csv"
        exit_code = main(
            ["join", str(dataset_file), "--algorithm", "cpsjoin", "--seed", "3", "--out", str(out)]
        )
        assert exit_code == 0
        text = out.read_text()
        assert text.startswith("first,second")
        assert "0,1" in text

    def test_join_with_repetitions_override(self, dataset_file, capsys) -> None:
        exit_code = main(
            ["join", str(dataset_file), "--algorithm", "cpsjoin", "--seed", "1", "--repetitions", "2"]
        )
        assert exit_code == 0


class TestRSJoinCommand:
    @pytest.fixture
    def right_file(self, tmp_path: Path) -> Path:
        path = tmp_path / "right.txt"
        records = [
            [1, 2, 3, 4],
            [30, 31, 32],
        ]
        write_dataset(Dataset(records, name="cliright"), path)
        return path

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "naive"])
    def test_join_with_right_reports_cross_pairs(self, dataset_file, right_file, algorithm, capsys) -> None:
        exit_code = main(
            [
                "join",
                str(dataset_file),
                "--right",
                str(right_file),
                "--threshold",
                "0.5",
                "--algorithm",
                algorithm,
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        # Left record 0 == right record 0; pairs are (left index, right index).
        assert "first,second" in captured.out
        assert "0,0" in captured.out
        assert "2,3" not in captured.out

    def test_join_with_right_and_backend_workers(self, dataset_file, right_file, capsys) -> None:
        exit_code = main(
            [
                "join",
                str(dataset_file),
                "--right",
                str(right_file),
                "--algorithm",
                "cpsjoin",
                "--seed",
                "3",
                "--backend",
                "numpy",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0


class TestIndexCommand:
    def test_build_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])

    def test_build_then_query(self, dataset_file, tmp_path, capsys) -> None:
        index_path = tmp_path / "data.index.pkl"
        exit_code = main(
            [
                "index",
                "build",
                str(dataset_file),
                "--threshold",
                "0.5",
                "--out",
                str(index_path),
                "--backend",
                "numpy",
            ]
        )
        assert exit_code == 0
        assert index_path.exists()
        captured = capsys.readouterr()
        assert "indexed 5 records" in captured.out

        queries = tmp_path / "queries.txt"
        write_dataset(Dataset([[1, 2, 3, 4], [50, 51, 52]], name="cliq"), queries)
        out = tmp_path / "matches.csv"
        exit_code = main(["index", "query", str(index_path), str(queries), "--out", str(out)])
        assert exit_code == 0
        text = out.read_text()
        assert text.startswith("query,match,similarity")
        assert "0,0,1.000000" in text  # query 0 equals record 0
        assert "\n1," not in text  # query 1 matches nothing

    def test_query_with_insert_grows_index(self, dataset_file, tmp_path, capsys) -> None:
        index_path = tmp_path / "data.index.pkl"
        main(["index", "build", str(dataset_file), "--out", str(index_path)])
        queries = tmp_path / "queries.txt"
        write_dataset(Dataset([[100, 101, 102], [100, 101, 102, 103]], name="cliq"), queries)
        exit_code = main(
            ["index", "query", str(index_path), str(queries), "--insert", "--out", str(tmp_path / "m.csv")]
        )
        assert exit_code == 0
        # The second query must have matched the freshly inserted first one.
        text = (tmp_path / "m.csv").read_text()
        assert "1,5," in text
        captured = capsys.readouterr()
        assert "index grown to 7 records" in captured.err

    @pytest.mark.parametrize("command", ["query", "query-topk"])
    def test_query_bad_values_are_usage_errors(self, dataset_file, tmp_path, command) -> None:
        index_path = tmp_path / "data.idx"
        main(["index", "build", str(dataset_file), "--out", str(index_path)])
        queries = str(tmp_path / "missing.txt") if command == "query" else str(dataset_file)
        bad = [] if command == "query" else ["--k", "0"]
        argv = ["index", command, str(index_path), queries] + bad
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_query_rejects_non_index_pickle(self, dataset_file, tmp_path) -> None:
        import pickle

        bogus = tmp_path / "bogus.pkl"
        bogus.write_bytes(pickle.dumps({"not": "an index"}))
        with pytest.raises(SystemExit):
            main(["index", "query", str(bogus), str(dataset_file)])

    def test_build_candidates_choice_restricted(self, dataset_file, tmp_path) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "build", str(dataset_file), "--out", "x.pkl", "--candidates", "magic"]
            )

    def test_build_writes_versioned_format(self, dataset_file, tmp_path) -> None:
        from repro.index.similarity_index import _SAVE_MAGIC

        index_path = tmp_path / "data.idx"
        main(["index", "build", str(dataset_file), "--out", str(index_path)])
        assert index_path.read_bytes().startswith(_SAVE_MAGIC)

    def test_query_refuses_legacy_bare_pickle(self, dataset_file, tmp_path) -> None:
        # Index files written before the versioned format are refused with
        # the rebuild command, not half-loaded.
        import pickle

        from repro.datasets.io import read_dataset
        from repro.index import SimilarityIndex

        legacy = tmp_path / "legacy.pkl"
        index = SimilarityIndex.build(read_dataset(dataset_file).records, 0.5, seed=2)
        legacy.write_bytes(pickle.dumps(index))
        queries = tmp_path / "queries.txt"
        write_dataset(Dataset([[1, 2, 3, 4]], name="cliq"), queries)
        with pytest.raises(SystemExit, match="repro-join index build"):
            main(["index", "query", str(legacy), str(queries), "--out", str(tmp_path / "m.csv")])


class TestServeCommand:
    def test_serve_defaults(self) -> None:
        args = build_parser().parse_args(["serve"])
        assert args.input is None
        assert args.data_dir is None
        assert args.port == 0
        assert args.max_batch == 64
        assert args.snapshot_every == 512
        assert not args.no_wal_sync

    def test_serve_kill_restart_matches_offline_index_query(self, dataset_file, tmp_path) -> None:
        # The acceptance property end-to-end over real processes: serve,
        # insert, SIGKILL, restart (WAL replay), and compare every answer
        # against the offline `repro-join index query` on the same data.
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.service import ServiceClient

        data_dir = tmp_path / "state"
        port_file = tmp_path / "port.txt"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = (
            "src" + (os.pathsep + environment["PYTHONPATH"] if "PYTHONPATH" in environment else "")
        )

        def start_server():
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", str(dataset_file),
                    "--data-dir", str(data_dir), "--seed", "7", "--backend", "numpy",
                    "--port-file", str(port_file), "--no-wal-sync",
                ],
                env=environment,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            deadline = time.monotonic() + 60.0
            while not port_file.exists() and time.monotonic() < deadline:
                assert process.poll() is None, "server exited before binding"
                time.sleep(0.05)
            assert port_file.exists(), "server did not report its port"
            host, port = port_file.read_text().split()
            return process, host, int(port)

        inserted = [[100, 101, 102], [100, 101, 103]]
        probes = [[1, 2, 3, 4], [100, 101, 102], [50, 51]]
        process, host, port = start_server()
        try:
            with ServiceClient.connect(host, port, retry_for=10.0) as client:
                for record in inserted:
                    client.insert(record)
                before_kill = client.query_batch(probes)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        port_file.unlink()

        process, host, port = start_server()
        try:
            with ServiceClient.connect(host, port, retry_for=10.0) as client:
                assert client.stats()["server"]["wal_replayed"] == len(inserted)
                after_restart = client.query_batch(probes)
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        assert after_restart == before_kill

        # Offline reference: the same collection built the same way.
        from repro.datasets.io import read_dataset
        from repro.index import SimilarityIndex

        offline = SimilarityIndex.build(
            read_dataset(dataset_file).records + [tuple(r) for r in inserted],
            0.5,
            backend="numpy",
            seed=7,
        )
        assert after_restart == offline.query_batch([tuple(p) for p in probes])


class TestGenerateAndStats:
    def test_generate_then_stats_roundtrip(self, tmp_path, capsys) -> None:
        out = tmp_path / "uniform.txt"
        exit_code = main(["generate", "UNIFORM005", "--scale", "0.05", "--seed", "5", "--out", str(out)])
        assert exit_code == 0
        assert out.exists()

        exit_code = main(["stats", str(out)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "records:" in captured.out
        assert "avg set size:" in captured.out

    def test_generate_unknown_profile(self, tmp_path) -> None:
        with pytest.raises(KeyError):
            main(["generate", "NOPE", "--out", str(tmp_path / "x.txt")])


class TestExperimentCommand:
    def test_table1_runs(self, capsys) -> None:
        exit_code = main(["experiment", "table1", "--scale", "0.05", "--seed", "2"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "dataset" in captured.out
        assert "NETFLIX" in captured.out
