"""The child runner of bench/run.py, on a five-line edge list."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EDGES = "0 1\n1 0\n2 2\n3 0\n3 4\n"


@pytest.fixture
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def runner(bench_run, tmp_path):
    runner = bench_run.ChildRunner(tmp_path, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    (runner.work / "edges.txt").write_text(EDGES)
    yield runner
    runner.close()


def test_children_have_one_record_each_and_repeat_their_bytes(bench_run, runner):
    records = runner.run({"ingest": ["ingest", "edges.txt", "g.cache"], "help": ["--help"]},
                         passes=2)
    assert records["ingest"]["argv"] == ["ingest", "edges.txt", "g.cache"]
    assert set(records["ingest"]["artifacts"]) == {"g.cache", "g.cache.manifest.json"}
    assert records["help"]["artifacts"] == {}
    # the ingest manifest's flags and stage times; --help writes no manifest
    assert records["ingest"]["flags"] == {"node_count": 5, "edge_count": 5, "dangling_count": 1}
    assert set(records["ingest"]["timings"]) == {"graph.parse_edge_list", "graph.from_edges",
                                                 "graph.save_cache"}
    assert records["help"]["flags"] == records["help"]["timings"] == {}
    for record in records.values():
        assert len(record["wall_runs_s"]) == len(record["peak_rss_runs_mib"]) == 2
        assert record["wall_s"] > 0 and record["peak_rss_mib"] > 0
    # the last pass's files stay, with pass 0's hashes; the launcher's logs
    # are not in the work directory
    assert sorted(p.name for p in runner.work.iterdir()) == [
        "edges.txt", "g.cache", "g.cache.manifest.json"]
    assert {name: bench_run.artifact_sha256(runner.work / name)
            for name in records["ingest"]["artifacts"]} == records["ingest"]["artifacts"]
    # the manifest's peak, read before its hashes, is at most the child's wait4 peak
    manifest = json.loads((runner.work / "g.cache.manifest.json").read_text())
    assert 0 < manifest["peak_rss_mib"] <= records["ingest"]["peak_rss_runs_mib"][-1]
    assert sorted(p.name for p in runner.logs.iterdir()) == [
        f"{child}.{n}.{stream}" for child in ("help", "ingest") for n in (0, 1)
        for stream in ("err", "out")]


def test_a_failing_child_stops_the_run_and_is_named(runner):
    with pytest.raises(RuntimeError, match="child 'lost' exited 2: .*input not found"):
        runner.run({"lost": ["ingest", "missing.txt", "g.cache"]})


def test_a_pass_with_other_bytes_stops_the_run(bench_run, runner, monkeypatch):
    hashes = iter(range(100))
    monkeypatch.setattr(bench_run, "artifact_sha256", lambda path: next(hashes))
    with pytest.raises(RuntimeError, match="child 'ingest': pass 1 wrote other bytes"):
        runner.run({"ingest": ["ingest", "edges.txt", "g.cache"]}, passes=2)


# A stand-in for ``gmspectra.cli``: each run writes one manifest whose
# ``started``, ``finished``, ``timings`` and ``peak_rss_mib`` differ from the
# last run's; the runs are counted in a file outside the work directory.
FAKE_CLI = """
import json, pathlib
count = pathlib.Path("../count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
manifest = {"flags": {"passes": 3}, "timings": {"stage": [3.0, 1.0, 2.0][n]},
            "started": n, "finished": n, "peak_rss_mib": 10.0 + n}
pathlib.Path("out.manifest.json").write_text(json.dumps(manifest))
"""


def test_a_record_takes_the_median_timings_which_the_hash_leaves_out(bench_run, tmp_path):
    package = tmp_path / "fake" / "gmspectra"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    (tmp_path / "bench").mkdir()
    runner = bench_run.ChildRunner(tmp_path / "bench",
                                   dict(os.environ, PYTHONPATH=str(tmp_path / "fake")))
    try:
        record = runner.run({"fake": []}, passes=3)["fake"]
    finally:
        runner.close()
    assert record["timings"] == {"stage": 2.0}
    assert record["flags"] == {"passes": 3}
    assert list(record["artifacts"]) == ["out.manifest.json"]
