"""The child runner of bench/run.py and its one path from a graph to its
children, on a five-line edge list."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
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


def test_a_graph_reaches_its_commands_through_the_ingest_child_of_their_call(bench_run, runner):
    src, dst = np.array([0, 1, 2, 3, 3]), np.array([1, 0, 2, 0, 4])
    children = {"commented": ["ingest", "commented.txt", "c.cache", "--num-nodes", "5"],
                "rank": ["rank", "g.cache", "pr"]}
    record = bench_run.run_graph(runner, src, dst, 5, children, passes=2, commented=True)
    children = record["children"]
    assert list(children) == ["ingest", "commented", "rank"]
    assert children["ingest"]["argv"] == ["ingest", "edges.txt", "g.cache", "--num-nodes", "5"]
    assert len(children["rank"]["wall_runs_s"]) == 2
    assert {key: record[key] for key in ("node_count", "edge_count", "file_bytes")} == {
        "node_count": 5, "edge_count": 5, "file_bytes": len(EDGES)}
    # the edge lists are removed; the last pass's files stay
    assert sorted(p.name for p in runner.work.iterdir()) == [
        "c.cache", "c.cache.manifest.json", "g.cache", "g.cache.manifest.json",
        "pr.csv", "pr.manifest.json", "pr.vec"]
    # the ingest child read the edge list's bytes, and the per-line parser's
    # cache is np.loadtxt's
    ingest = json.loads((runner.work / "g.cache.manifest.json").read_text())
    assert ingest["inputs"] == {"edges.txt": hashlib.sha256(EDGES.encode()).hexdigest()}
    assert (children["commented"]["artifacts"]["c.cache"]
            == children["ingest"]["artifacts"]["g.cache"])
    # the rank child read the cache that the ingest child of its call wrote
    rank = json.loads((runner.work / "pr.manifest.json").read_text())
    assert rank["inputs"] == {"g.cache": children["ingest"]["artifacts"]["g.cache"]}


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


def test_the_rank_layer_runs_the_block_stage_and_stats_on_each_ingest_graph(
        bench_run, runner, monkeypatch):
    import gmspectra
    from perfbench.generator import generate

    monkeypatch.setattr(bench_run, "INGEST_GRAPHS", {"small": (300, 0.1, 2)})
    monkeypatch.setattr(bench_run, "INGEST_PASSES", 1)
    record = bench_run.time_ingest(gmspectra, generate, runner, ["rank"])["small"]
    children = record["children"]
    assert list(children) == ["ingest", "rank", "cheirank", "subspaces", "stats"]
    assert children["subspaces"]["argv"] == ["subspaces", "g.cache", "dec"]
    assert children["subspaces"]["flags"]["subspace_count"] > 0
    # perfbench's stats options, on the files of the children before it
    assert children["stats"]["argv"][:9] == ["stats", "g.cache", "st", "--rank", "pr.vec",
                                             "--chei", "cr.vec", "--decomposition", "dec.json"]
    stats = json.loads((runner.work / "st.manifest.json").read_text())
    assert stats["inputs"] == {
        name: children[child]["artifacts"][name]
        for child, name in (("ingest", "g.cache"), ("rank", "pr.vec"),
                            ("cheirank", "cr.vec"), ("subspaces", "dec.json"))}
    assert set(children["stats"]["timings"]) >= {
        "stats.correlator", "stats.density_2d", "stats.n_k_counts", "stats.ng_filling",
        "stats.powerlaw_fit", "stats.write_curve_csv"}
    assert record["apply_g_ns_per_link"] > 0
