import gzip
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmspectra
from gmspectra import (correlator, decompose, density_2d, load_cache,
                       memory_estimate, pagerank, parse_edge_list,
                       read_vector_cache, save_cache, subspace_spectrum,
                       write_rank_csv, write_spectrum_csv, write_vector_cache)
from gmspectra import graph as gr
from gmspectra import manifest as manifest_module
from gmspectra.cli import build_parser, main
from gmspectra.graph import GRAPH_CACHE
from gmspectra.manifest import RunManifest
from gmspectra.stats import CSV_CHUNK_ROWS, write_curve_csv, write_grid_csv
from gmspectra.subspaces import write_decomposition_json

from conftest import write_version_1_cache


def child_env(**env):
    """The environment of a child interpreter that imports this checkout's
    package, with ``env`` added."""
    src = str(Path(gmspectra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)


def run_cli(args, preexec_fn=None, **env):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess.
    ``preexec_fn`` runs in the child before the interpreter starts."""
    return subprocess.run([sys.executable, "-m", "gmspectra.cli", *map(str, args)],
                          capture_output=True, text=True, env=child_env(**env), timeout=120,
                          preexec_fn=preexec_fn)


@pytest.fixture
def two_cycle_cache(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 0\n")
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0
    return cache


@pytest.fixture
def small_cache(tmp_path):
    rng = np.random.default_rng(7)
    lines = [f"{s} {d}" for s, d in zip(rng.integers(0, 50, 400),
                                        rng.integers(0, 50, 400))]
    edges = tmp_path / "edges.txt"
    edges.write_text("\n".join(lines) + "\n")
    cache = tmp_path / "small.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0
    return cache


def test_ingest_writes_cache_and_manifest(two_cycle_cache, tmp_path):
    assert two_cycle_cache.exists()
    manifest = json.loads((tmp_path / "g.cache.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["flags"]["node_count"] == 2
    assert str(two_cycle_cache) in manifest["outputs"]
    # every parsed option, the global --threads too
    assert set(manifest["parameters"]) == {"edge_list", "cache", "id_mode", "num_nodes",
                                           "threads"}


def test_ingest_missing_input(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.txt"), str(tmp_path / "c")]) == 2


def test_ingest_parse_error(tmp_path):
    edges = tmp_path / "bad.txt"
    edges.write_text("0 x\n")
    assert main(["ingest", str(edges), str(tmp_path / "c")]) == 4
    assert not (tmp_path / "c").exists()


def test_ingest_remap_sidecar(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("100 200\n200 100\n")
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache), "--id-mode", "remap"]) == 0
    assert (tmp_path / "g.cache.ids").read_text() == "100\n200\n"


def test_ingest_remap_sidecar_spans_chunks(tmp_path):
    # more ids than one formatting chunk, up to 2**63 - 1; the bytes are
    # those of one decimal line per id
    ids = np.random.default_rng(5).integers(0, 2**63 - 1, 2 * CSV_CHUNK_ROWS + 7,
                                            dtype=np.int64, endpoint=True)
    ids[:2] = 2**63 - 1, 0
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{s} {d}\n" for s, d in zip(ids[:-1], ids[1:])))
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache), "--id-mode", "remap"]) == 0
    first = ids[np.sort(np.unique(ids, return_index=True)[1])]
    assert (tmp_path / "g.cache.ids").read_text() == "".join(f"{i}\n" for i in first)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments-only"])
def test_ingest_no_edge_with_num_nodes_gives_dangling_nodes(tmp_path, text):
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache), "--num-nodes", "3"]) == 0
    g = load_cache(cache)
    assert g.node_count == 3 and g.edge_count == 0


def test_rank_two_cycle(two_cycle_cache, tmp_path):
    out = tmp_path / "pr"
    assert main(["rank", str(two_cycle_cache), str(out)]) == 0
    lines = (tmp_path / "pr.csv").read_text().splitlines()
    assert lines[0] == "node_id,probability,rank"
    assert lines[1] == "0,0.5,1"
    assert lines[2] == "1,0.5,2"
    probs = read_vector_cache(tmp_path / "pr.vec")
    assert np.allclose(probs, 0.5)
    manifest = json.loads((tmp_path / "pr.manifest.json").read_text())
    assert manifest["flags"]["converged"] is True


def test_rank_bad_alpha(two_cycle_cache, tmp_path):
    assert main(["rank", str(two_cycle_cache), str(tmp_path / "pr"),
                 "--alpha", "1.5"]) == 3


def test_rank_non_convergence_flagged(small_cache, tmp_path):
    out = tmp_path / "pr"
    assert main(["rank", str(small_cache), str(out),
                 "--tol", "1e-15", "--max-iter", "2"]) == 0
    manifest = json.loads((tmp_path / "pr.manifest.json").read_text())
    assert manifest["flags"]["converged"] is False


def test_rank_corrupt_cache(tmp_path, two_cycle_cache):
    blob = bytearray(two_cycle_cache.read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "bad.cache"
    bad.write_bytes(bytes(blob))
    assert main(["rank", str(bad), str(tmp_path / "pr")]) == 4


@pytest.mark.parametrize("offsets, links", [([0, 1, 2], [1, 2]), ([0, 3, 2], [1, 0]),
                                            ([0, 2, 2], [1, 0]), ([0, 2, 2], [1, 1]),
                                            ([0], [])],
                         ids=["out-link", "out-offsets", "out-unsorted", "out-repeated",
                              "no-nodes"])
def test_rank_cache_with_bad_csr(tmp_path, offsets, links):
    # the checksum is valid, but in a 2-node graph with 2 links a link points
    # at node 2, the offsets decrease, or node 0 lists 1,0 or 1,1; or the
    # graph has no nodes
    bad = tmp_path / "bad.cache"
    GRAPH_CACHE.write(bad, (len(offsets) - 1, len(links)), (np.array(offsets), np.array(links)))
    result = run_cli(["rank", bad, tmp_path / "pr"])
    assert result.returncode == 4
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.glob("pr.*"))


def test_rank_version_1_cache(tmp_path, two_cycle_cache):
    bad = tmp_path / "v1.cache"
    write_version_1_cache(load_cache(two_cycle_cache), bad)
    result = run_cli(["rank", bad, tmp_path / "pr"])
    assert result.returncode == 4
    assert "version 1, expected 2" in result.stderr
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.glob("pr.*"))


def test_subspaces_command(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 0\n2 2\n3 0\n3 4\n")
    cache = tmp_path / "g.cache"
    main(["ingest", str(edges), str(cache)])
    out = tmp_path / "dec"
    assert main(["subspaces", str(cache), str(out), "--max-size", "10"]) == 0
    data = json.loads((tmp_path / "dec.json").read_text())
    assert data["subspace_count"] == 2
    assert data["core_count"] == 2
    spectrum = (tmp_path / "dec.spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "re,im,modulus,residual,origin"
    assert len(spectrum) == 4  # three subspace eigenvalues


def test_spectrum_command(small_cache, tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", str(small_cache), str(out),
                 "--arnoldi-dim", "12", "--vectors", "0"]) == 0
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "re,im,modulus,residual,origin"
    assert (tmp_path / "spec.vec0.csv").exists()
    manifest = json.loads((tmp_path / "spec.manifest.json").read_text())
    assert manifest["flags"]["ortho_defect"] < 1e-10
    assert manifest["flags"]["relation_residual"] < 1e-10


def test_spectrum_max_ram_cap(small_cache, tmp_path):
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12", "--max-ram", "0.0000001"]) == 3


def test_spectrum_max_ram_counts_more_than_the_basis(small_cache, tmp_path):
    from gmspectra.subspaces import default_max_size
    g = load_cache(small_cache)
    core = decompose(g, max_size=default_max_size(g.node_count)).core_count
    basis_gib = 13 * core * 8 / 2**30
    need_gib = memory_estimate(g.node_count, g.edge_count, core, 12, 0) / 2**30
    # the graph and the operator count too
    assert need_gib > 2 * basis_gib
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12", "--max-ram", repr(need_gib * 0.99)]) == 3
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12", "--max-ram", repr(need_gib * 1.01)]) == 0


def write_subspace_edges(directory):
    """An edge list and its reversal: three 3-cycles beside a random core of
    60 nodes. The first has a link in from the core, the second a link out to
    it, so each is a closed set in one link direction only; the third is
    closed in both."""
    rng = np.random.default_rng(11)
    cycles = np.arange(9)
    src = np.concatenate((cycles, rng.integers(9, 69, 500), [9, 3]))
    dst = np.concatenate((cycles - cycles % 3 + (cycles + 1) % 3, rng.integers(9, 69, 500),
                          [0, 9]))
    paths = directory / "edges.txt", directory / "reversed.txt"
    for path, pairs in zip(paths, ((src, dst), (dst, src))):
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(*pairs)))
    return paths


@pytest.fixture
def subspace_edges(tmp_path):
    return write_subspace_edges(tmp_path)


def test_inverted_commands_match_the_reversed_edge_list(subspace_edges, tmp_path):
    edges, reversed_edges = subspace_edges
    runs = {}
    for name, path, flags in (("inv", edges, ["--inverted"]), ("rev", reversed_edges, []),
                              ("out", edges, [])):
        cache, out = tmp_path / f"{name}.cache", tmp_path / name
        out.mkdir()
        assert main(["ingest", str(path), str(cache)]) == 0
        assert main(["subspaces", str(cache), str(out / "dec"), *flags]) == 0
        assert main(["spectrum", str(cache), str(out / "spec"), "--arnoldi-dim", "12",
                     "--vectors", "0", *flags]) == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                      if not p.name.endswith(".manifest.json")}
    assert sorted(runs["inv"]) == ["dec.json", "dec.spectrum.csv", "spec.csv", "spec.vec0.csv"]
    assert json.loads(runs["inv"]["dec.json"])["subspace_count"] > 0
    assert runs["inv"] == runs["rev"]
    # the link direction changes the decomposition
    assert runs["inv"]["dec.json"] != runs["out"]["dec.json"]


def test_each_command_sorts_the_links_only_where_it_must(subspace_edges, tmp_path,
                                                          monkeypatch):
    calls = {"_csr": 0, "_edge_key": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(gr, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(gr, name, counted)
    edges, cache, out = str(subspace_edges[0]), str(tmp_path / "g.cache"), str(tmp_path)
    for argv, sorts in [
            (["ingest", edges, cache], 1),
            (["rank", cache, f"{out}/pr"], 1),
            # G*'s in-links are the loaded graph's out-links
            (["rank", cache, f"{out}/cr", "--chei"], 0),
            # decompose inverts the graph for its sweep from the dangling nodes
            (["subspaces", cache, f"{out}/dec"], 1),
            # --inverted inverts the graph for G*'s out-links; decompose sweeps
            # over the loaded graph as G*'s in-links
            (["subspaces", cache, f"{out}/deci", "--inverted"], 1),
            # decompose inverts the graph, then the operator builds its own copy
            (["spectrum", cache, f"{out}/spec", "--arnoldi-dim", "8"], 2),
            # --inverted inverts the graph once; decompose and the operator
            # read G*'s in-links from the loaded graph
            (["spectrum", cache, f"{out}/speci", "--arnoldi-dim", "8", "--inverted"], 1),
            (["stats", cache, f"{out}/st", "--rank", f"{out}/pr.vec",
              "--chei", f"{out}/cr.vec"], 0)]:
        calls.update(_csr=0, _edge_key=0)
        assert main(argv) == 0
        # the link keys are built where the links are sorted and nowhere else
        assert calls == {"_csr": sorts, "_edge_key": sorts}, argv


# Runs one CLI command with an audit hook that lists every path the
# interpreter opens for reading, numpy's file reads included, and notes for
# each import event of _hashlib (OpenSSL) whether the command function had
# returned by then; argv[1] names the JSON file the record goes to.
COMMAND_TRACER = """
import json, os, sys
reads, hashlib_imports, returned = set(), [], [False]
def hook(event, args):
    if (event == "open" and isinstance(args[0], (str, bytes, os.PathLike))
            and not args[2] & (os.O_WRONLY | os.O_RDWR)):
        reads.add(os.path.abspath(os.fsdecode(args[0])))
    elif event == "import" and args[0] == "_hashlib":
        hashlib_imports.append(returned[0])
sys.addaudithook(hook)
from gmspectra import cli
def returning(command):
    def run(args):
        flags = command(args)
        returned[0] = True
        return flags
    return run
for name in [name for name in vars(cli) if name.startswith("cmd_")]:
    setattr(cli, name, returning(getattr(cli, name)))
rc = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"reads": sorted(reads), "hashlib_imports": hashlib_imports}, fh)
sys.exit(rc)
"""


@pytest.fixture(scope="module")
def traced_commands(tmp_path_factory):
    """The benchmark's six commands, then the remap, inverted-subspaces and
    inverted-spectrum variants, each run by COMMAND_TRACER in a child
    interpreter; yields ``(argv, prefix, before, created, record)`` per
    command, with the files of the work directory before it ran, those it
    created and the tracer's record."""
    root = tmp_path_factory.mktemp("traced")
    work = root / "work"
    work.mkdir()
    edges, cache = str(write_subspace_edges(root)[0]), str(work / "g.cache")
    commands = [
        (["ingest", edges, cache, "--num-nodes", "69"], cache),
        (["--threads", "2", "rank", cache, f"{work}/pr"], f"{work}/pr"),
        (["rank", cache, f"{work}/cr", "--chei"], f"{work}/cr"),
        (["subspaces", cache, f"{work}/dec"], f"{work}/dec"),
        (["spectrum", cache, f"{work}/spec", "--arnoldi-dim", "12", "--vectors", "0,1"],
         f"{work}/spec"),
        (["stats", cache, f"{work}/st", "--rank", f"{work}/pr.vec", "--chei",
          f"{work}/cr.vec", "--decomposition", f"{work}/dec.json", "--fit-range", "0:1.5",
          "--grid", "log:10", "--grid", "linear:10:60"], f"{work}/st"),
        (["ingest", edges, f"{work}/r.cache", "--id-mode", "remap"], f"{work}/r.cache"),
        (["subspaces", cache, f"{work}/deci", "--inverted"], f"{work}/deci"),
        (["spectrum", cache, f"{work}/speci", "--arnoldi-dim", "12", "--inverted",
          "--vectors", "0"], f"{work}/speci")]
    runs = []
    for argv, prefix in commands:
        before = {str(p) for p in work.iterdir()} | {edges}
        record_path = root / "record.json"
        proc = subprocess.run([sys.executable, "-c", COMMAND_TRACER, str(record_path), *argv],
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        created = {str(p) for p in work.iterdir()} - before
        runs.append((argv, prefix, before, created, json.loads(record_path.read_text())))
    return runs


def test_manifest_names_exactly_the_files_a_command_reads_and_writes(traced_commands):
    for argv, prefix, before, created, record in traced_commands:
        manifest_path = f"{prefix}.manifest.json"
        assert manifest_path in created, argv
        manifest = json.loads(Path(manifest_path).read_text())
        assert set(manifest["outputs"]) == created - {manifest_path}, argv
        # the manifest hashes its outputs after they are written, so only a
        # file that was there before the command counts as one it read
        read = set(record["reads"]) & before
        assert set(manifest["inputs"]) == read and read, argv
        for name, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert digest == manifest_module.sha256_of(name), (argv, name)


ARNOLDI_PARTS = {"arnoldi.matvec", "arnoldi.orthogonalise", "arnoldi.check", "arnoldi.eig"}
# the stage times each command's manifest records
TIMINGS = {"ingest": {"graph.parse_edge_list", "graph.from_edges", "graph.save_cache"},
           "rank": {"graph.load_cache", "ranking.pagerank", "operator.build",
                    "operator.apply_g"},
           "rank --chei": {"graph.load_cache", "ranking.cheirank", "operator.build",
                           "operator.apply_g"},
           "subspaces": {"graph.load_cache", "subspaces.decompose",
                         "subspaces.subspace_spectrum"},
           "spectrum": {"graph.load_cache", "subspaces.decompose", "arnoldi.arnoldi_core",
                        *ARNOLDI_PARTS, "subspaces.subspace_spectrum"},
           "stats": {"graph.load_cache"}}


def test_manifest_records_each_stage_time_within_its_call(traced_commands):
    for argv, prefix, _, _, _ in traced_commands:
        command = next(a for a in argv if a in TIMINGS)
        if command == "rank" and "--chei" in argv:
            command = "rank --chei"
        timings = json.loads(Path(f"{prefix}.manifest.json").read_text())["timings"]
        assert set(timings) == TIMINGS[command], argv
        assert min(timings.values(), default=0.0) >= 0, argv
        # a call timed inside another takes part of its time
        def seconds(*names):
            return sum(timings.get(name, 0.0) for name in names)
        assert seconds("graph.from_edges") <= seconds("graph.parse_edge_list"), argv
        assert (seconds("operator.build", "operator.apply_g")
                <= seconds("ranking.pagerank", "ranking.cheirank")), argv
        assert seconds(*ARNOLDI_PARTS) <= seconds("arnoldi.arnoldi_core"), argv


def numpy_loads_openssl() -> bool:
    """Whether ``import numpy`` alone imports ``hashlib`` (numpy 1.x loads
    ``numpy.random``, and so ``secrets``, with the package)."""
    probe = "import sys, numpy; sys.exit('hashlib' in sys.modules)"
    return subprocess.run([sys.executable, "-c", probe], env=child_env()).returncode != 0


def test_openssl_loads_only_after_the_command_returns(traced_commands):
    if numpy_loads_openssl():
        pytest.skip("numpy itself imports hashlib")
    for argv, _, _, _, record in traced_commands:
        # every run hashes its files, and not before its command has returned
        assert set(record["hashlib_imports"]) == {True}, argv


def test_importing_the_package_leaves_hashlib_unloaded():
    if numpy_loads_openssl():
        pytest.skip("numpy itself imports hashlib")
    probe = "import sys, gmspectra.cli; sys.exit('hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=child_env()).returncode == 0


@pytest.mark.parametrize("spelling", ["same", "alias"])
def test_input_replaced_by_an_output_keeps_its_as_read_hash(tmp_path, spelling):
    # ingest writes the cache over its own edge list, named by the same
    # string or by another path to the same file
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 0\n")
    as_read = hashlib.sha256(edges.read_bytes()).hexdigest()
    (tmp_path / "sub").mkdir()
    cache = edges if spelling == "same" else tmp_path / "sub" / ".." / "e.txt"
    assert main(["ingest", str(edges), str(cache)]) == 0
    manifest = json.loads(Path(f"{cache}.manifest.json").read_text())
    assert manifest["inputs"] == {str(edges): as_read}
    assert manifest["outputs"] == {str(cache): hashlib.sha256(edges.read_bytes()).hexdigest()}
    assert manifest["outputs"][str(cache)] != as_read


def test_writer_outside_a_cli_run_records_nothing(two_cycle_cache, tmp_path):
    state = dict(vars(manifest_module))
    write_curve_csv(tmp_path / "before.csv", "k", [1])
    with manifest_module.timed("before"):
        pagerank(load_cache(two_cycle_cache))
    assert dict(vars(manifest_module)) == state
    assert main(["rank", str(two_cycle_cache), str(tmp_path / "pr")]) == 0
    write_curve_csv(tmp_path / "after.csv", "k", [1])
    with manifest_module.timed("after"):
        pagerank(load_cache(two_cycle_cache))
    assert dict(vars(manifest_module)) == state
    manifest = json.loads((tmp_path / "pr.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [str(tmp_path / "pr.csv"), str(tmp_path / "pr.vec")]
    assert set(manifest["timings"]) == TIMINGS["rank"]
    # a run that fails after committing an artifact writes no manifest and
    # leaves no run open
    (tmp_path / "edges.txt").write_text("5 7\n")
    (tmp_path / "r.cache.ids").mkdir()
    assert main(["ingest", str(tmp_path / "edges.txt"), str(tmp_path / "r.cache"),
                 "--id-mode", "remap"]) == 3
    assert (tmp_path / "r.cache").exists()
    assert not (tmp_path / "r.cache.manifest.json").exists()
    assert dict(vars(manifest_module)) == state


@pytest.fixture
def breakdown_cache(tmp_path):
    # nodes 0 and 1 both point at dangling node 2: the uniform start vector
    # spans a 2-dimensional invariant subspace of the 3-node core
    edges = tmp_path / "edges.txt"
    edges.write_text("0 2\n1 2\n")
    cache = tmp_path / "b.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0
    return cache


@pytest.mark.parametrize("vectors", ["7", "-1", "0,-2", "x", "0,,1"])
def test_spectrum_bad_vectors_exit_3(breakdown_cache, tmp_path, vectors):
    # "7" is past n_arnoldi = 3
    proc = run_cli(["spectrum", breakdown_cache, tmp_path / "spec",
                    "--arnoldi-dim", "3", f"--vectors={vectors}"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gmspectra: ")
    assert not list(tmp_path.glob("spec*"))


# "dimension" values of a decomposition file that are not JSON integers in [1, 2**63)
DIMENSIONS = {"float": "2.7", "bool": "true", "string": '"3"', "huge-float": "1e30",
              "huge-int": str(10**30), "zero": "0"}


@pytest.fixture
def stats_inputs(tmp_path):
    """A five-node cache (a 2-cycle, a self-loop, two core nodes), its PageRank and
    CheiRank vectors, vectors with a NaN, infinite or negative entry,
    malformed decomposition files, and edge lists with
    a node id past the uint32 range, a node id past the int64 range and a
    byte that is not UTF-8."""
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 0\n2 2\n3 0\n3 4\n")
    assert main(["ingest", str(edges), str(tmp_path / "g.cache")]) == 0
    assert main(["rank", str(tmp_path / "g.cache"), str(tmp_path / "pr")]) == 0
    assert main(["rank", str(tmp_path / "g.cache"), str(tmp_path / "cr"), "--chei"]) == 0
    (tmp_path / "nosub.json").write_text('{"node_count": 5}\n')
    (tmp_path / "zero-subspaces.json").write_text('{"subspaces": []}\n')
    (tmp_path / "notjson.json").write_text("0 1\n")
    for name, dimension in DIMENSIONS.items():
        (tmp_path / f"dim-{name}.json").write_text(
            f'{{"subspaces": [{{"dimension": {dimension}}}]}}')
    (tmp_path / "huge.txt").write_text("0 4294967296\n")
    (tmp_path / "int64.txt").write_text("0 1\n1 99999999999999999999\n")
    (tmp_path / "latin1.txt").write_bytes(b"0 1\n1 \xff\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "comments.txt").write_text("# no edge\n\n")
    (tmp_path / "edges.gz").write_bytes(gzip.compress(b"0 1\n1 0\n", mtime=0))
    for name, entry in {"nan": np.nan, "inf": np.inf, "neg-inf": -np.inf,
                        "negative": -0.1}.items():
        write_vector_cache(np.array([0.3, 0.3, entry, 0.2, 0.2]), tmp_path / f"{name}-entry.vec")
    return tmp_path


STATS = ["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/pr.vec", "--chei", "{d}/cr.vec"]
STATS_NO_RANK = ["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/missing.vec",
                 "--chei", "{d}/cr.vec"]


@pytest.mark.parametrize("argv, code", [
    (STATS + ["--decomposition", "{d}/nosub.json"], 4),
    (STATS + ["--decomposition", "{d}/notjson.json"], 4),
    (STATS + ["--grid", "log:abc"], 3),
    (STATS + ["--grid", "linear:10:x"], 3),
    (STATS + ["--grid", "log:0"], 3),
    (STATS + ["--grid", "linear:10:0"], 3),
    *[(STATS + ["--decomposition", f"{{d}}/dim-{name}.json"], 4) for name in DIMENSIONS],
    # an option value is checked when the command line is parsed, before any
    # input is looked for: a bad value exits 3 even when an input is missing
    (["subspaces", "{d}/missing.cache", "{d}/out", "--max-size", "0"], 3),
    (["spectrum", "{d}/missing.cache", "{d}/out", "--dense-limit", "0"], 3),
    (["rank", "{d}/missing.cache", "{d}/out", "--alpha", "1.5"], 3),
    (["ingest", "{d}/missing.txt", "{d}/c.cache", "--num-nodes", "0"], 3),
    (STATS_NO_RANK + ["--grid", "log:abc"], 3),
    (STATS_NO_RANK + ["--tail-range", "x"], 3),
    (["ingest", "{d}/missing.txt", "{d}/c.cache", "--id-mode", "remap", "--num-nodes", "2"], 3),
    (STATS_NO_RANK + ["--fit-range", "2:0"], 3),
    # a range is finite with LO < HI: a NaN, reversed or empty one fitted nothing
    (STATS + ["--tail-range", "nan:nan"], 3),
    (STATS + ["--tail-range", "5:1"], 3),
    (STATS + ["--tail-range", "1:1"], 3),
    (STATS + ["--fit-range", "0:inf"], 3),
    # a decomposition without a subspace gives a curve without a point
    (STATS + ["--tail-range", "0:1", "--decomposition", "{d}/zero-subspaces.json"], 3),
    (["subspaces", "{d}/g.cache", "{d}/out", "--max-size", "0"], 3),
    (["spectrum", "{d}/g.cache", "{d}/out", "--arnoldi-dim", "2", "--max-size", "0"], 3),
    (["spectrum", "{d}/g.cache", "{d}/out", "--arnoldi-dim", "2", "--dense-limit", "0"], 3),
    # an output prefix in a missing directory, and an output file that is a directory
    (["rank", "{d}/g.cache", "{d}/missing/out"], 3),
    (["rank", "{d}/g.cache", "{d}/taken"], 3),
    # rejected before any O(N) allocation
    (["ingest", "{d}/huge.txt", "{d}/huge.cache"], 4),
    (["ingest", "{d}/int64.txt", "{d}/int64.cache"], 4),
    (["ingest", "{d}/int64.txt", "{d}/int64.cache", "--id-mode", "remap"], 4),
    (["ingest", "{d}/latin1.txt", "{d}/latin1.cache"], 4),
    (["ingest", "{d}/edges.txt", "{d}/r.cache", "--id-mode", "remap",
      "--num-nodes", "2"], 3),
    # no edge and no --num-nodes: the data is at fault, not a parameter
    (["ingest", "{d}/empty.txt", "{d}/empty.cache"], 4),
    (["ingest", "{d}/comments.txt", "{d}/comments.cache"], 4),
    # the edge list is read as UTF-8 text, never decompressed
    (["ingest", "{d}/edges.gz", "{d}/gz.cache"], 4),
    # rejected before the cache is read: a NaN compares false with any bound
    (["rank", "{d}/g.cache", "{d}/out", "--tol", "nan"], 3),
    (["rank", "{d}/g.cache", "{d}/out", "--tol", "inf"], 3),
    (["rank", "{d}/g.cache", "{d}/out", "--chei", "--tol", "nan"], 3),
    (["spectrum", "{d}/g.cache", "{d}/out", "--max-ram", "nan"], 3),
    (["spectrum", "{d}/g.cache", "{d}/out", "--max-ram", "0"], 3),
    (["spectrum", "{d}/g.cache", "{d}/out", "--max-ram", "-1"], 3),
    (["subspaces", "{d}/g.cache", "{d}/out", "--member-limit", "-1"], 3),
    # a rank vector holds finite entries >= 0
    (["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/nan-entry.vec", "--chei", "{d}/cr.vec"], 4),
    (["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/pr.vec", "--chei", "{d}/inf-entry.vec"], 4),
    (["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/neg-inf-entry.vec", "--chei",
      "{d}/cr.vec"], 4),
    (["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/pr.vec", "--chei",
      "{d}/negative-entry.vec"], 4),
], ids=["decomposition-no-subspaces", "decomposition-not-json", "grid-log-not-int",
        "grid-linear-not-int", "grid-log-0", "grid-linear-limit-0",
        *[f"decomposition-dimension-{name}" for name in DIMENSIONS],
        "missing-cache-subspaces-max-size-0", "missing-cache-spectrum-dense-limit-0",
        "missing-cache-rank-alpha", "missing-edges-ingest-num-nodes-0",
        "missing-vector-stats-grid", "missing-vector-stats-tail-range",
        "missing-edges-ingest-remap-num-nodes", "missing-vector-stats-fit-range-reversed",
        "stats-tail-range-nan", "stats-tail-range-reversed", "stats-tail-range-empty",
        "stats-fit-range-infinite", "stats-tail-range-no-subspace",
        "subspaces-max-size-0",
        "spectrum-max-size-0", "spectrum-dense-limit-0", "output-dir-missing",
        "output-is-directory", "ingest-node-id-past-uint32", "ingest-node-id-past-int64",
        "ingest-remap-node-id-past-int64", "ingest-not-utf8", "ingest-remap-num-nodes",
        "ingest-empty", "ingest-comments-only", "ingest-gzip", "rank-tol-nan",
        "rank-tol-inf", "cheirank-tol-nan", "spectrum-max-ram-nan", "spectrum-max-ram-0",
        "spectrum-max-ram-negative", "subspaces-member-limit-negative", "stats-rank-nan",
        "stats-chei-inf", "stats-rank-negative-inf", "stats-chei-negative"])
def test_bad_invocation_exits_with_documented_code(stats_inputs, argv, code):
    (stats_inputs / "taken.csv").mkdir()
    proc = run_cli([a.format(d=stats_inputs) for a in argv])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gmspectra: ")
    if argv[1].endswith(("empty.txt", "comments.txt")):  # the message names the file
        assert argv[1].format(d=stats_inputs) in proc.stderr
    if "--decomposition" in argv:
        assert argv[-1].format(d=stats_inputs) in proc.stderr
    for vector in (a for a in argv if a.endswith("-entry.vec")):
        assert f"{vector.format(d=stats_inputs)}: entries must be finite and >= 0" in proc.stderr
    if "--grid" in argv:
        assert "--grid expects log:CELLS or linear:CELL_SIZE:LIMIT" in proc.stderr
    for option in ("--tol", "--max-ram", "--member-limit"):  # the message says why
        if option in argv:
            assert f"{option} must be" in proc.stderr
    for option in ("--fit-range", "--tail-range"):
        if option in argv and "--decomposition" not in argv:  # rejected when parsed
            assert f"{option} expects LO:HI with finite LO < HI" in proc.stderr
    if "remap" in argv and "--num-nodes" in argv:
        assert "--num-nodes applies to --id-mode dense only" in proc.stderr
    assert not list(stats_inputs.rglob("*.tmp.*"))
    # no artifact and no manifest under the output prefix
    prefix = Path(argv[2].format(d=stats_inputs))
    assert not [p for p in prefix.parent.glob(f"{prefix.name}*") if p.is_file()]


@pytest.mark.parametrize("argv", [
    ["rank", "{d}/g.cache", "{d}/out", "--alpha", "abc"],
    ["spectrum", "{d}/g.cache", "{d}/out", "--arnoldi-dim", "1.5"],
    ["unknown", "{d}/g.cache"],
    [],
    ["stats", "{d}/g.cache", "{d}/st", "--chei", "{d}/cr.vec"],  # no --rank
    ["--threads", "0", "ingest", "{d}/edges.txt", "{d}/t.cache"],
    ["--threads", "-2", "subspaces", "{d}/g.cache", "{d}/out"],
    ["--threads", "0", "rank", "{d}/g.cache", "{d}/out"],
], ids=["bad-float", "bad-int", "unknown-command", "no-command", "missing-option",
        "ingest-threads-0", "subspaces-threads-negative", "rank-threads-0"])
def test_usage_errors_exit_3(stats_inputs, capsys, argv):
    # a bad option value or usage is a parameter error, not a missing input (2)
    before = sorted(stats_inputs.iterdir())
    assert main([a.format(d=stats_inputs) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("gmspectra: ")
    assert sorted(stats_inputs.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["ingest", "{d}/dir", "{d}/d.cache"],
    ["rank", "{d}/dir", "{d}/out"],
    ["spectrum", "{d}/dir", "{d}/out"],
    ["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/dir", "--chei", "{d}/cr.vec"],
    STATS + ["--decomposition", "{d}/dir"],
], ids=["ingest-edge-list", "rank-cache", "spectrum-cache", "stats-rank",
        "stats-decomposition"])
def test_input_that_is_a_directory_exits_2(stats_inputs, capsys, argv):
    # an input path that names a directory is no input file, as a missing one
    (stats_inputs / "dir").mkdir()
    before = sorted(stats_inputs.iterdir())
    assert main([a.format(d=stats_inputs) for a in argv]) == 2
    assert f"is a directory, not a file: {stats_inputs / 'dir'}" in capsys.readouterr().err
    assert sorted(stats_inputs.iterdir()) == before


@pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gmspectra")


def _run_command(argv):
    """Run one subcommand without main's exception-to-exit-code mapping."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


# each case names the artifact it writes and a callable that writes it; the
# test puts a directory where the artifact goes
ARTIFACT_WRITERS = {
    "save_cache": ("x", lambda d, g: save_cache(g, d / "x")),
    "write_vector_cache": ("x", lambda d, g: write_vector_cache(pagerank(g).probabilities,
                                                                d / "x")),
    "write_rank_csv": ("x", lambda d, g: write_rank_csv(pagerank(g), d / "x")),
    "write_decomposition_json": ("x", lambda d, g: write_decomposition_json(
        decompose(g, max_size=10), d / "x")),
    "write_spectrum_csv": ("x", lambda d, g: write_spectrum_csv(
        d / "x", subspace_spectrum(g, decompose(g, max_size=10)), None)),
    "write_grid_csv": ("x", lambda d, g: write_grid_csv(
        density_2d(np.arange(1, 6), np.arange(1, 6), mode="log", cells=2), d / "x")),
    "write_curve_csv": ("x", lambda d, g: write_curve_csv(d / "x", "k", [1, 2])),
    "RunManifest.write": ("x", lambda d, g: RunManifest("x", {}).write(d / "x")),
    "ingest-ids": ("r.cache.ids", lambda d, g: _run_command(
        ["ingest", d / "edges.txt", d / "r.cache", "--id-mode", "remap"])),
    "stats-correlator": ("st.correlator.json", lambda d, g: _run_command(
        [a.format(d=d) for a in STATS])),
    "stats-fits": ("st.fits.json", lambda d, g: _run_command(
        [a.format(d=d) for a in STATS] + ["--fit-range", "0:0.7"])),
}


@pytest.mark.parametrize("writer", list(ARTIFACT_WRITERS))
def test_failed_artifact_write_leaves_no_temp_file(stats_inputs, writer):
    name, write = ARTIFACT_WRITERS[writer]
    (stats_inputs / name).mkdir()
    g = load_cache(stats_inputs / "g.cache")
    with pytest.raises(OSError):
        write(stats_inputs, g)
    assert not list(stats_inputs.rglob("*.tmp.*"))


def test_failed_manifest_write_leaves_nothing(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(TypeError):
        RunManifest("x", {"p": object()}).write(path)
    assert list(tmp_path.iterdir()) == []


def test_spectrum_breakdown_valid_vectors(breakdown_cache, tmp_path):
    assert main(["spectrum", str(breakdown_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "3", "--vectors", "0,1,2"]) == 0
    flags = json.loads((tmp_path / "spec.manifest.json").read_text())["flags"]
    # the iteration restarts after the breakdown and reaches all 3 dimensions
    assert flags["breakdown"] is True and flags["krylov_dimension"] == 3
    assert (tmp_path / "spec.vec2.csv").exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("eig did not converge")])
def test_spectrum_compute_failure_exit_5(small_cache, tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(gmspectra.arnoldi, "arnoldi_core", fail)
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12"]) == 5
    assert capsys.readouterr().err == f"gmspectra: {error}\n"


def test_subspaces_eigvals_failure_exit_5(tmp_path, monkeypatch):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 0\n2 2\n3 0\n3 4\n")
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigvals did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    assert main(["subspaces", str(cache), str(tmp_path / "dec"), "--max-size", "10"]) == 5


def test_out_of_memory_exits_5(tmp_path):
    # N = 3e9 is below 2**32, but the CSR offsets alone are 22.4 GiB, over
    # the 2 GB of address space the child may take
    edges, cache = tmp_path / "empty.txt", tmp_path / "big.cache"
    edges.write_text("")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024, 2_000_000 * 1024))

    proc = run_cli(["ingest", edges, cache, "--num-nodes", "3000000000"],
                   preexec_fn=cap_address_space, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gmspectra: ingest: out of memory: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.txt"]


def test_spectrum_bytes_independent_of_blas_threads(tmp_path):
    # the Gram-Schmidt and Ritz-vector products must not be BLAS calls, whose
    # summation order follows the BLAS thread count
    rng = np.random.default_rng(11)
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{s} {d}\n" for s, d in
                             zip(rng.integers(0, 301, 1806), rng.integers(0, 301, 1806))))
    cache = tmp_path / "g.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        out.mkdir()
        proc = run_cli(["spectrum", cache, out / "spec", "--arnoldi-dim", "32",
                        "--vectors", "0,1"],
                       OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if not p.name.endswith(".manifest.json")})
    assert sorted(outputs[0]) == ["spec.csv", "spec.vec0.csv", "spec.vec1.csv"]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} depends on BLAS threads"


def test_stats_kappa_matches_library(small_cache, tmp_path):
    main(["rank", str(small_cache), str(tmp_path / "pr")])
    main(["rank", str(small_cache), str(tmp_path / "cr"), "--chei"])
    out = tmp_path / "stats"
    assert main(["stats", str(small_cache), str(out),
                 "--rank", str(tmp_path / "pr.vec"),
                 "--chei", str(tmp_path / "cr.vec")]) == 0
    got = json.loads((tmp_path / "stats.correlator.json").read_text())["kappa"]
    from gmspectra import cheirank, load_cache
    g = load_cache(small_cache)
    expected = correlator(pagerank(g).probabilities,
                          cheirank(g).probabilities).kappa
    assert got == expected  # CLI is a thin wrapper, bit-exact
    assert (tmp_path / "stats.nk.csv").exists()
    assert (tmp_path / "stats.ng.csv").exists()
    assert (tmp_path / "stats.kappa_hist.csv").exists()


def test_stats_with_decomposition_and_fits(small_cache, tmp_path):
    main(["rank", str(small_cache), str(tmp_path / "pr")])
    main(["rank", str(small_cache), str(tmp_path / "cr"), "--chei"])
    main(["subspaces", str(small_cache), str(tmp_path / "dec"),
          "--max-size", "25"])
    out = tmp_path / "stats"
    code = main(["stats", str(small_cache), str(out),
                 "--rank", str(tmp_path / "pr.vec"),
                 "--chei", str(tmp_path / "cr.vec"),
                 "--decomposition", str(tmp_path / "dec.json"),
                 "--fit-range", "0:1.5", "--grid", "linear:10:50"])
    assert code == 0
    fits = json.loads((tmp_path / "stats.fits.json").read_text())
    assert "pagerank" in fits and "cheirank" in fits
    assert fits["pagerank"]["b"] < 0  # decaying rank profile
    assert (tmp_path / "stats.density_linear_10_50.csv").exists()
    # the manifest records the options as parsed
    parameters = json.loads((tmp_path / "stats.manifest.json").read_text())["parameters"]
    assert parameters["fit_range"] == [0.0, 1.5]
    assert parameters["grid"] == [{"mode": "linear", "cell_size": 10, "rank_limit": 50}]


def test_stats_missing_vector(small_cache, tmp_path):
    assert main(["stats", str(small_cache), str(tmp_path / "s"),
                 "--rank", str(tmp_path / "missing.vec"),
                 "--chei", str(tmp_path / "missing.vec")]) == 2


@pytest.mark.parametrize("extra, code", [
    (["--decomposition", "empty.json"], 4),
    (["--grid", "bogus"], 3),
    (["--fit-range", "x"], 3),
    (["--grid", "linear:0:10"], 3),  # a zero cell size
    (["--decomposition", "dims.json", "--tail-range", "x"], 3),
    (["--tail-range", "x"], 3),
    # the one subspace gives one curve point, and the tail fit needs 3
    (["--decomposition", "dims.json", "--tail-range", "0:1"], 3),
    # no subspace gives no curve point
    (["--decomposition", "none.json", "--tail-range", "0:1"], 3),
], ids=["decomposition", "grid-spec", "fit-range", "grid-cells", "tail-range",
        "tail-range-no-decomposition", "tail-range-few-points", "tail-range-no-subspace"])
def test_no_partial_artifacts_on_failure(tmp_path, small_cache, extra, code):
    # stats checks every input and computes every observable before its first
    # write, so a failing run leaves no report file and no temp file
    main(["rank", str(small_cache), str(tmp_path / "pr")])
    main(["rank", str(small_cache), str(tmp_path / "cr"), "--chei"])
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "dims.json").write_text('{"subspaces": [{"dimension": 2}]}')
    (tmp_path / "none.json").write_text('{"subspaces": []}')
    extra = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in extra]
    assert main(["stats", str(small_cache), str(tmp_path / "s"),
                 "--rank", str(tmp_path / "pr.vec"),
                 "--chei", str(tmp_path / "cr.vec"), *extra]) == code
    assert not list(tmp_path.glob("s.*"))
