import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmspectra
from gmspectra import (correlator, decompose, density_2d, load_cache, pagerank,
                       parse_edge_list, read_vector_cache, save_cache,
                       subspace_spectrum, write_rank_csv, write_spectrum_csv,
                       write_vector_cache)
from gmspectra.cli import build_parser, main
from gmspectra.graph import GRAPH_CACHE
from gmspectra.manifest import RunManifest
from gmspectra.stats import write_curve_csv, write_grid_csv
from gmspectra.subspaces import write_decomposition_json


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess."""
    src = str(Path(gmspectra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    full_env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)
    return subprocess.run([sys.executable, "-m", "gmspectra.cli", *map(str, args)],
                          capture_output=True, text=True, env=full_env, timeout=120)


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


@pytest.mark.parametrize("slot, links", [(1, [1, 2]), (3, [1, 2]), (3, [0, 0])],
                         ids=["out-link", "in-link", "in-link-wrong-predecessor"])
def test_rank_cache_with_bad_csr(tmp_path, two_cycle_cache, slot, links):
    # the checksum is valid, but one link points at node 2 of a 2-node graph,
    # or the in-links list 0->0 where the out-links hold 1->0
    arrays = list(GRAPH_CACHE.read(two_cycle_cache))
    arrays[slot] = np.array(links, dtype=np.uint32)
    bad = tmp_path / "bad.cache"
    GRAPH_CACHE.write(bad, (2, 2), arrays)
    result = run_cli(["rank", bad, tmp_path / "pr"])
    assert result.returncode == 4
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
    from gmspectra import decompose, load_cache
    from gmspectra.subspaces import default_max_size
    g = load_cache(small_cache)
    core = decompose(g, max_size=default_max_size(g.node_count)).core_count
    basis_gib = 13 * core * 8 / 2**30
    # room for the basis alone: the Hessenberg matrix and its eigenvectors
    # do not fit
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12", "--max-ram", repr(basis_gib * 1.01)]) == 3
    assert main(["spectrum", str(small_cache), str(tmp_path / "spec"),
                 "--arnoldi-dim", "12", "--max-ram", repr(basis_gib * 2)]) == 0


@pytest.fixture
def breakdown_cache(tmp_path):
    # nodes 0 and 1 both point at dangling node 2: the uniform start vector
    # spans a 2-dimensional invariant subspace of the 3-node core
    edges = tmp_path / "edges.txt"
    edges.write_text("0 2\n1 2\n")
    cache = tmp_path / "b.cache"
    assert main(["ingest", str(edges), str(cache)]) == 0
    return cache


@pytest.mark.parametrize("vectors", ["7", "-1", "0,-2", "x", "0,,1", "2"])
def test_spectrum_bad_vectors_exit_3(breakdown_cache, tmp_path, vectors):
    # "7" is past n_arnoldi = 3; "2" is past the breakdown dimension 2
    proc = run_cli(["spectrum", breakdown_cache, tmp_path / "spec",
                    "--arnoldi-dim", "3", f"--vectors={vectors}"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gmspectra: ")
    assert not list(tmp_path.glob("spec*"))


@pytest.fixture
def stats_inputs(tmp_path):
    """A five-node cache (a 2-cycle, a self-loop, two core nodes), its PageRank and
    CheiRank vectors, two malformed decomposition files, and edge lists with
    a node id past the uint32 range, a node id past the int64 range and a
    byte that is not UTF-8."""
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 0\n2 2\n3 0\n3 4\n")
    assert main(["ingest", str(edges), str(tmp_path / "g.cache")]) == 0
    assert main(["rank", str(tmp_path / "g.cache"), str(tmp_path / "pr")]) == 0
    assert main(["rank", str(tmp_path / "g.cache"), str(tmp_path / "cr"), "--chei"]) == 0
    (tmp_path / "nosub.json").write_text('{"node_count": 5}\n')
    (tmp_path / "notjson.json").write_text("0 1\n")
    (tmp_path / "huge.txt").write_text("0 4294967296\n")
    (tmp_path / "int64.txt").write_text("0 1\n1 99999999999999999999\n")
    (tmp_path / "latin1.txt").write_bytes(b"0 1\n1 \xff\n")
    return tmp_path


STATS = ["stats", "{d}/g.cache", "{d}/st", "--rank", "{d}/pr.vec", "--chei", "{d}/cr.vec"]


@pytest.mark.parametrize("env, argv, code", [
    ({"GMSPECTRA_THREADS": "abc"}, ["--help"], 3),
    ({"GMSPECTRA_THREADS": "abc"}, ["rank", "{d}/g.cache", "{d}/out"], 3),
    ({"GMSPECTRA_THREADS": "0"}, ["subspaces", "{d}/g.cache", "{d}/out"], 3),
    ({}, STATS + ["--decomposition", "{d}/nosub.json"], 4),
    ({}, STATS + ["--decomposition", "{d}/notjson.json"], 4),
    ({}, ["subspaces", "{d}/g.cache", "{d}/out", "--max-size", "0"], 3),
    ({}, ["spectrum", "{d}/g.cache", "{d}/out", "--arnoldi-dim", "2", "--max-size", "0"], 3),
    ({}, ["spectrum", "{d}/g.cache", "{d}/out", "--arnoldi-dim", "2", "--dense-limit", "0"], 3),
    # an output prefix in a missing directory, and an output file that is a directory
    ({}, ["rank", "{d}/g.cache", "{d}/missing/out"], 3),
    ({}, ["rank", "{d}/g.cache", "{d}/taken"], 3),
    # rejected before any O(N) allocation
    ({}, ["ingest", "{d}/huge.txt", "{d}/huge.cache"], 4),
    ({}, ["ingest", "{d}/int64.txt", "{d}/int64.cache"], 4),
    ({}, ["ingest", "{d}/int64.txt", "{d}/int64.cache", "--id-mode", "remap"], 4),
    ({}, ["ingest", "{d}/latin1.txt", "{d}/latin1.cache"], 4),
    ({}, ["ingest", "{d}/edges.txt", "{d}/r.cache", "--id-mode", "remap",
          "--num-nodes", "2"], 3),
], ids=["threads-env-text-help", "threads-env-text", "threads-env-zero",
        "decomposition-no-subspaces", "decomposition-not-json", "subspaces-max-size-0",
        "spectrum-max-size-0", "spectrum-dense-limit-0", "output-dir-missing",
        "output-is-directory", "ingest-node-id-past-uint32", "ingest-node-id-past-int64",
        "ingest-remap-node-id-past-int64", "ingest-not-utf8", "ingest-remap-num-nodes"])
def test_bad_invocation_exits_with_documented_code(stats_inputs, env, argv, code):
    (stats_inputs / "taken.csv").mkdir()
    proc = run_cli([a.format(d=stats_inputs) for a in argv], **env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gmspectra: ")
    assert not list(stats_inputs.rglob("*.tmp.*"))


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
                 "--arnoldi-dim", "3", "--vectors", "0,1"]) == 0
    flags = json.loads((tmp_path / "spec.manifest.json").read_text())["flags"]
    assert flags["breakdown"] is True and flags["krylov_dimension"] == 2
    assert (tmp_path / "spec.vec1.csv").exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("eig did not converge"),
                                   RuntimeError("could not find a vector")])
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
                 "--fit-range", "0:1.5"])
    assert code == 0
    fits = json.loads((tmp_path / "stats.fits.json").read_text())
    assert "pagerank" in fits and "cheirank" in fits
    assert fits["pagerank"]["b"] < 0  # decaying rank profile


def test_stats_missing_vector(small_cache, tmp_path):
    assert main(["stats", str(small_cache), str(tmp_path / "s"),
                 "--rank", str(tmp_path / "missing.vec"),
                 "--chei", str(tmp_path / "missing.vec")]) == 2


@pytest.mark.parametrize("extra, code", [
    (["--decomposition", "empty.json"], 4),
    (["--grid", "bogus"], 3),
    (["--fit-range", "x"], 3),
    (["--grid", "linear:0:10"], 3),  # density_2d rejects a zero cell size
    (["--decomposition", "dims.json", "--tail-range", "x"], 3),
    (["--tail-range", "x"], 3),
], ids=["decomposition", "grid-spec", "fit-range", "grid-cells", "tail-range",
        "tail-range-no-decomposition"])
def test_no_partial_artifacts_on_failure(tmp_path, small_cache, extra, code):
    # stats checks every input and computes every observable before its first
    # write, so a failing run leaves no report file and no temp file
    main(["rank", str(small_cache), str(tmp_path / "pr")])
    main(["rank", str(small_cache), str(tmp_path / "cr"), "--chei"])
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "dims.json").write_text('{"subspaces": [{"dimension": 2}]}')
    extra = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in extra]
    assert main(["stats", str(small_cache), str(tmp_path / "s"),
                 "--rank", str(tmp_path / "pr.vec"),
                 "--chei", str(tmp_path / "cr.vec"), *extra]) == code
    assert not list(tmp_path.glob("s.*"))
