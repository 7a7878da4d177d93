"""Spans around gmspectra's public functions, recorded from outside the package.

A span is (name, start, end, parent span, run id); spans and counters stay in
memory and are written out once, when the run ends. ``instrument`` replaces
the public functions of every layer module with wrappers that open a span,
so a CLI command run in-process records one span per layer call without any
change to the package. Spans are opened from the calling thread only; the
worker threads inside ``apply_g`` are not traced.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute) pairs wrapped by ``instrument``; "Class.method" wraps a method.
LAYER_FUNCTIONS = {
    "graph": ("parse_edge_list", "from_edges", "save_cache", "load_cache",
              "invert", "degree_stats"),
    "operator": ("GoogleOperator.apply_g", "GoogleOperator.apply_s"),
    "ranking": ("pagerank", "cheirank", "rank_indices", "write_rank_csv",
                "write_vector_cache", "read_vector_cache"),
    "subspaces": ("decompose", "subspace_spectrum", "subspace_block",
                  "write_decomposition_json"),
    "arnoldi": ("arnoldi_core", "write_spectrum_csv", "eigvec_profile"),
    "stats": ("correlator", "density_2d", "n_k_counts", "ng_filling",
              "powerlaw_fit", "subspace_fraction", "write_grid_csv",
              "write_curve_csv"),
    "manifest": ("sha256_of", "RunManifest.write"),
}


class Tracer:
    """In-memory span and counter store for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start_ns": time.perf_counter_ns(),
                  "end_ns": None, "parent": self._open[-1] if self._open else None,
                  "run_id": self.run_id}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def traced(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


def instrument(tracer: Tracer) -> None:
    """Wrap every function in LAYER_FUNCTIONS, wherever gmspectra binds it.

    Modules import each other's functions by name, so the wrapper replaces
    every binding of the original object in every loaded gmspectra module.
    ``sha256_of`` also counts the bytes it hashes.
    """
    import gmspectra  # noqa: F401  (loads every layer module)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gmspectra" or name.startswith("gmspectra."))]
    for module_name, attrs in LAYER_FUNCTIONS.items():
        module = sys.modules[f"gmspectra.{module_name}"]
        for attr in attrs:
            span_name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.traced(getattr(cls, method), span_name))
                continue
            original = getattr(module, attr)
            wrapper = tracer.traced(original, span_name)
            if attr == "sha256_of":
                wrapper = _counting_hash(tracer, wrapper)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)


def _counting_hash(tracer: Tracer, hash_fn):
    @functools.wraps(hash_fn)
    def wrapper(path):
        tracer.count("manifest.bytes_hashed", os.path.getsize(path))
        return hash_fn(path)
    return wrapper


# --- analysis over one run id's spans -------------------------------------

def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(_seconds(s) for s in spans if s["name"] == name)


def self_time(spans: list[dict], name: str) -> float:
    """Summed duration of ``name`` spans minus the time their children cover.

    Spans come from one thread, so children of a span never overlap.
    """
    ids = {s["id"] for s in spans if s["name"] == name}
    children = sum(_seconds(s) for s in spans if s["parent"] in ids)
    return total(spans, name) - children


def child_total(spans: list[dict], parent_name: str, child_name: str) -> float:
    """Summed duration of ``child_name`` spans directly under ``parent_name``."""
    ids = {s["id"] for s in spans if s["name"] == parent_name}
    return sum(_seconds(s) for s in spans if s["name"] == child_name and s["parent"] in ids)
