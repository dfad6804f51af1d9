"""Benchmark-side tracing of one ``run_kg`` call.

Nothing inside ``pdf_entity_extraction_ray`` records spans.  Instead the
traced run swaps the entry points ``run_kg`` looks up at call time (names in
``pipelines.kg``'s namespace, the lazily imported ``stages.linking`` /
``stages.graph`` functions, ``lineage.input_snapshot`` / ``write_manifest``
and ``Dataset.write_parquet``) for wrappers that record a span per call:
name, start, end, parent, pid, plus the counts seen at that boundary.

Driver-side spans stay in memory.  Stage functions run in Ray worker
processes, so their wrappers append each span to a per-process JSON-lines
file under ``$PERFBENCH_TRACE_DIR``; the files are merged when the run
ends.  All timestamps are ``time.monotonic()``, which is one system-wide
clock on Linux, so spans from different processes share a time axis.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

import pyarrow as pa
import pyarrow.compute as pc

from pdf_entity_extraction_ray.stages.annotate import Annotator

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ROOT = "run_kg"


def _emit(span: dict) -> None:
    """Worker side: append one span to this process's span file."""
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(span) + "\n")


def _list_lengths(col) -> "pa.Array":
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.fill_null(pc.list_value_length(col), 0)


class TracedFn:
    """Picklable wrapper of a stage batch function (extract / explode)."""

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn
        self.__name__ = getattr(fn, "__name__", name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        out = self.fn(batch)
        _emit({"name": self.name, "start": t0, "end": time.monotonic(),
               "parent": ROOT, "pid": os.getpid(),
               "rows_in": batch.num_rows, "rows_out": out.num_rows})
        return out


class TracedAnnotator(Annotator):
    """``Annotator`` whose calls record segments, mentions, triples and
    productive segments (those yielding at least one mention)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        out = super().__call__(batch)
        end = time.monotonic()
        n_mentions = _list_lengths(out.column("mentions"))
        _emit({"name": "annotate", "start": t0, "end": end, "parent": ROOT,
               "pid": os.getpid(), "rows_in": batch.num_rows,
               "mentions": int(pc.sum(n_mentions).as_py() or 0),
               "triples": int(pc.sum(_list_lengths(out.column("triples"))).as_py() or 0),
               "productive": int(pc.sum(pc.greater(n_mentions, 0)).as_py() or 0)})
        return out


class Tracer:
    """Driver-side span recorder plus the patch set for one traced run."""

    def __init__(self, out_dir: str):
        self.out_dir = os.path.abspath(out_dir)
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _record(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = [ROOT]
            with self._lock:
                self._next_id += 1
                span_id = f"d{self._next_id}"
            span = {"id": span_id, "name": name, "parent": stack[-1], "pid": os.getpid()}
            if attrs is not None:
                span.update(attrs(*args, **kwargs))
            stack.append(span_id)
            span["start"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _write_target(self, ds, path, *args, **kwargs) -> dict:
        rel = os.path.relpath(os.path.abspath(path), self.out_dir)
        return {"target": rel.split(os.sep)[0]}

    @staticmethod
    def _manifest_attrs(out_dir, phase, fp, rows, wall_sec, *args, **kwargs) -> dict:
        return {"phase": phase, "phase_wall": wall_sec}

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of one ``run_kg`` call."""
        import ray.data

        from pdf_entity_extraction_ray.pipelines import kg
        from pdf_entity_extraction_ray.stages import graph, linking
        from pdf_entity_extraction_ray.state import lineage

        plan = [
            (kg, "extract_segments_batch", TracedFn("extract", kg.extract_segments_batch)),
            (kg, "Annotator", TracedAnnotator),
            (kg, "explode_mentions_batch",
             TracedFn("explode.mentions", kg.explode_mentions_batch)),
            (kg, "explode_triples_batch",
             TracedFn("explode.triples", kg.explode_triples_batch)),
            (ray.data.Dataset, "write_parquet",
             self._record("write", ray.data.Dataset.write_parquet, self._write_target)),
            (lineage, "input_snapshot",
             self._record("lineage.input_snapshot", lineage.input_snapshot)),
            (lineage, "write_manifest",
             self._record("lineage.write_manifest", lineage.write_manifest,
                          self._manifest_attrs)),
        ]
        for mod, name in ((linking, "distinct_surfaces"),
                          (linking, "link_entities"),
                          (linking, "link_entities_distributed"),
                          (kg, "link_entities")):
            plan.append((mod, name, self._record("linking." + name, getattr(mod, name))))
        for mod, name in ((kg, "build_nodes"), (kg, "canonical_triples"),
                          (graph, "build_nodes_join"), (graph, "canonical_triples_join"),
                          (graph, "build_edges_from_canonical")):
            plan.append((mod, name, self._record("graph." + name, getattr(mod, name))))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in plan]
        try:
            for mod, name, wrapper in plan:
                setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, orig in saved:
                setattr(mod, name, orig)


def load_worker_spans(trace_dir: str) -> list[dict]:
    spans = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def union_s(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def clip(intervals, lo: float, hi: float):
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


# output dir of a ``Dataset.write_parquet`` -> the layer whose call time it is
_WRITE_LAYER = {
    "surface_map": "linking", "nodes": "graph", "edges": "graph",
    "triples_canonical": "graph",
}


def span_metrics(driver: list[dict], workers: list[dict], t0: float, t1: float) -> dict:
    """Per-layer metrics of one traced ``run_kg`` call spanning [t0, t1]."""
    wall = t1 - t0
    m: dict[str, float] = {}

    # pipelines/kg: phase spans [manifest write - phase wall, manifest write]
    phases: dict[str, list] = {}
    for s in driver:
        if s["name"] == "lineage.write_manifest":
            phases.setdefault(s["phase"], []).append((s["start"] - s["phase_wall"], s["start"]))
    explode = phases.get("mentions", []) + phases.get("triples", [])
    m["kg.annotations_s"] = union_s(phases.get("annotations", []))
    m["kg.explode_s"] = union_s(explode)
    m["kg.linking_s"] = union_s(phases.get("linking", []))
    m["kg.graph_s"] = union_s(phases.get("graph", []))
    m["kg.unattributed_s"] = wall - union_s(clip(
        [iv for ivs in phases.values() for iv in ivs], t0, t1))
    children = [(s["start"], s["end"]) for s in driver + workers if s["parent"] == ROOT]
    m["kg.self_s"] = wall - union_s(clip(children, t0, t1))

    def of(name):
        return [s for s in workers if s["name"] == name]

    ext = of("extract")
    m["extract.calls"] = len(ext)
    m["extract.pages"] = sum(s["rows_in"] for s in ext)
    m["extract.segments"] = sum(s["rows_out"] for s in ext)
    m["extract.busy_s"] = sum(s["end"] - s["start"] for s in ext)

    ann = of("annotate")
    segs = sum(s["rows_in"] for s in ann)
    busy = sum(s["end"] - s["start"] for s in ann)
    m["annotate.calls"] = len(ann)
    m["annotate.segments"] = segs
    m["annotate.busy_s"] = busy
    m["annotate.us_per_segment"] = 1e6 * busy / max(1, segs)
    m["annotate.mentions"] = sum(s["mentions"] for s in ann)
    m["annotate.triples"] = sum(s["triples"] for s in ann)
    m["annotate.productive_frac"] = sum(s["productive"] for s in ann) / max(1, segs)

    ex_m, ex_t = of("explode.mentions"), of("explode.triples")
    m["explode.calls"] = len(ex_m) + len(ex_t)
    m["explode.mention_rows"] = sum(s["rows_out"] for s in ex_m)
    m["explode.triple_rows"] = sum(s["rows_out"] for s in ex_t)
    m["explode.busy_s"] = sum(s["end"] - s["start"] for s in ex_m + ex_t)

    def layer_spans(layer):
        return [(s["start"], s["end"]) for s in driver
                if s["name"].startswith(layer + ".")
                or (s["name"] == "write" and _WRITE_LAYER.get(s["target"]) == layer)]

    m["linking.call_s"] = union_s(layer_spans("linking"))
    m["graph.call_s"] = union_s(layer_spans("graph"))
    m["lineage.snapshot_s"] = sum(
        s["end"] - s["start"] for s in driver if s["name"] == "lineage.input_snapshot")
    m["lineage.manifest_writes"] = sum(
        1 for s in driver if s["name"] == "lineage.write_manifest")
    return m
