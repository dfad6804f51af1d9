"""Exact per-layer counts recomputed from a finished run's artifacts.

These come from public functions of the pipeline applied to the run's
output tables (not from the trace), so they repeat exactly across runs of
the same inputs however the run was scheduled.  The one exception is
``io.mb_written``: Parquet sizes follow the row order inside each file,
which follows Ray's scheduling, and vary by ~0.1%.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq


def _nonempty(tables) -> pa.Table | None:
    """Concat Ray result blocks, skipping the empty-schema ones a shuffle
    emits for empty partitions."""
    kept = [t for t in tables if t.num_rows and "type" in t.column_names]
    return pa.concat_tables(kept) if kept else None


def linking_counts(out_dir: str) -> dict:
    import ray
    import ray.data

    from pdf_entity_extraction_ray.stages.linking import (
        MAX_BLOCK,
        block_keys_batch,
        candidate_pair_edges,
        distinct_surfaces,
    )

    distinct = distinct_surfaces(
        ray.data.read_parquet(os.path.join(out_dir, "mentions"), columns=["type", "surface"])
    )
    universe = _nonempty(ray.get(ref) for ref in distinct.to_arrow_refs())
    blocks = block_keys_batch(universe.select(["type", "surface"]))
    per_block = blocks.group_by("block").aggregate([("surface", "count_distinct")])
    k = per_block.column("surface_count_distinct").to_numpy().astype("int64")
    in_range = (k >= 2) & (k <= MAX_BLOCK)
    candidate = int((k[in_range] * (k[in_range] - 1) // 2).sum())
    edges = _nonempty(candidate_pair_edges(distinct).iter_batches(batch_format="pyarrow"))
    merged = 0
    if edges is not None:
        merged = len(set(zip(*(edges.column(c).to_pylist() for c in ("type", "a", "b")))))
    smap = pq.read_table(os.path.join(out_dir, "surface_map"))
    return {
        "linking.distinct_surfaces": universe.num_rows,
        "linking.block_rows": blocks.num_rows,
        "linking.candidate_pairs": candidate,
        "linking.merged_pairs": merged,
        "linking.pair_yield": merged / max(1, candidate),
        "linking.blocks_skipped": int((k > MAX_BLOCK).sum()),
        "linking.clusters": len(pc.unique(smap.column("node_id"))),
    }


def graph_counts(out_dir: str) -> dict:
    smap = pq.read_table(os.path.join(out_dir, "surface_map"), columns=["type", "surface"])
    keys = pc.binary_join_element_wise(smap.column("type"), smap.column("surface"), "\x00")
    trip = pads.dataset(os.path.join(out_dir, "triples"), partitioning="hive").to_table(
        columns=["subj_type", "subj", "obj_type", "obj"]
    )
    hits = 0
    for typ, surface in (("subj_type", "subj"), ("obj_type", "obj")):
        ends = pc.binary_join_element_wise(trip.column(typ), trip.column(surface), "\x00")
        hits += pc.sum(pc.is_in(ends, value_set=keys)).as_py() or 0
    return {
        "graph.map_entries": smap.num_rows,
        "graph.endpoint_hit_frac": hits / max(1, 2 * trip.num_rows),
        "graph.nodes": pads.dataset(os.path.join(out_dir, "nodes")).count_rows(),
        "graph.edges": pads.dataset(os.path.join(out_dir, "edges")).count_rows(),
    }


def lineage_counts(out_dir: str, pages_dir: str, gens_before: set[str]) -> dict:
    """Pages tagged by the run = rows of the input files of the annotation
    generations the run added; the rest of the snapshot was reused."""
    from pdf_entity_extraction_ray.state import lineage

    manifest = lineage.load_manifest(out_dir, "annotations") or {}

    def rows(rel: str) -> int:
        return pq.ParquetFile(os.path.join(pages_dir, rel)).metadata.num_rows

    total = sum(rows(rel) for rel, _ in lineage.input_snapshot(pages_dir))
    tagged = sum(
        rows(rel)
        for g, gen in manifest.get("generations", {}).items()
        if g not in gens_before
        for rel, _ in gen["files"]
    )
    return {
        "lineage.pages_tagged": tagged,
        "lineage.reuse_frac": 1 - tagged / max(1, total),
    }


def io_counts(out_dir: str, since_ns: int) -> dict:
    """Parquet data files the run created or rewrote (manifests and markers
    are lineage bookkeeping, counted by ``lineage.manifest_writes``)."""
    n = size = 0
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if not f.endswith(".parquet"):
                continue
            st = os.stat(os.path.join(root, f))
            if st.st_mtime_ns >= since_ns:
                n += 1
                size += st.st_size
    return {"io.files_written": n, "io.mb_written": size / 1e6}
