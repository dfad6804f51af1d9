"""End-to-end KG-construction pipeline (the flagship).

Phases (each = one lazy Ray Dataset plan, resumable via lineage manifests):

  P1 annotations : pages -> segments -> one tagging pass (spans, then the
                   relation patterns) -> nested per-segment annotations
                   Parquet, one fused Ray task per block
                   (bucket-partitioned by hash(url))
  P2 explodes    : annotations -> flat mentions and triples Parquet and
                   their surface-keyed graph partials, one Ray execution
                   per generation whose tasks write every file
  P3 linking     : mentions -> distinct surfaces (whose count picks the
                   plan) -> LSH blocks -> pair test -> union-find (label
                   propagation past the threshold) -> surface map (an
                   Arrow table, also written as Parquet); an append
                   extends the driver plan's persisted block index instead
  P4 graph       : driver plan, on the driver with no Ray execution:
                   graph partials relabeled through the surface map and
                   folded into nodes and edges; triples streamed through
                   the map into canonical triples, one file per
                   generation.  Scale plan: shuffle joins of mentions and
                   triples against the map, then edges from the canonical
                   triples

The reference's equivalent lifecycle is E2 -> E3 of SURVEY §3
(run.py:14-27 then check_performance.py:32-91) with in-memory state and
JSON checkpoints; here every inter-phase artifact is Parquet and every
stage is a streaming Dataset transform.

``run_kg`` is INCREMENTAL over corpus appends (the Common-Crawl cadence:
a new snapshot lands as new Parquet files next to the old ones): the
per-page phases (P1 tagging — the dominant cost — and the P2 explodes)
record which input files each output GENERATION consumed and process only
new files into new ``g<k>`` subdirs; P2 reads a new annotations generation
once and writes both flat tables and both partials from its tasks.  Every
phase runs its Ray executions one after another, from the driver's one
thread.  P3 linking records the mentions
generations it consumed and keeps its block index (``linking_index/``,
beside ``surface_map/``); under the driver plan an append block-keys and
pair-tests only its new surfaces against that index on the driver, with
no Ray execution, and reruns union-find over the stored and new pairs.
P4 records the generations it consumed too.  Its node and edge partials
are keyed by surface, so they never depend on the map: an append folds
every generation's partials on the driver, writes its own canonical
triples generation and rewrites only the stored ones holding a surface
whose node the append's link changed, again with no Ray execution.  A
full build is the same P4 with no generation stored.
Re-running after an append therefore costs O(new pages) tagging, pair
tests and canonical rewrites + O(corpus) driver-side union-find and
partial folds over (type, surface)-sized inputs, never O(corpus) model
inference or Ray executions.  Generalizes the reference's per-document
skip-if-cached (src/cache_data.py:15-16) to whole-corpus delta
processing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil

import pyarrow as pa

from ..sources.corpus import cached_catalog, catalog_gazetteer
from ..stages.annotate import Annotator, explode_mentions_batch, explode_triples_batch
from ..stages.extract import extract_segments_batch
# P4 calls ``build_nodes`` and ``canonical_triples`` through this module's
# namespace, where ``perfbench/tracing.py`` wraps them by name
from ..stages.graph import build_nodes, canonical_triples, surface_partials, triple_partials
from ..stages.linking import BlockIndex, block_index, extend_index, link_entities
from ..state import lineage

CODE_VERSION = 8  # bump to invalidate all phase outputs (v8: graph partials)

# P3 picks the scale plan (distributed label propagation, then shuffle-join
# rewrites) when the distinct (type, surface) universe exceeds this, else
# the driver plan (union-find, then the rewrites on the driver).  Rationale:
# the surface map is an Arrow table of 54-80 B per entry (54 B on 200,000
# synthetic entries, 80 B on a 3,396-entry long-tail map), so 10^6 entries
# is ~55-80 MB, held by the driver alone (no worker reads it).  The value
# dates from when the map was a Python dict (377 B per entry, ~0.4 GB at
# 10^6); no measurement of where the join plan starts to win has moved it
# since.  The driver also holds the universe and the similar pairs for
# union-find: a driver-plan link of 10^5 synthetic surfaces grew the
# driver's RSS by 93 MB at peak (82 MB before it kept a block index; the
# index's ~20 membership rows per surface stay on disk), and a
# 5,000-surface append to it by 125 MB: ~1 GB at 10^6 by linear
# extrapolation, not measured there.  The driver plan's P4 folds the graph
# partials on the driver too: over 10^5 synthetic surfaces in 5*10^4
# clusters and 10^5 triple keys, ``build_nodes`` + ``fold_edges`` grew the
# driver's RSS by 164 MB at peak with one url per surface partial, 191 MB
# with two and 606 MB with the 21-url cap in every partial (1.6-6 GB at
# 10^6 by the same extrapolation).  That is past the link's order, so it
# argues against raising this value without a measurement at 10^6.  Its
# canonical rewrite holds at most ``CANONICAL_BATCH_ROWS`` triples (plus one
# file's batch) at a time: a whole full P4
# grew the driver's RSS by 0.2-0.4 MB at peak on the 240-page long-tail
# corpus of tests/test_tail_scale.py (1,108 triples) and by 0.8-1.5 MB on
# 1,500 such pages (7,369 triples), too small to weigh against the fold.
# Outputs are identical across the two plans (tested), so the switch is
# purely an execution-strategy decision.
AUTO_DISTRIBUTED_THRESHOLD = 1_000_000

# The driver plan's canonical rewrite passes ``canonical_triples`` whole
# Parquet batches of a triples generation coalesced up to this many rows.
# A generation holds a batch per bucket file, and each call pays ~0.6 ms of
# fixed cost (two hash builds over the map's keys, the miss fills, a row
# group): 16 calls for a 75-page append's 420 rows took 21 ms, one 10 ms.
CANONICAL_BATCH_ROWS = 65_536


def _filter_buckets(batch: pa.Table, wanted: frozenset, n_buckets: int) -> pa.Table:
    import numpy as np

    buckets = lineage.url_buckets(batch.column("url"), n_buckets)
    mask = np.isin(buckets, np.fromiter(wanted, dtype=np.int32, count=len(wanted)))
    return batch.filter(pa.array(mask, pa.bool_()))


def _write_parquet(ds, path: str, schema: pa.Schema) -> None:
    """``ds.write_parquet(path)``, or one empty ``schema`` file at ``path``
    when ``ds`` is None or has no rows: Ray 2.49 then writes no file and
    no directory, and a later read of ``path`` raises."""
    import pyarrow.parquet as pq

    if ds is not None:
        ds.write_parquet(path)
    if not os.path.isdir(path):
        os.makedirs(path)
        pq.write_table(schema.empty_table(), os.path.join(path, "part-0.parquet"))


def _gen_index(gen_name: str) -> int:
    return int(gen_name[1:])


def _gen_tag(fp: str, gen_name: str, files: list[list]) -> str:
    """Identity of one generation's output: phase config + the exact
    source files it consumed.  Used both as the per-bucket completion
    marker inside the generation dir and as the downstream explode's
    staleness check."""
    return lineage.fingerprint({"fp": fp, "gen": gen_name, "files": files})


def _sweep(root: str, keep) -> None:
    """Remove every entry of ``root``, dir or file, not named in ``keep``."""
    for name in os.listdir(root) if os.path.isdir(root) else ():
        if name not in keep:
            p = os.path.join(root, name)
            shutil.rmtree(p, ignore_errors=True) if os.path.isdir(p) else os.remove(p)


@dataclasses.dataclass(frozen=True)
class _StageSpec:
    """Stage class + kwargs, hashed by (class, ``lineage.fingerprint(kwargs)``)."""

    stage_cls: type
    fp: str
    kwargs: dict = dataclasses.field(compare=False, hash=False)


@functools.lru_cache(maxsize=8)  # a few (class, config) pairs per process
def _cached_stage(spec: _StageSpec):
    """One stage per worker process per (class, config): warm workers are
    reused across tasks and builds, so the load is paid once per process
    and no actor starts or stops; a subclass gets its own instance."""
    return spec.stage_cls(**spec.kwargs)


def _stage_batch(batch: pa.Table, spec: _StageSpec, batch_size: int) -> pa.Table:
    """Cached stage over one block, ``batch_size`` rows per call (Ray's
    ``batch_size`` would bundle the fused task's input PAGES instead)."""
    stage = _cached_stage(spec)
    return pa.concat_tables(
        [stage(batch.slice(i, batch_size)) for i in range(0, max(batch.num_rows, 1), batch_size)]
    )


def _run_partitioned_phase(
    *,
    phase: str,
    out_dir: str,
    pages_path: str,
    fp: str,
    stage_cls,
    stage_kwargs: dict,
    n_buckets: int,
    concurrency,
    batch_size: int,
    resume: bool,
    override_num_blocks: int | None = None,
    stage_ray_remote_args: dict | None = None,
) -> str:
    """pages -> segments -> stage -> generation/bucket-partitioned Parquet
    (``<phase>/g<k>/bucket=<b>/``) with per-partition resume AND
    incremental appends.  Returns the table dir (readers consume the
    root; the ``g<k>`` level is not a hive key, so reads see only the
    ``bucket`` column, exactly as before).

    Generations make ``run_kg`` delta-incremental over corpus growth: the
    manifest records which input files each generation consumed
    (metadata snapshot, :func:`lineage.input_snapshot`); when the pages
    dir gains files, only the NEW files flow through the tagger into a
    new ``g<k>`` dir — the dominant cost (model inference per page) is
    never re-paid for already-tagged pages.  Any in-place change to a
    consumed file breaks the append-only assumption and forces a full
    rebuild.  Within a generation, per-bucket ``_COMPLETE`` markers are
    stamped after the generation's single write completes, so they
    resume only the narrow crash window between that write and the
    manifest write (and drive the unattributable-dir sweep); a crash
    MID-write re-pays the whole generation — true per-bucket streaming
    markers would need a custom datasink."""
    import pyarrow.dataset as pads
    import ray.data

    table_dir = os.path.join(out_dir, phase)
    snapshot = lineage.input_snapshot(pages_path)
    if not snapshot:
        raise ValueError(
            f"no parquet input found under {pages_path!r} — "
            "check the pages path"
        )
    manifest = lineage.load_manifest(out_dir, phase) if resume else None
    if manifest is not None and manifest.get("fingerprint") != fp:
        manifest = None  # stale config/code
    if not resume and os.path.isdir(table_dir):
        lineage.invalidate(out_dir, phase, table_dir)
    generations: dict = dict(manifest.get("generations", {})) if manifest else {}
    delta: list | str = snapshot
    if generations:
        delta = lineage.snapshot_delta(generations, snapshot)
        if delta == "changed":  # a consumed input file mutated -> rebuild
            generations = {}
    if not generations:
        # manifest-only invalidation: completed bucket dirs stay on disk —
        # the per-bucket markers decide what is reusable (a marker only
        # matches when phase config AND the full source-file list match),
        # and the gen-dir sweep below drops everything unattributable
        lineage.invalidate(out_dir, phase)
        new_files = snapshot
        gen_id = 0
    else:
        if not delta:  # input unchanged -> phase complete
            return table_dir
        new_files = delta
        gen_id = len(generations)
    gen_name = f"g{gen_id}"
    gen_dir = os.path.join(table_dir, gen_name)
    gen_fp = _gen_tag(fp, gen_name, new_files)
    # drop output this run cannot attribute: ANY entry that is neither a
    # recorded complete generation nor the one being (re)built —
    # half-written gens under a LOST manifest, and pre-generation-layout
    # bucket dirs from older code versions.  Their source files reappear
    # in new_files, so keeping them would duplicate rows downstream.
    _sweep(table_dir, {*generations, gen_name})
    done = lineage.existing_buckets(gen_dir, gen_fp) if resume else set()
    missing = frozenset(range(n_buckets)) - done
    # partial writes from a mid-phase crash and stale-fingerprint orphans
    # must go before recompute — appending into them would duplicate rows
    lineage.drop_incomplete_buckets(gen_dir, keep=done)

    base = os.path.abspath(pages_path)
    paths = (
        [base]
        if os.path.isfile(base)
        else [os.path.join(base, rel) for rel, _size in new_files]
    )
    with lineage.PhaseTimer() as timer:
        if missing and paths:
            import ray

            if override_num_blocks is None:
                # one extract + tag task per block, and the bucket sort
                # exchanges between every pair of blocks: 500 pages a block,
                # at most 6 per CPU (71.6s -> 60.7s at 6/CPU on 1M pages); at
                # 4 CPUs, 2,000 pages took 2.4s in 24 blocks, 1.4s in 4
                import pyarrow.parquet as pq

                n_pages = sum(pq.read_metadata(p).num_rows for p in paths)
                cpus = int(ray.cluster_resources().get("CPU", 16))
                override_num_blocks = max(1, min(6 * cpus, -(-n_pages // 500)))
            ds = ray.data.read_parquet(
                paths,
                columns=["url", "warc_ts", "html", "lang"],
                override_num_blocks=override_num_blocks,
            )
            if done:  # per-partition resume: recompute only missing buckets
                ds = ds.map_batches(
                    _filter_buckets,
                    fn_kwargs={"wanted": missing, "n_buckets": n_buckets},
                    batch_format="pyarrow",
                )
            ds = ds.map_batches(extract_segments_batch, batch_format="pyarrow")
            # a task op (fuses with the extract), stage cached per process
            kwargs = {**stage_kwargs, "n_buckets": n_buckets}
            ds = ds.map_batches(
                _stage_batch,
                fn_kwargs={
                    "spec": _StageSpec(stage_cls, lineage.fingerprint(kwargs), kwargs),
                    "batch_size": batch_size,
                },
                concurrency=concurrency,
                batch_size=None,
                batch_format="pyarrow",
                # execution-resource pass-through (e.g. num_gpus for a real
                # transformer tagger) — never fingerprinted: resources
                # change placement, not output
                **(stage_ray_remote_args or {}),
            )
            # cluster blocks by the partition key before the hive write:
            # without it every task writes a file per bucket it touches
            # (blocks x buckets tiny files — measured to poison EVERY
            # downstream read, even with override_num_blocks); with it the
            # file count is ~n_buckets, and the explode tasks, which read
            # this clustering back, write each table's hive files from the
            # task with no shuffle of their own.  A range
            # sort on the low-cardinality int32 key, not a hash repartition:
            # Ray's HASH_SHUFFLE measured 28x slower and livelocked this
            # phase (BASELINE.md "Bucket clustering A/B").
            ds.sort("bucket").write_parquet(gen_dir, partition_cols=["bucket"])
            lineage.mark_buckets_complete(gen_dir, gen_fp)

    generations[gen_name] = {"files": new_files, "tag": gen_fp}
    # the rows this call's generation holds, from its own footers: the
    # stored generations' files are never opened (an empty input writes none)
    rows = pads.dataset(gen_dir, partitioning="hive").count_rows() if os.path.isdir(gen_dir) else 0
    lineage.write_manifest(
        out_dir, phase, fp, rows, timer.wall,
        extra={
            "recomputed_buckets": sorted(missing),
            "n_buckets": n_buckets,
            "generations": generations,
        },
    )
    return table_dir


def _partials_dir(out_dir: str, phase: str) -> str:
    """Where the ``phase`` explode writes its graph partials, one
    ``g<k>`` subdir per generation."""
    return os.path.join(out_dir, "graph_partials", phase)


def _explode_block(batch: pa.Table, explodes: dict, out_dir: str, gen: str) -> pa.Table:
    """One annotations block -> both flat tables and their graph partials,
    written from the task.  For each table (``explodes`` maps it to its
    explode and partial functions) the rows go to
    ``<table>/<gen>/bucket=<b>/`` with the ``bucket`` column dropped, the
    hive layout ``Dataset.write_parquet`` writes, and the partials to
    ``graph_partials/<table>/<gen>/``, so no row passes through the
    driver.  Every file is named by a hash of the block's first (url,
    seg_id), which no other block holds, so a retried task rewrites its own
    files.  Returns the rows written per table."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    written = {}
    for table, (explode_fn, partial_fn) in explodes.items():
        rows = explode_fn(batch)
        written[table] = [rows.num_rows]
        if not rows.num_rows:
            continue
        first = f"{batch.column('url')[0].as_py()}\x00{batch.column('seg_id')[0].as_py()}"
        name = hashlib.blake2b(first.encode(), digest_size=8).hexdigest()
        pads.write_dataset(
            rows, os.path.join(out_dir, table, gen), format="parquet",
            partitioning=["bucket"], partitioning_flavor="hive",
            basename_template=f"{name}-{{i}}.parquet", existing_data_behavior="overwrite_or_ignore",
        )
        partials = partial_fn(rows)
        if partials.num_rows:
            pq.write_table(
                partials, os.path.join(_partials_dir(out_dir, table), gen, f"{name}.parquet")
            )
    return pa.table(written)


def _explode_phase(out_dir: str, annotations_dir: str, base_fp: dict, resume: bool, nblocks: int):
    """annotations -> the flat ``mentions`` and ``triples`` tables (one
    whole-phase manifest each; both keep the hive ``bucket``
    partitioning) and the graph partials of each block under
    :func:`_partials_dir`, in ONE Ray Data execution per annotations
    generation: every block is read once, with all its columns, and
    :func:`_explode_block` writes every file from the task.  The
    annotations artifact is bucket-clustered on disk, so the hive files
    need no shuffle; ``nblocks`` sets the read's block count.  Returns the
    (mentions, triples) table dirs.

    Mirrors the annotations artifact's GENERATIONS (incremental appends):
    each annotation gen explodes into its own ``g<k>`` subdir of both
    tables and both partials, keyed by the upstream gen's ``tag``.  A gen
    is done only when both manifests record it with its current tag;
    anything else in a table or partials dir (a mid-explode crash, an
    upstream rebuild, a pre-generation layout) is dropped and the gen
    redone for both tables.  Explodes are cheap relative to tagging, so
    gen (not bucket) is the resume grain here.  Each manifest's ``rows``
    counts the rows this call wrote, summed from the tasks' returns."""
    import ray.data

    # looked up at call time: perfbench/tracing.py wraps the explodes by name
    explodes = {
        "mentions": (explode_mentions_batch, surface_partials),
        "triples": (explode_triples_batch, triple_partials),
    }
    fps = {t: lineage.fingerprint({**base_fp, "phase": t}) for t in explodes}
    dirs = [os.path.join(out_dir, t) for t in explodes]
    ann_gens: dict = (lineage.load_manifest(out_dir, "annotations") or {}).get("generations", {})
    recorded = []
    for t, fp in fps.items():
        m = lineage.load_manifest(out_dir, t) if resume else None
        if not resume:  # the manifest goes before its artifacts (swept below)
            lineage.invalidate(out_dir, t)
        recorded.append(m["exploded_gens"] if m is not None and m["fingerprint"] == fp else {})
    # gen name -> the upstream tag both tables were exploded from
    done = {
        g: gen["tag"]
        for g, gen in ann_gens.items()
        if all(r.get(g) == gen["tag"] for r in recorded)
    }
    todo = [g for g in sorted(ann_gens, key=_gen_index) if g not in done]
    for root in dirs + [_partials_dir(out_dir, t) for t in explodes]:
        _sweep(root, done)
    if not todo and all(r == done for r in recorded):
        return dirs
    rows = dict.fromkeys(explodes, 0)
    with lineage.PhaseTimer() as timer:
        for g in todo:
            for t in explodes:
                os.makedirs(os.path.join(_partials_dir(out_dir, t), g))
            ds = ray.data.read_parquet(
                os.path.join(annotations_dir, g), override_num_blocks=nblocks
            )
            for written in ds.map_batches(
                _explode_block,
                fn_kwargs={"explodes": explodes, "out_dir": out_dir, "gen": g},
                batch_format="pyarrow",
            ).iter_rows():
                for t in explodes:
                    rows[t] += written[t]
            done[g] = ann_gens[g]["tag"]
    for (t, fp), table_dir in zip(fps.items(), dirs):
        # a table with no row yet has no generation dir; run_kg returns its
        # root to readers all the same
        os.makedirs(table_dir, exist_ok=True)
        lineage.write_manifest(out_dir, t, fp, rows[t], timer.wall, extra={"exploded_gens": done})
    return dirs


def _link_delta(
    link: dict | None, gens: dict, mentions_dir: str, index_dir: str, auto_threshold: int
):
    """The driver-plan linking of an append, with no Ray execution, or
    None when the append needs a full re-link.

    It runs when the last linking (``link``, its manifest) took the driver
    plan, its block index is complete on disk, and every mentions
    generation it consumed is still there with the same tag.  The new
    generations' (type, surface) rows then extend the index
    (:func:`~..stages.linking.extend_index`), unless the union passes
    ``auto_threshold`` (the scale plan).  Returns (the union's index, the
    increment to persist, linking counts)."""
    if link is None or link.get("plan") != ["driver", "broadcast"] or not link.get("index"):
        return None
    done = link.get("gens", {})
    if any(gens.get(g) != tag for g, tag in done.items()):
        return None
    index = BlockIndex.read(index_dir, link["index"])
    if index is None:
        return None
    import pyarrow.dataset as pads

    from ..stages.linking import SURFACE_KEYS_SCHEMA

    # a generation that exploded to no rows has no directory (Ray writes
    # no files for an empty dataset)
    new_dirs = [os.path.join(mentions_dir, g) for g in gens if g not in done]
    new_dirs = [d for d in new_dirs if os.path.isdir(d)]
    seen = pa.concat_tables(
        [SURFACE_KEYS_SCHEMA.empty_table()]
        + [
            pads.dataset(d, partitioning="hive").to_table(columns=["type", "surface"])
            for d in new_dirs
        ]
    )
    merged, increment, counts = extend_index(index, seen)
    if merged.surfaces.num_rows > auto_threshold:
        return None
    return merged, increment, counts


def _changed_keys(old: pa.Table, new: pa.Table) -> pa.Array:
    """The ``type\\0surface`` keys the surface maps ``old`` and ``new`` do
    not map alike: added, removed, or given another (node_id, canonical)."""
    import pyarrow.compute as pc

    from ..stages.linking import _surface_keys

    def rows(sm):
        cols = [sm.column(c).cast(pa.string()) for c in ("type", "surface", "node_id", "canonical")]
        return pc.binary_join_element_wise(*cols, "\x00")

    a, b = rows(old), rows(new)
    gone = old.filter(pc.invert(pc.is_in(a, value_set=b)))
    added = new.filter(pc.invert(pc.is_in(b, value_set=a)))
    return pc.unique(pa.concat_arrays([_surface_keys(gone), _surface_keys(added)]))


def _gen_partials(out_dir: str, phase: str, gens: dict, schema: pa.Schema, counts: dict):
    """The graph partials the ``phase`` explode wrote, one table per
    generation, read on the driver; adds their rows to ``counts[phase]``."""
    import pyarrow.dataset as pads

    counts.setdefault(phase, 0)
    for g in sorted(gens, key=_gen_index):
        d = os.path.join(_partials_dir(out_dir, phase), g)
        if os.path.isdir(d):  # a generation without partial rows has no files
            t = pads.dataset(d, schema=schema, format="parquet").to_table()
            counts[phase] += t.num_rows
            yield t


def _stored_canonical(out_dir: str, prev: dict | None, graph_gens: dict, map_delta) -> dict:
    """The canonical-triples generations an append may keep; none (a full
    P4) unless this call's P3 linked as a delta (``map_delta``), from the
    map the last graph build used, and every triples generation that
    build recorded is on disk with its tag."""
    if map_delta is None or prev is None or prev.get("canonical") is None:
        return {}
    if prev["gens"]["mentions"] != map_delta[1]:
        return {}
    kept = prev["gens"]["triples"]
    canon_dir = os.path.join(out_dir, "triples_canonical")
    if any(graph_gens["triples"].get(g) != tag for g, tag in kept.items()) or not all(
        os.path.isdir(os.path.join(canon_dir, g)) for g in kept
    ):
        return {}
    return kept


def _hits(out_dir: str, gen: str, keys: pa.Array) -> bool:
    """Whether a triple partial of ``gen`` has an endpoint in ``keys``."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from ..stages.graph import TRIPLE_PARTIALS_SCHEMA

    d = os.path.join(_partials_dir(out_dir, "triples"), gen)
    if not os.path.isdir(d) or len(keys) == 0:
        return False
    t = pads.dataset(d, schema=TRIPLE_PARTIALS_SCHEMA, format="parquet").to_table(
        columns=["subj_type", "subj", "obj_type", "obj"]
    )
    return any(
        pc.any(pc.is_in(pc.binary_join_element_wise(t[ty], t[s], "\x00"), value_set=keys)).as_py()
        for ty, s in (("subj_type", "subj"), ("obj_type", "obj"))
    )


def _coalesce(batches, rows: int):
    """The non-empty record ``batches`` as tables of whole consecutive
    batches, each closed by the batch that brings it to ``rows`` rows."""
    pending, n = [], 0
    for batch in batches:
        if batch.num_rows:
            pending.append(batch)
            n += batch.num_rows
        if n >= rows:
            yield pa.Table.from_batches(pending)
            pending, n = [], 0
    if pending:
        yield pa.Table.from_batches(pending)


def _graph_driver(
    out_dir: str, surface_map: pa.Table, graph_gens: dict, stored: dict, map_delta
) -> dict:
    """The driver plan's P4, with no Ray execution.  Nodes and edges fold
    every generation's graph partials through the surface map.  Canonical
    triples are written per triples generation (``triples_canonical/g<k>``)
    for each one not in ``stored`` and each stored one whose triple
    partials hold a key this call's link changed (``map_delta``); the rest
    are kept.  A full build is the case with nothing stored.  A rewrite
    streams the generation's triples into one file, its batches coalesced
    up to :data:`CANONICAL_BATCH_ROWS` rows.
    Returns the graph manifest's counts."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..stages.graph import (
        CANONICAL_TRIPLES_SCHEMA, SURFACE_PARTIALS_SCHEMA, TRIPLE_PARTIALS_SCHEMA, fold_edges,
        map_lookup,
    )

    canon_dir = os.path.join(out_dir, "triples_canonical")
    t_gens = graph_gens["triples"]
    lookup = map_lookup(surface_map)
    rewrite = [
        g for g in sorted(t_gens, key=_gen_index)
        if g not in stored or _hits(out_dir, g, map_delta[0])
    ]
    # everything else goes, the flat files a scale-plan build left here too
    _sweep(canon_dir, set(stored) - set(rewrite))
    bucket = pads.partitioning(pa.schema([("bucket", pa.string())]), flavor="hive")
    for g in rewrite:
        src = os.path.join(out_dir, "triples", g)
        # a generation that exploded to no rows has no directory; its
        # canonical file keeps just the schema
        batches = pads.dataset(src, partitioning=bucket).to_batches() if os.path.isdir(src) else []
        path = os.path.join(canon_dir, g, "part-0.parquet")
        os.makedirs(os.path.dirname(path))
        with pq.ParquetWriter(path, CANONICAL_TRIPLES_SCHEMA) as w:
            for triples in _coalesce(batches, CANONICAL_BATCH_ROWS):
                w.write_table(canonical_triples(triples, lookup))
    counts: dict = {}
    tables = {
        "nodes": build_nodes(
            _gen_partials(out_dir, "mentions", graph_gens["mentions"], SURFACE_PARTIALS_SCHEMA, counts),
            lookup,
        ),
        "edges": fold_edges(
            _gen_partials(out_dir, "triples", t_gens, TRIPLE_PARTIALS_SCHEMA, counts), lookup
        ),
    }
    for name, table in tables.items():
        path = os.path.join(out_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        pq.write_table(table, os.path.join(path, "part-0.parquet"))
    return {
        "nodes": tables["nodes"].num_rows,
        "edges": tables["edges"].num_rows,
        "mode": "delta" if stored else "full",
        "canonical": {
            "rewritten": rewrite,
            "reused": sorted(set(t_gens) - set(rewrite), key=_gen_index),
        },
        "partial_rows": {"surfaces": counts["mentions"], "triples": counts["triples"]},
    }


def _graph_join(out_dir: str, graph_gens: dict, nblocks: int) -> dict:
    """The scale plan's P4: nodes and canonical triples by shuffle joins
    against the surface-map Parquet, then edges from the canonical table.
    A join whose input has no row is skipped, and its table is the empty
    schema file: Ray 2.49's hash-shuffle join fails on an input with no
    non-empty block (``ArrowInvalid``; it hung while another execution ran
    beside it).  Returns the graph manifest's counts."""
    import pyarrow.dataset as pads
    import ray.data

    from ..stages.graph import (
        CANONICAL_TRIPLES_SCHEMA, EDGES_SCHEMA, NODES_SCHEMA, build_edges_from_canonical,
        build_nodes_join, canonical_triples_join,
    )

    def has_rows(phase):
        # the explodes write a partial file only for a block with rows
        root = _partials_dir(out_dir, phase)
        dirs = [os.path.join(root, g) for g in graph_gens[phase]]
        return any(os.listdir(d) for d in dirs if os.path.isdir(d))

    nodes_dir, edges_dir, canon_dir = (
        os.path.join(out_dir, n) for n in ("nodes", "edges", "triples_canonical")
    )
    for d in (nodes_dir, edges_dir, canon_dir):
        shutil.rmtree(d, ignore_errors=True)
    surface_map_dir = os.path.join(out_dir, "surface_map")
    nodes_ds = canon_ds = edges_ds = None
    if has_rows("mentions"):
        mentions = ray.data.read_parquet(
            os.path.join(out_dir, "mentions"), columns=["type", "surface", "url"],
            override_num_blocks=nblocks,
        )
        nodes_ds = build_nodes_join(mentions, ray.data.read_parquet(surface_map_dir))
    _write_parquet(nodes_ds, nodes_dir, NODES_SCHEMA)
    if has_rows("triples"):
        triples = ray.data.read_parquet(
            os.path.join(out_dir, "triples"), override_num_blocks=nblocks
        )
        canon_ds = canonical_triples_join(triples, ray.data.read_parquet(surface_map_dir))
    _write_parquet(canon_ds, canon_dir, CANONICAL_TRIPLES_SCHEMA)
    if canon_ds is not None:
        edges_ds = build_edges_from_canonical(
            ray.data.read_parquet(
                canon_dir,
                columns=["src_id", "pred", "dst_id", "subj_canonical", "obj_canonical", "url"],
                override_num_blocks=nblocks,
            )
        )
    _write_parquet(edges_ds, edges_dir, EDGES_SCHEMA)
    return {
        "nodes": pads.dataset(nodes_dir).count_rows(),
        "edges": pads.dataset(edges_dir).count_rows(),
        "mode": "full",
        "canonical": None,
        "partial_rows": None,
    }


def run_kg(
    pages_path: str,
    out_dir: str,
    *,
    gazetteer: list[tuple[str, str]] | None = None,
    seed: int = 42,
    n_per_type: int = 25,
    n_buckets: int = 16,
    concurrency=None,
    batch_size: int = 1024,
    resume: bool = True,
    override_num_blocks: int | None = None,
    auto_threshold: int = AUTO_DISTRIBUTED_THRESHOLD,
    tagger_ray_remote_args: dict | None = None,
    extra_patterns: list[tuple[str, str]] | None = None,
) -> dict:
    """Run the full pipeline; returns artifact paths + stats.

    ``gazetteer`` defaults to the synthetic catalog's (the deterministic
    stand-in for model weights — at real scale this argument is a model
    name and the tagger stage loads it once per worker process).

    ``concurrency`` caps the tagging tasks in flight (``None``: Ray Data's
    default); ``tagger_ray_remote_args`` (e.g. ``num_gpus``) go to each.

    Linking counts the distinct (type, surface) universe (its own first
    shuffle, computed once) and picks one plan for P3 and P4 from it:

    - at most ``auto_threshold`` (:data:`AUTO_DISTRIBUTED_THRESHOLD`): the
      driver plan.  Union-find closes the components on the driver, and
      P4 relabels the explodes' surface-keyed partials through the surface
      map (an Arrow table) with ``index_in`` + ``take`` lookups and folds
      nodes and edges on the driver.  It streams the triples through the
      same lookups into the canonical triples, also on the driver: P4
      starts no Ray execution.
    - above it: the scale plan.  Label propagation
      (stages/linking.py ``link_entities_distributed``) writes the map
      straight to Parquet, and P4 rewrites mentions and triples through
      hash-shuffle ``Dataset.join``s against it (stages/graph.py
      ``build_nodes_join`` / ``canonical_triples_join``); the driver reads
      only the map's node_id column, for the cluster count.

    Outputs are identical under both plans (tested).  The linking manifest
    records the plan with the count and threshold that chose it, and a
    graph rebuild over reused linking runs the recorded plan.  The result's
    ``resolved_linking_mode`` / ``resolved_rewrite_mode`` name it.

    A resumed build whose only change is new mentions generations links
    them on the driver against the last driver-plan linking's block index
    (``mode: "delta"`` in the linking manifest, with the surfaces keyed and
    pairs tested); a changed generation, a missing index, ``resume=False``
    or a union past ``auto_threshold`` link the union in full
    (``mode: "full"``).  Both give the same surface map.  After a delta
    link, P4 is a delta too (``mode: "delta"`` in the graph manifest, with
    the canonical generations rewritten and reused and the partial rows
    folded) when the last graph build used the map the link replaced and
    its canonical generations are all on disk; the outputs equal a full
    rebuild's."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    if gazetteer is None:
        gazetteer = catalog_gazetteer(cached_catalog(seed, n_per_type))

    os.makedirs(out_dir, exist_ok=True)
    base_fp = {
        "pages": os.path.abspath(pages_path),
        "code": CODE_VERSION,
        "gazetteer": lineage.fingerprint({"g": sorted(gazetteer)}),
        "n_buckets": n_buckets,
        "extra_patterns": sorted(extra_patterns or []),
    }

    # P1: one tagging pass -> nested per-segment annotations (bucketed)
    annotations_dir = _run_partitioned_phase(
        phase="annotations",
        out_dir=out_dir,
        pages_path=pages_path,
        fp=lineage.fingerprint({**base_fp, "phase": "annotations"}),
        stage_cls=Annotator,
        stage_kwargs={
            "gazetteer": gazetteer,
            "use_windows": True,
            "extra_patterns": extra_patterns,
        },
        n_buckets=n_buckets,
        concurrency=concurrency,
        batch_size=batch_size,
        resume=resume,
        override_num_blocks=override_num_blocks,
        stage_ray_remote_args=tagger_ray_remote_args,
    )

    # P2: flat mentions / triples tables = cheap explode projections, one
    # execution per annotations generation.  Every read after tagging
    # (explodes, linking, graph) takes 2 blocks/CPU
    nblocks = 2 * int(ray.cluster_resources().get("CPU", 16))
    mentions_dir, triples_dir = _explode_phase(out_dir, annotations_dir, base_fp, resume, nblocks)

    # P3: linking — the surface map is itself a checkpointed Parquet
    # artifact.  The linking manifest records the mentions generations (and
    # their tags) it consumed: equal generations reuse it, and generations
    # that only grew link on the driver from the persisted block index
    # (``_link_delta``); anything else links the union from scratch.  The
    # plan is not fingerprinted: both plans give identical outputs
    # (tested), so a new threshold never invalidates a sound artifact.
    fp_link = lineage.fingerprint({**base_fp, "phase": "linking"})
    surface_map_dir = os.path.join(out_dir, "surface_map")
    index_dir = os.path.join(out_dir, "linking_index")
    gens = (lineage.load_manifest(out_dir, "mentions") or {}).get("exploded_gens", {})
    surface_map = None  # the Arrow surface map, when it is on the driver
    link = lineage.load_manifest(out_dir, "linking") if resume else None
    if link is not None and link["fingerprint"] != fp_link:
        link = None
    relinked = link is None or link.get("gens") != gens
    # a driver-plan delta's map change, for P4: (the keys it changed, the
    # generations of the map it replaced)
    map_delta = None
    with lineage.PhaseTimer() as t_link:
        if relinked:
            delta = _link_delta(link, gens, mentions_dir, index_dir, auto_threshold)
            # drop the manifest BEFORE the artifacts: a crash mid-rebuild
            # must never leave a complete-looking manifest over a partial
            # or deleted surface map or index (the per-page phases already
            # follow this invalidate-then-rebuild order)
            lineage.invalidate(out_dir, "linking")
            if delta is not None:
                index, increment, counts = delta
                n_distinct = index.surfaces.num_rows
                scale = False
            else:
                shutil.rmtree(surface_map_dir, ignore_errors=True)
                shutil.rmtree(index_dir, ignore_errors=True)
                from ..stages.linking import distinct_surfaces

                # prune at the read: linking consumes only (type, surface)
                distinct = distinct_surfaces(
                    ray.data.read_parquet(
                        mentions_dir, columns=["type", "surface"], override_num_blocks=nblocks
                    )
                )
                # the one plan decision, for P3 and P4 alike
                n_distinct = distinct.count()
                scale = n_distinct > auto_threshold
            if scale:
                from ..stages.linking import SURFACE_MAP_SCHEMA, link_entities_distributed

                # surface map written straight from the Dataset; the driver
                # reads only its node_id column (P4 joins read the Parquet)
                _write_parquet(
                    link_entities_distributed(distinct), surface_map_dir, SURFACE_MAP_SCHEMA
                )
                node_ids = pq.read_table(surface_map_dir, columns=["node_id"]).column("node_id")
                # the scale plan keeps no index and does not count pair tests
                parts = None
                counts = {
                    "surfaces_keyed": len(node_ids), "pairs_tested": None, "blocks_retracted": 0,
                }
            else:
                if delta is None:
                    # writes the index as part 0 (its members from the workers)
                    index, counts = block_index(distinct, index_dir)
                parts = list(index.parts)
                surface_map = link_entities(index)
                map_path = os.path.join(surface_map_dir, "part-0.parquet")
                if delta is not None and os.path.isfile(map_path):
                    # read before the overwrite: P4 rewrites only the
                    # stored canonical triples that hold a changed key
                    map_delta = (_changed_keys(pq.read_table(map_path), surface_map), link["gens"])
                # the map, then a delta's index increment, then the manifest
                os.makedirs(surface_map_dir, exist_ok=True)
                pq.write_table(surface_map, map_path)
                if delta is not None:
                    increment.write(index_dir, parts[-1])
                node_ids = surface_map.column("node_id")
            n_surfaces = len(node_ids)
            link = {
                "clusters": pc.count_distinct(node_ids).as_py(),
                "plan": ["distributed", "join"] if scale else ["driver", "broadcast"],
                "n_distinct": n_distinct,
                "auto_threshold": auto_threshold,
                "mode": "full" if delta is None else "delta",
                **counts,
                "gens": gens,
                "index": parts,
            }
    if relinked:
        lineage.write_manifest(out_dir, "linking", fp_link, n_surfaces, t_link.wall, extra=link)
    else:
        n_surfaces = link["rows"]
    # a graph rebuild over reused linking runs the plan linking recorded
    linking_plan, rewrite_plan = link["plan"]

    # P4: graph.  Its manifest records the mentions and triples
    # generations it consumed: equal generations reuse it.
    fp_graph = lineage.fingerprint({**base_fp, "phase": "graph"})
    graph_gens = {
        "mentions": gens,
        "triples": (lineage.load_manifest(out_dir, "triples") or {}).get("exploded_gens", {}),
    }
    prev = lineage.load_manifest(out_dir, "graph") if resume else None
    if prev is not None and prev["fingerprint"] != fp_graph:
        prev = None
    recomputed_graph = prev is None or prev.get("gens") != graph_gens
    with lineage.PhaseTimer() as t_graph:
        if recomputed_graph:
            # drop the manifest BEFORE the artifacts (see the P3 note): a
            # crash mid-rebuild must never leave a complete-looking graph
            # manifest over deleted/partial nodes/edges
            lineage.invalidate(out_dir, "graph")
            if rewrite_plan == "join":
                extra = _graph_join(out_dir, graph_gens, nblocks)
            else:
                if surface_map is None:  # linking was reused
                    surface_map = pq.read_table(surface_map_dir)
                stored = _stored_canonical(out_dir, prev, graph_gens, map_delta)
                extra = _graph_driver(out_dir, surface_map, graph_gens, stored, map_delta)
    if recomputed_graph:
        extra.update(
            distinct_surfaces=n_surfaces, clusters=link["clusters"], gens=graph_gens
        )
        lineage.write_manifest(
            out_dir, "graph", fp_graph, extra["nodes"] + extra["edges"], t_graph.wall,
            extra=extra,
        )

    m = lineage.load_manifest(out_dir, "graph") or {}
    return {
        "mentions": mentions_dir,
        "surface_map": surface_map_dir,
        "triples": triples_dir,
        "triples_canonical": os.path.join(out_dir, "triples_canonical"),
        "nodes": os.path.join(out_dir, "nodes"),
        "edges": os.path.join(out_dir, "edges"),
        "n_nodes": m.get("nodes"),
        "n_edges": m.get("edges"),
        "distinct_surfaces": n_surfaces,
        "link_wall_sec": round(t_link.wall, 3),
        "resolved_linking_mode": linking_plan,
        "resolved_rewrite_mode": rewrite_plan,
    }


def main(argv: list[str] | None = None) -> None:
    """CLI entry (``ray job submit -- python -m
    pdf_entity_extraction_ray.pipelines.kg <pages_dir> <out_dir>``)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Run the KG pipeline")
    parser.add_argument("pages", help="pages Parquet dir")
    parser.add_argument("out", help="output dir")
    parser.add_argument("--n-buckets", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--no-resume", action="store_true")
    args = parser.parse_args(argv)

    import ray

    if not ray.is_initialized():  # the job submitter may have initialised
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)
    result = run_kg(
        args.pages,
        args.out,
        n_buckets=args.n_buckets,
        batch_size=args.batch_size,
        resume=not args.no_resume,
    )
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
