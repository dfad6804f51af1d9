"""Stage 5: graph materialization — nodes / edges Parquet tables.

The Ray-native rendering of the reference's merged EntitiesDict
(src/ollama_entity_extraction/data_model/EntitiesDict.py:27-32: alias
mention lists folded under a representative surface) plus the new
triples->edges rewrite the north_rule requires.

Rewrites read the broadcast cluster map (``ray.put`` once, zero-copy
``ray.get`` inside each task) — a broadcast hash join, NOT a shuffle join:
the map is the small side by construction (distinct linked surfaces).

Hot paths are vectorized: per-batch combining uses Arrow ``group_by``
(C++), so the Python dict-resolution loop runs over DISTINCT keys per
batch, never raw rows; the canonical rewrite maps whole columns through
Arrow ``index_in`` + ``take``.  Nodes and edges are aggregated with the
part-keyed reduce shared with linking (``stages/linking.part_keyed_reduce``):
a per-block partial combine, a small-int ``part`` column hashed from the
group key, then one vectorized merge per part — shuffles move one row per
group per block and sort only the part key (the head-entity-skew treatment
from SURVEY §4).  Edges hash on ``src_id ^ dst_id`` so a hub entity's
edges spread over its neighbours' parts instead of piling onto one.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dates import parse_date
from .linking import LINKED_TYPES, _join_parts, node_id_of, part_keyed_reduce

# urls/aliases per node are capped in the materialized table (a country
# appearing on 10^9 pages must not produce a 10^9-element list cell)
MAX_URLS_PER_NODE = 20
MAX_ALIASES_PER_NODE = 64
MAX_URLS_PER_EDGE = 10

NODES_SCHEMA = pa.schema(
    [
        ("node_id", pa.int64()),
        ("canonical", pa.string()),
        ("type", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("n_mentions", pa.int64()),
        ("n_urls", pa.int64()),
        ("urls_sample", pa.list_(pa.string())),
    ]
)

# per-block node partials: the rows the node merge shuffles
PARTIAL_NODES_SCHEMA = pa.schema(
    [
        ("node_id", pa.int64()),
        ("canonical", pa.string()),
        ("type", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("n_mentions", pa.int64()),
        ("urls", pa.list_(pa.string())),
    ]
)

EDGES_SCHEMA = pa.schema(
    [
        ("src_id", pa.int64()),
        ("src_canonical", pa.string()),
        ("pred", pa.string()),
        ("dst_id", pa.int64()),
        ("dst_canonical", pa.string()),
        ("weight", pa.int64()),
        ("urls_sample", pa.list_(pa.string())),
    ]
)


def resolve(cluster_map: dict, typ: str, surface: str, obj_norm: str = "") -> tuple[int, str]:
    """(type, surface) -> (node_id, canonical).

    DATE entities canonicalize by parsed ISO value (obj_norm) — the
    deterministic analog of the reference's dateparser normalization
    (src/methods/DateParser.py:44-50); unresolved surfaces fall back to a
    singleton node (never invent, never drop)."""
    if typ == "DATE":
        canon = obj_norm or surface
        return node_id_of("DATE", canon), canon
    hit = cluster_map.get((typ, surface))
    if hit is not None:
        return hit
    return node_id_of(typ, surface), surface


# --------------------------------------------------------------------------
# nodes


def _resolve_date(surface: str) -> tuple[int, str]:
    """DATE surface -> (node_id, canonical) via its parsed ISO value."""
    parsed = parse_date(surface)
    return resolve({}, "DATE", surface, parsed.isoformat() if parsed else "")


def _acc_update(acc: dict, nid: int, canon: str, typ: str, surface: str, n, url_min, url_max):
    """Fold one distinct (type, surface) group row into the per-node acc."""
    a = acc.setdefault(
        nid, {"canonical": canon, "type": typ, "aliases": set(), "n": 0, "urls": set()}
    )
    a["aliases"].add(surface)
    a["n"] += n
    if len(a["urls"]) < MAX_URLS_PER_NODE:
        a["urls"].update((url_min, url_max))


def _acc_to_table(acc: dict) -> pa.Table:
    """Per-node acc -> PARTIAL_NODES_SCHEMA rows (shared by the broadcast
    and the join node builders)."""
    return pa.table(
        {
            "node_id": list(acc),
            "canonical": [a["canonical"] for a in acc.values()],
            "type": [a["type"] for a in acc.values()],
            "aliases": [sorted(a["aliases"]) for a in acc.values()],
            "n_mentions": [a["n"] for a in acc.values()],
            "urls": [sorted(a["urls"]) for a in acc.values()],
        },
        schema=PARTIAL_NODES_SCHEMA,
    )


def node_partials_batch(batch: pa.Table, cluster_map: dict) -> pa.Table:
    """mentions batch -> partial per-node aggregates.

    Arrow ``group_by`` (C++) reduces the batch to distinct (type, surface)
    rows first; the Python resolution loop then touches only those.

    DATE mentions become nodes here too, keyed by their parsed ISO value
    (every tagged DATE passed the M9 parseability gate) — edges assign
    DATE objects real ``dst_id`` values, so the nodes table must contain
    matching rows or edge->node joins break referential integrity.
    Deriving them from the SAME mentions read (rather than a second pass
    over triples) keeps the phase at one input scan."""
    keep = pc.is_in(batch.column("type"), pa.array(LINKED_TYPES + ("DATE",)))
    sub = batch.filter(keep)
    g = sub.group_by(["type", "surface"]).aggregate(
        [("url", "count"), ("url", "min"), ("url", "max")]
    )
    acc: dict[int, dict] = {}
    for typ, surface, n, url_min, url_max in zip(
        g.column("type").to_pylist(),
        g.column("surface").to_pylist(),
        g.column("url_count").to_pylist(),
        g.column("url_min").to_pylist(),
        g.column("url_max").to_pylist(),
    ):
        if typ == "DATE":
            nid, canon = _resolve_date(surface)
        else:
            nid, canon = resolve(cluster_map, typ, surface)
        _acc_update(acc, nid, canon, typ, surface, n, url_min, url_max)
    return _acc_to_table(acc)


def node_shard_merge(group: pa.Table) -> pa.Table:
    """Reduce one part of partial node rows -> NODES_SCHEMA rows (one per
    node_id in the part, sorted by node_id — deterministic).  A part holds
    ~n_nodes/parts nodes, so the Python merge runs once per part, never
    once per node (every distinct DATE is a node).

    The per-node url union is capped at MAX_URLS_PER_NODE + 1 as it
    accumulates (keep the lexicographically smallest; min-k is
    associative, so ``urls_sample`` equals the smallest MAX_URLS of the
    full union exactly) — a hub node contributed by 10^5 input blocks must
    not build a 10^5-element set inside one merge task.  ``n_urls`` is
    therefore the distinct urls RETAINED in the bounded sample
    (== MAX_URLS_PER_NODE + 1 signals "more than the sample")."""
    cap = MAX_URLS_PER_NODE + 1
    acc: dict[int, dict] = {}
    for nid, canon, typ, aliases, n, urls in zip(
        group.column("node_id").to_pylist(),
        group.column("canonical").to_pylist(),
        group.column("type").to_pylist(),
        group.column("aliases").to_pylist(),
        group.column("n_mentions").to_pylist(),
        group.column("urls").to_pylist(),
    ):
        a = acc.setdefault(
            nid, {"canonical": canon, "type": typ, "aliases": set(), "n": 0, "urls": set()}
        )
        a["aliases"].update(aliases)
        a["n"] += n
        a["urls"].update(urls)
        if len(a["urls"]) > cap:
            a["urls"] = set(sorted(a["urls"])[:cap])
    nids = sorted(acc)
    return pa.table(
        {
            "node_id": pa.array(nids, pa.int64()),
            "canonical": pa.array([acc[k]["canonical"] for k in nids], pa.string()),
            "type": pa.array([acc[k]["type"] for k in nids], pa.string()),
            "aliases": pa.array(
                [sorted(acc[k]["aliases"])[:MAX_ALIASES_PER_NODE] for k in nids],
                pa.list_(pa.string()),
            ),
            "n_mentions": pa.array([acc[k]["n"] for k in nids], pa.int64()),
            "n_urls": pa.array([len(acc[k]["urls"]) for k in nids], pa.int64()),
            "urls_sample": pa.array(
                [sorted(acc[k]["urls"])[:MAX_URLS_PER_NODE] for k in nids],
                pa.list_(pa.string()),
            ),
        }
    )


@functools.lru_cache(maxsize=8)
def _cached_cluster_map(cluster_map_ref) -> dict:
    """``ray.get`` the broadcast cluster map ONCE per worker process.

    Ray does not cache the deserialized Python dict across ``ray.get``
    calls on the same ref (measured ~1.1 s per call for a 1M-entry map);
    without this, every mentions batch re-unpickles the whole map.  Same
    pattern as :func:`_arrow_maps` (ObjectRefs hash stably)."""
    import ray

    return ray.get(cluster_map_ref)


def _shard_merge_nodes(ds, partial):
    """``partial`` per block, then merge the node rows part-keyed on
    ``node_id`` (the shared tail of :func:`build_nodes` and
    :func:`build_nodes_join`)."""
    return part_keyed_reduce(
        ds,
        partial,
        lambda rows: rows.column("node_id"),
        node_shard_merge,
        PARTIAL_NODES_SCHEMA,
        NODES_SCHEMA,
    )


def build_nodes(mentions_ds, cluster_map_ref):
    """mentions Dataset + broadcast cluster map -> nodes Dataset (linked
    types + DATE, so every edge endpoint has a nodes row)."""

    def partial(batch: pa.Table) -> pa.Table:
        return node_partials_batch(batch, _cached_cluster_map(cluster_map_ref))

    return _shard_merge_nodes(mentions_ds, partial)


# --------------------------------------------------------------------------
# canonical triples (carries node ids so edges need no further lookups)


def canonical_triples(triples_ds, cluster_map_ref):
    """triples Dataset -> triples + (subj/obj canonical, src/dst node id)
    columns — the table the P/R evaluation consumes AND the sole input to
    the edges aggregation (no second broadcast-map pass over raw triples).

    Arrow-native rewrite: the broadcast cluster map is flattened ONCE per
    worker into parallel (key, canonical, node_id) Arrow arrays; per batch
    one ``binary_join_element_wise`` builds the lookup keys and
    ``index_in`` + ``take`` resolve both columns vectorized.  ``take`` on
    an int64 array keeps ids int64 end-to-end (the reason the previous
    pandas version needed a dict loop — ``Series.map`` coerces to float64
    on any miss, rounding 63-bit content ids).  Only misses (DATE objects
    + unresolved singletons) take the per-row ``resolve`` path."""

    def rewrite(batch: pa.Table) -> pa.Table:
        keys_arr, canon_arr, ids_arr = _arrow_maps(cluster_map_ref)

        def map_side(type_col, surface_col, obj_norm_col=None):
            keys = pc.binary_join_element_wise(
                type_col.cast(pa.string()), surface_col.cast(pa.string()), "\x00"
            )
            idx = pc.index_in(keys, value_set=keys_arr)
            canon = pc.take(canon_arr, idx)
            ids = pc.take(ids_arr, idx)
            miss = np.nonzero(pc.is_null(idx).to_numpy(zero_copy_only=False))[0]
            if len(miss):
                # only the miss rows (DATE objects + unresolved singletons)
                # pay a Python conversion — hit rows stay Arrow
                miss_idx = pa.array(miss, pa.int64())
                canon = canon.to_pylist()
                ids = ids.to_pylist()
                types = type_col.take(miss_idx).to_pylist()
                surfaces = surface_col.take(miss_idx).to_pylist()
                norms = (
                    obj_norm_col.take(miss_idx).to_pylist()
                    if obj_norm_col is not None
                    else [""] * len(miss)
                )
                for j, i in enumerate(miss):
                    nid, c = resolve({}, types[j], surfaces[j], norms[j] or "")
                    canon[i] = c
                    ids[i] = nid
                return pa.array(canon, pa.string()), pa.array(ids, pa.int64())
            return canon.cast(pa.string()), ids.cast(pa.int64())

        subj_canon, src_id = map_side(
            batch.column("subj_type").combine_chunks(),
            batch.column("subj").combine_chunks(),
        )
        obj_canon, dst_id = map_side(
            batch.column("obj_type").combine_chunks(),
            batch.column("obj").combine_chunks(),
            batch.column("obj_norm").combine_chunks(),
        )
        return (
            batch.append_column("subj_canonical", subj_canon)
            .append_column("obj_canonical", obj_canon)
            .append_column("src_id", src_id)
            .append_column("dst_id", dst_id)
        )

    return triples_ds.map_batches(rewrite, batch_format="pyarrow")


@functools.lru_cache(maxsize=8)
def _arrow_maps(cluster_map_ref):
    """Flatten the broadcast cluster map into parallel (keys, canonical,
    node_id) Arrow arrays ONCE per worker process (ObjectRefs hash stably;
    ray.get of the same ref is plasma-cached) — the value-set side of the
    per-batch ``index_in`` lookups in :func:`canonical_triples`."""
    import ray

    cluster_map = ray.get(cluster_map_ref)
    keys, canons, ids = [], [], []
    for (t, s), (nid, c) in cluster_map.items():
        keys.append(t + "\x00" + s)
        canons.append(c)
        ids.append(nid)
    return (
        pa.array(keys, pa.string()),
        pa.array(canons, pa.string()),
        pa.array(ids, pa.int64()),
    )


# --------------------------------------------------------------------------
# edges (from the canonical table — ids already resolved)


EDGE_PARTIALS_SCHEMA = pa.schema(
    [
        ("src_id", pa.int64()),
        ("pred", pa.string()),
        ("dst_id", pa.int64()),
        ("src_canonical", pa.string()),
        ("dst_canonical", pa.string()),
        ("weight", pa.int64()),
        ("url_sample", pa.string()),
    ]
)


def edge_partials_batch(batch: pa.Table) -> pa.Table:
    """canonical-triples batch -> partial per-(src, pred, dst) aggregates
    (pure Arrow group_by; no dict lookups needed)."""
    g = batch.group_by(["src_id", "pred", "dst_id", "subj_canonical", "obj_canonical"]).aggregate(
        [("url", "count"), ("url", "min")]
    )
    return pa.table(
        {
            "src_id": g.column("src_id"),
            "pred": g.column("pred"),
            "dst_id": g.column("dst_id"),
            "src_canonical": g.column("subj_canonical"),
            "dst_canonical": g.column("obj_canonical"),
            "weight": g.column("url_count").cast(pa.int64()),
            "url_sample": g.column("url_min"),
        }
    )


def _edge_merge_part(rows: pa.Table) -> pa.Table:
    """One part of edge partials -> EDGES_SCHEMA rows: per (src, pred, dst)
    the summed weight and the smallest canonicals and url, in one Arrow
    ``group_by``."""
    g = rows.group_by(["src_id", "pred", "dst_id"]).aggregate(
        [
            ("weight", "sum"),
            ("src_canonical", "min"),
            ("dst_canonical", "min"),
            ("url_sample", "min"),
        ]
    )
    urls = g.column("url_sample_min").combine_chunks()
    offsets = pa.array(np.arange(len(urls) + 1, dtype=np.int32))
    return pa.table(
        [
            g.column("src_id"),
            g.column("src_canonical_min"),
            g.column("pred"),
            g.column("dst_id"),
            g.column("dst_canonical_min"),
            g.column("weight_sum"),
            pa.ListArray.from_arrays(offsets, urls),
        ],
        schema=EDGES_SCHEMA,
    )


def build_edges_from_canonical(canonical_ds):
    """canonical-triples Dataset -> edges Dataset.

    Part-keyed on ``src_id ^ dst_id`` (both endpoints, so a hub entity's
    edges spread over many parts): Arrow ``group_by`` partials per block,
    then one Arrow ``group_by`` per part — no per-group Python call (with
    tens of thousands of edge groups that measured 28 s of a 300k-page
    run) and no sort on the three group keys."""
    return part_keyed_reduce(
        canonical_ds,
        edge_partials_batch,
        lambda rows: pc.bit_wise_xor(rows.column("src_id"), rows.column("dst_id")),
        _edge_merge_part,
        EDGE_PARTIALS_SCHEMA,
        EDGES_SCHEMA,
    )


# --------------------------------------------------------------------------
# join-based rewrites (the 10^8+-distinct-surface P4: the surface map is a
# DATASET side of a hash-shuffle join, never broadcast)


def _sm_renamed(surface_map_ds, type_col: str, surface_col: str, id_col: str, canon_col: str):
    return surface_map_ds.select_columns(["type", "surface", "node_id", "canonical"]).rename_columns(
        {"type": type_col, "surface": surface_col, "node_id": id_col, "canonical": canon_col}
    )


def canonical_triples_join(triples_ds, surface_map_ds, num_partitions: int | None = None):
    """triples ⋈ surface map on (type, surface) for both sides — the
    shuffle alternative to :func:`canonical_triples`'s broadcast-map
    rewrite, for surface universes too large to ``ray.put``.

    BOTH sides LEFT-join and the misses route through the same
    :func:`resolve` fallback the broadcast path uses ("never invent,
    never drop"): object misses are DATE objects (canonicalized by parsed
    ISO value) and unresolved singletons; subject misses should not occur
    (every subject is an observed linked surface) but if the invariant is
    ever violated the row resolves to a singleton node instead of being
    silently dropped — exactly what :func:`canonical_triples` does.
    Output rows are identical to the broadcast path (tested).
    """
    n_part = num_partitions or _join_parts()
    j = triples_ds.join(
        _sm_renamed(surface_map_ds, "subj_type", "subj", "src_id", "subj_canonical"),
        join_type="left_outer",
        num_partitions=n_part,
        on=("subj_type", "subj"),
    ).join(
        _sm_renamed(surface_map_ds, "obj_type", "obj", "dst_id", "obj_canonical"),
        join_type="left_outer",
        num_partitions=n_part,
        on=("obj_type", "obj"),
    )

    def fill_misses(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "obj_canonical" not in batch.column_names:
            return batch

        def fill_side(canon_name, id_name, type_name, surface_name, norm_name):
            canon_col = batch.column(canon_name).combine_chunks()
            # fast path: no join misses on this side (the common case —
            # misses are only DATE objects / unresolved singletons), so
            # the columns pass through zero-copy, no Python round-trip
            if not pc.any(pc.is_null(canon_col)).as_py():
                return (
                    canon_col.cast(pa.string()),
                    batch.column(id_name).combine_chunks().cast(pa.int64()),
                )
            canon = canon_col.to_pylist()
            ids = batch.column(id_name).to_pylist()
            types = batch.column(type_name).to_pylist()
            surfaces = batch.column(surface_name).to_pylist()
            norms = (
                batch.column(norm_name).to_pylist()
                if norm_name is not None
                else [""] * batch.num_rows
            )
            for i, c in enumerate(canon):
                if c is None:
                    nid, cc = resolve({}, types[i], surfaces[i], norms[i] or "")
                    canon[i] = cc
                    ids[i] = nid
            return pa.array(canon, pa.string()), pa.array(ids, pa.int64())

        subj_canon, src_ids = fill_side("subj_canonical", "src_id", "subj_type", "subj", None)
        obj_canon, dst_ids = fill_side("obj_canonical", "dst_id", "obj_type", "obj", "obj_norm")
        batch = batch.drop_columns(["subj_canonical", "src_id", "obj_canonical", "dst_id"])
        return (
            batch.append_column("subj_canonical", subj_canon)
            .append_column("src_id", src_ids)
            .append_column("obj_canonical", obj_canon)
            .append_column("dst_id", dst_ids)
        )

    return j.map_batches(fill_misses, batch_format="pyarrow")


def build_nodes_join(mentions_ds, surface_map_ds, num_partitions: int | None = None):
    """mentions ⋈ surface map -> nodes Dataset, no broadcast: the shuffle
    alternative to :func:`build_nodes`.  DATE mentions miss the left join
    and resolve by parsed ISO value, exactly like the broadcast path."""
    n_part = num_partitions or _join_parts()
    keep_types = LINKED_TYPES + ("DATE",)

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type" not in batch.column_names:
            return batch
        return batch.filter(pc.is_in(batch.column("type"), pa.array(keep_types)))

    joined = mentions_ds.map_batches(prefilter, batch_format="pyarrow").join(
        _sm_renamed(surface_map_ds, "type", "surface", "node_id", "canonical"),
        join_type="left_outer",
        num_partitions=n_part,
        on=("type", "surface"),
    )

    def partial(batch: pa.Table) -> pa.Table:
        """Per-batch combiner over joined rows (node id/canonical already
        columns; misses = DATE / unresolved, filled via resolve).  Shares
        the acc fold/emit with :func:`node_partials_batch` — only the
        (node_id, canonical) source differs (join columns vs map)."""
        g = batch.group_by(["type", "surface", "node_id", "canonical"]).aggregate(
            [("url", "count"), ("url", "min"), ("url", "max")]
        )
        acc: dict[int, dict] = {}
        for typ, surface, nid, canon, n, url_min, url_max in zip(
            g.column("type").to_pylist(),
            g.column("surface").to_pylist(),
            g.column("node_id").to_pylist(),
            g.column("canonical").to_pylist(),
            g.column("url_count").to_pylist(),
            g.column("url_min").to_pylist(),
            g.column("url_max").to_pylist(),
        ):
            if canon is None:
                if typ == "DATE":
                    nid, canon = _resolve_date(surface)
                else:
                    nid, canon = resolve({}, typ, surface)
            _acc_update(acc, nid, canon, typ, surface, n, url_min, url_max)
        return _acc_to_table(acc)

    return _shard_merge_nodes(joined, partial)
