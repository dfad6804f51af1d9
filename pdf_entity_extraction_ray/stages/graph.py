"""Stage 5: graph materialization — nodes / edges Parquet tables.

The Ray-native rendering of the reference's merged EntitiesDict
(src/ollama_entity_extraction/data_model/EntitiesDict.py:27-32: alias
mention lists folded under a representative surface) plus the new
triples->edges rewrite the north_rule requires.

The surface map is one Arrow table, (type, surface, node_id, canonical),
from linking to the rewrites.  A row gets its (node_id, canonical)
columns by lookup (:func:`_attach`: ``index_in`` + ``take`` against the
map's keys, an in-memory hash join, the map being the small side by
construction) or, in the scale plan, by a left join against the
surface-map Parquet.  Both then run the same miss fill
(:func:`fill_misses`: DATE values and unresolved singletons).

Nodes and edges are associative folds (sums, mins and min-k), so their
partials are keyed by SURFACE, not by node id, and never depend on the
map: per (type, surface) the mention count and the smallest
``MAX_URLS_PER_NODE + 1`` urls (:func:`surface_partials`), per raw triple
key the url count and the min url (:func:`triple_partials`).  The
pipeline's explodes write them per block beside their output.  The driver
plan relabels every generation's partials through the map and folds them
into nodes (:func:`build_nodes`) and edges (:func:`fold_edges`), and
rewrites triples batch by batch (:func:`canonical_triples`), in one
process with no Ray execution.  A new representative changes a node id
but no partial, so an append never retracts one; per-block partials move
one row per surface per block, however skewed the mentions (the
head-entity treatment of SURVEY §4).

The scale plan's forms, :func:`build_nodes_join` and
:func:`build_edges_from_canonical`, run on Datasets end to end and
aggregate with the part-keyed reduce shared with linking
(``stages/linking.part_keyed_reduce``): a per-block partial, a small-int
``part`` column hashed from the group key, then one vectorized merge per
part.  Edges hash on ``src_id ^ dst_id`` so a hub entity's edges spread
over its neighbours' parts instead of piling onto one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dates import parse_date
from .linking import LINKED_TYPES, _join_parts, _surface_keys, node_id_of, part_keyed_reduce
from .relations import TRIPLES_SCHEMA

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


def resolve(typ: str, surface: str, obj_norm: str | None = None) -> tuple[int, str]:
    """(type, surface) the surface map does not hold -> (node_id, canonical).

    DATE entities canonicalize by parsed ISO value (``obj_norm`` when the
    relation extractor already parsed it, else the surface parsed here) —
    the deterministic analog of the reference's dateparser normalization
    (src/methods/DateParser.py:44-50); any other miss is a singleton node
    (never invent, never drop)."""
    if typ == "DATE":
        if obj_norm is None:
            parsed = parse_date(surface)
            obj_norm = parsed.isoformat() if parsed else ""
        canon = obj_norm or surface
        return node_id_of("DATE", canon), canon
    return node_id_of(typ, surface), surface


def fill_misses(rows: pa.Table, id_col, canon_col, type_col, surface_col, norm_col=None):
    """Resolve the rows whose ``canon_col`` is null — surface-map misses:
    DATE values and unresolved singletons — through :func:`resolve`; hit
    rows stay Arrow.  The one miss path of both rewrite plans: the
    (id, canonical) columns come from the map lookup (:func:`_attach`) or
    from a left join."""
    canon = rows.column(canon_col).combine_chunks().cast(pa.string())
    ids = rows.column(id_col).combine_chunks().cast(pa.int64())
    miss = pc.is_null(canon)
    if pc.any(miss).as_py():
        idx = pc.indices_nonzero(miss)
        norms = rows.column(norm_col).take(idx).to_pylist() if norm_col else [None] * len(idx)
        keys = list(
            zip(
                rows.column(type_col).take(idx).to_pylist(),
                rows.column(surface_col).take(idx).to_pylist(),
                norms,
            )
        )
        resolved = {k: resolve(*k) for k in set(keys)}  # misses repeat (DATE values)
        filled = [resolved[k] for k in keys]
        ids = pc.replace_with_mask(ids, miss, pa.array([f[0] for f in filled], pa.int64()))
        canon = pc.replace_with_mask(canon, miss, pa.array([f[1] for f in filled], pa.string()))
    rows = rows.set_column(rows.schema.get_field_index(id_col), id_col, ids)
    return rows.set_column(rows.schema.get_field_index(canon_col), canon_col, canon)


def map_lookup(surface_map: pa.Table) -> tuple:
    """The surface map as an ``index_in`` value set: ``type\\0surface``
    keys with the node_id and canonical columns."""
    return (
        _surface_keys(surface_map),
        surface_map.column("node_id").combine_chunks(),
        surface_map.column("canonical").combine_chunks(),
    )


def _attach(rows: pa.Table, lookup, type_col, surface_col, id_col, canon_col):
    """Append ``canon_col`` and ``id_col`` looked up in the surface map
    (its :func:`map_lookup`) by (``type_col``, ``surface_col``); null
    where the map has no entry."""
    keys, ids, canons = lookup
    idx = pc.index_in(
        pc.binary_join_element_wise(
            rows.column(type_col).combine_chunks().cast(pa.string()),
            rows.column(surface_col).combine_chunks().cast(pa.string()),
            "\x00",
        ),
        value_set=keys,
    )
    return rows.append_column(canon_col, pc.take(canons, idx)).append_column(
        id_col, pc.take(ids, idx)
    )


# --------------------------------------------------------------------------
# nodes


def _node_rows(batch: pa.Table) -> pa.Table:
    """Mentions of the types that become nodes: the linked types, and DATE
    — edges assign DATE objects real ``dst_id`` values, so the nodes table
    must hold matching rows or edge->node joins break referential
    integrity.  Taking them from the SAME mentions read (rather than a
    second pass over triples) keeps the phase at one input scan."""
    if batch.num_rows == 0 or "type" not in batch.column_names:
        return batch
    return batch.filter(pc.is_in(batch.column("type"), pa.array(LINKED_TYPES + ("DATE",))))


def _min_k(node_ids, values, k: int) -> pa.ListArray:
    """(node_id, value) pairs -> per distinct node_id, ascending, its ``k``
    smallest distinct values, ascending."""
    t = (
        pa.table({"node_id": node_ids, "value": values})
        .group_by(["node_id", "value"])
        .aggregate([])
        .sort_by([("node_id", "ascending"), ("value", "ascending")])
    )
    ids = t.column("node_id").to_numpy()
    new = np.ones(len(ids), bool)
    new[1:] = ids[1:] != ids[:-1]
    first = np.flatnonzero(new)
    sizes = np.diff(np.r_[first, len(ids)])
    keep = np.arange(len(ids)) - np.repeat(first, sizes) < k
    offsets = np.r_[0, np.cumsum(np.minimum(sizes, k))].astype(np.int32)
    return pa.ListArray.from_arrays(
        pa.array(offsets), t.column("value").combine_chunks().filter(pa.array(keep))
    )


def _fold_nodes(rows: pa.Table, aliases, urls) -> pa.Table:
    """Rows with (node_id, canonical, type, n_mentions) plus (node_id, alias)
    and (node_id, url) pairs -> one PARTIAL_NODES_SCHEMA row per node_id,
    ascending: mentions summed, the smallest MAX_ALIASES_PER_NODE aliases
    and MAX_URLS_PER_NODE + 1 urls.  The node partial and the node merge
    are both this fold; min-k of a union is associative, so the merged
    row is the same however the mentions were split into blocks."""
    g = (
        rows.group_by("node_id")
        .aggregate([("canonical", "min"), ("type", "min"), ("n_mentions", "sum")])
        .sort_by("node_id")
    )
    return pa.table(
        [
            g.column("node_id"),
            g.column("canonical_min"),
            g.column("type_min"),
            _min_k(*aliases, MAX_ALIASES_PER_NODE),
            g.column("n_mentions_sum"),
            _min_k(*urls, MAX_URLS_PER_NODE + 1),
        ],
        schema=PARTIAL_NODES_SCHEMA,
    )


def node_partials_batch(rows: pa.Table) -> pa.Table:
    """Node-type mention rows with their ``node_id``/``canonical`` columns
    (null where the surface map has no entry) -> partial per-node rows:
    the join plan's node partial.

    Arrow ``group_by`` reduces the batch to distinct (surface, url) rows
    first, so only the misses among those (DATE surfaces, resolved by
    parsed ISO value, and unresolved singletons) take a Python call."""
    d = rows.group_by(["type", "surface", "node_id", "canonical", "url"]).aggregate(
        [([], "count_all")]
    )
    d = d.rename_columns(["n_mentions" if c == "count_all" else c for c in d.column_names])
    d = fill_misses(d, "node_id", "canonical", "type", "surface")
    ids = d.column("node_id")
    return _fold_nodes(d, (ids, d.column("surface")), (ids, d.column("url")))


# per-(type, surface) partials of the node-type mentions, written per block
# by the mentions explode: the mention count and the smallest
# MAX_URLS_PER_NODE + 1 distinct urls
SURFACE_PARTIALS_SCHEMA = pa.schema(
    [
        ("type", pa.string()),
        ("surface", pa.string()),
        ("n_mentions", pa.int64()),
        ("urls", pa.list_(pa.string())),
    ]
)


def surface_partials(mentions: pa.Table) -> pa.Table:
    """Mention rows (type, surface, url) -> one SURFACE_PARTIALS_SCHEMA row
    per node-type (type, surface), sorted.  Min-k of a union is
    associative, so the partials of any block split fold to the same
    nodes."""
    rows = _node_rows(mentions)
    if rows.num_rows == 0:
        return SURFACE_PARTIALS_SCHEMA.empty_table()
    g = (
        rows.group_by(["type", "surface"])
        .aggregate([([], "count_all")])
        .sort_by([("type", "ascending"), ("surface", "ascending")])
    )
    # each mention's group index, ascending with g's rows
    group = pc.index_in(_surface_keys(rows), value_set=_surface_keys(g)).cast(pa.int64())
    urls = _min_k(group, rows.column("url").combine_chunks(), MAX_URLS_PER_NODE + 1)
    return pa.table(
        [g.column("type"), g.column("surface"), g.column("count_all").cast(pa.int64()), urls],
        schema=SURFACE_PARTIALS_SCHEMA,
    )


def fold_surface_partials(partials: pa.Table, lookup) -> pa.Table:
    """SURFACE_PARTIALS_SCHEMA rows -> PARTIAL_NODES_SCHEMA rows: each
    surface relabeled through the map (its :func:`map_lookup`) and the
    misses filled, then folded by node id."""
    rows = _attach(partials, lookup, "type", "surface", "node_id", "canonical")
    rows = fill_misses(rows, "node_id", "canonical", "type", "surface")
    ids = rows.column("node_id")
    urls = rows.column("urls").combine_chunks()
    return _fold_nodes(
        rows,
        (ids, rows.column("surface")),
        (pc.take(ids, pc.list_parent_indices(urls)), pc.list_flatten(urls)),
    )


def node_shard_merge(group: pa.Table) -> pa.Table:
    """Partial node rows -> NODES_SCHEMA rows (one per node_id, ascending —
    deterministic), by the same fold as the partials.  ``urls_sample`` is
    exactly the node's smallest MAX_URLS_PER_NODE urls and ``n_urls`` the
    distinct urls retained (MAX_URLS_PER_NODE + 1 signals "more than the
    sample") — a hub node contributed by 10^5 input blocks never holds
    more than that per partial row."""

    def pairs(col):
        lists = group.column(col).combine_chunks()
        ids = pc.take(group.column("node_id"), pc.list_parent_indices(lists))
        return ids, pc.list_flatten(lists)

    t = _fold_nodes(group, pairs("aliases"), pairs("urls"))
    urls = t.column("urls")
    return pa.table(
        [
            *t.select(["node_id", "canonical", "type", "aliases", "n_mentions"]).columns,
            pc.list_value_length(urls).cast(pa.int64()),
            pc.list_slice(urls, 0, MAX_URLS_PER_NODE),
        ],
        schema=NODES_SCHEMA,
    )


def build_nodes(partials, lookup) -> pa.Table:
    """Tables of SURFACE_PARTIALS_SCHEMA rows (e.g. one per generation) ->
    the NODES_SCHEMA table, on the driver: each table is relabeled and
    folded on its own, then the folds are merged."""
    folded = [PARTIAL_NODES_SCHEMA.empty_table()]
    folded += [fold_surface_partials(t, lookup) for t in partials]
    return node_shard_merge(pa.concat_tables(folded))


def _node_part_key(rows: pa.Table):
    return rows.column("node_id")


# --------------------------------------------------------------------------
# canonical triples (carries node ids so edges need no further lookups)

_CANONICAL_COLUMNS = ["subj_canonical", "obj_canonical", "src_id", "dst_id"]
# the canonical-triples table the pipeline writes: the triples, their
# bucket (read from the triples' hive paths) and the canonical columns
CANONICAL_TRIPLES_SCHEMA = pa.schema(
    [
        *TRIPLES_SCHEMA,
        ("bucket", pa.string()),
        ("subj_canonical", pa.string()),
        ("obj_canonical", pa.string()),
        ("src_id", pa.int64()),
        ("dst_id", pa.int64()),
    ]
)


def _fill_triples(batch: pa.Table) -> pa.Table:
    """Both endpoints' misses through :func:`fill_misses`, canonical
    columns last in one order — the shared tail of both triple rewrites.
    Subjects have no parsed value (no pattern has a DATE subject)."""
    if "obj_canonical" not in batch.column_names:
        return batch  # an empty join block carries no schema
    batch = fill_misses(batch, "src_id", "subj_canonical", "subj_type", "subj")
    batch = fill_misses(batch, "dst_id", "obj_canonical", "obj_type", "obj", "obj_norm")
    rest = [c for c in batch.column_names if c not in _CANONICAL_COLUMNS]
    return batch.select(rest + _CANONICAL_COLUMNS)


def canonical_rows(batch: pa.Table, lookup) -> pa.Table:
    """Triple rows (raw or partial) + the map's :func:`map_lookup` -> the
    rows with (subj/obj canonical, src/dst node id) columns last.  Both
    endpoints resolve by ``index_in`` + ``take`` (ids stay int64 end to
    end); only misses take the per-row :func:`resolve` path."""
    batch = _attach(batch, lookup, "subj_type", "subj", "src_id", "subj_canonical")
    batch = _attach(batch, lookup, "obj_type", "obj", "dst_id", "obj_canonical")
    return _fill_triples(batch)


def canonical_triples(triples: pa.Table, lookup) -> pa.Table:
    """Triple rows with their ``bucket`` + the map's :func:`map_lookup` ->
    CANONICAL_TRIPLES_SCHEMA rows, by :func:`canonical_rows`: the table
    the P/R evaluation consumes."""
    rows = canonical_rows(triples, lookup).select(CANONICAL_TRIPLES_SCHEMA.names)
    return rows.cast(CANONICAL_TRIPLES_SCHEMA)


# --------------------------------------------------------------------------
# edges


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

# the raw triple key: edges partials that never depend on the surface map
TRIPLE_KEYS = ["subj_type", "subj", "pred", "obj_type", "obj", "obj_norm"]
# per-raw-triple-key partials, written per block by the triples explode
TRIPLE_PARTIALS_SCHEMA = pa.schema(
    [*((k, pa.string()) for k in TRIPLE_KEYS), ("weight", pa.int64()), ("url_sample", pa.string())]
)


def triple_partials(triples: pa.Table) -> pa.Table:
    """Triple rows -> one TRIPLE_PARTIALS_SCHEMA row per raw triple key:
    its url count and min url."""
    if triples.num_rows == 0:
        return TRIPLE_PARTIALS_SCHEMA.empty_table()
    g = triples.group_by(TRIPLE_KEYS).aggregate([("url", "count"), ("url", "min")])
    return pa.table(
        [*g.select(TRIPLE_KEYS).columns, g.column("url_count").cast(pa.int64()), g.column("url_min")],
        schema=TRIPLE_PARTIALS_SCHEMA,
    )


def _edge_rows(rows: pa.Table, weight: tuple[str, str], url: str) -> pa.Table:
    """Canonical triple rows (or partials) -> EDGE_PARTIALS_SCHEMA rows,
    one per (src, pred, dst), by one Arrow ``group_by``: the ``weight``
    (column, aggregation) pair, and the min ``url`` and canonicals."""
    col, how = weight
    g = rows.group_by(["src_id", "pred", "dst_id"]).aggregate(
        [weight, ("subj_canonical", "min"), ("obj_canonical", "min"), (url, "min")]
    )
    return pa.table(
        [
            g.column("src_id"),
            g.column("pred"),
            g.column("dst_id"),
            g.column("subj_canonical_min"),
            g.column("obj_canonical_min"),
            g.column(f"{col}_{how}").cast(pa.int64()),
            g.column(f"{url}_min"),
        ],
        schema=EDGE_PARTIALS_SCHEMA,
    )


def edge_partials_batch(batch: pa.Table) -> pa.Table:
    """canonical-triples batch -> partial per-(src, pred, dst) aggregates
    (pure Arrow group_by; no lookups needed)."""
    return _edge_rows(batch, ("url", "count"), "url")


def fold_triple_partials(partials: pa.Table, lookup) -> pa.Table:
    """TRIPLE_PARTIALS_SCHEMA rows -> EDGE_PARTIALS_SCHEMA rows: both
    endpoints relabeled through the map (its :func:`map_lookup`) and the
    misses filled, then folded by (src, pred, dst)."""
    return _edge_rows(canonical_rows(partials, lookup), ("weight", "sum"), "url_sample")


def _edge_merge_part(rows: pa.Table) -> pa.Table:
    """Edge partials -> EDGES_SCHEMA rows: per (src, pred, dst) the summed
    weight and the smallest canonicals and url, in one Arrow
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


def fold_edges(partials, lookup) -> pa.Table:
    """Tables of TRIPLE_PARTIALS_SCHEMA rows (e.g. one per generation) ->
    the EDGES_SCHEMA table, on the driver: each table is relabeled and
    folded on its own, then the folds are merged."""
    folded = [EDGE_PARTIALS_SCHEMA.empty_table()]
    folded += [fold_triple_partials(t, lookup) for t in partials]
    return _edge_merge_part(pa.concat_tables(folded))


def _edge_part_key(rows: pa.Table):
    return pc.bit_wise_xor(rows.column("src_id"), rows.column("dst_id"))


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
        _edge_part_key,
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
    shuffle alternative to :func:`canonical_triples`' lookup, for surface
    universes too large to hold on the driver.

    BOTH sides LEFT-join and the misses take the same fill as the
    lookup path (:func:`_fill_triples`, "never invent, never drop"), so
    output rows are identical to it (tested).
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
    return j.map_batches(_fill_triples, batch_format="pyarrow")


def build_nodes_join(mentions_ds, surface_map_ds, num_partitions: int | None = None):
    """mentions ⋈ surface map -> nodes Dataset (linked types + DATE, so
    every edge endpoint has a nodes row): the shuffle alternative to
    :func:`build_nodes`.  A node partial per block, then the node rows
    merged part-keyed on ``node_id``."""
    joined = mentions_ds.map_batches(_node_rows, batch_format="pyarrow").join(
        _sm_renamed(surface_map_ds, "type", "surface", "node_id", "canonical"),
        join_type="left_outer",
        num_partitions=num_partitions or _join_parts(),
        on=("type", "surface"),
    )
    return part_keyed_reduce(
        joined, node_partials_batch, _node_part_key, node_shard_merge,
        PARTIAL_NODES_SCHEMA, NODES_SCHEMA,
    )
