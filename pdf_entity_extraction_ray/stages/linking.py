"""Stage 4: entity linking / canonicalization (the wide shuffle step).

Ray-native re-expression of the reference's entity resolution (D2,
src/ollama_entity_extraction/OllamaNERExtractor.py:122-184): the reference
grows transitive similarity groups with an O(n^2) pairwise pass over ALL
surface forms and consolidates each group with an LLM call.  Here:

1. **distinct surfaces** — each mentions block is pre-aggregated by an
   Arrow ``group_by`` partial count (the combiner), hashed on
   (type, surface) into a small-int ``part``, and each part is summed by
   one more Arrow ``group_by`` (:func:`part_keyed_reduce`) — the shuffle
   moves one row per distinct (type, surface) per block, not one per
   mention, and sorts only the part key.  This is the G1 head-skew
   treatment: a surface mentioned 10^9 times still ships one row.
2. **blocking** — each distinct surface emits a handful of block keys
   (folded words, sorted-word key M20, MinHash-LSH bands over char shingles
   for typo recall).  Only pairs sharing a block are tested — the LSH
   replacement for the reference's all-pairs loop.
3. **pair test** — within each block (``groupby(block).map_groups``), the
   EXACT reference predicates decide edges: Levenshtein ratio > 0.79 OR
   word-intersection > 0.65 (OllamaNERExtractor.py:122-126), plus the
   subset rule M21 (check_heuristics.py:63-97) and abbreviation rule M22
   (check_heuristics.py:175-226).  Oversized blocks (stop-word-like keys)
   are skipped, mirroring LSH banding's intent; the words that matter for
   recall also appear in smaller, rarer blocks.
4. **components** — two plans with identical output and one kernel.
   Each labels the linked surfaces so that surfaces the similar pairs
   connect share a label: the driver plan (``block_index`` hands the
   driver each block's similar pairs and writes each block's members to
   disk) by union-find in ``link_entities``; the scale plan
   (``link_entities_distributed``) by BSP min-label propagation
   (``label_propagation_components``), joined once onto the distinct
   table, so neither the surface universe nor the edges ever land on the
   driver — the 10^8+-distinct-surface route.  Either way
   :func:`_cluster_assign_partition` turns the labeled rows into the
   surface map under the A9 contract.
5. **appends** — the driver path's :class:`BlockIndex` persists;
   ``extend_index`` block-keys only an append's new surfaces, reads the
   stored members of just the blocks they touch, and tests only the pairs
   with a new member, retracting the stored pairs of a block that grows
   past ``MAX_BLOCK``.  Membership only grows, so the extended index
   equals a full pass over the union.

Representative selection replaces the LLM judge (A9) with the
deterministic "most complete name" contract the prompts encode
(OllamaNameExtractor.py:16-20): most words (punctuation-stripped), then
longest, then lexicographically smallest; never invents a surface.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.similarity import MinHasher, UnionFind, char_shingles
from ..functions.textnorm import (
    abbreviation_expands_to,
    ascii_fold,
    strip_punct,
    surface_norm,
    surfaces_similar,
    words_subset_merge_key,
)

# Types that participate in surface-form linking.  DATE canonicalizes by
# parsed ISO value (functions/dates.py), not by string similarity.
LINKED_TYPES = ("PERSON", "ORG", "GPE", "LAW")

# Blocks larger than this are skipped in the pair test (head / stop-word
# keys — the scale guard; recall is preserved by the rarer keys).
MAX_BLOCK = 200

MINHASH_PERMS = 64
LSH_BANDS = 16  # 4 rows/band: catches Jaccard >~0.5 char-shingle pairs


def node_id_of(type_: str, canonical: str) -> int:
    """Content-derived node id — stable across runs / partitions / retries."""
    key = f"{type_}\x00{canonical}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little") & 0x7FFFFFFFFFFFFFFF


def representative(surfaces: list[str]) -> str:
    """Deterministic 'most complete name': most words, longest, lex-smallest."""
    return max(surfaces, key=lambda s: (len(strip_punct(s).split()), len(s), [-ord(c) for c in s]))


# --------------------------------------------------------------------------
# step 1: partial distinct-surface aggregation (the combiner)


def partial_surface_counts(batch: pa.Table) -> pa.Table:
    """mentions batch -> one row per (type, surface) with partial count."""
    sub = batch.select(["type", "surface"])
    grouped = sub.group_by(["type", "surface"]).aggregate([([], "count_all")])
    return pa.table(
        {
            "type": grouped.column("type"),
            "surface": grouped.column("surface"),
            "n": grouped.column("count_all").cast(pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# step 2: blocking keys


@functools.lru_cache(maxsize=4)
def _cached_hasher(num_perm: int, seed: int) -> MinHasher:
    """Per-process MinHasher (cheap to build, process-cached so plain map
    TASKS reuse it — no actor pool / startup cost for this stage)."""
    return MinHasher(num_perm=num_perm, seed=seed)


class BlockKeyer:
    """Distinct-surface rows -> exploded (block, type, surface) rows.

    Plain-function-shaped (used with task-pool ``map_batches`` via
    :func:`block_keys_batch`); the MinHash table is process-cached."""

    def __init__(self, num_perm: int = MINHASH_PERMS, bands: int = LSH_BANDS, seed: int = 42):
        self.hasher = _cached_hasher(num_perm, seed)
        self.bands = bands

    def keys_for(self, surface: str) -> set[str]:
        norm = surface_norm(surface)
        keys: set[str] = set()
        # word keys (catch subset M21 / abbreviation M22 / word-permutation
        # M20 / accent M19 pairs — any shared informative word blocks them)
        for w in norm.split():
            if len(w) >= 3:
                keys.add("w:" + w)
        # sorted-word key (word-order permutations even of short words)
        keys.add("s:" + " ".join(sorted(norm.split())))
        # LSH bands over char shingles (typos within Levenshtein > 0.79)
        sig = self.hasher.signature(char_shingles(norm, 3))
        for bk in self.hasher.band_keys(sig, self.bands):
            keys.add("b:" + bk)
        return keys

    def __call__(self, batch: pa.Table) -> pa.Table:
        types = batch.column("type").to_pylist()
        surfaces = batch.column("surface").to_pylist()
        out_block: list[str] = []
        out_type: list[str] = []
        out_surface: list[str] = []
        for typ, surface in zip(types, surfaces):
            if typ not in LINKED_TYPES:
                continue
            for key in self.keys_for(surface):
                out_block.append(f"{typ}|{key}")
                out_type.append(typ)
                out_surface.append(surface)
        return pa.table(
            {
                "block": pa.array(out_block, pa.string()),
                "type": pa.array(out_type, pa.string()),
                "surface": pa.array(out_surface, pa.string()),
            }
        )


# --------------------------------------------------------------------------
# step 3: within-block pair test (exact reference predicates)


def surfaces_match(a: str, b: str) -> bool:
    """Full merge rule: D2 thresholds OR subset M21 OR abbreviation M22.
    Similarity runs on accent-folded forms (M19) so accent variants pair."""
    fa, fb = ascii_fold(a), ascii_fold(b)
    return (
        surfaces_similar(fa, fb)
        or words_subset_merge_key(a, b)
        or words_subset_merge_key(b, a)
        or abbreviation_expands_to(a, b)
        or abbreviation_expands_to(b, a)
    )


def block_pairs(group: pa.Table) -> pa.Table:
    """One block -> similar-pair edge rows (type, a, b), a < b."""
    types = group.column("type").to_pylist()
    surfaces = sorted(set(group.column("surface").to_pylist()))
    typ = types[0] if types else ""
    out_a: list[str] = []
    out_b: list[str] = []
    if 1 < len(surfaces) <= MAX_BLOCK:
        for i in range(len(surfaces)):
            for j in range(i + 1, len(surfaces)):
                if surfaces_match(surfaces[i], surfaces[j]):
                    out_a.append(surfaces[i])
                    out_b.append(surfaces[j])
    return pa.table(
        {
            "type": pa.array([typ] * len(out_a), pa.string()),
            "a": pa.array(out_a, pa.string()),
            "b": pa.array(out_b, pa.string()),
        }
    )


# --------------------------------------------------------------------------
# step 4: union-find + cluster map (driver-side over the small edge list)


def build_cluster_map(
    edges: list[tuple[str, str, str]],
    all_surfaces: list[tuple[str, str]],
    consolidate=None,
) -> dict[tuple[str, str], tuple[int, str]]:
    """(type, a, b) edges + (type, surface) universe ->
    {(type, surface): (node_id, canonical)}: the dict form of
    :func:`link_entities`, with ``consolidate`` as in
    :func:`_cluster_assign_partition`.  Deterministic: union-find roots
    are order-independent, representatives a pure function of the member
    set."""
    edges = list(edges)
    universe = pa.table(
        [list(col) for col in zip(*all_surfaces)] or [[], []],
        schema=SURFACE_KEYS_SCHEMA,
    )
    pairs = pa.table([list(col) for col in zip(*edges)] or [[], [], []], schema=PAIRS_SCHEMA)
    surface_map = _cluster_assign_partition(_union_find_labels(universe, pairs), consolidate)
    rows = zip(*(surface_map.column(c).to_pylist() for c in SURFACE_MAP_SCHEMA.names))
    return {(t, s): (nid, canon) for t, s, nid, canon in rows}


def _union_find_labels(universe: pa.Table, pairs: pa.Table) -> pa.Table:
    """(type, surface) universe + (type, a, b) similar pairs -> the
    universe's (type, surface, label) rows, on the driver: surfaces the
    pairs connect (also through a surface outside the universe) share a
    label, the index of their union-find root."""
    keys = _surface_keys(universe)
    ends = [
        _surface_keys(pairs.select(["type", end]).rename_columns(SURFACE_KEYS_SCHEMA.names))
        for end in ("a", "b")
    ]
    nodes = pc.unique(pa.concat_arrays([keys, *ends]))
    uf = UnionFind()
    for x, y in zip(*(pc.index_in(e, value_set=nodes).to_pylist() for e in ends)):
        uf.union(x, y)
    labels = [uf.find(i) for i in pc.index_in(keys, value_set=nodes).to_pylist()]
    return pa.table(
        [universe.column("type"), universe.column("surface"), pa.array(labels, pa.int64())],
        schema=LABELED_SCHEMA,
    )


# --------------------------------------------------------------------------
# orchestration (Dataset in, Dataset/driver artifacts out)


def _coarse_parts() -> int:
    """Coarse-partition count for the vectorized group stages: enough for
    full-cluster parallelism + skew smoothing, small enough that per-call
    UDF overhead is negligible."""
    import ray

    return 4 * max(1, int(ray.cluster_resources().get("CPU", 8)))


def part_keyed_reduce(ds, combine, key, reduce, combined_schema, reduced_schema, parts=None):
    """The shared shuffle of the KG stages: ``combine`` each block into
    partial rows (typically one Arrow ``group_by``), tag every row with
    ``part = key(rows) % parts``, group by the small-int ``part`` and call
    ``reduce`` once per part on that part's rows (without ``part``).

    Rows with equal ``key`` always meet in one ``reduce`` call, so ``key``
    must be a function of the reduce's grouping columns, non-negative, and
    equal in every worker process (crc32 or content-derived ids, never
    ``hash()``).  Ray then sorts one int32 column instead of the group
    keys — its sort ``Aggregate`` over (type, surface) took ~1 s per
    execution on a few thousand rows — and ``reduce`` runs ~``parts``
    times, not once per group.

    Empty blocks (an empty shuffle partition carries no schema) combine to
    ``combined_schema``'s empty table and reduce to ``reduced_schema``'s."""
    return (
        ds.map_batches(
            _add_part,
            fn_kwargs={
                "combine": combine, "key": key, "parts": parts or _coarse_parts(),
                "combined_schema": combined_schema,
            },
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(
            _reduce_part,
            fn_kwargs={"reduce": reduce, "reduced_schema": reduced_schema},
            batch_format="pyarrow",
        )
    )


def _add_part(batch: pa.Table, combine, key, parts: int, combined_schema) -> pa.Table:
    """:func:`part_keyed_reduce`'s map: the combined rows of one block, each
    with its ``part``."""
    rows = combine(batch) if batch.num_rows else combined_schema.empty_table()
    part = np.asarray(key(rows), np.int64) % parts
    return rows.append_column("part", pa.array(part.astype(np.int32), pa.int32()))


def _reduce_part(group: pa.Table, reduce, reduced_schema) -> pa.Table:
    """:func:`part_keyed_reduce`'s reduce of one part's rows."""
    if group.num_rows == 0:
        return reduced_schema.empty_table()
    return reduce(group.drop_columns(["part"]))


def _crc32_keys(strings) -> list[int]:
    """Part keys for string group keys.  The hash is CORRECTNESS-critical
    (a group must never split across parts): every worker, retry, and
    environment must agree, so it is stdlib ``zlib.crc32`` —
    environment-independent, unlike lineage.url_buckets' polars xxhash
    (documented stable only within one polars version, with a differing
    blake2b fallback when polars is absent; fine for its PHYSICAL cache
    clustering, not for this).  crc32 is C-speed; at 10^7 rows the loop
    costs well under a second per call."""
    return [zlib.crc32(s.encode("utf-8")) for s in strings]


# the linked surface map: (type, surface) -> (node_id, canonical)
SURFACE_MAP_SCHEMA = pa.schema(
    [
        ("type", pa.string()),
        ("surface", pa.string()),
        ("node_id", pa.int64()),
        ("canonical", pa.string()),
    ]
)
SURFACES_SCHEMA = pa.schema([("type", pa.string()), ("surface", pa.string()), ("n", pa.int64())])
BLOCK_ROWS_SCHEMA = pa.schema(
    [("block", pa.string()), ("type", pa.string()), ("surface", pa.string())]
)
PAIRS_SCHEMA = pa.schema([("type", pa.string()), ("a", pa.string()), ("b", pa.string())])
# a similar pair with the block that yielded it (a pair shared by several
# blocks has one row per block); the block-index reduce also emits each
# membership row in this schema, as (block, type, a=surface, b=null)
BLOCK_PAIRS_SCHEMA = pa.schema([pa.field("block", pa.string()), *PAIRS_SCHEMA])
SURFACE_KEYS_SCHEMA = pa.schema([("type", pa.string()), ("surface", pa.string())])
# surfaces labeled by component: equal labels, one component
LABELED_SCHEMA = SURFACE_KEYS_SCHEMA.append(pa.field("label", pa.int64()))
RETRACTED_SCHEMA = pa.schema([("block", pa.string())])
# rows per row group of the block index's membership files, the unit an
# append's scan of them decodes at a time
MEMBERS_ROW_GROUP = 1 << 16


def _scan_blocks(group: pa.Table) -> tuple[pa.Table, pa.Table, int]:
    """One coarse hash partition (MANY blocks) -> (its rows sorted by
    (block, surface), similar pairs tagged with their block, pair tests
    made).

    Replaces per-block ``map_groups(block_pairs)``: at >10^6 distinct
    surfaces the block-key universe is tens of millions, and Ray's
    map_groups pays one Python UDF call + Arrow table construction PER
    GROUP (~80 us) — measured 25+ min of straggler time at 2M surfaces.
    Grouping by a coarse hash of the block key instead makes group
    detection a vectorized boundary scan inside ~4xCPU partition calls;
    the Python loop runs only over multi-row blocks (the actual work).
    Same pairs, same MAX_BLOCK cap, same within-block ordering as
    :func:`block_pairs` (blocks never split across hash partitions)."""
    tbl = group.sort_by([("block", "ascending"), ("surface", "ascending")])
    codes = pc.dictionary_encode(tbl.column("block").combine_chunks()).indices
    idx = np.asarray(codes)
    starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
    ends = np.r_[starts[1:], len(idx)]
    sizes = ends - starts
    # rows with < 2 entries can't pair; the MAX_BLOCK cap is applied to
    # the DISTINCT surface count inside the loop (block_pairs semantics —
    # duplicate rows must neither self-pair nor inflate the cap)
    keep = sizes >= 2
    if not keep.any():
        return tbl, BLOCK_PAIRS_SCHEMA.empty_table(), 0
    surfaces = tbl.column("surface").to_pylist()
    types = tbl.column("type").to_pylist()
    out_k: list[int] = []  # a row of the pair's block
    out_t: list[str] = []
    out_a: list[str] = []
    out_b: list[str] = []
    tested = 0
    for s, e in zip(starts[keep], ends[keep]):
        # sorted slice -> dict.fromkeys dedups while preserving order
        surs = list(dict.fromkeys(surfaces[s:e]))
        if not (1 < len(surs) <= MAX_BLOCK):
            continue
        tested += len(surs) * (len(surs) - 1) // 2
        typ = types[s]
        for i in range(len(surs)):
            si = surs[i]
            for j in range(i + 1, len(surs)):
                if surfaces_match(si, surs[j]):
                    out_k.append(s)
                    out_t.append(typ)
                    out_a.append(si)
                    out_b.append(surs[j])
    blocks = tbl.column("block").take(pa.array(out_k, pa.int64()))
    pairs = pa.table([blocks, out_t, out_a, out_b], schema=BLOCK_PAIRS_SCHEMA)
    return tbl, pairs, tested


def _block_pairs_partition(group: pa.Table) -> pa.Table:
    """One coarse hash partition -> similar-pair edge rows (type, a, b)."""
    return _scan_blocks(group)[1].drop_columns(["block"])


def _block_index_partition(group: pa.Table, members_dir: str) -> pa.Table:
    """One coarse hash partition -> the similar pairs ``(block, type, a,
    b)`` of its blocks.  Its membership rows go to one Parquet file in
    ``members_dir``, with its pair-test count in the file's metadata, so
    they never pass through the driver.  The file is named by a hash of
    its first block, which no other partition holds, so a retried task
    rewrites the same file."""
    import pyarrow.parquet as pq

    tbl, pairs, tested = _scan_blocks(group)
    name = hashlib.blake2b(tbl.column("block")[0].as_py().encode(), digest_size=8).hexdigest()
    members = tbl.select(BLOCK_ROWS_SCHEMA.names).cast(BLOCK_ROWS_SCHEMA)
    pq.write_table(
        members.replace_schema_metadata({"pairs_tested": str(tested)}),
        os.path.join(members_dir, f"{name}.parquet"),
        row_group_size=MEMBERS_ROW_GROUP,
    )
    return pairs


def candidate_pair_edges(distinct, parts: int | None = None):
    """Distinct-surface Dataset -> (type, a, b) candidate-pair edges via
    LSH/word blocking with coarse-partition vectorized pair generation.
    The distributed path's edge stage; the driver path's
    :func:`block_index` runs the same reduce and keeps each pair's block
    and each block's members too."""
    return _block_reduce(distinct, _block_pairs_partition, PAIRS_SCHEMA, parts)


def _block_reduce(distinct, reduce, reduced_schema, parts=None):
    """Block-key every distinct surface, then ``reduce`` each part of
    whole blocks (the shuffle both linking paths share)."""
    return part_keyed_reduce(
        distinct,
        block_keys_batch,
        _block_part_key,
        reduce,
        BLOCK_ROWS_SCHEMA,
        reduced_schema,
        parts,
    )


def _block_part_key(rows: pa.Table) -> list[int]:
    return _crc32_keys(rows.column("block").to_pylist())


def block_keys_batch(batch: pa.Table) -> pa.Table:
    """Task-pool form of :class:`BlockKeyer` (process-cached hasher)."""
    return BlockKeyer()(batch)


def _surface_part_key(rows: pa.Table) -> list[int]:
    keys = pc.binary_join_element_wise(rows.column("type"), rows.column("surface"), "\x00")
    return _crc32_keys(keys.to_pylist())


def _sum_surface_counts(rows: pa.Table) -> pa.Table:
    g = rows.group_by(["type", "surface"]).aggregate([("n", "sum")])
    return pa.table(
        [g.column("type"), g.column("surface"), g.column("n_sum")], schema=SURFACES_SCHEMA
    )


def distinct_surfaces(mentions_ds):
    """mentions Dataset -> materialized distinct (type, surface, n)
    Dataset — the shared first shuffle of both linking paths, which take
    it as their input (the pipeline reads its count first, to pick the
    plan)."""
    return part_keyed_reduce(
        mentions_ds,
        partial_surface_counts,
        _surface_part_key,
        _sum_surface_counts,
        SURFACES_SCHEMA,
        SURFACES_SCHEMA,
    ).materialize()


@dataclasses.dataclass(frozen=True)
class IndexIncrement:
    """What one link adds to the driver plan's block index, written as
    ``<table>-<part>`` under the index dir:

    - ``surfaces``: the new distinct (type, surface) rows, all types
      (:data:`SURFACE_KEYS_SCHEMA`);
    - ``members``: one ``(block, type, surface)`` row per new linked
      surface and block key (:data:`BLOCK_ROWS_SCHEMA`), a directory of
      Parquet files;
    - ``pairs``: the similar pairs the new members add, a < b
      (:data:`BLOCK_PAIRS_SCHEMA`);
    - ``retracted``: the blocks the new members push past MAX_BLOCK, whose
      stored pairs a full pass would not yield."""

    surfaces: pa.Table
    members: pa.Table
    pairs: pa.Table
    retracted: pa.Table

    def write(self, index_dir: str, part: int) -> None:
        import pyarrow.parquet as pq

        members_dir = os.path.join(index_dir, f"members-{part}")
        os.makedirs(members_dir, exist_ok=True)
        pq.write_table(
            self.members,
            os.path.join(members_dir, "part-0.parquet"),
            row_group_size=MEMBERS_ROW_GROUP,
        )
        _write_tables(index_dir, part, self.surfaces, self.pairs, self.retracted)


def _write_tables(index_dir: str, part: int, surfaces, pairs, retracted) -> None:
    import pyarrow.parquet as pq

    for name, table in (("surfaces", surfaces), ("pairs", pairs), ("retracted", retracted)):
        pq.write_table(table, os.path.join(index_dir, f"{name}-{part}.parquet"))


@dataclasses.dataclass(frozen=True)
class BlockIndex:
    """The driver plan's linking state, kept so an append links only its
    new surfaces (:func:`extend_index`): the increments ``parts`` under
    ``index_dir``.  The driver holds what union-find needs, as for a full
    link: every distinct (type, surface) seen (``surfaces``) and the
    similar pairs of the blocks within MAX_BLOCK (``pairs``).  The
    membership rows, ~10-20 per linked surface, stay on disk; an append
    streams in only those of the blocks it touches (:meth:`member_batches`).

    A block's pairs are a pure function of its member set, so the index
    of a union equals the base index plus what the new members add."""

    index_dir: str
    parts: tuple[int, ...]
    surfaces: pa.Table
    pairs: pa.Table

    def member_batches(self, blocks: pa.Array | None = None):
        """The stored membership rows (of ``blocks`` only, when given), as
        a stream of record batches."""
        import pyarrow.dataset as pads

        files = [
            os.path.join(self.index_dir, f"members-{p}", f)
            for p in self.parts
            for f in sorted(os.listdir(os.path.join(self.index_dir, f"members-{p}")))
        ]
        flt = None if blocks is None else pc.field("block").isin(blocks)
        # one row group in flight, so the scan holds ~MEMBERS_ROW_GROUP
        # rows whatever the index size (Arrow's default readahead held
        # ~150 MB scanning 2*10^6 rows)
        return pads.dataset(files, schema=BLOCK_ROWS_SCHEMA).to_batches(
            filter=flt, batch_readahead=1, fragment_readahead=1
        )

    @classmethod
    def read(cls, index_dir: str, parts) -> BlockIndex | None:
        """The index written as ``parts``; None when any part is missing."""
        import pyarrow.parquet as pq

        def path(name, p):
            return os.path.join(index_dir, f"{name}-{p}.parquet")

        names = ("surfaces", "pairs", "retracted")
        complete = all(
            os.path.isdir(os.path.join(index_dir, f"members-{p}"))
            and all(os.path.isfile(path(n, p)) for n in names)
            for p in parts
        )
        if not parts or not complete:
            return None
        tables = {n: pa.concat_tables(pq.read_table(path(n, p)) for p in parts) for n in names}
        return cls(
            index_dir,
            tuple(parts),
            tables["surfaces"],
            _drop_retracted(tables["pairs"], tables["retracted"].column("block")),
        )


def _drop_retracted(pairs: pa.Table, retracted) -> pa.Table:
    """``pairs`` minus those of blocks past MAX_BLOCK.  A block's stored
    pairs stay in the increment that found them; membership only grows,
    so a retracted block never yields pairs again."""
    return pairs.filter(pc.invert(pc.is_in(pairs.column("block"), value_set=retracted)))


def _nonempty_rows(tables, schema: pa.Schema) -> pa.Table:
    """Concat Ray result blocks, skipping the empty-schema ones a shuffle
    emits for empty partitions."""
    kept = [t.select(schema.names) for t in tables if t.num_rows and schema.names[0] in t.column_names]
    return pa.concat_tables(kept).cast(schema) if kept else schema.empty_table()


def block_index(distinct, index_dir: str) -> tuple[BlockIndex, dict]:
    """:func:`distinct_surfaces` Dataset -> (its :class:`BlockIndex`,
    written as part 0 under ``index_dir``, and linking counts).  One Ray
    execution, the block-pairs reduce: it writes each partition's
    membership rows and hands the driver only the pairs.  The driver also
    collects the universe."""
    import pyarrow.parquet as pq
    import ray

    members_dir = os.path.join(index_dir, "members-0")
    os.makedirs(members_dir, exist_ok=True)
    surfaces = _nonempty_rows((ray.get(r) for r in distinct.to_arrow_refs()), SURFACE_KEYS_SCHEMA)
    reduce = functools.partial(_block_index_partition, members_dir=members_dir)
    pairs = _nonempty_rows(
        _block_reduce(distinct, reduce, BLOCK_PAIRS_SCHEMA).iter_batches(
            batch_format="pyarrow", batch_size=None
        ),
        BLOCK_PAIRS_SCHEMA,
    )
    tested = sum(
        int(pq.read_schema(os.path.join(members_dir, f)).metadata[b"pairs_tested"])
        for f in os.listdir(members_dir)
    )
    _write_tables(index_dir, 0, surfaces, pairs, RETRACTED_SCHEMA.empty_table())
    counts = {"surfaces_keyed": _n_linked(surfaces), "pairs_tested": tested, "blocks_retracted": 0}
    return BlockIndex(index_dir, (0,), surfaces, pairs), counts


def _n_linked(surfaces: pa.Table) -> int:
    return pc.sum(pc.is_in(surfaces.column("type"), pa.array(LINKED_TYPES))).as_py() or 0


def _surface_keys(tbl: pa.Table) -> pa.Array:
    keys = pc.binary_join_element_wise(tbl.column("type"), tbl.column("surface"), "\x00")
    return keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys


def extend_index(index: BlockIndex, seen: pa.Table) -> tuple[BlockIndex, IndexIncrement, dict]:
    """Add the (type, surface) rows of ``seen`` that ``index`` lacks, on
    the driver.  Returns (the index of the union once the increment is
    written as its next part, the increment, linking counts).

    Only the new linked surfaces are block-keyed, and only pairs with a
    new member inside a block they touch are tested; of the stored
    members, only those of the touched blocks are read, up to MAX_BLOCK +
    1 per block.  A block that grows past MAX_BLOCK loses its stored
    pairs, as a full pass would skip it; pairs another block yields stay.
    Membership only grows, so the result equals :func:`block_index` over
    the union."""
    keys = _surface_keys(seen)
    fresh = pc.unique(keys)
    fresh = fresh.filter(pc.invert(pc.is_in(fresh, value_set=_surface_keys(index.surfaces))))
    # each new key's first row in ``seen``
    new = seen.select(SURFACE_KEYS_SCHEMA.names).take(pc.index_in(fresh, value_set=keys))
    new = new.cast(SURFACE_KEYS_SCHEMA).sort_by([("type", "ascending"), ("surface", "ascending")])
    new_members = block_keys_batch(new).cast(BLOCK_ROWS_SCHEMA)
    new_by: dict[str, list[str]] = {}
    types: dict[str, str] = {}
    for b, t, s in zip(*(new_members.column(c).to_pylist() for c in BLOCK_ROWS_SCHEMA.names)):
        new_by.setdefault(b, []).append(s)
        types[b] = t
    old_by: dict[str, list[str]] = {}
    if new_by:
        for batch in index.member_batches(pa.array(list(new_by), pa.string())):
            for b, s in zip(batch.column("block").to_pylist(), batch.column("surface").to_pylist()):
                olds = old_by.setdefault(b, [])
                if len(olds) <= MAX_BLOCK:  # past that, only "too big" matters
                    olds.append(s)
    out: list[tuple[str, str, str, str]] = []
    retracted: list[str] = []
    tested = 0
    for block, news in new_by.items():
        olds = old_by.get(block, [])
        if len(olds) + len(news) > MAX_BLOCK:
            if len(olds) <= MAX_BLOCK:
                retracted.append(block)
            continue
        cands = [(n, o) for n in news for o in olds]
        cands += [(news[i], news[j]) for i in range(len(news)) for j in range(i + 1, len(news))]
        tested += len(cands)
        for x, y in cands:
            a, b = min(x, y), max(x, y)
            if surfaces_match(a, b):
                out.append((block, types[block], a, b))
    increment = IndexIncrement(
        new,
        new_members,
        pa.table(
            [list(col) for col in zip(*out)] if out else [[], [], [], []],
            schema=BLOCK_PAIRS_SCHEMA,
        ),
        pa.table([retracted], schema=RETRACTED_SCHEMA),
    )
    merged = BlockIndex(
        index.index_dir,
        (*index.parts, len(index.parts)),
        pa.concat_tables([index.surfaces, new]),
        _drop_retracted(
            pa.concat_tables([index.pairs, increment.pairs]), increment.retracted.column("block")
        ),
    )
    counts = {
        "surfaces_keyed": _n_linked(new), "pairs_tested": tested, "blocks_retracted": len(retracted),
    }
    return merged, increment, counts


def link_entities(index: BlockIndex, *, consolidate=None):
    """:class:`BlockIndex` -> surface map: union-find over its pairs.

    The surface map is an Arrow table of :data:`SURFACE_MAP_SCHEMA`, one
    row per distinct linked (type, surface), sorted by (type, surface);
    the driver plan's graph phase looks rows up in it on the driver.
    """
    linked = index.surfaces.filter(pc.is_in(index.surfaces.column("type"), pa.array(LINKED_TYPES)))
    labeled = _union_find_labels(linked, index.pairs.select(PAIRS_SCHEMA.names))
    surface_map = _cluster_assign_partition(labeled, consolidate)
    return surface_map.sort_by([("type", "ascending"), ("surface", "ascending")])


# --------------------------------------------------------------------------
# distributed linking: label-propagation connected components (the 10^8+-
# distinct-surface path the driver-side union-find cannot serve)


def _join_parts() -> int:
    """Join partition count of the KG stages, capped at 8 for LOCAL
    sessions: each ``Dataset.join`` spins up ``num_partitions`` aggregator
    actors with fixed startup cost.  Measured at sf0.1 on 32 CPUs, 4-16
    partitions all landed at ~5-7 s, while 64 (2/CPU) oversubscribed the
    node: two chained joins spawned 128+ aggregators and wedged.  On a real
    cluster pass ``num_partitions`` explicitly (e.g. to
    :func:`link_entities_distributed`)."""
    import ray

    return min(8, max(4, int(ray.cluster_resources().get("CPU", 4)) // 2))


def _sym_edges_batch(batch: pa.Table) -> pa.Table:
    """(type, a, b) edge batch -> symmetric int-keyed (u, v) rows."""
    if batch.num_rows == 0 or "type" not in batch.column_names:
        return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    ka = [
        node_id_of(t, s)
        for t, s in zip(batch.column("type").to_pylist(), batch.column("a").to_pylist())
    ]
    kb = [
        node_id_of(t, s)
        for t, s in zip(batch.column("type").to_pylist(), batch.column("b").to_pylist())
    ]
    return pa.table(
        {"u": pa.array(ka + kb, pa.int64()), "v": pa.array(kb + ka, pa.int64())}
    )


def _uv_arrays(tbl: pa.Table):
    if tbl.num_rows == 0 or "u" not in tbl.column_names:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    u = tbl.column("u").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    v = tbl.column("v").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    return u, v


def _lp_remotes():
    """BSP worker tasks for label propagation (built lazily so importing
    this module never touches Ray)."""
    import ray

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        """One sym-edge block -> P (u, v) shards by hash(u) partition."""
        u, v = _uv_arrays(tbl)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        us, vs, ds = u[order], v[order], dest[order]
        bounds = np.searchsorted(ds, np.arange(P + 1))
        return [(us[bounds[p] : bounds[p + 1]], vs[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(*shards):
        """Assemble one partition: edges sorted by u + its node/label state.
        Nodes are the unique u values (u is the partition key, and sym
        edges contain every node as a source)."""
        # P == 1 ships the un-split 1-element list (num_returns=1 does
        # not unwrap); normalize each shard to its (u, v) tuple
        shards = [s[0] if isinstance(s, list) else s for s in shards]
        u = np.concatenate([s[0] for s in shards]) if shards else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in shards]) if shards else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        return u, v, nodes, nodes.copy()  # initial label = own key

    @ray.remote
    def msgs(part, P: int):
        """One partition's round messages: (v, label(u)) shards by hash(v)."""
        u, v, nodes, labels = part
        lbl = labels[np.searchsorted(nodes, u)]
        dest = v % P
        order = np.argsort(dest, kind="stable")
        vs, ls, ds = v[order], lbl[order], dest[order]
        bounds = np.searchsorted(ds, np.arange(P + 1))
        return [(vs[bounds[p] : bounds[p + 1]], ls[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def reduce_part(part, *incoming):
        """Fold incoming min-label messages into one partition's state."""
        u, v, nodes, labels = part
        new = labels.copy()
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        for mv, ml in incoming:
            if len(mv):
                idx = np.searchsorted(nodes, mv)
                np.minimum.at(new, idx, ml)
        changed = not np.array_equal(new, labels)
        return (u, v, nodes, new), changed

    @ray.remote(num_returns=2)
    def expose(part):
        """(nodes, labels) ObjectRefs for worker-side checkpointing."""
        return part[2], part[3]

    @ray.remote
    def splice(part, nodes_loaded, labels_loaded):
        """Resume a checkpointed label array into a freshly rebuilt static
        partition (deterministic rebuild => node arrays must match)."""
        u, v, nodes, _labels = part
        if not np.array_equal(nodes, nodes_loaded):
            raise ValueError("checkpoint node set does not match input partition")
        return u, v, nodes, labels_loaded.astype(np.int64)

    @ray.remote
    def to_table(part) -> pa.Table:
        _, _, nodes, labels = part
        return pa.table(
            {"node": pa.array(nodes, pa.int64()), "label": pa.array(labels, pa.int64())}
        )

    return split_edges, concat_part, msgs, reduce_part, expose, splice, to_table


def label_propagation_components(
    edges_ds, *, max_iters: int | None = None, num_partitions: int | None = None,
    checkpoint_dir: str | None = None, checkpoint_every: int = 5,
    checkpoint_fingerprint: str | None = None,
):
    """Similar-pair edges (type, a, b) -> (node, label) component Dataset.

    Iterative min-label propagation as a raw-Ray-task BSP loop — the one
    place the Dataset API genuinely can't express the semantics: re-invoking
    shuffle-join operators per round pays seconds of fixed operator setup
    per iteration, while components need only diameter-many rounds of tiny
    co-partitioned exchanges.  Edges are hash-partitioned by source node
    ONCE (``node_key % P``; keys are blake2b-uniform, so modulo is an even
    partitioner); each round every partition sends vectorized
    (dst, min-label) messages to its peer partitions and folds incoming
    minima with ``np.minimum.at`` — O(P^2) small objects per round, no
    sort, no driver-side state beyond P changed-flags.  Rounds needed =
    component diameter (alias clusters are shallow; ``max_iters`` guards
    pathological chains — on hitting it labels are a valid refinement,
    just possibly unmerged).  Duplicate edges from overlapping LSH blocks
    are harmless (min is idempotent).  At petabyte scale the per-round
    partition states checkpoint through lineage Parquet; here they live in
    the object store.
    """
    sym = edges_ds.map_batches(_sym_edges_batch, batch_format="pyarrow")
    return _propagate_components(
        sym, max_iters=max_iters, num_partitions=num_partitions,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        checkpoint_fingerprint=checkpoint_fingerprint,
    )


def components_from_int_edges(
    edges_ds, col_a: str = "a", col_b: str = "b",
    *, max_iters: int | None = None, num_partitions: int | None = None,
    checkpoint_dir: str | None = None, checkpoint_every: int = 5,
    checkpoint_fingerprint: str | None = None,
):
    """Int-keyed variant of :func:`label_propagation_components`: edge rows
    carry two int64 id columns; the ids ARE the node keys (no hashing), so
    each component's final label is its minimum member id — e.g. the
    kept document of a near-duplicate cluster."""

    def sym(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or col_a not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        a = batch.column(col_a).combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        b = batch.column(col_b).combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b]), pa.int64()),
                "v": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    return _propagate_components(
        edges_ds.map_batches(sym, batch_format="pyarrow"),
        max_iters=max_iters,
        num_partitions=num_partitions,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        checkpoint_fingerprint=checkpoint_fingerprint,
    )


def _propagate_components(
    sym_ds,
    *,
    max_iters: int | None,
    num_partitions: int | None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 5,
    checkpoint_fingerprint: str | None = None,
):
    """Shared BSP min-label loop over a symmetric (u, v) int-edge Dataset.

    With ``checkpoint_dir`` the label arrays checkpoint per-partition
    through worker-side Parquet every ``checkpoint_every`` rounds (plus on
    convergence) and the loop resumes from the newest matching checkpoint
    — the state/lineage discipline extended to the iterative algorithms
    (state/bsp_ckpt).

    ``max_iters=None`` (the default) runs to CONVERGENCE — min-label
    propagation terminates in component-diameter rounds, so the loop is
    always finite — keeping the distributed path's output identical to
    the driver union-find.  An explicit cap returns a valid REFINEMENT
    (possibly unmerged components) and warns when it is hit, so a silent
    under-merge can never masquerade as the converged answer."""
    import ray

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_edges, concat_part, msgs, reduce_part, expose, splice, to_table = _lp_remotes()

    sym = sym_ds.materialize()
    block_refs = list(sym.to_arrow_refs())
    shard_lists = [
        split_edges.options(num_returns=P).remote(ref, P) for ref in block_refs
    ]
    if P == 1:  # num_returns=1 unwraps the list
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]

    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        # default fingerprint = params + CONTENT digest (not just count):
        # a rewired same-count input must never resume stale labels
        fp = checkpoint_fingerprint or (
            f"components:P={P}:edges={sym.count()}"
            f":digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P)
        if loaded is not None:
            start_round, value_refs = loaded
            parts = [
                splice.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]

    cap = max_iters if max_iters is not None else (1 << 20)
    converged = False
    for rnd in range(start_round, cap):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        results = [
            reduce_part.options(num_returns=2).remote(
                parts[q], *[msg_lists[p][q] for p in range(P)]
            )
            for q in range(P)
        ]
        parts = [r[0] for r in results]
        converged = not any(ray.get([r[1] for r in results]))
        if checkpoint_dir and (converged or (rnd + 1) % checkpoint_every == 0):
            from ..state import bsp_ckpt

            bsp_ckpt.save_round(
                checkpoint_dir, fp, rnd + 1,
                [expose.options(num_returns=2).remote(p) for p in parts],
            )
        if converged:
            break
    if not converged:
        import warnings

        warnings.warn(
            f"label propagation hit max_iters={max_iters} before converging; "
            "labels are a valid refinement but components may be unmerged",
            RuntimeWarning,
        )

    import ray.data

    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def _cluster_assign(group: pa.Table, consolidate=None) -> pa.Table:
    """One component's member rows -> (type, surface, node_id, canonical)."""
    types = group.column("type").to_pylist()
    surfaces = sorted(set(group.column("surface").to_pylist()))
    typ = types[0] if types else ""
    if consolidate is None or len(surfaces) == 1:
        canon = representative(surfaces)
    else:
        canon = consolidate(surfaces)
        if canon is not None and canon not in surfaces:
            raise ValueError(f"consolidator invented surface {canon!r} not in group")
    if canon is None:  # group left unmerged (reference A9 contract)
        return pa.table(
            {
                "type": pa.array([typ] * len(surfaces), pa.string()),
                "surface": pa.array(surfaces, pa.string()),
                "node_id": pa.array(
                    [node_id_of(typ, s) for s in surfaces], pa.int64()
                ),
                "canonical": pa.array(surfaces, pa.string()),
            }
        )
    nid = node_id_of(typ, canon)
    return pa.table(
        {
            "type": pa.array([typ] * len(surfaces), pa.string()),
            "surface": pa.array(surfaces, pa.string()),
            "node_id": pa.array([nid] * len(surfaces), pa.int64()),
            "canonical": pa.array([canon] * len(surfaces), pa.string()),
        }
    )


def _cluster_assign_partition(group: pa.Table, consolidate=None) -> pa.Table:
    """Labeled ``(type, surface, label)`` rows, one per distinct (type,
    surface) -> :data:`SURFACE_MAP_SCHEMA` rows, sorted by (label,
    surface): the one step where a component (the surfaces sharing a
    label, all of one type) becomes a node id and a canonical, for both
    plans.

    Representative selection (A9): ``consolidate(group: list[str]) -> str
    | None`` is the interface hook (the reference's per-group LLM judge,
    OllamaNERExtractor.py:128-154), called with a multi-surface
    component's sorted surfaces.  It must return one member of the group
    (an invented surface raises ``ValueError``) or None to leave the group
    UNMERGED, each surface its own node (the reference's behavior when the
    LLM returns anything but exactly one name).  Default is the
    deterministic most-complete-name rule (:func:`representative`).  A
    one-surface component is its own canonical; neither rule runs on it.

    Labels are detected as vectorized run boundaries, so only the
    multi-surface components run Python (a per-label ``map_groups`` would
    pay a UDF call and a table build per cluster).  Rows equal per-label
    :func:`_cluster_assign`'s (labels never split across hash partitions)."""
    if group.num_rows == 0:
        return SURFACE_MAP_SCHEMA.empty_table()
    tbl = group.sort_by([("label", "ascending"), ("surface", "ascending")])
    labels = tbl.column("label").combine_chunks().to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, np.diff(labels) != 0])
    ends = np.r_[starts[1:], len(labels)]
    multi = ends - starts > 1
    types = tbl.column("type").to_pylist()
    canon = tbl.column("surface").to_pylist()
    for s, e in zip(starts[multi], ends[multi]):
        surs = canon[s:e]
        c = representative(surs) if consolidate is None else consolidate(surs)
        if c is None:  # group left unmerged (reference A9 contract)
            continue
        if c not in surs:
            raise ValueError(f"consolidator invented surface {c!r} not in group")
        canon[s:e] = [c] * (e - s)
    return pa.table(
        [
            tbl.column("type"),
            tbl.column("surface"),
            pa.array([node_id_of(t, c) for t, c in zip(types, canon)], pa.int64()),
            pa.array(canon, pa.string()),
        ],
        schema=SURFACE_MAP_SCHEMA,
    )


NODE_KEYED_SCHEMA = SURFACE_KEYS_SCHEMA.append(pa.field("node", pa.int64()))


def _node_keyed_rows(batch: pa.Table) -> pa.Table:
    """Distinct-surface batch -> its linked (type, surface) rows with each
    surface's node key (the key label propagation labels it by)."""
    if batch.num_rows == 0 or "type" not in batch.column_names:
        return NODE_KEYED_SCHEMA.empty_table()
    linked = batch.filter(pc.is_in(batch.column("type"), pa.array(LINKED_TYPES)))
    types = linked.column("type").to_pylist()
    surfaces = linked.column("surface").to_pylist()
    keys = [node_id_of(t, s) for t, s in zip(types, surfaces)]
    return pa.table([types, surfaces, pa.array(keys, pa.int64())], schema=NODE_KEYED_SCHEMA)


def link_entities_distributed(distinct, *, consolidate=None, num_partitions: int | None = None):
    """:func:`distinct_surfaces` Dataset -> surface-map Dataset (type,
    surface, node_id, canonical) with NO driver-side universe: the scale
    path of :func:`link_entities` (same blocking + pair predicates;
    union-find replaced by :func:`label_propagation_components`).

    One join: the linked surfaces, keyed by node, left-join the
    propagation's (node, label) rows, so a surface in no similar pair
    keeps its own key as its label; a reduce by label then runs
    :func:`_cluster_assign_partition`, as the driver path does.

    Identical output to the driver path — a test asserts row-for-row
    equality — so the pipeline can switch on universe size without
    changing results.  ``num_partitions`` overrides the locally-capped
    join partition count on a real cluster.
    """
    import ray.data

    n_part = num_partitions or _join_parts()
    # Ray 2.49's join sends an input's schema to every partition only with
    # the input's first block, and to none when that block is empty, so both
    # sides keep only their non-empty blocks, and the labels lead with a row
    # no surface matches (node keys are >= 0): a universe without similar
    # pairs has no labels
    keyed = _row_blocks(distinct.map_batches(_node_keyed_rows, batch_format="pyarrow"))
    if not keyed:
        return ray.data.from_arrow(SURFACE_MAP_SCHEMA.empty_table())
    keyed = ray.data.from_arrow_refs(keyed)
    comp = label_propagation_components(candidate_pair_edges(keyed))
    no_match = ray.put(pa.table({"node": [-1], "label": [-1]}))
    comp = ray.data.from_arrow_refs([no_match, *_row_blocks(comp)])
    return part_keyed_reduce(
        keyed.join(comp, join_type="left_outer", num_partitions=n_part, on=("node",)),
        # a surface in no similar pair is its own component
        lambda b: pa.table(
            [b.column("type"), b.column("surface"), pc.coalesce(b.column("label"), b.column("node"))],
            schema=LABELED_SCHEMA,
        ),
        lambda rows: rows.column("label"),
        lambda g: _cluster_assign_partition(g, consolidate),
        LABELED_SCHEMA,
        SURFACE_MAP_SCHEMA,
    )


def _row_blocks(ds) -> list:
    """The refs of ``ds``'s non-empty blocks, once materialized."""
    return [
        ref
        for bundle in ds.materialize().iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]


# --------------------------------------------------------------------------
# D2 alternate blocking: sequential-window grouping over sorted surfaces
# (src/ollama_ner_extract_names.py:294-326)


def sequential_window_groups(
    names: list[str], window: int = 15
) -> list[list[str]]:
    """The reference's second grouping strategy, exactly: scan the SORTED
    name list; a group grows freely to ``window`` names; past that, the
    next name joins only while similar to the group's LAST name (D2
    thresholds); otherwise the group closes and a new one starts."""
    if not names:
        return []
    groups: list[list[str]] = []
    group = [names[0]]
    for current in names[1:]:
        if len(group) < window:
            group.append(current)
            continue
        if surfaces_similar(group[-1], current):
            group.append(current)
            continue
        groups.append(group)
        group = [current]
    groups.append(group)
    return groups


def sequential_window_pairs(distinct_ds, window: int = 15):
    """(type, surface) distinct rows -> similar-pair edges via sequential
    windows instead of LSH blocks: ``sort`` range-partitions the surfaces
    globally in order; each sorted block is scanned with the reference's
    run-capped grouping and every within-group pair is tested with the
    full merge rule.  Groups may split at block boundaries — the same
    arbitrary split the reference's own every-``window``-names cut makes,
    so recall semantics match in kind; the primary LSH blocking remains
    the default path."""

    def block_edges(batch: pa.Table) -> pa.Table:
        out_t: list[str] = []
        out_a: list[str] = []
        out_b: list[str] = []
        if batch.num_rows and "type" in batch.column_names:
            by_type: dict[str, list[str]] = {}
            for t, s in sorted(
                zip(batch.column("type").to_pylist(), batch.column("surface").to_pylist())
            ):
                if t in LINKED_TYPES:
                    by_type.setdefault(t, []).append(s)
            for t, names in by_type.items():
                for group in sequential_window_groups(names, window):
                    for i in range(len(group)):
                        for j in range(i + 1, len(group)):
                            if surfaces_match(group[i], group[j]):
                                out_t.append(t)
                                out_a.append(min(group[i], group[j]))
                                out_b.append(max(group[i], group[j]))
        return pa.table(
            {
                "type": pa.array(out_t, pa.string()),
                "a": pa.array(out_a, pa.string()),
                "b": pa.array(out_b, pa.string()),
            }
        )

    return distinct_ds.sort(["type", "surface"]).map_batches(
        block_edges, batch_format="pyarrow"
    )
