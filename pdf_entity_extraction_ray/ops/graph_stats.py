"""Graph analytics over the materialized KG edges table — the consumer-side
ops a knowledge graph exists for.

* :func:`node_degrees` — per-node in/out edge counts and weight sums, a
  two-stage aggregation (per-batch Arrow combiners emit one row per
  distinct endpoint per block; a small groupby-sum reduces) — degree of a
  celebrity node never concentrates raw rows anywhere.
* :func:`pagerank` — damped PageRank via the same BSP hash-co-partitioned
  machinery as connected components (stages/linking.py): edges are
  partitioned by source ONCE; each round every partition sends vectorized
  rank/out_degree contributions to its peers and folds incoming sums; the
  driver sees only the per-round dangling-mass scalar.  Iterative
  algorithms the Dataset API can't express are exactly where raw Ray
  tasks are warranted (same argument as label propagation).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def node_degrees(edges_ds, by: str = "canonical"):
    """edges Dataset -> per-node in/out edge counts and weight sums, one
    row per node appearing on either side.

    ``by="canonical"`` (default) keys nodes by canonical STRING — distinct
    nodes of different types that share a canonical (e.g. a DATE node
    ``2020`` and a surface ``2020``) merge into one degree row.  This is
    the intended human-facing report view (and what the SQL oracle
    checks); for the graph-faithful keying use ``by="node_id"``
    (:func:`node_degrees_by_id`), which keys by the content-derived id and
    keeps such nodes separate."""
    if by == "node_id":
        return node_degrees_by_id(edges_ds)
    if by != "canonical":
        raise ValueError(f"by must be 'canonical' or 'node_id', got {by!r}")

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "canonical": pa.array([], pa.string()),
            "out_edges": pa.array([], pa.int64()),
            "out_weight": pa.array([], pa.int64()),
            "in_edges": pa.array([], pa.int64()),
            "in_weight": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(cols)
        out = batch.group_by("src_canonical").aggregate(
            [("weight", "count"), ("weight", "sum")]
        )
        inn = batch.group_by("dst_canonical").aggregate(
            [("weight", "count"), ("weight", "sum")]
        )
        n_out, n_in = out.num_rows, inn.num_rows
        return pa.table(
            {
                "canonical": pa.concat_arrays(
                    [
                        out.column("src_canonical").combine_chunks(),
                        inn.column("dst_canonical").combine_chunks(),
                    ]
                ),
                "out_edges": pa.concat_arrays(
                    [
                        out.column("weight_count").cast(pa.int64()).combine_chunks(),
                        pa.array([0] * n_in, pa.int64()),
                    ]
                ),
                "out_weight": pa.concat_arrays(
                    [
                        out.column("weight_sum").cast(pa.int64()).combine_chunks(),
                        pa.array([0] * n_in, pa.int64()),
                    ]
                ),
                "in_edges": pa.concat_arrays(
                    [
                        pa.array([0] * n_out, pa.int64()),
                        inn.column("weight_count").cast(pa.int64()).combine_chunks(),
                    ]
                ),
                "in_weight": pa.concat_arrays(
                    [
                        pa.array([0] * n_out, pa.int64()),
                        inn.column("weight_sum").cast(pa.int64()).combine_chunks(),
                    ]
                ),
            }
        )

    return (
        edges_ds.select_columns(["src_canonical", "dst_canonical", "weight"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("canonical")
        .sum(["out_edges", "out_weight", "in_edges", "in_weight"])
        .rename_columns(
            {
                "sum(out_edges)": "out_edges",
                "sum(out_weight)": "out_weight",
                "sum(in_edges)": "in_edges",
                "sum(in_weight)": "in_weight",
            }
        )
    )


def node_degrees_by_id(edges_ds):
    """Graph-faithful degrees: keyed by the content-derived ``node_id``
    (src_id/dst_id), so nodes of different types sharing a canonical stay
    separate.  The canonical string rides along (node_id determines it
    1:1 — the id IS blake2b(type, canonical) — so Min is an exact carry,
    not a choice)."""
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "node_id": pa.array([], pa.int64()),
            "canonical": pa.array([], pa.string()),
            "out_edges": pa.array([], pa.int64()),
            "out_weight": pa.array([], pa.int64()),
            "in_edges": pa.array([], pa.int64()),
            "in_weight": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table(cols)
        out = batch.group_by(["src_id", "src_canonical"]).aggregate(
            [("weight", "count"), ("weight", "sum")]
        )
        inn = batch.group_by(["dst_id", "dst_canonical"]).aggregate(
            [("weight", "count"), ("weight", "sum")]
        )
        n_out, n_in = out.num_rows, inn.num_rows
        return pa.table(
            {
                "node_id": pa.concat_arrays(
                    [
                        out.column("src_id").combine_chunks(),
                        inn.column("dst_id").combine_chunks(),
                    ]
                ),
                "canonical": pa.concat_arrays(
                    [
                        out.column("src_canonical").combine_chunks(),
                        inn.column("dst_canonical").combine_chunks(),
                    ]
                ),
                "out_edges": pa.concat_arrays(
                    [
                        out.column("weight_count").cast(pa.int64()).combine_chunks(),
                        pa.array([0] * n_in, pa.int64()),
                    ]
                ),
                "out_weight": pa.concat_arrays(
                    [
                        out.column("weight_sum").cast(pa.int64()).combine_chunks(),
                        pa.array([0] * n_in, pa.int64()),
                    ]
                ),
                "in_edges": pa.concat_arrays(
                    [
                        pa.array([0] * n_out, pa.int64()),
                        inn.column("weight_count").cast(pa.int64()).combine_chunks(),
                    ]
                ),
                "in_weight": pa.concat_arrays(
                    [
                        pa.array([0] * n_out, pa.int64()),
                        inn.column("weight_sum").cast(pa.int64()).combine_chunks(),
                    ]
                ),
            }
        )

    return (
        edges_ds.select_columns(
            ["src_id", "src_canonical", "dst_id", "dst_canonical", "weight"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("node_id")
        .aggregate(
            Min("canonical", alias_name="canonical"),
            Sum("out_edges", alias_name="out_edges"),
            Sum("out_weight", alias_name="out_weight"),
            Sum("in_edges", alias_name="in_edges"),
            Sum("in_weight", alias_name="in_weight"),
        )
    )


def _pr_remotes():
    """BSP worker tasks for PageRank (lazy so import never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p] : bounds[p + 1]], v[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def node_shards(tbl: pa.Table, P: int):
        """Every endpoint, sharded by its OWN hash — nodes live where
        their incoming messages land."""
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            return [np.empty(0, np.int64)] * P
        both = np.concatenate(
            [
                np.asarray(tbl.column("u").to_pylist(), dtype=np.int64),
                np.asarray(tbl.column("v").to_pylist(), dtype=np.int64),
            ]
        )
        dest = both % P
        order = np.argsort(dest, kind="stable")
        both, dest = both[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [np.unique(both[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(n_node_shards: int, *shards):
        """Partition state from flat varargs (first ``n_node_shards`` are
        node-id shards, the rest (u, v) edge shards): sorted node array,
        out-edges sorted by u, per-node out-degree, initial uniform rank
        filled in later."""
        # P == 1 ships the un-split 1-element list (num_returns=1 does
        # not unwrap); normalize each shard to its payload
        shards = [s[0] if isinstance(s, list) else s for s in shards]
        node_parts = shards[:n_node_shards]
        edge_parts = shards[n_node_shards:]
        nodes = (
            np.unique(np.concatenate(list(node_parts)))
            if node_parts
            else np.empty(0, np.int64)
        )
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        deg = np.zeros(len(nodes), dtype=np.int64)
        if len(u):
            np.add.at(deg, np.searchsorted(nodes, u), 1)
        return u, v, nodes, deg

    @ray.remote
    def part_size(part) -> int:
        return len(part[2])

    @ray.remote
    def init_ranks(part, n_total: int):
        return np.full(len(part[2]), 1.0 / max(n_total, 1), dtype=np.float64)

    @ray.remote
    def make_pvec(part, seeds: "np.ndarray"):
        """Per-partition personalization vector: 1/len(seeds) on seed
        nodes, 0 elsewhere (seeds is the tiny sorted global seed array,
        broadcast by value)."""
        nodes = part[2]
        pv = np.zeros(len(nodes), dtype=np.float64)
        if len(seeds) and len(nodes):
            idx = np.searchsorted(nodes, seeds)
            ok = (idx < len(nodes)) & (nodes[np.minimum(idx, len(nodes) - 1)] == seeds)
            pv[idx[ok]] = 1.0 / len(seeds)
        return pv

    @ray.remote
    def msgs(part, ranks, P: int):
        """One round's outgoing contributions: P (v, contribution) shards
        plus the partition's dangling rank mass (num_returns = P + 1)."""
        u, v, nodes, deg = part
        contrib = ranks / np.maximum(deg, 1)
        dangling = float(ranks[deg == 0].sum())
        if len(u):
            per_edge = contrib[np.searchsorted(nodes, u)]
            dest = v % P
            order = np.argsort(dest, kind="stable")
            vs, cs, ds = v[order], per_edge[order], dest[order]
            bounds = np.searchsorted(ds, np.arange(P + 1))
            shards = [
                (vs[bounds[p] : bounds[p + 1]], cs[bounds[p] : bounds[p + 1]])
                for p in range(P)
            ]
        else:
            ei, ef = np.empty(0, np.int64), np.empty(0, np.float64)
            shards = [(ei, ef)] * P
        return (*shards, dangling)

    @ray.remote
    def reduce_part(part, n_total: int, damping: float, dangling_total: float, *incoming):
        u, v, nodes, deg = part
        sums = np.zeros(len(nodes), dtype=np.float64)
        for mv, mc in incoming:
            if len(mv):
                np.add.at(sums, np.searchsorted(nodes, mv), mc)
        base = (1.0 - damping) / n_total + damping * dangling_total / n_total
        return base + damping * sums

    @ray.remote
    def reduce_part_pers(part, damping: float, dangling_total: float, pv, *incoming):
        """Personalized variant: teleport AND dangling mass both land on
        the personalization vector (standard random-walk-with-restart)."""
        u, v, nodes, deg = part
        sums = np.zeros(len(nodes), dtype=np.float64)
        for mv, mc in incoming:
            if len(mv):
                np.add.at(sums, np.searchsorted(nodes, mv), mc)
        return (1.0 - damping + damping * dangling_total) * pv + damping * sums

    @ray.remote(num_returns=2)
    def expose_ranks(part, ranks):
        """(nodes, ranks) refs for worker-side checkpointing."""
        return part[2], ranks

    @ray.remote
    def validate_ranks(part, nodes_loaded, ranks_loaded):
        """Resume guard: the deterministic static rebuild must agree."""
        if not np.array_equal(part[2], nodes_loaded):
            raise ValueError("checkpoint node set does not match input partition")
        return ranks_loaded.astype(np.float64)

    @ray.remote
    def to_table(part, ranks) -> pa.Table:
        _, _, nodes, _ = part
        return pa.table(
            {"node": pa.array(nodes, pa.int64()), "rank": pa.array(ranks, pa.float64())}
        )

    return (split_edges, node_shards, concat_part, part_size, init_ranks,
            msgs, reduce_part, expose_ranks, validate_ranks, to_table,
            make_pvec, reduce_part_pers)


def pagerank(
    edges_ds,
    *,
    iterations: int = 20,
    damping: float = 0.85,
    num_partitions: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 5,
    checkpoint_fingerprint: str | None = None,
    seeds=None,
):
    """Directed edges (src_id, dst_id) -> (node, rank) Dataset after
    ``iterations`` damped power-iteration rounds (dangling mass
    redistributed uniformly — the standard formulation).  Per round the
    driver touches only P dangling scalars; every rank/message array moves
    worker-to-worker through the object store.  With ``checkpoint_dir``
    the rank arrays checkpoint per-partition through worker-side Parquet
    (state/bsp_ckpt) and a rerun resumes at the newest matching round.

    ``seeds`` (iterable of node ids) switches to PERSONALIZED PageRank
    (random walk with restart): teleport and dangling mass land on the
    seed set instead of uniformly — the entity-relatedness query a KG
    serves ("what is close to these seeds").  The uniform path keeps its
    exact original arithmetic (bit-identical to ``seeds=None`` builds)."""
    import numpy as np
    import ray
    import ray.data

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    (split_edges, node_shards, concat_part, part_size, init_ranks,
     msgs, reduce_part, expose_ranks, validate_ranks, to_table,
     make_pvec, reduce_part_pers) = _pr_remotes()

    def to_uv(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        return pa.table({"u": batch.column("src_id"), "v": batch.column("dst_id")})

    uv = edges_ds.map_batches(to_uv, batch_format="pyarrow").materialize()
    if uv.count() == 0:
        # edge-free graph: no nodes, no ranks — short-circuit like
        # coreness/bfs do (round 0 would divide by n_total == 0)
        import ray.data

        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "rank": pa.array([], pa.float64())})
        )
    block_refs = list(uv.to_arrow_refs())
    nb = len(block_refs)

    edge_shards = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    nshards = [node_shards.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        edge_shards = [[s] for s in edge_shards]
        nshards = [[s] for s in nshards]
    parts = [
        concat_part.remote(
            nb,
            *[nshards[i][p] for i in range(nb)],
            *[edge_shards[i][p] for i in range(nb)],
        )
        for p in range(P)
    ]

    n_total = int(sum(ray.get([part_size.remote(p) for p in parts])))
    pvecs = None
    seeds_tag = ""
    if seeds is not None:
        seeds_arr = np.unique(np.asarray(sorted(set(seeds)), dtype=np.int64))
        if len(seeds_arr) == 0:
            raise ValueError("personalized pagerank needs a non-empty seed set")
        pvecs = [make_pvec.remote(parts[p], seeds_arr) for p in range(P)]
        # round-0 ranks ARE the personalization vector; object-store
        # arrays are immutable, so aliasing the refs is safe and skips a
        # pointless copy task per partition
        ranks = list(pvecs)
        import hashlib as _hl

        seeds_tag = ":seeds=" + _hl.blake2b(
            seeds_arr.tobytes(), digest_size=8
        ).hexdigest()
    else:
        ranks = [init_ranks.remote(parts[p], n_total) for p in range(P)]

    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        # content digest, not just node count: same-count rewired inputs
        # must never share a checkpoint (ranks would silently be stale)
        fp = checkpoint_fingerprint or (
            f"pagerank:P={P}:n={n_total}:d={damping}:T={iterations}{seeds_tag}"
            f":digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P, float_values=True)
        if loaded is not None:
            start_round, value_refs = loaded
            ranks = [
                validate_ranks.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]

    for rnd in range(start_round, iterations):
        outs = [
            msgs.options(num_returns=P + 1).remote(parts[p], ranks[p], P) for p in range(P)
        ]
        dangling_total = float(sum(ray.get([o[P] for o in outs])))
        if pvecs is not None:
            ranks = [
                reduce_part_pers.remote(
                    parts[q], damping, dangling_total, pvecs[q],
                    *[outs[p][q] for p in range(P)],
                )
                for q in range(P)
            ]
        else:
            ranks = [
                reduce_part.remote(
                    parts[q], n_total, damping, dangling_total,
                    *[outs[p][q] for p in range(P)],
                )
                for q in range(P)
            ]
        if checkpoint_dir and (rnd + 1) % checkpoint_every == 0:
            from ..state import bsp_ckpt

            bsp_ckpt.save_round(
                checkpoint_dir, fp, rnd + 1,
                [expose_ranks.options(num_returns=2).remote(parts[p], ranks[p]) for p in range(P)],
            )

    return ray.data.from_arrow_refs([to_table.remote(parts[p], ranks[p]) for p in range(P)])


def triangle_counts(edges_ds, num_partitions: int | None = None):
    """Per-node triangle participation over the UNDIRECTED simple graph
    induced by the edges table: ``(canonical, triangles)`` for every node
    that closes at least one triangle (canonical-keyed, the same report
    view as :func:`node_degrees`).

    Degree-ORIENTED wedge enumeration — the standard distributed triangle
    algorithm and the explicit head-skew treatment this graph needs: every
    undirected edge is directed from its lower-(degree, name) endpoint to
    the higher, so a celebrity node of degree d contributes wedges only
    through its (few) higher-degree neighbors rather than fanning out
    d-choose-2 pairs; every node's oriented out-degree is O(sqrt(edges)).
    Stages: distinct undirected pairs (per-batch combiner + groupby) ->
    endpoint degrees (groupby count) -> one side-tagged hash join attaches
    both endpoint degrees -> orient -> per-source wedge pairs
    (groupby.map_groups, neighbors sorted by the SAME (degree, name)
    order) -> hash join wedges against oriented edges (a wedge that is
    also an edge IS a triangle) -> explode the three members -> count.
    Everything is a shuffle or a hash join; nothing touches the driver.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.string())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
                )
            }
        )

    degrees = (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .rename_columns({"count()": "deg"})
    )

    # tiny-input guard: Ray's hash join crashes on EMPTY shuffle partitions
    # (see ops/dedup._keep_min_doc_per_key); und is already materialized
    n_part = num_partitions
    if n_part is None:
        from ..ops.dedup import _join_partitions

        n_part = 1 if und.count() < 10_000 else _join_partitions()

    # ONE side-tagged join fetches both endpoint degrees (two joins would
    # pay a second aggregator fleet) — the exact_jaccard_verify pattern
    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "side": pa.array([], pa.int32()),
                    "key": pa.array([], pa.string()),
                }
            )
        a, b = batch.column("a").combine_chunks(), batch.column("b").combine_chunks()
        n = batch.num_rows
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                "key": pa.concat_arrays([a, b]),
            }
        )

    def split_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "side" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "deg_a": pa.array([], pa.int64()),
                    "deg_b": pa.array([], pa.int64()),
                }
            )
        is_a = pc.equal(batch.column("side"), pa.scalar(0, pa.int32()))
        zero = pa.scalar(0, pa.int64())
        deg = batch.column("deg").cast(pa.int64())
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "deg_a": pc.if_else(is_a, deg, zero),
                "deg_b": pc.if_else(is_a, zero, deg),
            }
        )

    with_deg = (
        und.map_batches(explode_sides, batch_format="pyarrow")
        .join(degrees, join_type="inner", num_partitions=n_part,
              on=("key",), right_on=("node",))
        .map_batches(split_sides, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("deg_a", alias_name="deg_a"), Max("deg_b", alias_name="deg_b"))
    )

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "u": pa.array([], pa.string()),
                    "v": pa.array([], pa.string()),
                    "vdeg": pa.array([], pa.int64()),
                }
            )
        da, db = batch.column("deg_a"), batch.column("deg_b")
        # a-before-b iff (deg_a, a) < (deg_b, b); a < b always holds here,
        # so the tie case (equal degrees) keeps the lexicographic order
        fwd = pc.less_equal(da, db)
        return pa.table(
            {
                "u": pc.if_else(fwd, batch.column("a"), batch.column("b")),
                "v": pc.if_else(fwd, batch.column("b"), batch.column("a")),
                "vdeg": pc.if_else(fwd, db, da),
            }
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow").materialize()

    def make_wedges(group: pa.Table) -> pa.Table:
        if group.num_rows < 2 or "u" not in group.column_names:
            return pa.table(
                {
                    "apex": pa.array([], pa.string()),
                    "wa": pa.array([], pa.string()),
                    "wb": pa.array([], pa.string()),
                }
            )
        # neighbors in the SAME (degree, name) total order as orientation,
        # so a wedge (y, z) matches the oriented edge key (u=y, v=z)
        import numpy as np

        idx = pc.sort_indices(
            group, sort_keys=[("vdeg", "ascending"), ("v", "ascending")]
        )
        vs = group.column("v").take(idx).combine_chunks()
        ii, jj = np.triu_indices(len(vs), k=1)
        return pa.table(
            {
                "apex": pa.array([group.column("u")[0].as_py()] * len(ii), pa.string()),
                "wa": vs.take(pa.array(ii, pa.int64())),
                "wb": vs.take(pa.array(jj, pa.int64())),
            }
        )

    wedges = oriented.groupby("u").map_groups(make_wedges, batch_format="pyarrow")
    # wedge-free graphs exist at ANY size (max oriented out-degree 1, e.g.
    # a perfect matching) and Ray's hash join crashes outright on an EMPTY
    # left input — so the materialize + short-circuit is unconditional.
    # The join is a full barrier anyway, so materializing first costs only
    # the count.
    import ray.data

    wedges = wedges.materialize()
    if wedges.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "triangles": pa.array([], pa.int64()),
                }
            )
        )

    tri = wedges.join(
        oriented.select_columns(["u", "v"]),
        join_type="inner",
        num_partitions=n_part,
        on=("wa", "wb"),
        right_on=("u", "v"),
    )

    def members(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "apex" not in batch.column_names:
            return pa.table({"canonical": pa.array([], pa.string())})
        return pa.table(
            {
                "canonical": pa.concat_arrays(
                    [
                        batch.column("apex").combine_chunks(),
                        batch.column("wa").combine_chunks(),
                        batch.column("wb").combine_chunks(),
                    ]
                )
            }
        )

    return (
        tri.map_batches(members, batch_format="pyarrow")
        .groupby("canonical")
        .count()
        .rename_columns({"count()": "triangles"})
    )


def _core_remotes():
    """BSP worker tasks for k-core decomposition (lazy import — importing
    this module never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_und(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p] : bounds[p + 1]], v[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(*shards):
        """Partition state: out-edges sorted by u, sorted unique nodes,
        core estimate initialized to degree (the h-index iteration's
        c_0)."""
        # P == 1 ships the un-split 1-element list (num_returns=1 does
        # not unwrap); normalize each shard to its (u, v) tuple
        shards = [s[0] if isinstance(s, list) else s for s in shards]
        u = np.concatenate([s[0] for s in shards]) if shards else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in shards]) if shards else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        deg = np.zeros(len(nodes), dtype=np.int64)
        if len(u):
            np.add.at(deg, np.searchsorted(nodes, u), 1)
        return u, v, nodes, deg

    @ray.remote
    def msgs(part, P: int):
        """Per edge (u -> v): ship u's current core estimate to v's
        partition — the neighbor-value multiset H needs."""
        u, v, nodes, core = part
        if not len(u):
            ei = np.empty(0, np.int64)
            return [(ei, ei)] * P
        val = core[np.searchsorted(nodes, u)]
        dest = v % P
        order = np.argsort(dest, kind="stable")
        vs, cs, ds = v[order], val[order], dest[order]
        bounds = np.searchsorted(ds, np.arange(P + 1))
        return [(vs[bounds[p] : bounds[p + 1]], cs[bounds[p] : bounds[p + 1]]) for p in range(P)]

    @ray.remote(num_returns=2)
    def reduce_part(part, *incoming):
        """One h-index round: every node's new estimate is the h-index of
        its incoming neighbor values (sort by (node, value desc), rank
        within segment, h = max of min(value, rank) — all vectorized)."""
        u, v, nodes, core = part
        # P == 1: num_returns=1 does not unwrap the 1-element shard list
        incoming = [m[0] if isinstance(m, list) else m for m in incoming]
        dv = np.concatenate([m[0] for m in incoming]) if incoming else np.empty(0, np.int64)
        vals = np.concatenate([m[1] for m in incoming]) if incoming else np.empty(0, np.int64)
        if not len(dv):
            return (u, v, nodes, core), False
        order = np.lexsort((-vals, dv))
        dv, vals = dv[order], vals[order]
        starts = np.searchsorted(dv, nodes, "left")
        counts = np.searchsorted(dv, nodes, "right") - starts
        # in a symmetrized graph every node receives >= 1 message
        rank = np.arange(len(dv), dtype=np.int64) - np.repeat(starts, counts) + 1
        h = np.maximum.reduceat(np.minimum(vals, rank), starts)
        # H of neighbor values never raises a correct estimate; min() keeps
        # monotone non-increasing explicitly
        new = np.minimum(core, h)
        changed = not np.array_equal(new, core)
        return (u, v, nodes, new), changed

    @ray.remote(num_returns=2)
    def expose(part):
        """(nodes, values) ObjectRefs for worker-side checkpointing."""
        return part[2], part[3]

    @ray.remote
    def splice(part, nodes_loaded, values_loaded):
        """Resume: replace a partition's dynamic values with a loaded
        checkpoint.  The static rebuild is deterministic, so the node
        arrays must agree exactly — anything else means the checkpoint
        belongs to different data and must not be trusted."""
        u, v, nodes, _core = part
        if not np.array_equal(nodes, nodes_loaded):
            raise ValueError("checkpoint node set does not match input partition")
        return u, v, nodes, values_loaded.astype(np.int64)

    @ray.remote
    def to_table(part) -> pa.Table:
        _, _, nodes, core = part
        return pa.table(
            {"node": pa.array(nodes, pa.int64()), "core": pa.array(core, pa.int64())}
        )

    return split_und, concat_part, msgs, reduce_part, expose, splice, to_table


def coreness(
    edges_ds,
    *,
    max_iters: int = 100,
    num_partitions: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 5,
    checkpoint_fingerprint: str | None = None,
):
    """Directed edges (src_id, dst_id) -> (node, core) k-core decomposition
    of the underlying UNDIRECTED SIMPLE graph (self-loops and duplicate
    pairs dropped): ``core`` is the largest k such that the node survives
    in the subgraph where every node keeps >= k neighbors.

    Iterated-h-index formulation (Lu et al., "The H-index of a network
    node", 2016 — public result): init every estimate to the node's
    degree; each round replace it with the h-index of its neighbors'
    estimates; the pointwise non-increasing sequence converges EXACTLY to
    the coreness.  This trades the peeling algorithm's sequential
    min-degree queue (inherently serial) for diameter-ish rounds of tiny
    co-partitioned exchanges — the same BSP shape as label propagation and
    PageRank, and the same argument for raw Ray tasks: re-invoking shuffle
    operators per round would pay seconds of fixed setup per iteration.
    Early-exits when no estimate changes; the driver sees only P
    changed-flags per round.
    """
    import ray
    import ray.data

    import pyarrow.compute as pc

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_und, concat_part, msgs, reduce_part, expose, splice, to_table = _core_remotes()

    def sym_simple(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        s, d = batch.column("src_id"), batch.column("dst_id")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep).combine_chunks(), d.filter(keep).combine_chunks()
        t = pa.table(
            {"u": pa.concat_arrays([s, d]), "v": pa.concat_arrays([d, s])}
        )
        return t.group_by(["u", "v"]).aggregate([])  # per-batch dedup combiner

    sym = (
        edges_ds.map_batches(sym_simple, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])  # global dedup: h-index needs multiplicity-free multisets
        .materialize()
    )
    block_refs = list(sym.to_arrow_refs())
    if not block_refs:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "core": pa.array([], pa.int64())})
        )

    shard_lists = [split_und.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]

    # per-round lineage: resume the h-index values from the newest complete
    # checkpoint (worker-side Parquet, see state/bsp_ckpt) if one matches
    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        fp = checkpoint_fingerprint or (
            f"coreness:P={P}:edges={sym.count()}"
            f":digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P)
        if loaded is not None:
            start_round, value_refs = loaded
            parts = [
                splice.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]

    for rnd in range(start_round, max_iters):
        out = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            out = [[m] for m in out]
        results = [
            reduce_part.remote(parts[q], *[out[p][q] for p in range(P)])
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

    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def cooccurrence_edges(mentions_ds, surface_map_ds, shards: int = 256, num_partitions=None):
    """Statistical KG edges: canonical entity pairs co-occurring in the
    same SEGMENT, with the counts a PMI/likelihood scorer needs —
    ``(a, b, n_ab, n_a, n_b)`` where ``n_ab`` counts segments containing
    both entities and ``n_a``/``n_b`` count segments containing each.
    Counts are exact integers; association scores (PMI etc.) are left to
    the consumer so no float arithmetic enters the hash-compared result.

    The co-occurrence graph is the classic statistical complement to the
    pattern-based relation extractor (stages/relations.py): edges appear
    because entities keep showing up together, not because a surface
    pattern fired.

    Shape: mentions prefilter to linked types -> one hash-shuffle join
    against the surface map (same (type, surface) key as
    stages/graph.build_nodes_join — the map never lands on the driver) ->
    coarse segment-shard groupby emits per-segment distinct-canonical
    pairs AND unary presence rows (marker ``b = ''``) -> one count
    groupby -> side-tagged explode + one join attaches the unary counts
    to both pair endpoints -> reassembly groupby.  Every stage is a
    shuffle or a bounded combiner; hot entities never concentrate (pairs
    are per-segment, and segment fan-out is bounded by mention density)."""
    import zlib

    from ..stages.graph import _join_parts, _sm_renamed
    from ..stages.linking import LINKED_TYPES

    # tiny-input guard (repo idiom): Ray's hash join crashes on EMPTY
    # shuffle partitions, so single-partition the joins when the small
    # side is tiny (surface map count is metadata-cheap)
    n_part = num_partitions or (
        1 if surface_map_ds.count() < 10_000 else _join_parts()
    )

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type" not in batch.column_names:
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "seg_id": pa.array([], pa.int32()),
                    "type": pa.array([], pa.string()),
                    "surface": pa.array([], pa.string()),
                }
            )
        t = batch.select(["url", "seg_id", "type", "surface"])
        return t.filter(pc.is_in(t.column("type"), pa.array(LINKED_TYPES)))

    joined = mentions_ds.map_batches(prefilter, batch_format="pyarrow").join(
        _sm_renamed(surface_map_ds, "type", "surface", "_nid", "canonical"),
        join_type="inner",
        num_partitions=n_part,
        on=("type", "surface"),
    )

    def add_shard(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(
                {
                    "shard": pa.array([], pa.int32()),
                    "url": pa.array([], pa.string()),
                    "seg_id": pa.array([], pa.int32()),
                    "canonical": pa.array([], pa.string()),
                }
            )
        sh = [
            zlib.crc32(f"{u}\x00{s}".encode()) % shards
            for u, s in zip(
                batch.column("url").to_pylist(), batch.column("seg_id").to_pylist()
            )
        ]
        return pa.table(
            {
                "shard": pa.array(sh, pa.int32()),
                "url": batch.column("url"),
                "seg_id": batch.column("seg_id"),
                "canonical": batch.column("canonical"),
            }
        )

    def segment_pairs(group: pa.Table) -> pa.Table:
        """One shard of segments -> distinct-canonical pairs (a < b) plus
        unary presence rows (b = '') for the per-entity segment counts."""
        if group.num_rows == 0 or "url" not in group.column_names:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        by_seg: dict[tuple, set] = {}
        for u, s, c in zip(
            group.column("url").to_pylist(),
            group.column("seg_id").to_pylist(),
            group.column("canonical").to_pylist(),
        ):
            by_seg.setdefault((u, s), set()).add(c)
        a_out, b_out = [], []
        for ents in by_seg.values():
            es = sorted(ents)
            for i, e in enumerate(es):
                a_out.append(e)
                b_out.append("")  # unary presence row
                for f in es[i + 1 :]:
                    a_out.append(e)
                    b_out.append(f)
        return pa.table(
            {"a": pa.array(a_out, pa.string()), "b": pa.array(b_out, pa.string())}
        )

    counts = (
        joined.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(segment_pairs, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
    )
    counts = counts.materialize()  # consumed as pairs AND as unary side

    def explode_pairs(batch: pa.Table) -> pa.Table:
        """pair rows -> one row per endpoint, keyed for the unary join."""
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "ent": pa.array([], pa.string()),
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int32()),
                }
            )
        t = batch.filter(pc.not_equal(batch.column("b"), ""))
        if t.num_rows == 0:
            return pa.table(
                {
                    "ent": pa.array([], pa.string()),
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int32()),
                }
            )
        n = t.column("count()").cast(pa.int64())
        half = pa.table(
            {
                "ent": t.column("a"),
                "a": t.column("a"),
                "b": t.column("b"),
                "n_ab": n,
                "side": pa.array([0] * t.num_rows, pa.int32()),
            }
        )
        other = pa.table(
            {
                "ent": t.column("b"),
                "a": t.column("a"),
                "b": t.column("b"),
                "n_ab": n,
                "side": pa.array([1] * t.num_rows, pa.int32()),
            }
        )
        return pa.concat_tables([half, other])

    def unary_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {"ent": pa.array([], pa.string()), "n_ent": pa.array([], pa.int64())}
            )
        t = batch.filter(pc.equal(batch.column("b"), ""))
        return pa.table(
            {"ent": t.column("a"), "n_ent": t.column("count()").cast(pa.int64())}
        )

    sides = counts.map_batches(explode_pairs, batch_format="pyarrow").join(
        counts.map_batches(unary_rows, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=n_part,
        on=("ent",),
    )

    def reassemble(group: pa.Table) -> pa.Table:
        """(a, b) group of two side rows -> one edge row."""
        if group.num_rows == 0 or "side" not in group.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        idx = pc.sort_indices(
            group,
            sort_keys=[("a", "ascending"), ("b", "ascending"), ("side", "ascending")],
        )
        g = group.take(idx)
        import numpy as np

        a = np.asarray(g.column("a").to_pylist(), dtype=object)
        b = np.asarray(g.column("b").to_pylist(), dtype=object)
        n_ent = np.asarray(g.column("n_ent").to_pylist(), dtype=np.int64)
        n_ab = np.asarray(g.column("n_ab").to_pylist(), dtype=np.int64)
        new = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "a": pa.array(a[starts].tolist(), pa.string()),
                "b": pa.array(b[starts].tolist(), pa.string()),
                "n_ab": pa.array(n_ab[starts], pa.int64()),
                "n_a": pa.array(n_ent[starts], pa.int64()),
                "n_b": pa.array(n_ent[starts + 1], pa.int64()),
            }
        )

    def tag_pair_shard(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return batch.append_column("pshard", pa.array([], pa.int32()))
        sh = [
            zlib.crc32(f"{x}\x00{y}".encode()) % shards
            for x, y in zip(batch.column("a").to_pylist(), batch.column("b").to_pylist())
        ]
        return batch.append_column("pshard", pa.array(sh, pa.int32()))

    return (
        sides.map_batches(tag_pair_shard, batch_format="pyarrow")
        .groupby("pshard")
        .map_groups(
            lambda g: reassemble(g.drop_columns(["pshard"]) if "pshard" in g.column_names else g),
            batch_format="pyarrow",
        )
    )


def entity_timeline(mentions_ds, surface_map_ds, pages_ds, num_partitions=None):
    """Mentions-per-entity-per-crawl-day — the freshness/trend analytic a
    KG over a rolling crawl needs: ``(canonical, day, n_mentions)`` where
    ``day`` is the integer epoch day of the mentioning page's crawl.

    Three-table shape, all shuffles: mentions ⋈ surface map on
    (type, surface) for the canonical (same key as build_nodes_join),
    then ⋈ a tiny (url, day) projection of pages, then a per-batch
    (canonical, day) count combiner feeding one Sum groupby — a head
    entity mentioned 10^9 times ships one row per (day, block)."""
    from ray.data.aggregate import Sum

    from ..stages.graph import _join_parts, _sm_renamed
    from ..stages.linking import LINKED_TYPES

    n_part = num_partitions or (
        1 if surface_map_ds.count() < 10_000 else _join_parts()
    )

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type" not in batch.column_names:
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "type": pa.array([], pa.string()),
                    "surface": pa.array([], pa.string()),
                }
            )
        t = batch.select(["url", "type", "surface"])
        return t.filter(pc.is_in(t.column("type"), pa.array(LINKED_TYPES)))

    def url_day(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(
                {"url": pa.array([], pa.string()), "day": pa.array([], pa.int64())}
            )
        us = batch.column("warc_ts").cast(pa.int64())
        return pa.table(
            {
                "url": batch.column("url"),
                "day": pc.divide(us, 86_400_000_000).cast(pa.int64()),
            }
        )

    canon = mentions_ds.map_batches(prefilter, batch_format="pyarrow").join(
        _sm_renamed(surface_map_ds, "type", "surface", "_nid", "canonical"),
        join_type="inner",
        num_partitions=n_part,
        on=("type", "surface"),
    )
    days = pages_ds.select_columns(["url", "warc_ts"]).map_batches(
        url_day, batch_format="pyarrow"
    )
    joined = canon.join(days, join_type="inner", num_partitions=n_part, on=("url",))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "canonical" not in batch.column_names:
            return pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "day": pa.array([], pa.int64()),
                    "n_mentions": pa.array([], pa.int64()),
                }
            )
        g = (
            batch.select(["canonical", "day"])
            .group_by(["canonical", "day"])
            .aggregate([("day", "count")])
        )
        return pa.table(
            {
                "canonical": g.column("canonical"),
                "day": g.column("day"),
                "n_mentions": g.column("day_count").cast(pa.int64()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["canonical", "day"])
        .aggregate(Sum("n_mentions", alias_name="n_mentions"))
    )


def connected_components(edges_ds, num_partitions: int | None = None):
    """KG edges (src_id, dst_id, src_canonical, dst_canonical) ->
    (canonical, component) where ``component`` is the lexicographically
    smallest canonical in the node's connected component — the standard
    "which entities are transitively related at all" query over the graph.

    Engine shape: the heavy lifting is the BSP min-label propagation loop
    over hash-co-partitioned int-id shards
    (stages/linking._propagate_components — diameter-many rounds of tiny
    vectorized exchanges, per-round checkpointable); what follows is two
    bounded node-set exchanges: an id->canonical hash join (node rows
    only, never edges) and a per-label min-canonical ``map_groups`` to
    re-key the integer labels as stable canonical representatives (int
    label minima depend on internal id assignment; the min CANONICAL is a
    pure function of the graph and therefore SQL-mirrorable).
    """
    from ..stages.linking import components_from_int_edges

    comp = components_from_int_edges(
        edges_ds.select_columns(["src_id", "dst_id"]),
        col_a="src_id",
        col_b="dst_id",
        num_partitions=num_partitions,
    )

    def idmap(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.int64()), "canonical": pa.array([], pa.string())}
            )
        seen: dict[int, str] = {}
        for side in ("src", "dst"):
            seen.update(
                zip(
                    batch.column(f"{side}_id").to_pylist(),
                    batch.column(f"{side}_canonical").to_pylist(),
                )
            )
        return pa.table(
            {
                "node": pa.array(list(seen), pa.int64()),
                "canonical": pa.array(list(seen.values()), pa.string()),
            }
        )

    from ray.data.aggregate import Min

    from .dedup import _join_partitions

    nodes = (
        edges_ds.select_columns(
            ["src_id", "src_canonical", "dst_id", "dst_canonical"]
        )
        .map_batches(idmap, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("canonical", alias_name="canonical"))
    )
    n_part = num_partitions
    if n_part is None:
        n_part = 1 if nodes.count() < 10_000 else _join_partitions()
    labeled = comp.join(nodes, join_type="inner", num_partitions=n_part, on=("node",))
    reps = labeled.select_columns(["label", "canonical"]).groupby("label").aggregate(
        Min("canonical", alias_name="component")
    )
    return (
        labeled.join(reps, join_type="inner", num_partitions=n_part, on=("label",))
        .select_columns(["canonical", "component"])
    )


_PAIR_CHUNK = 1 << 22  # 4M pair rows per emitted chunk (~100-200 MB strings)


def _triu_pair_chunks(nbrs, chunk: int = _PAIR_CHUNK):
    """Yield (a_chunk, b_chunk) neighbor-pair Arrow arrays for ONE apex's
    ascending-sorted neighbor array, in bounded chunks.

    An Arrow StringArray caps character data at 2^31 bytes, so a mega-hub
    apex (degree d -> d*(d-1)/2 pairs; the cached 1M-page graph has
    d=20,174 -> 203M pairs) must never materialize its pair set — or even
    one take() of it — as a single array: that is exactly the
    'offset overflow while concatenating arrays' crash this helper fixes.
    Row-block index generation keeps peak memory O(chunk) as well."""
    import numpy as np

    d = len(nbrs)
    if d < 2:
        return
    rows_per_block = max(1, chunk // max(d - 1, 1))
    for i0 in range(0, d - 1, rows_per_block):
        i1 = min(i0 + rows_per_block, d - 1)
        counts = (d - 1) - np.arange(i0, i1, dtype=np.int64)
        total = int(counts.sum())
        ii = np.repeat(np.arange(i0, i1, dtype=np.int64), counts)
        block_starts = np.cumsum(counts) - counts
        jj = (
            np.arange(total, dtype=np.int64)
            - np.repeat(block_starts, counts)
            + ii
            + 1
        )
        for o in range(0, total, chunk):
            yield (
                nbrs.take(pa.array(ii[o : o + chunk], pa.int64())),
                nbrs.take(pa.array(jj[o : o + chunk], pa.int64())),
            )


def common_neighbors(
    edges_ds,
    min_common: int = 1,
    max_degree: int | None = None,
    num_partitions: int | None = None,
):
    """Link-prediction features over the UNDIRECTED simple graph induced
    by the edges table: for every unordered node pair ``(a, b)`` with at
    least ``min_common`` shared neighbors, emit

        ``(a, b, common, deg_a, deg_b, jaccard_ppm, is_edge)``

    where ``jaccard_ppm = (10^6 * common) // (deg_a + deg_b - common)``
    (exact integer arithmetic — hash-stable cross-engine) and ``is_edge``
    marks pairs that are already adjacent (the usual candidate filter:
    link prediction scores the ``is_edge = 0`` rows).

    Reference anchor: the closest reference precedent is the candidate
    pair scoring of `src/methods/TransformerReferenceExtractor.py:12-22`
    (query x candidate similarity); neighborhood-overlap scores are the
    graph-native analog over the KG this engine materializes.

    Scale shape: exact common-neighbor counting IS wedge enumeration —
    an apex of degree d contributes d*(d-1)/2 wedge rows, which is also
    the size of the exact answer, so unlike :func:`triangle_counts` there
    is no orientation trick that shrinks it.  The standard mitigations
    are both here: wedges are generated per coarse hash partition of the
    apex (vectorized boundary scan + ``np.triu_indices``, one UDF call
    per partition — the stages/linking.py ``_block_pairs_partition``
    pattern), and ``max_degree`` skips super-node apexes (celebrity
    hubs), the accepted approximation in production similarity systems.
    ``is_edge`` costs NO join: undirected edges are unioned into the
    wedge-pair stream as (common=0, is_edge=1) rows and folded in the
    same groupby that sums the wedge counts.  Endpoint degrees arrive by
    the one side-tagged hash join (two plain joins would pay a second
    aggregator fleet)."""
    import numpy as np
    from ray.data.aggregate import Max, Sum

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )

    from ..ops.dedup import _join_partitions
    from ..state.lineage import url_buckets
    from ..stages.linking import _coarse_parts

    n_part = num_partitions
    if n_part is None:
        n_part = 1 if und.count() < 10_000 else _join_partitions()
    parts = _coarse_parts()

    def adjacency(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "u": pa.array([], pa.string()),
                "v": pa.array([], pa.string()),
                "part": pa.array([], pa.int32()),
            }
        )
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return empty
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        u = pa.concat_arrays([a, b])
        v = pa.concat_arrays([b, a])
        return pa.table(
            {"u": u, "v": v, "part": pa.array(url_buckets(u, parts), pa.int32())}
        )

    adj = und.map_batches(adjacency, batch_format="pyarrow")

    degrees = (
        adj.select_columns(["u"])
        .groupby("u")
        .count()
        .rename_columns({"count()": "deg"})
    )

    def wedge_pairs_partition(group: pa.Table) -> pa.Table:
        """One coarse hash partition (MANY apexes) -> neighbor-pair rows.
        Neighbors sorted ascending per apex, so wa < wb always holds and
        the pair key matches the undirected edge key (a, b)."""
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "common": pa.array([], pa.int64()),
                "edge": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0 or "u" not in group.column_names:
            return empty
        tbl = group.sort_by([("u", "ascending"), ("v", "ascending")])
        codes = pc.dictionary_encode(tbl.column("u").combine_chunks()).indices
        idx = np.asarray(codes)
        starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
        ends = np.r_[starts[1:], len(idx)]
        sizes = ends - starts
        keep = sizes >= 2
        if max_degree is not None:
            keep &= sizes <= max_degree
        if not keep.any():
            return empty
        vs = tbl.column("v").combine_chunks()
        out_a: list[pa.Array] = []
        out_b: list[pa.Array] = []
        for s, e in zip(starts[keep], ends[keep]):
            for ca, cb in _triu_pair_chunks(vs.slice(s, e - s)):
                out_a.append(ca)
                out_b.append(cb)
        if not out_a:
            return empty
        n = sum(len(x) for x in out_a)
        # chunked columns, never one concat: a mega-hub partition's pair
        # strings exceed a single StringArray's 2^31-byte offset cap
        return pa.table(
            {
                "a": pa.chunked_array(out_a),
                "b": pa.chunked_array(out_b),
                "common": pa.array(np.ones(n, np.int64)),
                "edge": pa.array(np.zeros(n, np.int64)),
            }
        )

    wedges = adj.groupby("part").map_groups(
        wedge_pairs_partition, batch_format="pyarrow"
    )

    def und_markers(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "edge": pa.array([], pa.int64()),
                }
            )
        n = batch.num_rows
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "common": pa.array(np.zeros(n, np.int64)),
                "edge": pa.array(np.ones(n, np.int64)),
            }
        )

    pairs = (
        wedges.union(und.map_batches(und_markers, batch_format="pyarrow"))
        .groupby(["a", "b"])
        .aggregate(
            Sum("common", alias_name="common"), Max("edge", alias_name="is_edge")
        )
        .filter(expr=f"common >= {int(min_common)}")
        .materialize()
    )
    if pairs.count() == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "deg_a": pa.array([], pa.int64()),
                    "deg_b": pa.array([], pa.int64()),
                    "jaccard_ppm": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int64()),
                }
            )
        )

    # ONE side-tagged join attaches both endpoint degrees
    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int32()),
                    "key": pa.array([], pa.string()),
                }
            )
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        common = batch.column("common").cast(pa.int64()).combine_chunks()
        edge = batch.column("is_edge").cast(pa.int64()).combine_chunks()
        n = batch.num_rows
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "common": pa.concat_arrays([common, common]),
                "is_edge": pa.concat_arrays([edge, edge]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                "key": pa.concat_arrays([a, b]),
            }
        )

    def split_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "side" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int64()),
                    "deg_a": pa.array([], pa.int64()),
                    "deg_b": pa.array([], pa.int64()),
                }
            )
        is_a = pc.equal(batch.column("side"), pa.scalar(0, pa.int32()))
        zero = pa.scalar(0, pa.int64())
        deg = batch.column("deg").cast(pa.int64())
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "common": batch.column("common"),
                "is_edge": batch.column("is_edge"),
                "deg_a": pc.if_else(is_a, deg, zero),
                "deg_b": pc.if_else(is_a, zero, deg),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "common" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "deg_a": pa.array([], pa.int64()),
                    "deg_b": pa.array([], pa.int64()),
                    "jaccard_ppm": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int64()),
                }
            )
        common = batch.column("common").cast(pa.int64())
        da = batch.column("deg_a").cast(pa.int64())
        db = batch.column("deg_b").cast(pa.int64())
        union_sz = pc.subtract(pc.add(da, db), common)
        jac = pc.divide(
            pc.multiply(common, pa.scalar(1_000_000, pa.int64())), union_sz
        )
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "common": common,
                "deg_a": da,
                "deg_b": db,
                "jaccard_ppm": jac,
                "is_edge": batch.column("is_edge").cast(pa.int64()),
            }
        )

    return (
        pairs.map_batches(explode_sides, batch_format="pyarrow")
        .join(degrees, join_type="inner", num_partitions=n_part,
              on=("key",), right_on=("u",))
        .map_batches(split_sides, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(
            Max("common", alias_name="common"),
            Max("is_edge", alias_name="is_edge"),
            Max("deg_a", alias_name="deg_a"),
            Max("deg_b", alias_name="deg_b"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def latest_assertions(triples_ds, pages_ds, num_partitions: int | None = None):
    """Temporal-KG snapshot: for each (subject, predicate) the most
    recently CRAWLED assertion — the "current state of the graph" view a
    Common-Crawl-style KG serves, where the same fact is re-asserted
    across monthly crawls and only the newest object should win.

    Triples carry provenance urls but no timestamps; the crawl time lives
    on the pages table, so the op is a narrow hash join (triple rows
    pruned to key+payload, pages pruned to ``(url, warc_ts)``) followed
    by a per-(subj, pred) argmax with the repo's standard two-stage
    shape: a per-batch combiner keeps ONE candidate row per key per
    block — a head entity re-asserted in every crawl ships O(blocks)
    rows, not every assertion — then a tiny groupby picks the global
    winner.  Tie-break is fully deterministic: newest warc_ts, then
    smallest (url, seg_id, obj_canonical).

    Emits (subj_canonical, pred, obj_canonical, asserted_ts_us, url)."""
    import numpy as np

    from .relational import _join_parts

    cols = ["subj_canonical", "pred", "obj_canonical", "url", "seg_id"]
    n_part = num_partitions
    if n_part is None:
        tri = triples_ds.select_columns(cols).materialize()
        # tiny inputs: empty shuffle partitions crash Ray's hash join
        n_part = 1 if tri.count() < 10_000 else _join_parts()
        triples_ds = tri
    joined = triples_ds.select_columns(cols).join(
        pages_ds.select_columns(["url", "warc_ts"]),
        join_type="inner",
        num_partitions=n_part,
        on=("url",),
    )

    _SORT = [
        ("subj_canonical", "ascending"),
        ("pred", "ascending"),
        ("asserted_ts_us", "descending"),
        ("url", "ascending"),
        ("seg_id", "ascending"),
        ("obj_canonical", "ascending"),
    ]

    def candidates(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "warc_ts" not in batch.column_names:
            return pa.table(
                {
                    "subj_canonical": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "obj_canonical": pa.array([], pa.string()),
                    "asserted_ts_us": pa.array([], pa.int64()),
                    "url": pa.array([], pa.string()),
                    "seg_id": pa.array([], pa.int64()),
                }
            )
        t = pa.table(
            {
                "subj_canonical": batch.column("subj_canonical"),
                "pred": batch.column("pred"),
                "obj_canonical": batch.column("obj_canonical"),
                "asserted_ts_us": batch.column("warc_ts").cast(pa.int64()),
                "url": batch.column("url"),
                "seg_id": batch.column("seg_id").cast(pa.int64()),
            }
        )
        t = t.take(pc.sort_indices(t, sort_keys=_SORT))
        s = np.asarray(t.column("subj_canonical").to_pylist(), dtype=object)
        p = np.asarray(t.column("pred").to_pylist(), dtype=object)
        keep = np.ones(len(s), dtype=bool)
        if len(s) > 1:
            keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1])
        return t.filter(pa.array(keep))

    def winner(group: pa.Table) -> pa.Table:
        g = group.take(pc.sort_indices(group, sort_keys=_SORT))
        s = np.asarray(g.column("subj_canonical").to_pylist(), dtype=object)
        p = np.asarray(g.column("pred").to_pylist(), dtype=object)
        keep = np.ones(len(s), dtype=bool)
        if len(s) > 1:
            keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1])
        g = g.filter(pa.array(keep))
        return g.drop_columns(["seg_id"])

    return (
        joined.map_batches(candidates, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred"])
        .map_groups(winner, batch_format="pyarrow")
    )


def _bfs_remotes():
    """BSP worker tasks for multi-source BFS (lazy so import never
    touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p]: bounds[p + 1]], v[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(seed_ids, *edge_parts):
        """Partition state: u-sorted out-edges, sorted node array (u
        endpoints owned by this partition under u % P), per-node depth
        (0 for seeds, "infinity" otherwise) and an all-seeds frontier."""
        INF = np.iinfo(np.int64).max
        # P == 1 ships the un-split 1-element list (num_returns=1 does
        # not unwrap); normalize to the (u, v) tuple
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        depth = np.full(len(nodes), INF, dtype=np.int64)
        idx = np.searchsorted(nodes, seed_ids)
        ok = (idx < len(nodes))
        sub = idx[ok]
        sub = sub[nodes[sub] == seed_ids[ok]]
        depth[sub] = 0
        frontier = np.zeros(len(nodes), dtype=bool)
        frontier[sub] = True
        return u, v, nodes, depth, frontier

    @ray.remote
    def msgs(part, P: int):
        """(dst, depth+1) shards from this round's FRONTIER nodes only —
        message volume per round is O(frontier out-degree), not O(V)."""
        u, v, nodes, depth, frontier = part
        if not frontier.any():
            ei = np.empty(0, np.int64)
            return [(ei, ei)] * P
        lo = np.searchsorted(u, nodes[frontier], side="left")
        hi = np.searchsorted(u, nodes[frontier], side="right")
        # gather each frontier node's edge range
        vs = np.concatenate([v[a:b] for a, b in zip(lo, hi)]) if len(lo) else np.empty(0, np.int64)
        ds_ = np.concatenate(
            [np.full(b - a, d, dtype=np.int64) for a, b, d in zip(lo, hi, depth[frontier])]
        ) if len(lo) else np.empty(0, np.int64)
        ds_ = ds_ + 1
        dest = vs % P
        order = np.argsort(dest, kind="stable")
        vs, ds_, dest = vs[order], ds_[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(vs[bounds[p]: bounds[p + 1]], ds_[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def reduce_part(part, *incoming):
        u, v, nodes, depth, _ = part
        new = depth.copy()
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        for mv, md in incoming:
            if len(mv):
                idx = np.searchsorted(nodes, mv)
                np.minimum.at(new, idx, md)
        frontier = new < depth
        return (u, v, nodes, new, frontier), bool(frontier.any())

    @ray.remote
    def to_table(part) -> pa.Table:
        INF = np.iinfo(np.int64).max
        _, _, nodes, depth, _ = part
        fin = depth < INF
        return pa.table(
            {
                "node": pa.array(nodes[fin], pa.int64()),
                "depth": pa.array(depth[fin], pa.int64()),
            }
        )

    return split_edges, concat_part, msgs, reduce_part, to_table


def bfs_depths(edges_ds, seeds, *, max_depth: int = 6,
               num_partitions: int | None = None):
    """Multi-source BFS: hop distance (<= ``max_depth``) from a seed set
    of canonical entities over the UNDIRECTED entity graph — the k-hop
    neighborhood query a KG serves ("everything within 3 hops of X").

    Same BSP shape as components/PageRank (iterative algorithms are the
    one place the Dataset API genuinely can't express the semantics):
    symmetric int-id edges hash-partition ONCE by source; each round only
    the FRONTIER (nodes whose depth improved last round) sends
    (dst, depth+1) messages to peer partitions, minima fold vectorized —
    so total message volume across the whole run is O(sum of frontier
    degrees) = O(E), matching sequential BFS work.  Exactly ``max_depth``
    rounds bound the loop (round r settles depth r+1), with early exit
    when every frontier empties.

    ``seeds`` are canonical strings (resolved to int ids through the
    edges' own id columns).  Emits (canonical, depth) for reached nodes
    only.  Depths are a pure function of the graph, so a DuckDB
    recursive CTE mirrors exactly."""
    nodes = _bfs_nodes(edges_ds)
    static = _bfs_static(edges_ds, nodes, num_partitions)
    return _bfs_run(static, nodes, seeds, max_depth)


def _bfs_nodes(edges_ds):
    """Materialized id <-> canonical node map (node rows only, never
    edges) — shared by the seed lookup and the final re-key join, and
    by multi-source callers across runs."""
    from ray.data.aggregate import Min

    def idmap(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.int64()), "canonical": pa.array([], pa.string())}
            )
        seen: dict[int, str] = {}
        for side in ("src", "dst"):
            seen.update(
                zip(
                    batch.column(f"{side}_id").to_pylist(),
                    batch.column(f"{side}_canonical").to_pylist(),
                )
            )
        return pa.table(
            {
                "node": pa.array(list(seen), pa.int64()),
                "canonical": pa.array(list(seen.values()), pa.string()),
            }
        )

    return (
        edges_ds.select_columns(["src_id", "src_canonical", "dst_id", "dst_canonical"])
        .map_batches(idmap, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("canonical", alias_name="canonical"))
        .materialize()
    )


def _bfs_static(edges_ds, nodes, num_partitions):
    """Materialize the BFS static state ONCE — symmetrized int edges,
    split into P hash shards as reusable ObjectRefs — so multi-source
    callers (:func:`closeness_sampled`) pay the edge pass a single time
    instead of once per source.  Returns (shard_lists, n_blocks, P)."""
    import numpy as np
    import ray

    def sym(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        a = np.asarray(batch.column("src_id").to_pylist(), dtype=np.int64)
        b = np.asarray(batch.column("dst_id").to_pylist(), dtype=np.int64)
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b]), pa.int64()),
                "v": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_edges, _concat, _msgs, _reduce, _tt = _bfs_remotes()
    sym_ds = edges_ds.select_columns(["src_id", "dst_id"]).map_batches(
        sym, batch_format="pyarrow"
    ).materialize()
    block_refs = list(sym_ds.to_arrow_refs())
    shard_lists = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    return shard_lists, len(block_refs), P


def _bfs_run(static, nodes, seeds, max_depth):
    """One seed-set BSP run over pre-split shards (see
    :func:`_bfs_static`); bit-identical to the previous inline form —
    the shards are immutable ObjectRefs, each run builds fresh
    per-partition state from them."""
    import numpy as np
    import ray
    import ray.data

    from .dedup import _join_partitions

    shard_lists, n_blocks, P = static
    _split, concat_part, msgs, reduce_part, to_table = _bfs_remotes()
    seed_set = set(seeds)
    seed_rows = nodes.filter(lambda r: r["canonical"] in seed_set).take_all()
    seed_ids = np.asarray(sorted(r["node"] for r in seed_rows), dtype=np.int64)
    seed_ref = ray.put(seed_ids)
    parts = [
        concat_part.remote(seed_ref, *[shard_lists[i][p] for i in range(n_blocks)])
        for p in range(P)
    ]

    for _ in range(max_depth):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_part.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        changed = ray.get([n[1] for n in new])
        if not any(changed):
            break

    depths = ray.data.from_arrow_refs([to_table.remote(p) for p in parts]).materialize()
    empty = pa.table(
        {"canonical": pa.array([], pa.string()), "depth": pa.array([], pa.int64())}
    )
    if len(seed_ids) == 0 or depths.count() == 0:
        # unknown seeds reach nothing; short-circuit unconditionally — an
        # empty side crashes Ray's hash join (see triangle_counts)
        return ray.data.from_arrow(empty)
    n_part = 1 if nodes.count() < 10_000 else _join_partitions()
    out = depths.join(nodes, join_type="inner", num_partitions=n_part, on=("node",))
    return out.select_columns(["canonical", "depth"])


def path_counts(edges_ds, num_partitions: int | None = None):
    """Length-2 directed path census by predicate composition: for every
    ordered predicate pair (pred_a, pred_b), how many paths
    s -pred_a-> m -pred_b-> o exist — the signal rule-mining (AMIE-style
    "works_for o located_in => lives_near") starts from.

    The naive form is a self-join of edges on the middle node, which
    explodes quadratically through hub entities (countries, celebrities —
    exactly the head-skew the brief calls out).  This op never
    materializes a path: paths through m with labels (a, b) =
    in_deg_a(m) * out_deg_b(m), so it computes per-node per-predicate
    in/out degree tables (two-stage combiner aggregation), joins the two
    small per-node tables on the node key, and sums the products per
    (pred_a, pred_b) — cost linear in edges + distinct (node, pred)
    pairs, flat through any hub.  Emits (pred_a, pred_b, n_paths)."""
    import ray.data
    from ray.data.aggregate import Sum

    from .relational import _join_parts

    def in_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "node": pa.array([], pa.string()),
            "pred_a": pa.array([], pa.string()),
            "n_in": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "dst_canonical" not in batch.column_names:
            return pa.table(cols)
        g = batch.group_by(["dst_canonical", "pred"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "node": g.column("dst_canonical"),
                "pred_a": g.column("pred"),
                "n_in": g.column("count_all").cast(pa.int64()),
            }
        )

    def out_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "node": pa.array([], pa.string()),
            "pred_b": pa.array([], pa.string()),
            "n_out": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(cols)
        g = batch.group_by(["src_canonical", "pred"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "node": g.column("src_canonical"),
                "pred_b": g.column("pred"),
                "n_out": g.column("count_all").cast(pa.int64()),
            }
        )

    ein = (
        edges_ds.select_columns(["dst_canonical", "pred"])
        .map_batches(in_partial, batch_format="pyarrow")
        .groupby(["node", "pred_a"])
        .aggregate(Sum("n_in", alias_name="n_in"))
    )
    eout = (
        edges_ds.select_columns(["src_canonical", "pred"])
        .map_batches(out_partial, batch_format="pyarrow")
        .groupby(["node", "pred_b"])
        .aggregate(Sum("n_out", alias_name="n_out"))
    ).materialize()
    if eout.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "pred_a": pa.array([], pa.string()),
                    "pred_b": pa.array([], pa.string()),
                    "n_paths": pa.array([], pa.int64()),
                }
            )
        )
    n_part = num_partitions
    if n_part is None:
        # tiny inputs: empty shuffle partitions crash Ray's hash join
        n_part = 1 if eout.count() < 10_000 else _join_parts()
    joined = ein.join(eout, join_type="inner", num_partitions=n_part, on=("node",))

    def pair_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "pred_a": pa.array([], pa.string()),
            "pred_b": pa.array([], pa.string()),
            "n_paths": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "n_in" not in batch.column_names:
            return pa.table(cols)
        prod = pc.multiply(batch.column("n_in"), batch.column("n_out"))
        t = pa.table(
            {
                "pred_a": batch.column("pred_a"),
                "pred_b": batch.column("pred_b"),
                "prod": prod,
            }
        )
        g = t.group_by(["pred_a", "pred_b"]).aggregate([("prod", "sum")])
        return pa.table(
            {
                "pred_a": g.column("pred_a"),
                "pred_b": g.column("pred_b"),
                "n_paths": g.column("prod_sum").cast(pa.int64()),
            }
        )

    return (
        joined.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["pred_a", "pred_b"])
        .aggregate(Sum("n_paths", alias_name="n_paths"))
    )


def predicate_signatures(triples_ds):
    """Schema induction over the extracted triples: the census of
    (pred, subj_type, obj_type) signatures with assertion counts — the
    first QA artifact a KG-construction run inspects (a predicate
    asserting against an unexpected type pair is an extraction bug).
    Classic two-stage: per-batch Arrow group_by combiner (one row per
    distinct signature per block), one small global groupby."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "pred": pa.array([], pa.string()),
            "subj_type": pa.array([], pa.string()),
            "obj_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "pred" not in batch.column_names:
            return pa.table(cols)
        g = batch.group_by(["pred", "subj_type", "obj_type"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "pred": g.column("pred"),
                "subj_type": g.column("subj_type"),
                "obj_type": g.column("obj_type"),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    return (
        triples_ds.select_columns(["pred", "subj_type", "obj_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["pred", "subj_type", "obj_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


def _neg_hash_u64(key: str) -> int:
    """Upper-64-bit md5 of ``key`` — equals DuckDB
    ``md5_number_upper(key)``.  Delegates to the ONE md5-bridge helper
    (functions/similarity._md5_hash64) so the cross-engine convention
    can never desynchronize."""
    from ..functions.similarity import _md5_hash64

    return _md5_hash64(key.encode())


def negative_samples(edges_ds, pool_size: int = 64):
    """(subj_canonical, pred, obj_canonical, neg_obj) — one deterministic
    corrupted-object negative per KG edge, the training-pair generator a
    KG-embedding recipe (TransE-style margin loss) applies over the
    materialized edges table.

    Negatives are drawn **within the predicate's observed object set**
    (range-respecting corruption), from a bounded deterministic pool: the
    ``pool_size`` objects with the smallest salted content hash per
    predicate.  Structure:

    * pool build — per-block partial bottom-k per predicate (bounded at
      ``preds_in_block * pool_size`` rows), one final bottom-k over the
      combined partials.  The exchange moves ``blocks * preds *
      pool_size`` rows, never a predicate's full object vocabulary.
    * sampling — pools broadcast once (``ray.put``; total size is
      ``n_preds * pool_size`` strings, corpus-size-independent), each
      edge picks ``pool[h(s|p|o) % n]``, stepping one slot when the pick
      equals the true object.  A pure function of the edge, so the output
      is stable under reruns/appends and SQL-mirrorable (the oracle in
      ``__ray_entry__`` inlines the same md5 arithmetic).

    An edge whose predicate pool holds only its own true object yields no
    negative and is dropped.  Negatives may collide with OTHER true
    objects of the same (subj, pred) — standard for corruption sampling
    (filtered variants re-check against the edge set; not done here).
    """
    import numpy as np
    import ray

    empty_pool = pa.table(
        {
            "pred": pa.array([], pa.string()),
            "o": pa.array([], pa.string()),
            "h": pa.array([], pa.uint64()),
        }
    )

    def pool_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "pred" not in batch.column_names:
            return empty_pool
        t = batch.select(["pred", "dst_canonical"]).rename_columns(["pred", "o"])
        t = t.group_by(["pred", "o"]).aggregate([])  # block-local distinct
        hv = pa.array(
            np.fromiter(
                (_neg_hash_u64("pool:" + o) for o in t.column("o").to_pylist()),
                dtype=np.uint64,
                count=t.num_rows,
            )
        )
        t = t.append_column("h", hv).sort_by(
            [("pred", "ascending"), ("h", "ascending"), ("o", "ascending")]
        )
        codes = pc.dictionary_encode(t.column("pred").combine_chunks())
        idx = np.asarray(codes.indices)
        starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
        run_start = np.repeat(starts, np.diff(np.r_[starts, len(idx)]))
        keep = (np.arange(len(idx)) - run_start) < pool_size
        return t.take(pa.array(np.flatnonzero(keep), pa.int64()))

    def pool_final(batch: pa.Table) -> pa.Table:
        # combined partials may repeat (pred, o) across blocks — distinct,
        # then one more bottom-k pass (h is recomputed from o, same value)
        if batch.num_rows == 0:
            return empty_pool
        t = batch.group_by(["pred", "o"]).aggregate([])
        return pool_partial(
            pa.table(
                {
                    "pred": t.column("pred"),
                    "dst_canonical": t.column("o"),
                }
            )
        )

    # batch_size=None feeds the single repartitioned block as ONE batch —
    # the default batch size would chunk the combined partials and break
    # the global per-predicate bottom-k (ops/tfidf.collect_pruned_df
    # precedent)
    pools_tbl = pa.concat_tables(
        [empty_pool]
        + list(
            edges_ds.select_columns(["pred", "dst_canonical"])
            .map_batches(pool_partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(pool_final, batch_format="pyarrow", batch_size=None)
            .iter_batches(batch_format="pyarrow")
        ),
        promote_options="default",
    )
    pools: dict[str, list[str]] = {}
    for p, o in zip(
        pools_tbl.column("pred").to_pylist(), pools_tbl.column("o").to_pylist()
    ):
        pools.setdefault(p, []).append(o)  # already (h, o)-sorted per pred
    pools_ref = ray.put(pools)

    empty_out = pa.table(
        {
            "subj_canonical": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "obj_canonical": pa.array([], pa.string()),
            "neg_obj": pa.array([], pa.string()),
        }
    )

    def pick(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "pred" not in batch.column_names:
            return empty_out
        pl = ray.get(pools_ref)
        subs, preds, objs, negs = [], [], [], []
        for s, p, o in zip(
            batch.column("src_canonical").to_pylist(),
            batch.column("pred").to_pylist(),
            batch.column("dst_canonical").to_pylist(),
        ):
            pool = pl.get(p)
            if not pool or (len(pool) == 1 and pool[0] == o):
                continue
            i = _neg_hash_u64(f"neg:{s}|{p}|{o}") % len(pool)
            neg = pool[i]
            if neg == o:
                neg = pool[(i + 1) % len(pool)]
            subs.append(s)
            preds.append(p)
            objs.append(o)
            negs.append(neg)
        return pa.table(
            {
                "subj_canonical": pa.array(subs, pa.string()),
                "pred": pa.array(preds, pa.string()),
                "obj_canonical": pa.array(objs, pa.string()),
                "neg_obj": pa.array(negs, pa.string()),
            }
        )

    return edges_ds.select_columns(
        ["src_canonical", "pred", "dst_canonical"]
    ).map_batches(pick, batch_format="pyarrow")


def entity_salience(mentions_ds, surface_map_ds, num_partitions=None):
    """(url, canonical, type, n_mentions, first_pos, first_seg) — per-page
    entity salience features: how often a canonical entity is mentioned on
    the page, how early its first mention appears in the page text
    (``first_pos`` = min char offset), and the earliest segment that
    mentions it.  The classic feature triple an entity-salience ranker
    (e.g. "aboutness" scoring for KG population) trains on.

    Shape: linked-type prefilter -> ONE hash-shuffle join against the
    surface map (the same (type, surface) key as stages/graph
    ``build_nodes_join``; the map never lands on the driver) -> per-batch
    Arrow group-by combiner -> small final groupby.  All outputs are
    exact integers, so the result is hash-comparable across engines."""
    from ray.data.aggregate import Min, Sum

    from ..stages.graph import _join_parts, _sm_renamed
    from ..stages.linking import LINKED_TYPES

    n_part = num_partitions or (
        1 if surface_map_ds.count() < 10_000 else _join_parts()
    )

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "type" not in batch.column_names:
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "seg_id": pa.array([], pa.int32()),
                    "type": pa.array([], pa.string()),
                    "surface": pa.array([], pa.string()),
                    "page_start": pa.array([], pa.int32()),
                }
            )
        t = batch.select(["url", "seg_id", "type", "surface", "page_start"])
        return t.filter(pc.is_in(t.column("type"), pa.array(LINKED_TYPES)))

    joined = mentions_ds.map_batches(prefilter, batch_format="pyarrow").join(
        _sm_renamed(surface_map_ds, "type", "surface", "_nid", "canonical"),
        join_type="inner",
        num_partitions=n_part,
        on=("type", "surface"),
    )

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "url": pa.array([], pa.string()),
            "canonical": pa.array([], pa.string()),
            "type": pa.array([], pa.string()),
            "n_mentions": pa.array([], pa.int64()),
            "first_pos": pa.array([], pa.int64()),
            "first_seg": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(cols)
        g = batch.group_by(["url", "canonical", "type"]).aggregate(
            [([], "count_all"), ("page_start", "min"), ("seg_id", "min")]
        )
        return pa.table(
            {
                "url": g.column("url"),
                "canonical": g.column("canonical"),
                "type": g.column("type"),
                "n_mentions": g.column("count_all").cast(pa.int64()),
                "first_pos": g.column("page_start_min").cast(pa.int64()),
                "first_seg": g.column("seg_id_min").cast(pa.int64()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["url", "canonical", "type"])
        .aggregate(
            Sum("n_mentions", alias_name="n_mentions"),
            Min("first_pos", alias_name="first_pos"),
            Min("first_seg", alias_name="first_seg"),
        )
    )


def rule_support(edges_ds, shards: int = 256):
    """(pred_body, pred_head, support, n_body) — subject-level rule-mining
    counts (AMIE-style partial grounding): for every ordered predicate
    pair, ``support`` = distinct subjects asserting BOTH predicates and
    ``n_body`` = distinct subjects asserting the body predicate.  The
    confidence a rule miner ranks by is ``support / n_body`` — left to
    the consumer as a ratio of the two exact integers so no float enters
    the hash-compared result (the ops/graph_stats convention).

    Shape: per-batch distinct (subject, pred) combiner -> coarse
    crc32-subject shard groupby (a subject's predicate set is always
    co-located; one vectorized-ish UDF call per shard, not per subject)
    emitting ordered pairs plus unary body-marker rows (``pred_head =
    ''``, the cooccurrence_edges trick) -> one count groupby -> body
    counts, bounded by the distinct-predicate count, broadcast into a
    stateless attach pass.  No self-join ever materializes; a hub
    subject with P predicates emits P(P-1) pair rows, bounded by the
    schema size, not the subject's edge count."""
    import zlib

    import ray
    from ray.data.aggregate import Sum

    def sp_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "shard": pa.array([], pa.int32()),
            "s": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
        }
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(cols)
        g = batch.select(["src_canonical", "pred"]).group_by(
            ["src_canonical", "pred"]
        ).aggregate([])
        sh = [
            zlib.crc32(s.encode()) % shards
            for s in g.column("src_canonical").to_pylist()
        ]
        return pa.table(
            {
                "shard": pa.array(sh, pa.int32()),
                "s": g.column("src_canonical"),
                "pred": g.column("pred"),
            }
        )

    def shard_pairs(group: pa.Table) -> pa.Table:
        cols = {
            "pred_body": pa.array([], pa.string()),
            "pred_head": pa.array([], pa.string()),
        }
        if group.num_rows == 0 or "s" not in group.column_names:
            return pa.table(cols)
        by_s: dict[str, set] = {}
        for s, p in zip(group.column("s").to_pylist(), group.column("pred").to_pylist()):
            by_s.setdefault(s, set()).add(p)
        body, head = [], []
        for preds in by_s.values():
            ps = sorted(preds)
            for p1 in ps:
                body.append(p1)
                head.append("")  # unary marker: body count row
                for p2 in ps:
                    if p2 != p1:
                        body.append(p1)
                        head.append(p2)
        return pa.table(
            {
                "pred_body": pa.array(body, pa.string()),
                "pred_head": pa.array(head, pa.string()),
            }
        )

    def count_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "pred_body": pa.array([], pa.string()),
            "pred_head": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "pred_body" not in batch.column_names:
            return pa.table(cols)
        g = batch.group_by(["pred_body", "pred_head"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "pred_body": g.column("pred_body"),
                "pred_head": g.column("pred_head"),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    counts = (
        edges_ds.select_columns(["src_canonical", "pred"])
        .map_batches(sp_partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda g: shard_pairs(g.drop_columns(["shard"])), batch_format="pyarrow"
        )
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby(["pred_body", "pred_head"])
        .aggregate(Sum("n", alias_name="n"))
    ).materialize()

    # body counts: the pred_head='' marker rows — bounded by the distinct
    # predicate count (schema-sized), safe to broadcast
    n_body: dict[str, int] = {}
    for b in counts.iter_batches(batch_format="pyarrow"):
        for pb, ph, n in zip(
            b.column("pred_body").to_pylist(),
            b.column("pred_head").to_pylist(),
            b.column("n").to_pylist(),
        ):
            if ph == "":
                n_body[pb] = n_body.get(pb, 0) + n
    body_ref = ray.put(n_body)

    def attach(batch: pa.Table) -> pa.Table:
        cols = {
            "pred_body": pa.array([], pa.string()),
            "pred_head": pa.array([], pa.string()),
            "support": pa.array([], pa.int64()),
            "n_body": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "pred_body" not in batch.column_names:
            return pa.table(cols)
        keep = pc.not_equal(batch.column("pred_head"), pa.scalar(""))
        t = batch.filter(keep)
        nb = ray.get(body_ref)
        return pa.table(
            {
                "pred_body": t.column("pred_body"),
                "pred_head": t.column("pred_head"),
                "support": t.column("n"),
                "n_body": pa.array(
                    [nb[p] for p in t.column("pred_body").to_pylist()], pa.int64()
                ),
            }
        )

    return counts.map_batches(attach, batch_format="pyarrow")


def ppr_reference(u, v, seeds, iterations: int = 20, damping: float = 0.85):
    """Single-process personalized-PageRank mirror (the gold pattern:
    plain numpy over global arrays, no partitioning) — (nodes, ranks).

    Same formulation as :func:`pagerank` with ``seeds``: teleport and
    dangling mass restart on the uniform seed distribution."""
    import numpy as np

    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    nodes = np.unique(np.concatenate([u, v]))
    n = len(nodes)
    seeds = np.unique(np.asarray(sorted(set(seeds)), dtype=np.int64))
    pv = np.zeros(n, dtype=np.float64)
    idx = np.searchsorted(nodes, seeds)
    ok = (idx < n) & (nodes[np.minimum(idx, n - 1)] == seeds)
    pv[idx[ok]] = 1.0 / len(seeds)
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, ui, 1)
    ranks = pv.copy()
    for _ in range(iterations):
        contrib = ranks / np.maximum(deg, 1)
        dangling = float(ranks[deg == 0].sum())
        sums = np.zeros(n, dtype=np.float64)
        np.add.at(sums, vi, contrib[ui])
        ranks = (1.0 - damping + damping * dangling) * pv + damping * sums
    return nodes, ranks


def smallest_node_ids(edges_ds, k: int = 5) -> list[int]:
    """The k smallest endpoint ids — a deterministic, data-derived seed
    set for personalized queries.  Per-block bottom-k partials (bounded:
    k rows per block), driver fold over blocks * k ints."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.int64())})
        both = np.unique(
            np.concatenate(
                [
                    np.asarray(batch.column("src_id").to_pylist(), dtype=np.int64),
                    np.asarray(batch.column("dst_id").to_pylist(), dtype=np.int64),
                ]
            )
        )
        return pa.table({"node": pa.array(both[:k], pa.int64())})

    cand: list[int] = []
    for b in (
        edges_ds.select_columns(["src_id", "dst_id"])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        cand.extend(b.column("node").to_pylist())
    return sorted(set(cand))[:k]


def clustering_coefficients(edges_ds, num_partitions: int | None = None):
    """(canonical, triangles, wedges) for every node of undirected degree
    >= 2 — the local clustering coefficient as the EXACT integer pair
    (closed wedges, total wedges = deg*(deg-1)/2) rather than a float
    ratio, so the result is hash-comparable and the caller divides.

    Composition, not new machinery: per-node triangle participation comes
    from :func:`triangle_counts` (degree-oriented wedge enumeration, the
    skew-bounded path), undirected distinct-neighbor degrees from one
    endpoint-explode groupby over the same distinct-pair view.  The two
    small per-node tables then merge WITHOUT a hash join: side-tagged
    union -> one groupby-sum (triangle rows carry deg=0, degree rows carry
    triangles=0), which sidesteps Ray's empty-side join crash and costs
    one exchange of O(nodes) rows."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
    )

    def degree_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "triangles": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                }
            )
        node = pa.concat_arrays(
            [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
        )
        n = len(node)
        return pa.table(
            {
                "canonical": node,
                "triangles": pa.array([0] * n, pa.int64()),
                "deg": pa.array([1] * n, pa.int64()),
            }
        )

    def tri_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "canonical" not in batch.column_names:
            return pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "triangles": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "canonical": batch.column("canonical"),
                "triangles": batch.column("triangles").cast(pa.int64()),
                "deg": pa.array([0] * batch.num_rows, pa.int64()),
            }
        )

    deg_part = und.map_batches(degree_rows, batch_format="pyarrow")
    tri_part = triangle_counts(edges_ds, num_partitions=num_partitions).map_batches(
        tri_rows, batch_format="pyarrow"
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "deg" not in batch.column_names:
            return pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "triangles": pa.array([], pa.int64()),
                    "wedges": pa.array([], pa.int64()),
                }
            )
        deg = batch.column("deg")
        keep = batch.filter(pc.greater_equal(deg, pa.scalar(2)))
        d = keep.column("deg")
        wedges = pc.divide(pc.multiply(d, pc.subtract(d, pa.scalar(1))), pa.scalar(2))
        return pa.table(
            {
                "canonical": keep.column("canonical"),
                "triangles": keep.column("triangles"),
                "wedges": wedges.cast(pa.int64()),
            }
        )

    return (
        deg_part.union(tri_part)
        .groupby("canonical")
        .aggregate(
            Sum("triangles", alias_name="triangles"),
            Sum("deg", alias_name="deg"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def reciprocal_edges(edges_ds):
    """(a, b, n_ab, n_ba) for every unordered node pair {a < b} connected
    in BOTH directions — the mutual-assertion view of the directed KG
    (distinct predicate counts per direction).  Reciprocity is the
    classic directed-graph health metric: a symmetric predicate family
    shows n_ab == n_ba, a citation-like one shows sparse reciprocals.

    Shape: distinct (src, pred, dst) rows fold into unordered-pair keys
    with side-tagged direction counts inside one map_batches combiner,
    then ONE groupby-sum; pairs missing either direction are filtered in
    the same pass.  No joins, one exchange of O(distinct edges) rows."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def fold(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "n_ab": pa.array([], pa.int64()),
                "n_ba": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return empty
        dedup = batch.select(["src_canonical", "pred", "dst_canonical"]).group_by(
            ["src_canonical", "pred", "dst_canonical"]
        ).aggregate([])
        s = dedup.column("src_canonical")
        d = dedup.column("dst_canonical")
        loop = pc.not_equal(s, d)
        dedup = dedup.filter(loop)
        s, d = dedup.column("src_canonical"), dedup.column("dst_canonical")
        fwd = pc.less(s, d)
        one = pa.array([1] * dedup.num_rows, pa.int64())
        zero = pa.array([0] * dedup.num_rows, pa.int64())
        t = pa.table(
            {
                "a": pc.if_else(fwd, s, d),
                "b": pc.if_else(fwd, d, s),
                "n_ab": pc.if_else(fwd, one, zero),
                "n_ba": pc.if_else(fwd, zero, one),
            }
        )
        return t.group_by(["a", "b"]).aggregate([("n_ab", "sum"), ("n_ba", "sum")]).rename_columns(
            ["a", "b", "n_ab", "n_ba"]
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_ab" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "n_ba": pa.array([], pa.int64()),
                }
            )
        return batch.filter(
            pc.and_(
                pc.greater(batch.column("n_ab"), pa.scalar(0)),
                pc.greater(batch.column("n_ba"), pa.scalar(0)),
            )
        )

    return (
        edges_ds.select_columns(["src_canonical", "pred", "dst_canonical"])
        .map_batches(fold, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(
            Sum("n_ab", alias_name="n_ab"),
            Sum("n_ba", alias_name="n_ba"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def snapshot_diff(triples_ds):
    """(subj_canonical, pred, obj_canonical, status) — the assertion DELTA
    between two crawl snapshots: triples observed only in snapshot B are
    ``'added'``, only in A ``'removed'``; stable assertions drop out.  The
    change-detection query a periodically re-crawled KG serves.

    Snapshots are the deterministic url-hash split (``md5_number_upper(url)
    % 2``: 0 = A, 1 = B) so the op needs no timestamp join and the oracle
    is pure SQL.  Shape: per-batch distinct (s, p, o, side) combiner (urls
    hash once per batch-distinct url, via dictionary encode) -> one
    groupby over (s, p, o) taking max presence per side -> status filter.
    One exchange of distinct-triple rows; no joins, no driver state."""
    import hashlib

    import numpy as np
    from ray.data.aggregate import Max

    def fold(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj_canonical": pa.array([], pa.string()),
                "in_a": pa.array([], pa.int64()),
                "in_b": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return empty
        codes = pc.dictionary_encode(batch.column("url").combine_chunks())
        uniq = codes.dictionary.to_pylist()
        side_per_url = np.array(
            [
                int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "little") % 2
                for u in uniq
            ],
            dtype=np.int64,
        )
        side = side_per_url[np.asarray(codes.indices)]
        t = pa.table(
            {
                "subj_canonical": batch.column("subj_canonical"),
                "pred": batch.column("pred"),
                "obj_canonical": batch.column("obj_canonical"),
                "in_a": pa.array((side == 0).astype(np.int64)),
                "in_b": pa.array((side == 1).astype(np.int64)),
            }
        )
        g = t.group_by(["subj_canonical", "pred", "obj_canonical"]).aggregate(
            [("in_a", "max"), ("in_b", "max")]
        )
        return g.rename_columns(
            ["subj_canonical", "pred", "obj_canonical", "in_a", "in_b"]
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "in_a" not in batch.column_names:
            return pa.table(
                {
                    "subj_canonical": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "obj_canonical": pa.array([], pa.string()),
                    "status": pa.array([], pa.string()),
                }
            )
        a = batch.column("in_a")
        b = batch.column("in_b")
        changed = batch.filter(pc.not_equal(a, b))
        status = pc.if_else(
            pc.equal(changed.column("in_b"), pa.scalar(1, pa.int64())),
            pa.scalar("added"),
            pa.scalar("removed"),
        )
        return pa.table(
            {
                "subj_canonical": changed.column("subj_canonical"),
                "pred": changed.column("pred"),
                "obj_canonical": changed.column("obj_canonical"),
                "status": status,
            }
        )

    return (
        triples_ds.select_columns(
            ["url", "subj_canonical", "pred", "obj_canonical"]
        )
        .map_batches(fold, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred", "obj_canonical"])
        .aggregate(Max("in_a", alias_name="in_a"), Max("in_b", alias_name="in_b"))
        .map_batches(finish, batch_format="pyarrow")
    )


def mention_trend(
    triples_ds,
    pages_ds,
    bucket_us: int = 86_400_000_000,
    num_partitions: int | None = None,
):
    """Per-entity assertion trend: the exact-integer OLS slope of
    per-time-bucket assertion counts for each canonical subject — the
    "is this entity heating up or cooling down across crawls" signal a
    temporal KG serves.  ``bucket_us`` is the bucket width in epoch
    microseconds (default one day — the monthly-crawl view; tests use a
    minute because the synthetic corpus compresses crawl time).

    Triples carry provenance urls but no timestamps (the crawl time
    lives on pages), so the op opens with the same narrow url hash join
    as :func:`latest_assertions` (triples pruned to (subj, url), pages
    to (url, warc_ts)).  Buckets are ``epoch_us // bucket_us`` (crawl
    timestamps are post-1970, so truncating and floor division agree —
    the DuckDB ``//`` convention).  Then two small exchanges:

    1. exact (subj, bucket) counts — per-batch count combiner first, so
       a head entity re-asserted in every crawl ships O(blocks x
       buckets) rows, never every assertion;
    2. a per-subject ``map_groups`` fold of the five OLS moments
       (n, Σx, Σy, Σxy, Σx²) over one row per (subj, bucket) — group
       size is the subject's distinct-bucket count (bounded by the
       crawl-window length in buckets), never its assertion count.

    The slope is emitted as an exact integer fraction
    ``slope_num = n·Σxy − Σx·Σy``, ``slope_den = n·Σx² − (Σx)²``.  The
    OLS slope is invariant under shifting x by a constant, so the fold
    re-bases each subject's buckets to ``x − min(x)`` first: the moments
    are computed over SMALL integers (the crawl-window span in buckets,
    not raw epoch bucket indices ~3·10^7 for minutes, whose squares
    summed overflowed int64 on real timestamp ranges).  slope_num /
    slope_den are bit-identical either way, so the DuckDB oracle
    hash-matches exactly; the remaining multiplies are checked and raise
    rather than wrap on a pathological span.  Subjects seen in a single
    distinct bucket (slope undefined, den = 0) drop out."""
    from ray.data.aggregate import Sum

    from .relational import _join_parts

    n_part = num_partitions
    tri = triples_ds.select_columns(["subj_canonical", "url"])
    if n_part is None:
        tri = tri.materialize()
        # tiny inputs: empty shuffle partitions crash Ray's hash join
        n_part = 1 if tri.count() < 10_000 else _join_parts()
    joined = tri.join(
        pages_ds.select_columns(["url", "warc_ts"]),
        join_type="inner",
        num_partitions=n_part,
        on=("url",),
    )

    def day_counts(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "day": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "warc_ts" not in batch.column_names:
            return empty
        day = pc.divide(
            batch.column("warc_ts").cast(pa.int64()),
            pa.scalar(bucket_us, pa.int64()),
        )
        t = pa.table(
            {"subj_canonical": batch.column("subj_canonical"), "day": day}
        )
        g = t.group_by(["subj_canonical", "day"]).aggregate([("day", "count")])
        return pa.table(
            {
                "subj_canonical": g.column("subj_canonical"),
                "day": g.column("day"),
                "cnt": g.column("day_count").cast(pa.int64()),
            }
        )

    counts = (
        joined.map_batches(day_counts, batch_format="pyarrow")
        .groupby(["subj_canonical", "day"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def slope_fold(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "slope_num": pa.array([], pa.int64()),
                "slope_den": pa.array([], pa.int64()),
            }
        )
        n = group.num_rows
        if n < 2:  # single distinct bucket: slope undefined (den = 0)
            return empty
        # shift-invariant re-base: x' = day - min(day) keeps every moment
        # within the crawl-window span, not raw epoch bucket magnitudes
        day = group.column("day").cast(pa.int64())
        x = pc.subtract_checked(day, pc.min(day))
        y = group.column("cnt").cast(pa.int64())
        n_s = pa.scalar(n, pa.int64())
        sx = pc.sum(x)
        sy = pc.sum(y)
        sxy = pc.sum(pc.multiply_checked(x, y))
        sxx = pc.sum(pc.multiply_checked(x, x))
        num = pc.subtract_checked(
            pc.multiply_checked(n_s, sxy), pc.multiply_checked(sx, sy)
        )
        den = pc.subtract_checked(
            pc.multiply_checked(n_s, sxx), pc.multiply_checked(sx, sx)
        )
        return pa.table(
            {
                "subj_canonical": [group.column("subj_canonical")[0].as_py()],
                "slope_num": pa.array([num.as_py()], pa.int64()),
                "slope_den": pa.array([den.as_py()], pa.int64()),
            }
        )

    return counts.groupby("subj_canonical").map_groups(
        slope_fold, batch_format="pyarrow"
    )


def entity_cards(
    triples_ds,
    pages_ds,
    num_partitions: int | None = None,
):
    """Per-entity profile card — the summary row an entity page in a
    knowledge-graph UI renders: for each canonical subject, the total
    assertion count, the number of distinct predicates it is asserted
    with, the first/last crawl timestamp any assertion was observed at,
    and the modally most frequent predicate (``top_pred``; ties break to
    the lexicographically smallest predicate so the output is
    deterministic).

    Triples carry provenance urls but no timestamps, so the op opens with
    the same narrow url hash join as :func:`latest_assertions` /
    :func:`mention_trend` (triples pruned to (subj, pred, url), pages to
    (url, warc_ts)).  Then one exchange chain, all combiner-backed:

    1. per-batch (subj, pred) partial ``(cnt, min_ts, max_ts)`` so a head
       entity ships O(blocks x preds) rows, never every assertion;
    2. global ``groupby(subj, pred)`` Sum/Min/Max;
    3. ``groupby(subj).map_groups`` fold to the card — group size is the
       subject's distinct-predicate count (bounded by the schema's
       predicate vocabulary, single digits here), never its assertion
       count, so head skew cannot blow up a group.
    """
    from ray.data.aggregate import Max, Min, Sum

    from .relational import _join_parts

    n_part = num_partitions
    tri = triples_ds.select_columns(["subj_canonical", "pred", "url"])
    if n_part is None:
        tri = tri.materialize()
        # tiny inputs: empty shuffle partitions crash Ray's hash join
        n_part = 1 if tri.count() < 10_000 else _join_parts()
    joined = tri.join(
        pages_ds.select_columns(["url", "warc_ts"]),
        join_type="inner",
        num_partitions=n_part,
        on=("url",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "min_ts": pa.array([], pa.int64()),
                "max_ts": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "warc_ts" not in batch.column_names:
            return empty
        ts = batch.column("warc_ts").cast(pa.int64())
        t = pa.table(
            {
                "subj_canonical": batch.column("subj_canonical"),
                "pred": batch.column("pred"),
                "ts": ts,
            }
        )
        g = t.group_by(["subj_canonical", "pred"]).aggregate(
            [("ts", "count"), ("ts", "min"), ("ts", "max")]
        )
        return pa.table(
            {
                "subj_canonical": g.column("subj_canonical"),
                "pred": g.column("pred"),
                "cnt": g.column("ts_count").cast(pa.int64()),
                "min_ts": g.column("ts_min"),
                "max_ts": g.column("ts_max"),
            }
        )

    per_pred = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred"])
        .aggregate(
            Sum("cnt", alias_name="cnt"),
            Min("min_ts", alias_name="min_ts"),
            Max("max_ts", alias_name="max_ts"),
        )
    )

    def card(group: pa.Table) -> pa.Table:
        cnt = group.column("cnt").to_pylist()
        preds = group.column("pred").to_pylist()
        # modal predicate: max count, ties to lexicographically smallest
        top = min(zip(cnt, preds), key=lambda t: (-t[0], t[1]))[1]
        return pa.table(
            {
                "subj_canonical": [group.column("subj_canonical")[0].as_py()],
                "n_assertions": pa.array([sum(cnt)], pa.int64()),
                "n_preds": pa.array([group.num_rows], pa.int64()),
                "first_seen_us": pa.array(
                    [pc.min(group.column("min_ts")).as_py()], pa.int64()
                ),
                "last_seen_us": pa.array(
                    [pc.max(group.column("max_ts")).as_py()], pa.int64()
                ),
                "top_pred": [top],
            }
        )

    return per_pred.groupby("subj_canonical").map_groups(
        card, batch_format="pyarrow"
    )


def dangling_objects(triples_ds):
    """KG quality audit: canonical OBJECTS that never appear as a subject
    of any assertion — "dangling references" whose entity pages would be
    empty.  Emits ``(canonical, n_refs)`` where n_refs is the number of
    assertions pointing at the dangling entity.

    Shape: per-batch object-count combiner -> global count groupby ->
    LEFT ANTI hash join against the (batch-distinct) subject keys.  The
    anti join's right side only needs each subject present at least once,
    so a per-batch distinct is enough — no global distinct shuffle for
    the subject set."""
    from ray.data.aggregate import Sum

    from .relational import _join_parts

    def obj_counts(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "canonical": pa.array([], pa.string()),
                "n_refs": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "obj_canonical" not in batch.column_names:
            return empty
        g = (
            pa.table({"canonical": batch.column("obj_canonical")})
            .group_by("canonical")
            .aggregate([("canonical", "count")])
        )
        return pa.table(
            {
                "canonical": g.column("canonical"),
                "n_refs": g.column("canonical_count").cast(pa.int64()),
            }
        )

    def subj_distinct(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "subj_canonical" not in batch.column_names:
            return pa.table({"canonical": pa.array([], pa.string())})
        return (
            pa.table({"canonical": batch.column("subj_canonical")})
            .group_by("canonical")
            .aggregate([])
        )

    refs = (
        triples_ds.select_columns(["obj_canonical"])
        .map_batches(obj_counts, batch_format="pyarrow")
        .groupby("canonical")
        .aggregate(Sum("n_refs", alias_name="n_refs"))
        .materialize()
    )
    # tiny-input guards: a fully-empty side still crashes Ray's hash
    # join, and small inputs need the single-partition fallback
    if refs.count() == 0:
        return refs
    n_part = 1 if refs.count() < 10_000 else _join_parts()
    subs = triples_ds.select_columns(["subj_canonical"]).map_batches(
        subj_distinct, batch_format="pyarrow"
    )
    return refs.join(subs, join_type="left_anti", num_partitions=n_part, on=("canonical",))


def assortativity_moments(edges_ds, num_partitions: int | None = None):
    """Degree-assortativity sufficient statistics over the UNDIRECTED
    simple graph induced by the edges table, as ONE exact-integer row
    ``(m_edges, s1, s2, s3)``: edge count, sum of endpoint degrees
    ``Σ(da+db)``, sum of squared degrees ``Σ(da²+db²)``, and the degree
    product sum ``Σ(da·db)``.  The Pearson degree correlation (Newman
    2002) is a pure driver-side arithmetic function of these four
    integers — keeping the engine output integral makes the DuckDB
    oracle hash bit-exact (no float reduction order anywhere).

    Shape: distinct undirected pairs (per-batch combiner + groupby, the
    :func:`triangle_counts` opener) -> endpoint degrees (groupby count)
    -> one side-tagged hash join attaches both endpoint degrees -> a
    Max-pivot groupby rebuilds (edge, da, db) rows -> per-batch moment
    partials -> four global Sums.  All multiplies are checked: at 10^6
    max degree the products sit 10^6 below the int64 edge-sum headroom,
    and a pathological graph raises instead of wrapping."""
    from ray.data.aggregate import Max, Sum

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table({"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}).filter(
            pc.not_equal(s, d)
        )
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )
    m_edges = und.count()
    if m_edges == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "m_edges": pa.array([0], pa.int64()),
                    "s1": pa.array([0], pa.int64()),
                    "s2": pa.array([0], pa.int64()),
                    "s3": pa.array([0], pa.int64()),
                }
            )
        )

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.string())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks(),
                        batch.column("b").combine_chunks(),
                    ]
                )
            }
        )

    degrees = (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .rename_columns({"count()": "deg"})
    )

    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "side": pa.array([], pa.int64()),
                    "node": pa.array([], pa.string()),
                }
            )
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        n = batch.num_rows
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int64()),
                "node": pa.concat_arrays([a, b]),
            }
        )

    n_part = num_partitions
    if n_part is None:
        from .relational import _join_parts

        n_part = 1 if m_edges < 10_000 else _join_parts()

    tagged = und.map_batches(explode_sides, batch_format="pyarrow").join(
        degrees, join_type="inner", num_partitions=n_part, on=("node",)
    )

    def pivot_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "da": pa.array([], pa.int64()),
                "db": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "deg" not in batch.column_names:
            return empty
        side = batch.column("side")
        deg = batch.column("deg").cast(pa.int64())
        zero = pa.scalar(0, pa.int64())
        t = pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "da": pc.if_else(pc.equal(side, 0), deg, zero),
                "db": pc.if_else(pc.equal(side, 1), deg, zero),
            }
        )
        g = t.group_by(["a", "b"]).aggregate([("da", "max"), ("db", "max")])
        return g.rename_columns(["a", "b", "da", "db"])

    per_edge = (
        tagged.map_batches(pivot_partial, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("da", alias_name="da"), Max("db", alias_name="db"))
    )

    def moments(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "m_edges": pa.array([], pa.int64()),
                "s1": pa.array([], pa.int64()),
                "s2": pa.array([], pa.int64()),
                "s3": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "da" not in batch.column_names:
            return empty
        da = batch.column("da").cast(pa.int64())
        db = batch.column("db").cast(pa.int64())
        s1 = pc.sum(pc.add_checked(da, db)).as_py() or 0
        s2 = pc.sum(
            pc.add_checked(pc.multiply_checked(da, da), pc.multiply_checked(db, db))
        ).as_py() or 0
        s3 = pc.sum(pc.multiply_checked(da, db)).as_py() or 0
        return pa.table(
            {
                "m_edges": pa.array([batch.num_rows], pa.int64()),
                "s1": pa.array([s1], pa.int64()),
                "s2": pa.array([s2], pa.int64()),
                "s3": pa.array([s3], pa.int64()),
            }
        )

    agg = per_edge.map_batches(moments, batch_format="pyarrow").aggregate(
        Sum("m_edges", alias_name="m_edges"),
        Sum("s1", alias_name="s1"),
        Sum("s2", alias_name="s2"),
        Sum("s3", alias_name="s3"),
    )
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "m_edges": pa.array([agg["m_edges"]], pa.int64()),
                "s1": pa.array([agg["s1"]], pa.int64()),
                "s2": pa.array([agg["s2"]], pa.int64()),
                "s3": pa.array([agg["s3"]], pa.int64()),
            }
        )
    )


def functional_conflicts(triples_ds, preds: list[str] | None = None):
    """KG consistency audit: subjects asserting MORE THAN ONE distinct
    object for a predicate that should be functional (single-valued) —
    the contradiction-detection pass a KG-construction pipeline runs
    before publishing (e.g. two different ``born_in`` values for the
    same person across crawls).  Emits ``(subj_canonical, pred, n_objs,
    obj_min, obj_max)`` — the distinct-object count plus the
    lexicographic extremes as a deterministic witness pair.

    ``preds`` restricts the audit to the declared-functional predicate
    list (pushed into the scan as a vectorized ``is_in`` filter);
    ``None`` audits every predicate.

    Shape: per-batch distinct (subj, pred, obj) combiner -> one global
    distinct groupby (Max of a constant pivots nothing — the groupby
    key IS the distinct) -> per-(subj, pred) count/min/max with a
    per-batch combiner -> vectorized ``n_objs >= 2`` filter.  Two
    exchanges of distinct-assertion rows; no joins, no driver state."""
    from ray.data.aggregate import Max, Min, Sum

    def distinct_rows(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj_canonical": pa.array([], pa.string()),
            }
        )
        if batch.num_rows == 0 or "subj_canonical" not in batch.column_names:
            return empty
        t = batch.select(["subj_canonical", "pred", "obj_canonical"])
        if preds is not None:
            t = t.filter(pc.is_in(t.column("pred"), value_set=pa.array(preds)))
        return t.group_by(
            ["subj_canonical", "pred", "obj_canonical"]
        ).aggregate([])

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "n_objs": pa.array([], pa.int64()),
                "obj_min": pa.array([], pa.string()),
                "obj_max": pa.array([], pa.string()),
            }
        )
        if batch.num_rows == 0 or "obj_canonical" not in batch.column_names:
            return empty
        g = batch.group_by(["subj_canonical", "pred"]).aggregate(
            [
                ("obj_canonical", "count"),
                ("obj_canonical", "min"),
                ("obj_canonical", "max"),
            ]
        )
        return pa.table(
            {
                "subj_canonical": g.column("subj_canonical"),
                "pred": g.column("pred"),
                "n_objs": g.column("obj_canonical_count").cast(pa.int64()),
                "obj_min": g.column("obj_canonical_min"),
                "obj_max": g.column("obj_canonical_max"),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_objs" not in batch.column_names:
            return pa.table(
                {
                    "subj_canonical": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "n_objs": pa.array([], pa.int64()),
                    "obj_min": pa.array([], pa.string()),
                    "obj_max": pa.array([], pa.string()),
                }
            )
        return batch.filter(
            pc.greater_equal(batch.column("n_objs"), pa.scalar(2, pa.int64()))
        )

    return (
        triples_ds.select_columns(["subj_canonical", "pred", "obj_canonical"])
        .map_batches(distinct_rows, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred", "obj_canonical"])
        .count()
        .select_columns(["subj_canonical", "pred", "obj_canonical"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred"])
        .aggregate(
            Sum("n_objs", alias_name="n_objs"),
            Min("obj_min", alias_name="obj_min"),
            Max("obj_max", alias_name="obj_max"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def _scc_remotes():
    """BSP worker tasks for strongly connected components (lazy so import
    never touches Ray)."""
    import numpy as np

    import ray

    def _shard_pairs(a, b, P):
        dest = a % P
        order = np.argsort(dest, kind="stable")
        a, b, dest = a[order], b[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [
            (a[bounds[p]: bounds[p + 1]], b[bounds[p]: bounds[p + 1]])
            for p in range(P)
        ]

    def _gather(adj_u, adj_v, keys, vals):
        """All adjacency targets of ``keys`` plus the per-edge payload
        (``vals[i]`` repeated for every edge of ``keys[i]``), fully
        vectorized (np.repeat over searchsorted ranges — no Python loop)."""
        lo = np.searchsorted(adj_u, keys, side="left")
        hi = np.searchsorted(adj_u, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, np.int64)
            return e, e
        starts = np.repeat(lo, counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        tgt = adj_v[starts + offs]
        payload = np.repeat(vals, counts)
        return tgt, payload

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        """Shard distinct directed (u, v) twice: by u (forward adjacency,
        for color propagation) and by v (reverse adjacency, for backward
        marking / trim notices)."""
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            e = np.empty(0, np.int64)
            return [((e, e), (e, e))] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        fwd = _shard_pairs(u, v, P)
        rev = _shard_pairs(v, u, P)
        return [(fwd[p], rev[p]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        """Partition state: deduped forward adjacency (out_u sorted),
        deduped reverse adjacency (rev_u sorted = original destination),
        owned node array (every endpoint with node %% P == p appears as a
        key of one of the two adjacencies), and the SCC working vectors."""
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]

        def _merge(idx):
            if not edge_parts:
                e = np.empty(0, np.int64)
                return e, e
            a = np.concatenate([s[idx][0] for s in edge_parts])
            b = np.concatenate([s[idx][1] for s in edge_parts])
            if len(a):
                order = np.lexsort((b, a))
                a, b = a[order], b[order]
                keep = np.ones(len(a), bool)
                keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
                a, b = a[keep], b[keep]
            return a, b

        out_u, out_v = _merge(0)
        rev_u, rev_v = _merge(1)
        nodes = np.unique(np.concatenate([out_u, rev_u]))
        nz = len(nodes)
        zb = np.zeros(nz, bool)
        return {
            "out_u": out_u,
            "out_v": out_v,
            "rev_u": rev_u,
            "rev_v": rev_v,
            "nodes": nodes,
            "color": nodes.copy(),
            "active": np.ones(nz, bool),
            "scc": np.full(nz, -1, np.int64),
            "frontier": zb.copy(),
            "marked": zb.copy(),
            "outdeg": np.zeros(nz, np.int64),
            "indeg": np.zeros(nz, np.int64),
            "newdead": zb.copy(),
        }

    # ---- trim: iteratively settle nodes with no active in- or out-edge
    # (they lie on no active cycle => singleton SCCs).  Degree counters are
    # built once per outer round; afterwards only DEAD nodes send
    # decrements, so total trim message volume per outer round is O(E). ----
    @ray.remote
    def trim_count_msgs(state, P: int):
        act = state["nodes"][state["active"]]
        ones = np.ones(len(act), np.int64)
        preds, _ = _gather(state["rev_u"], state["rev_v"], act, ones)
        succs, _ = _gather(state["out_u"], state["out_v"], act, ones)
        ps = _shard_pairs(preds, np.zeros(len(preds), np.int64), P)
        ss = _shard_pairs(succs, np.zeros(len(succs), np.int64), P)
        return [(ps[p][0], ss[p][0]) for p in range(P)]

    @ray.remote
    def trim_count_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        outdeg = np.zeros(len(nodes), np.int64)
        indeg = np.zeros(len(nodes), np.int64)
        for preds, succs in incoming:
            if len(preds):
                np.add.at(outdeg, np.searchsorted(nodes, preds), 1)
            if len(succs):
                np.add.at(indeg, np.searchsorted(nodes, succs), 1)
        newdead = state["active"] & ((outdeg == 0) | (indeg == 0))
        st = dict(state, outdeg=outdeg, indeg=indeg, newdead=newdead)
        return st, bool(newdead.any())

    @ray.remote
    def trim_dec_msgs(state, P: int):
        """Finalize this round's trimmed nodes (scc = self) and emit degree
        decrements to their neighbors."""
        dead = state["newdead"]
        nodes = state["nodes"]
        dn = nodes[dead]
        scc = state["scc"].copy()
        scc[dead] = dn
        active = state["active"] & ~dead
        ones = np.ones(len(dn), np.int64)
        preds, _ = _gather(state["rev_u"], state["rev_v"], dn, ones)
        succs, _ = _gather(state["out_u"], state["out_v"], dn, ones)
        st = dict(state, scc=scc, active=active,
                  newdead=np.zeros(len(nodes), bool))
        ps = _shard_pairs(preds, np.zeros(len(preds), np.int64), P)
        ss = _shard_pairs(succs, np.zeros(len(succs), np.int64), P)
        return [st] + [(ps[p][0], ss[p][0]) for p in range(P)]

    @ray.remote
    def trim_dec_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        outdeg = state["outdeg"].copy()
        indeg = state["indeg"].copy()
        for preds, succs in incoming:
            if len(preds):
                np.add.at(outdeg, np.searchsorted(nodes, preds), -1)
            if len(succs):
                np.add.at(indeg, np.searchsorted(nodes, succs), -1)
        newdead = state["active"] & ((outdeg <= 0) | (indeg <= 0))
        st = dict(state, outdeg=outdeg, indeg=indeg, newdead=newdead)
        return st, bool(newdead.any())

    # ---- coloring: min-id forward propagation restricted to the active
    # subgraph; color(v) converges to the smallest active id reaching v ----
    @ray.remote
    def color_reset(state):
        return dict(state, color=state["nodes"].copy(),
                    frontier=state["active"].copy())

    @ray.remote
    def color_msgs(state, P: int):
        f = state["frontier"]
        tgt, col = _gather(state["out_u"], state["out_v"],
                           state["nodes"][f], state["color"][f])
        return _shard_pairs(tgt, col, P)

    @ray.remote
    def color_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        color = state["color"].copy()
        for tgt, col in incoming:
            if len(tgt):
                np.minimum.at(color, np.searchsorted(nodes, tgt), col)
        changed = (color < state["color"]) & state["active"]
        new_color = np.where(changed, color, state["color"])
        return dict(state, color=new_color, frontier=changed), bool(changed.any())

    # ---- backward marking: from each color root, walk reverse edges
    # staying inside the root's color class; marked == the root's SCC ----
    @ray.remote
    def mark_init(state):
        marked = state["active"] & (state["color"] == state["nodes"])
        return dict(state, marked=marked, frontier=marked.copy())

    @ray.remote
    def mark_msgs(state, P: int):
        f = state["frontier"]
        tgt, col = _gather(state["rev_u"], state["rev_v"],
                           state["nodes"][f], state["color"][f])
        return _shard_pairs(tgt, col, P)

    @ray.remote
    def mark_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        marked = state["marked"].copy()
        newly = np.zeros(len(nodes), bool)
        for tgt, col in incoming:
            if not len(tgt):
                continue
            idx = np.searchsorted(nodes, tgt)
            ok = state["active"][idx] & ~marked[idx] & (state["color"][idx] == col)
            sel = idx[ok]
            marked[sel] = True
            newly[sel] = True
        return dict(state, marked=marked, frontier=newly), bool(newly.any())

    @ray.remote
    def settle(state):
        m = state["marked"]
        scc = state["scc"].copy()
        scc[m] = state["color"][m]
        active = state["active"] & ~m
        zb = np.zeros(len(state["nodes"]), bool)
        st = dict(state, scc=scc, active=active, marked=zb, frontier=zb.copy())
        return st, int(active.sum())

    @ray.remote
    def to_table(state) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(state["nodes"], pa.int64()),
                "label": pa.array(state["scc"], pa.int64()),
            }
        )

    return (
        split_edges, concat_part, trim_count_msgs, trim_count_reduce,
        trim_dec_msgs, trim_dec_reduce, color_reset, color_msgs,
        color_reduce, mark_init, mark_msgs, mark_reduce, settle, to_table,
    )


def scc_components(edges_ds, num_partitions: int | None = None,
                   max_outer: int = 256):
    """Strongly connected components of the DIRECTED entity graph ->
    (canonical, scc) where ``scc`` is the lexicographically smallest
    canonical mutually reachable from the node — the directed counterpart
    of :func:`connected_components` ("which entities cite each other
    transitively in both directions").

    Algorithm: the trim + forward-coloring + backward-marking family
    published for distributed SCC (Orzan's coloring; FW-BW-trim of
    McLendon et al.) over the same BSP hash-co-partitioned shards as
    components/PageRank/BFS:

    1. **trim** — iteratively settle nodes with no active in- or out-edge
       as singleton SCCs (kills acyclic chains; frontier-based decrements
       after one O(E) degree census per outer round);
    2. **color** — propagate min active id along forward edges to
       fixpoint: color(v) = smallest active node reaching v;
    3. **mark** — from every color root r (color(r) == r), walk REVERSE
       edges restricted to color-r nodes; the marked set is exactly
       SCC(r) (nodes x with x -> r inside the color class and r -> x by
       color minimality), all roots in parallel;
    4. settle marked SCCs, deactivate, repeat.

    Every outer round settles at least every current color root, so the
    loop terminates; round count is bounded by the condensation depth
    after trimming (small for web-like graphs with a giant SCC — the same
    assumption the published algorithms make).  Per-round exchanges are
    O(active edges) int64 arrays; driver state is O(1) scalars.

    Labels from the BSP loop are int ids (assignment-dependent); the SCC
    *partition* is a pure function of the graph, so the final groupby
    re-keys each label to its min canonical — SQL-mirrorable via a
    recursive-CTE mutual-reachability closure."""
    import numpy as np
    import ray
    import ray.data
    from ray.data.aggregate import Min

    from .dedup import _join_partitions

    def to_uv(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"u": e, "v": e})
        return pa.table({"u": batch.column("src_id"), "v": batch.column("dst_id")})

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    (split_edges, concat_part, trim_count_msgs, trim_count_reduce,
     trim_dec_msgs, trim_dec_reduce, color_reset, color_msgs,
     color_reduce, mark_init, mark_msgs, mark_reduce, settle,
     to_table) = _scc_remotes()

    uv = edges_ds.select_columns(["src_id", "dst_id"]).map_batches(
        to_uv, batch_format="pyarrow"
    ).materialize()
    block_refs = list(uv.to_arrow_refs())
    shard_lists = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]

    def _exchange(msg_fn, reduce_fn):
        """One BSP round: per-partition shard fan-out + per-partition fold;
        returns the fold's boolean/int second outputs."""
        msg_lists = [msg_fn.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_fn.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        return new

    n_active = None
    for _ in range(max_outer):
        # ---- trim to fixpoint ----
        new = _exchange(trim_count_msgs, trim_count_reduce)
        for p in range(P):
            parts[p] = new[p][0]
        flags = ray.get([n[1] for n in new])
        while any(flags):
            outs = [
                trim_dec_msgs.options(num_returns=P + 1).remote(parts[p], P)
                for p in range(P)
            ]
            parts = [o[0] for o in outs]
            new = [
                trim_dec_reduce.options(num_returns=2).remote(
                    parts[p], *[outs[q][1 + p] for q in range(P)]
                )
                for p in range(P)
            ]
            parts = [n[0] for n in new]
            flags = ray.get([n[1] for n in new])
        # ---- coloring to fixpoint ----
        parts = [color_reset.remote(parts[p]) for p in range(P)]
        while True:
            new = _exchange(color_msgs, color_reduce)
            parts = [n[0] for n in new]
            if not any(ray.get([n[1] for n in new])):
                break
        # ---- backward marking to fixpoint ----
        parts = [mark_init.remote(parts[p]) for p in range(P)]
        while True:
            new = _exchange(mark_msgs, mark_reduce)
            parts = [n[0] for n in new]
            if not any(ray.get([n[1] for n in new])):
                break
        new = [settle.options(num_returns=2).remote(parts[p]) for p in range(P)]
        parts = [n[0] for n in new]
        n_active = sum(ray.get([n[1] for n in new]))
        if n_active == 0:
            break
    if n_active:
        raise RuntimeError(
            f"scc_components: {n_active} nodes unsettled after {max_outer} "
            "outer rounds (condensation deeper than max_outer; raise it)"
        )

    labels = ray.data.from_arrow_refs([to_table.remote(p) for p in parts]).materialize()
    empty = pa.table(
        {"canonical": pa.array([], pa.string()), "scc": pa.array([], pa.string())}
    )
    if labels.count() == 0:
        # empty graph; short-circuit unconditionally — an empty side
        # crashes Ray's hash join (see triangle_counts)
        return ray.data.from_arrow(empty)

    def idmap(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.int64()), "canonical": pa.array([], pa.string())}
            )
        seen: dict[int, str] = {}
        for side in ("src", "dst"):
            seen.update(
                zip(
                    batch.column(f"{side}_id").to_pylist(),
                    batch.column(f"{side}_canonical").to_pylist(),
                )
            )
        return pa.table(
            {
                "node": pa.array(list(seen), pa.int64()),
                "canonical": pa.array(list(seen.values()), pa.string()),
            }
        )

    nodes = (
        edges_ds.select_columns(
            ["src_id", "src_canonical", "dst_id", "dst_canonical"]
        )
        .map_batches(idmap, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("canonical", alias_name="canonical"))
    )
    n_part = 1 if nodes.count() < 10_000 else _join_partitions()
    labeled = labels.join(nodes, join_type="inner", num_partitions=n_part, on=("node",))
    reps = labeled.select_columns(["label", "canonical"]).groupby("label").aggregate(
        Min("canonical", alias_name="scc")
    )
    return (
        labeled.join(reps, join_type="inner", num_partitions=n_part, on=("label",))
        .select_columns(["canonical", "scc"])
    )


def _hits_remotes():
    """BSP worker tasks for HITS hubs/authorities (lazy so import never
    touches Ray)."""
    import numpy as np

    import ray

    def _shard_pairs(a, b, P):
        dest = a % P
        order = np.argsort(dest, kind="stable")
        a, b, dest = a[order], b[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [
            (a[bounds[p]: bounds[p + 1]], b[bounds[p]: bounds[p + 1]])
            for p in range(P)
        ]

    def _gather_vals(adj_u, adj_v, keys, vals):
        lo = np.searchsorted(adj_u, keys, side="left")
        hi = np.searchsorted(adj_u, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        starts = np.repeat(lo, counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return adj_v[starts + offs], np.repeat(vals, counts)

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        """Shard (u, v) MULTI-edges (one per (src, pred, dst) row — no
        dedupe, matching the PageRank multigraph semantics) by u (forward)
        and by v (reverse)."""
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            e = np.empty(0, np.int64)
            return [((e, e), (e, e))] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        fwd = _shard_pairs(u, v, P)
        rev = _shard_pairs(v, u, P)
        return [(fwd[p], rev[p]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]

        def _merge(idx):
            if not edge_parts:
                e = np.empty(0, np.int64)
                return e, e
            a = np.concatenate([s[idx][0] for s in edge_parts])
            b = np.concatenate([s[idx][1] for s in edge_parts])
            order = np.argsort(a, kind="stable")
            return a[order], b[order]

        out_u, out_v = _merge(0)
        rev_u, rev_v = _merge(1)
        nodes = np.unique(np.concatenate([out_u, rev_u]))
        return {
            "out_u": out_u,
            "out_v": out_v,
            "rev_u": rev_u,
            "rev_v": rev_v,
            "nodes": nodes,
            "h": np.ones(len(nodes), np.float64),
            "a": np.zeros(len(nodes), np.float64),
        }

    @ray.remote
    def auth_msgs(state, P: int):
        """hub scores pushed along forward edges: a(v) <- sum h(u)."""
        tgt, val = _gather_vals(
            state["out_u"], state["out_v"], state["nodes"], state["h"]
        )
        return _shard_pairs(tgt, val, P)

    @ray.remote
    def auth_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        a = np.zeros(len(nodes), np.float64)
        for tgt, val in incoming:
            if len(tgt):
                np.add.at(a, np.searchsorted(nodes, tgt), val)
        return dict(state, a=a), float((a * a).sum())

    @ray.remote
    def scale_auth(state, norm: float):
        a = state["a"] / norm if norm > 0 else state["a"]
        return dict(state, a=a)

    @ray.remote
    def hub_msgs(state, P: int):
        """authority scores pulled along reverse edges: h(u) <- sum a(v)."""
        tgt, val = _gather_vals(
            state["rev_u"], state["rev_v"], state["nodes"], state["a"]
        )
        return _shard_pairs(tgt, val, P)

    @ray.remote
    def hub_reduce(state, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        h = np.zeros(len(nodes), np.float64)
        for tgt, val in incoming:
            if len(tgt):
                np.add.at(h, np.searchsorted(nodes, tgt), val)
        return dict(state, h=h), float((h * h).sum())

    @ray.remote
    def scale_hub(state, norm: float):
        h = state["h"] / norm if norm > 0 else state["h"]
        return dict(state, h=h)

    @ray.remote
    def to_table(state) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(state["nodes"], pa.int64()),
                "hub": pa.array(state["h"], pa.float64()),
                "auth": pa.array(state["a"], pa.float64()),
            }
        )

    return (split_edges, concat_part, auth_msgs, auth_reduce, scale_auth,
            hub_msgs, hub_reduce, scale_hub, to_table)


def hits(edges_ds, iterations: int = 20, num_partitions: int | None = None):
    """HITS hubs and authorities (Kleinberg) over the directed KG
    multigraph (one edge per (src, pred, dst) row, matching the PageRank
    edge semantics) -> (node, hub, auth) float scores.

    Same BSP shape as :func:`pagerank`: edges hash-partition ONCE (forward
    by source for the authority pull, reverse by destination for the hub
    push); each of the ``iterations`` rounds does two vectorized
    message exchanges plus an L2 normalization whose only driver-visible
    state is the per-partition sum-of-squares scalar.  h starts at 1,
    authority update precedes hub update, both halves normalized — the
    exact formulation of ``sources/corpus.hits_reference``, so the ppm
    grid (1e-6) swamps cross-engine float-association noise (~1e-15)."""
    import math

    import ray
    import ray.data

    def to_uv(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"u": e, "v": e})
        return pa.table({"u": batch.column("src_id"), "v": batch.column("dst_id")})

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    (split_edges, concat_part, auth_msgs, auth_reduce, scale_auth,
     hub_msgs, hub_reduce, scale_hub, to_table) = _hits_remotes()

    uv = edges_ds.select_columns(["src_id", "dst_id"]).map_batches(
        to_uv, batch_format="pyarrow"
    ).materialize()
    block_refs = list(uv.to_arrow_refs())
    shard_lists = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]

    def _half(msg_fn, reduce_fn, scale_fn):
        nonlocal parts
        msg_lists = [msg_fn.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_fn.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        norm = math.sqrt(sum(ray.get([n[1] for n in new])))
        parts = [scale_fn.remote(parts[p], norm) for p in range(P)]

    for _ in range(iterations):
        _half(auth_msgs, auth_reduce, scale_auth)
        _half(hub_msgs, hub_reduce, scale_hub)

    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def resource_allocation(
    edges_ds,
    min_common: int = 1,
    max_degree: int | None = None,
    num_partitions: int | None = None,
):
    """Resource-Allocation link-prediction index (Zhou/Lü/Zhang 2009) over
    the UNDIRECTED simple graph: for every unordered pair ``(a, b)`` with
    at least ``min_common`` shared neighbors,

        ``ra_micro = sum over common neighbors w of (10^6 // deg(w))``

    — the Adamic-Adar family with the ``1/deg`` kernel, which (unlike
    ``1/ln deg``) is exact INTEGER arithmetic: floor division per apex,
    integer sum, so the DuckDB oracle is bit-exact with no float-grid
    caveat.  ``is_edge`` marks already-adjacent pairs (link prediction
    ranks the ``is_edge = 0`` rows by ``ra_micro``).

    Scale shape mirrors :func:`common_neighbors` (wedge enumeration per
    coarse apex partition, ``max_degree`` celebrity cut, edge markers
    unioned into the same groupby) but needs NO degree join at all: the
    apex's full adjacency lives inside its coarse partition, so
    ``deg(w)`` is the local group size and each wedge row carries its
    ``10^6 // deg`` contribution directly."""
    import numpy as np
    from ray.data.aggregate import Max, Sum

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )

    from ..state.lineage import url_buckets
    from ..stages.linking import _coarse_parts

    parts = _coarse_parts()

    def adjacency(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "u": pa.array([], pa.string()),
                "v": pa.array([], pa.string()),
                "part": pa.array([], pa.int32()),
            }
        )
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return empty
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        u = pa.concat_arrays([a, b])
        v = pa.concat_arrays([b, a])
        return pa.table(
            {"u": u, "v": v, "part": pa.array(url_buckets(u, parts), pa.int32())}
        )

    adj = und.map_batches(adjacency, batch_format="pyarrow")

    def wedge_pairs_partition(group: pa.Table) -> pa.Table:
        """One coarse hash partition -> (pair, 1, 10^6 // apex_degree)
        rows; the apex degree is the local group size (all adjacency rows
        of an apex land in its partition)."""
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "common": pa.array([], pa.int64()),
                "ra": pa.array([], pa.int64()),
                "edge": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0 or "u" not in group.column_names:
            return empty
        tbl = group.sort_by([("u", "ascending"), ("v", "ascending")])
        codes = pc.dictionary_encode(tbl.column("u").combine_chunks()).indices
        idx = np.asarray(codes)
        starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
        ends = np.r_[starts[1:], len(idx)]
        sizes = ends - starts
        keep = sizes >= 2
        if max_degree is not None:
            keep &= sizes <= max_degree
        if not keep.any():
            return empty
        vs = tbl.column("v").combine_chunks()
        out_a: list[pa.Array] = []
        out_b: list[pa.Array] = []
        out_ra: list[np.ndarray] = []
        for s, e in zip(starts[keep], ends[keep]):
            ra_val = 1_000_000 // (e - s)
            for ca, cb in _triu_pair_chunks(vs.slice(s, e - s)):
                out_a.append(ca)
                out_b.append(cb)
                out_ra.append(np.full(len(ca), ra_val, np.int64))
        if not out_a:
            return empty
        n = sum(len(x) for x in out_a)
        # chunked columns, never one concat: a mega-hub partition's pair
        # strings exceed a single StringArray's 2^31-byte offset cap
        return pa.table(
            {
                "a": pa.chunked_array(out_a),
                "b": pa.chunked_array(out_b),
                "common": pa.array(np.ones(n, np.int64)),
                "ra": pa.array(np.concatenate(out_ra)),
                "edge": pa.array(np.zeros(n, np.int64)),
            }
        )

    wedges = adj.groupby("part").map_groups(
        wedge_pairs_partition, batch_format="pyarrow"
    )

    def und_markers(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "common": pa.array([], pa.int64()),
                    "ra": pa.array([], pa.int64()),
                    "edge": pa.array([], pa.int64()),
                }
            )
        n = batch.num_rows
        z = pa.array(np.zeros(n, np.int64))
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "common": z,
                "ra": z,
                "edge": pa.array(np.ones(n, np.int64)),
            }
        )

    return (
        wedges.union(und.map_batches(und_markers, batch_format="pyarrow"))
        .groupby(["a", "b"])
        .aggregate(
            Sum("common", alias_name="common"),
            Sum("ra", alias_name="ra_micro"),
            Max("edge", alias_name="is_edge"),
        )
        .filter(expr=f"common >= {int(min_common)}")
    )


def _hyperball_remotes(p_bits: int, max_t: int):
    """BSP worker tasks for HyperBall (lazy so import never touches Ray)."""
    import numpy as np

    import ray

    from .sketch import hll_row_estimates, hll_single_register

    m = 1 << p_bits

    def _shard_pairs(a, b, P):
        dest = a % P
        order = np.argsort(dest, kind="stable")
        a, b, dest = a[order], b[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [
            (a[bounds[p]: bounds[p + 1]], b[bounds[p]: bounds[p + 1]])
            for p in range(P)
        ]

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        """Distinct directed (u, v) sharded by u (node discovery) and by v
        (reverse adjacency: successor w pushes its ball counter to every
        predecessor, so B(v, t+1) = {v} U ball of each successor)."""
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            e = np.empty(0, np.int64)
            return [((e,), (e, e))] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        fwd = _shard_pairs(u, np.zeros(len(u), np.int64), P)
        rev = _shard_pairs(v, u, P)
        return [((fwd[p][0],), rev[p]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        fwd_keys = (
            np.concatenate([s[0][0] for s in edge_parts])
            if edge_parts else np.empty(0, np.int64)
        )
        ru = (
            np.concatenate([s[1][0] for s in edge_parts])
            if edge_parts else np.empty(0, np.int64)
        )
        rv = (
            np.concatenate([s[1][1] for s in edge_parts])
            if edge_parts else np.empty(0, np.int64)
        )
        if len(ru):
            order = np.lexsort((rv, ru))
            ru, rv = ru[order], rv[order]
            keep = np.ones(len(ru), bool)
            keep[1:] = (ru[1:] != ru[:-1]) | (rv[1:] != rv[:-1])
            ru, rv = ru[keep], rv[keep]
        nodes = np.unique(np.concatenate([fwd_keys, ru]))
        regs = np.zeros((len(nodes), m), np.uint8)
        for i, nd in enumerate(nodes):
            b, rho = hll_single_register(str(int(nd)).encode("utf-8"), p_bits)
            regs[i, b] = rho
        est = np.zeros((len(nodes), max_t + 1), np.int64)
        est[:, 0] = np.round(hll_row_estimates(regs, p_bits) * 1e6).astype(np.int64)
        return {
            "rev_u": ru,
            "rev_v": rv,
            "nodes": nodes,
            "regs": regs,
            "est": est,
            "frontier": np.ones(len(nodes), bool),
        }

    @ray.remote
    def ball_msgs(state, P: int):
        """Frontier nodes (ball changed last round) push their register
        rows to all predecessors; message volume per round is
        O(frontier in-edges x 2^p bytes) — the HyperBall cost model."""
        nodes = state["nodes"]
        ru, rv = state["rev_u"], state["rev_v"]
        f = state["frontier"]
        keys = nodes[f]
        lo = np.searchsorted(ru, keys, side="left")
        hi = np.searchsorted(ru, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, np.int64)
            return [(e, np.zeros((0, m), np.uint8))] * P
        starts = np.repeat(lo, counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        tgt = rv[starts + offs]
        rows = np.repeat(np.flatnonzero(f), counts)
        dest = tgt % P
        order = np.argsort(dest, kind="stable")
        tgt, rows, dest = tgt[order], rows[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [
            (tgt[bounds[q]: bounds[q + 1]],
             state["regs"][rows[bounds[q]: bounds[q + 1]]])
            for q in range(P)
        ]

    @ray.remote
    def ball_reduce(state, t: int, *incoming):
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        nodes = state["nodes"]
        regs = state["regs"].copy()
        for tgt, mat in incoming:
            if len(tgt):
                np.maximum.at(regs, np.searchsorted(nodes, tgt), mat)
        changed = (regs != state["regs"]).any(axis=1)
        est = state["est"].copy()
        est[:, t] = est[:, t - 1]
        if changed.any():
            est[changed, t] = np.round(
                hll_row_estimates(regs[changed], p_bits) * 1e6
            ).astype(np.int64)
        st = dict(state, regs=regs, est=est, frontier=changed)
        return st, bool(changed.any())

    @ray.remote
    def fill_rest(state, t_from: int):
        """All frontiers emptied early: remaining columns repeat the
        converged estimate."""
        est = state["est"].copy()
        for t in range(t_from, max_t + 1):
            est[:, t] = est[:, t - 1]
        return dict(state, est=est)

    @ray.remote
    def to_table(state) -> pa.Table:
        n = len(state["nodes"])
        ts = np.tile(np.arange(max_t + 1, dtype=np.int64), n)
        return pa.table(
            {
                "node": pa.array(np.repeat(state["nodes"], max_t + 1), pa.int64()),
                "t": pa.array(ts, pa.int64()),
                "est_micro": pa.array(state["est"].reshape(-1), pa.int64()),
            }
        )

    return split_edges, concat_part, ball_msgs, ball_reduce, fill_rest, to_table


def hyperball(edges_ds, max_t: int = 4, p_bits: int = 8,
              num_partitions: int | None = None):
    """HyperBall (Boldi & Vigna 2013): the per-node neighborhood function
    |B(v, t)| — how many nodes are within t forward hops of v — estimated
    with per-node HyperLogLog counters merged along edges, the published
    way to compute ball sizes / effective diameter on graphs where exact
    per-node BFS is quadratic.

    Engine shape: counters are (2^p)-byte register rows hash-co-partitioned
    with their nodes; each BSP round every CHANGED counter is pushed along
    reverse edges to its predecessors and folded with the (exact,
    order-free) bucketwise MAX merge; per-round message volume is
    O(frontier in-edges x 2^p bytes) and the loop stops early when every
    ball saturates.  Registers after round t are EXACTLY the HLL of the
    true ball B(v, t) (max-merge == union), so estimates are a
    deterministic pure function of the graph: the oracle is a
    single-process mirror (sources/corpus.write_gold_hyperball) evaluating
    the same shared closed form (ops/sketch.hll_row_estimates) over the
    same registers — bit-identical floats, micro-grid ints."""
    import ray
    import ray.data

    def to_uv(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"u": e, "v": e})
        return pa.table({"u": batch.column("src_id"), "v": batch.column("dst_id")})

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    (split_edges, concat_part, ball_msgs, ball_reduce,
     fill_rest, to_table) = _hyperball_remotes(p_bits, max_t)

    uv = edges_ds.select_columns(["src_id", "dst_id"]).map_batches(
        to_uv, batch_format="pyarrow"
    ).materialize()
    block_refs = list(uv.to_arrow_refs())
    shard_lists = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]

    stopped_at = None
    for t in range(1, max_t + 1):
        msg_lists = [ball_msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[x] for x in msg_lists]
        new = [
            ball_reduce.options(num_returns=2).remote(
                parts[p], t, *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        if not any(ray.get([n[1] for n in new])):
            stopped_at = t + 1
            break
    if stopped_at is not None and stopped_at <= max_t:
        parts = [fill_rest.remote(parts[p], stopped_at) for p in range(P)]

    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])



def _edge_id64(u: int, v: int) -> int:
    """Signed-int64 edge id of the normalized pair "min:max" — the upper
    md5 bits wrapped into int64 range (same collision assumption as the
    engine's node ids; numpy %% keeps partition routing non-negative)."""
    h = _neg_hash_u64(f"{min(u, v)}:{max(u, v)}")
    return h - (1 << 64) if h >= (1 << 63) else h


def _truss_remotes():
    """BSP worker tasks for k-truss decomposition (lazy so import never
    touches Ray)."""
    import numpy as np

    import ray

    def _shard_one(a, extra, P):
        dest = a % P
        order = np.argsort(dest, kind="stable")
        a = a[order]
        extra = [x[order] for x in extra]
        bounds = np.searchsorted(dest[order], np.arange(P + 1))
        return [
            tuple([a[bounds[p]: bounds[p + 1]]]
                  + [x[bounds[p]: bounds[p + 1]] for x in extra])
            for p in range(P)
        ]

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        """(eid, u, v) edge rows sharded by owner eid %% P."""
        if tbl.num_rows == 0 or "eid" not in tbl.column_names:
            e = np.empty(0, np.int64)
            return [(e, e, e)] * P
        eid = np.asarray(tbl.column("eid").to_pylist(), dtype=np.int64)
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        return _shard_one(eid, [u, v], P)

    @ray.remote
    def split_tris(tbl: pa.Table, P: int):
        """(own, f, g) triangle-membership rows sharded by own %% P (each
        triangle ships one row to each of its three edges' owners)."""
        if tbl.num_rows == 0 or "own" not in tbl.column_names:
            e = np.empty(0, np.int64)
            return [(e, e, e)] * P
        own = np.asarray(tbl.column("own").to_pylist(), dtype=np.int64)
        f = np.asarray(tbl.column("f").to_pylist(), dtype=np.int64)
        g = np.asarray(tbl.column("g").to_pylist(), dtype=np.int64)
        return _shard_one(own, [f, g], P)

    @ray.remote
    def concat_part(n_edge_blocks: int, *shards):
        """Partition state: owned edges (sorted ids + endpoints), triangle
        partner rows sorted by owning edge, support counts as the h-index
        iteration's rho_0, and a static merged id->value lookup layout
        (partner indices precomputed once — per-round work is pure
        arithmetic, no searches)."""
        shards = [s[0] if isinstance(s, list) else s for s in shards]
        e_parts = shards[:n_edge_blocks]
        t_parts = shards[n_edge_blocks:]

        def _cat(parts, idx):
            return (
                np.concatenate([p[idx] for p in parts])
                if parts else np.empty(0, np.int64)
            )

        eid = _cat(e_parts, 0)
        eu = _cat(e_parts, 1)
        ev = _cat(e_parts, 2)
        order = np.argsort(eid, kind="stable")
        eid, eu, ev = eid[order], eu[order], ev[order]
        # distinct edges by construction, but be safe on retried blocks
        keep = np.ones(len(eid), bool)
        keep[1:] = eid[1:] != eid[:-1]
        eid, eu, ev = eid[keep], eu[keep], ev[keep]

        tri_e = _cat(t_parts, 0)
        tri_f = _cat(t_parts, 1)
        tri_g = _cat(t_parts, 2)
        torder = np.argsort(tri_e, kind="stable")
        tri_e, tri_f, tri_g = tri_e[torder], tri_f[torder], tri_g[torder]

        rho = np.zeros(len(eid), np.int64)
        if len(tri_e):
            np.add.at(rho, np.searchsorted(eid, tri_e), 1)

        partner_ids = np.unique(np.concatenate([tri_f, tri_g]))
        own_pos = np.searchsorted(eid, partner_ids)
        own_pos = np.minimum(own_pos, max(len(eid) - 1, 0))
        is_own = (
            eid[own_pos] == partner_ids if len(eid) else
            np.zeros(len(partner_ids), bool)
        )
        rep_ids = partner_ids[~is_own]

        # static merged lookup: all referenced ids -> slot; slots filled
        # from (rho, rep_rho) each round
        all_ids = np.concatenate([eid, rep_ids])
        all_order = np.argsort(all_ids, kind="stable")
        all_sorted = all_ids[all_order]
        f_idx = all_order[np.searchsorted(all_sorted, tri_f)] if len(tri_f) else tri_f
        g_idx = all_order[np.searchsorted(all_sorted, tri_g)] if len(tri_g) else tri_g

        return {
            "eid": eid, "eu": eu, "ev": ev,
            "tri_e": tri_e, "f_idx": f_idx, "g_idx": g_idx,
            "rho": rho,
            "rep_ids": rep_ids,
            "rep_rho": np.full(len(rep_ids), np.iinfo(np.int64).max, np.int64),
            "frontier": np.ones(len(eid), bool),
            # subscriber structure filled by sub_reduce
            "sub_pos": np.empty(0, np.int64),
            "sub_part": np.empty(0, np.int64),
        }

    @ray.remote
    def sub_msgs(state, P: int):
        """Each partition asks the owners of its external partner edges
        for value updates (one distinct id per request)."""
        rep = state["rep_ids"]
        dest = rep % P
        order = np.argsort(dest, kind="stable")
        rep, dest = rep[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [rep[bounds[p]: bounds[p + 1]] for p in range(P)]

    @ray.remote
    def sub_reduce(state, *incoming):
        """Record (edge position, requesting partition), sorted by
        partition for per-destination slicing at message time."""
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        pos_list, part_list = [], []
        for q, ids in enumerate(incoming):
            if len(ids):
                pos_list.append(np.searchsorted(state["eid"], ids))
                part_list.append(np.full(len(ids), q, np.int64))
        if pos_list:
            pos = np.concatenate(pos_list)
            prt = np.concatenate(part_list)
            order = np.lexsort((pos, prt))
            pos, prt = pos[order], prt[order]
        else:
            pos = np.empty(0, np.int64)
            prt = np.empty(0, np.int64)
        return dict(state, sub_pos=pos, sub_part=prt)

    @ray.remote
    def push_msgs(state, P: int):
        """Changed owned-edge values to their subscriber partitions."""
        pos, prt = state["sub_pos"], state["sub_part"]
        f = state["frontier"]
        out = []
        bounds = np.searchsorted(prt, np.arange(P + 1))
        for q in range(P):
            p_pos = pos[bounds[q]: bounds[q + 1]]
            live = p_pos[f[p_pos]] if len(p_pos) else p_pos
            out.append((state["eid"][live], state["rho"][live]))
        return out

    @ray.remote
    def reduce_part(state, *incoming):
        """Apply partner updates, then one edge-h-index round:
        rho'(e) = min(rho(e), H({min(rho(f), rho(g)) per triangle}))."""
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        rep_rho = state["rep_rho"].copy()
        for ids, vals in incoming:
            if len(ids):
                idx = np.searchsorted(state["rep_ids"], ids)
                np.minimum.at(rep_rho, idx, vals)
        eid, rho = state["eid"], state["rho"]
        all_rho = np.concatenate([rho, rep_rho])
        if len(state["tri_e"]):
            vals = np.minimum(all_rho[state["f_idx"]], all_rho[state["g_idx"]])
            tri_e = state["tri_e"]
            order = np.lexsort((-vals, tri_e))
            te, tv = tri_e[order], vals[order]
            ue, starts = np.unique(te, return_index=True)
            counts = np.r_[starts[1:], len(te)] - starts
            rank = np.arange(len(te), dtype=np.int64) - np.repeat(starts, counts) + 1
            h = np.maximum.reduceat(np.minimum(tv, rank), starts)
            new = rho.copy()
            upos = np.searchsorted(eid, ue)
            new[upos] = np.minimum(new[upos], h)
        else:
            new = rho
        changed = new < rho
        st = dict(state, rho=new, rep_rho=rep_rho, frontier=changed)
        return st, bool(changed.any())

    @ray.remote
    def to_table(state) -> pa.Table:
        return pa.table(
            {
                "u": pa.array(state["eu"], pa.int64()),
                "v": pa.array(state["ev"], pa.int64()),
                "truss": pa.array(state["rho"] + 2, pa.int64()),
            }
        )

    return (split_edges, split_tris, concat_part, sub_msgs, sub_reduce,
            push_msgs, reduce_part, to_table)


def truss_decomposition(edges_ds, max_iters: int = 100,
                        num_partitions: int | None = None):
    """k-truss decomposition of the UNDIRECTED simple graph: for every
    edge, the largest k such that the edge survives in the k-truss (the
    subgraph where every edge closes >= k-2 triangles) -> (u, v, truss)
    int-node-id rows, u < v, triangle-free edges at the floor truss = 2.

    Algorithm: the edge-level iterated h-index (Sariyuce et al., local
    nucleus decomposition — the same convergence family as this repo's
    :func:`coreness`): rho_0(e) = support(e); each round
    rho(e) <- min(rho(e), H({min(rho(f), rho(g)) over e's triangles}))
    converges monotonically from above to truss(e) - 2.

    Engine shape: triangles are enumerated ONCE with the degree-oriented
    wedge join of :func:`triangle_counts` (bounded skew), then each
    triangle ships one (own, partner, partner) row to each of its three
    edges' owner partitions (edge ids hash-partitioned).  Partner values
    live in a per-partition replica updated by a subscription exchange:
    owners push only CHANGED values to the partitions that registered
    interest, so per-round traffic is O(changed edges x subscribers),
    not O(triangles).  Partner-slot indices are precomputed, so a round
    is pure vectorized arithmetic (no searches on the triangle table).

    Edge ids are the md5 bridge hash of "u:v" (the node_id_of collision
    assumption this engine already makes for node ids)."""
    import numpy as np
    import ray
    import ray.data
    from ray.data.aggregate import Max

    from ..ops.dedup import _join_partitions

    def to_und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"a": e, "b": e})
        s = batch.column("src_id")
        d = batch.column("dst_id")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])

    und = (
        edges_ds.select_columns(["src_id", "dst_id"])
        .map_batches(to_und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )

    empty_out = pa.table(
        {
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "truss": pa.array([], pa.int64()),
        }
    )
    if und.count() == 0:
        return ray.data.from_arrow(empty_out)

    n_part = num_partitions
    if n_part is None:
        n_part = 1 if und.count() < 10_000 else _join_partitions()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.int64())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
                )
            }
        )

    degrees = (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .rename_columns({"count()": "deg"})
    )

    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table(
                {"a": e, "b": e, "side": pa.array([], pa.int32()), "key": e}
            )
        a, b = batch.column("a").combine_chunks(), batch.column("b").combine_chunks()
        n = batch.num_rows
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                "key": pa.concat_arrays([a, b]),
            }
        )

    def split_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "side" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"a": e, "b": e, "deg_a": e, "deg_b": e})
        is_a = pc.equal(batch.column("side"), pa.scalar(0, pa.int32()))
        zero = pa.scalar(0, pa.int64())
        deg = batch.column("deg").cast(pa.int64())
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "deg_a": pc.if_else(is_a, deg, zero),
                "deg_b": pc.if_else(is_a, zero, deg),
            }
        )

    with_deg = (
        und.map_batches(explode_sides, batch_format="pyarrow")
        .join(degrees, join_type="inner", num_partitions=n_part,
              on=("key",), right_on=("node",))
        .map_batches(split_sides, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("deg_a", alias_name="deg_a"), Max("deg_b", alias_name="deg_b"))
    )

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"u": e, "v": e, "vdeg": e})
        da, db = batch.column("deg_a"), batch.column("deg_b")
        fwd = pc.less_equal(da, db)
        return pa.table(
            {
                "u": pc.if_else(fwd, batch.column("a"), batch.column("b")),
                "v": pc.if_else(fwd, batch.column("b"), batch.column("a")),
                "vdeg": pc.if_else(fwd, db, da),
            }
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow").materialize()

    def make_wedges(group: pa.Table) -> pa.Table:
        if group.num_rows < 2 or "u" not in group.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"apex": e, "wa": e, "wb": e})
        idx = pc.sort_indices(
            group, sort_keys=[("vdeg", "ascending"), ("v", "ascending")]
        )
        vs = group.column("v").take(idx).combine_chunks()
        ii, jj = np.triu_indices(len(vs), k=1)
        return pa.table(
            {
                "apex": pa.array(
                    [group.column("u")[0].as_py()] * len(ii), pa.int64()
                ),
                "wa": vs.take(pa.array(ii, pa.int64())),
                "wb": vs.take(pa.array(jj, pa.int64())),
            }
        )

    wedges = oriented.groupby("u").map_groups(
        make_wedges, batch_format="pyarrow"
    ).materialize()

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"eid": e, "u": e, "v": e})
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        eids = [_edge_id64(x, y) for x, y in zip(a, b)]
        return pa.table(
            {
                "eid": pa.array(eids, pa.int64()),
                "u": batch.column("a"),
                "v": batch.column("b"),
            }
        )

    if wedges.count() == 0:
        # triangle-free graph: every edge sits at the truss floor
        def floor_rows(batch: pa.Table) -> pa.Table:
            t = edge_rows(batch)
            return pa.table(
                {
                    "u": t.column("u"),
                    "v": t.column("v"),
                    "truss": pa.array(np.full(t.num_rows, 2, np.int64)),
                }
            )

        return und.map_batches(floor_rows, batch_format="pyarrow")

    tri = wedges.join(
        oriented.select_columns(["u", "v"]),
        join_type="inner",
        num_partitions=n_part,
        on=("wa", "wb"),
        right_on=("u", "v"),
    )

    def tri_member_rows(batch: pa.Table) -> pa.Table:
        """Triangle (apex, wa, wb) -> three (own, f, g) rows keyed by the
        normalized (min, max) edge-id hashes."""
        if batch.num_rows == 0 or "apex" not in batch.column_names:
            e = pa.array([], pa.int64())
            return pa.table({"own": e, "f": e, "g": e})
        ax = batch.column("apex").to_pylist()
        wa = batch.column("wa").to_pylist()
        wb = batch.column("wb").to_pylist()

        own, f, g = [], [], []
        for x, y, z in zip(ax, wa, wb):
            e1, e2, e3 = _edge_id64(x, y), _edge_id64(x, z), _edge_id64(y, z)
            own += [e1, e2, e3]
            f += [e2, e1, e1]
            g += [e3, e3, e2]
        return pa.table(
            {
                "own": pa.array(own, pa.int64()),
                "f": pa.array(f, pa.int64()),
                "g": pa.array(g, pa.int64()),
            }
        )

    edge_tbl = und.map_batches(edge_rows, batch_format="pyarrow").materialize()
    tri_tbl = tri.map_batches(tri_member_rows, batch_format="pyarrow").materialize()

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    (split_edges, split_tris, concat_part, sub_msgs, sub_reduce,
     push_msgs, reduce_part, to_table) = _truss_remotes()

    e_refs = list(edge_tbl.to_arrow_refs())
    t_refs = list(tri_tbl.to_arrow_refs())
    e_shards = [split_edges.options(num_returns=P).remote(r, P) for r in e_refs]
    t_shards = [split_tris.options(num_returns=P).remote(r, P) for r in t_refs]
    if P == 1:
        e_shards = [[s] for s in e_shards]
        t_shards = [[s] for s in t_shards]
    parts = [
        concat_part.remote(
            len(e_refs),
            *[e_shards[i][p] for i in range(len(e_refs))],
            *[t_shards[i][p] for i in range(len(t_refs))],
        )
        for p in range(P)
    ]

    # subscription exchange (once)
    subs = [sub_msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
    if P == 1:
        subs = [[s] for s in subs]
    parts = [
        sub_reduce.remote(parts[p], *[subs[q][p] for q in range(P)])
        for p in range(P)
    ]

    converged = False
    for _ in range(max_iters):
        msgs = [push_msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msgs = [[m] for m in msgs]
        new = [
            reduce_part.options(num_returns=2).remote(
                parts[p], *[msgs[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        if not any(ray.get([n[1] for n in new])):
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"truss_decomposition did not converge in {max_iters} rounds"
        )

    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def condensation_edges(edges_ds, num_partitions: int | None = None,
                       max_outer: int = 256):
    """Condensation DAG of the directed entity graph: distinct
    (scc_src, scc_dst) pairs between DIFFERENT strongly connected
    components — the acyclic super-graph downstream schedulers and
    reachability indexes operate on.

    Composition: :func:`scc_components` labels every node, one hash join
    re-keys each directed edge's endpoints to their SCC representatives
    (side-tagged: both endpoints resolved by a single join against the
    node->scc table, the triangle_counts degree-fetch pattern), and a
    distinct groupby collapses multi-edges.  Self-pairs (intra-SCC edges)
    drop."""
    from ray.data.aggregate import Max

    import ray.data

    from .dedup import _join_partitions

    scc = scc_components(
        edges_ds, num_partitions=num_partitions, max_outer=max_outer
    ).materialize()
    empty = pa.table(
        {"scc_src": pa.array([], pa.string()), "scc_dst": pa.array([], pa.string())}
    )
    if scc.count() == 0:
        return ray.data.from_arrow(empty)

    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(
                {
                    "eid": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int32()),
                    "key": pa.array([], pa.string()),
                }
            )
        s = batch.column("src_canonical").combine_chunks()
        d = batch.column("dst_canonical").combine_chunks()
        n = batch.num_rows
        # NOTE: _edge_id64 normalizes the pair, so a reciprocal (b -> a)
        # shares the id of (a -> b) — safe: mutual edges are intra-SCC by
        # definition, so the merged row re-keys to a self-pair and drops
        eids = pa.array(
            [
                _edge_id64(_neg_hash_u64(a), _neg_hash_u64(b))
                for a, b in zip(s.to_pylist(), d.to_pylist())
            ],
            pa.int64(),
        )
        return pa.table(
            {
                "eid": pa.concat_arrays([eids, eids]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                "key": pa.concat_arrays([s, d]),
            }
        )

    def split_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "side" not in batch.column_names:
            return pa.table(
                {
                    "eid": pa.array([], pa.int64()),
                    "scc_src": pa.array([], pa.string()),
                    "scc_dst": pa.array([], pa.string()),
                }
            )
        is_src = pc.equal(batch.column("side"), pa.scalar(0, pa.int32()))
        lbl = batch.column("scc")
        empty = pa.scalar("", pa.string())
        return pa.table(
            {
                "eid": batch.column("eid"),
                "scc_src": pc.if_else(is_src, lbl, empty),
                "scc_dst": pc.if_else(is_src, empty, lbl),
            }
        )

    n_part = num_partitions
    if n_part is None:
        n_part = 1 if scc.count() < 10_000 else _join_partitions()

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "scc_src" not in batch.column_names:
            return pa.table(
                {
                    "scc_src": pa.array([], pa.string()),
                    "scc_dst": pa.array([], pa.string()),
                }
            )
        t = batch.filter(
            pc.not_equal(batch.column("scc_src"), batch.column("scc_dst"))
        )
        return pa.table(
            {"scc_src": t.column("scc_src"), "scc_dst": t.column("scc_dst")}
        ).group_by(["scc_src", "scc_dst"]).aggregate([])

    return (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(explode_sides, batch_format="pyarrow")
        .join(scc, join_type="inner", num_partitions=n_part,
              on=("key",), right_on=("canonical",))
        .map_batches(split_sides, batch_format="pyarrow")
        .groupby("eid")
        .aggregate(
            Max("scc_src", alias_name="scc_src"),
            Max("scc_dst", alias_name="scc_dst"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .groupby(["scc_src", "scc_dst"])
        .count()
        .select_columns(["scc_src", "scc_dst"])
    )


def random_walks(edges_ds, length: int = 4, num_partitions: int | None = None):
    """Deterministic "random" walks over the directed entity graph — the
    DeepWalk/node2vec corpus-generation step of a KG-embedding pipeline,
    with the RNG replaced by the engine's cross-engine hash bridge so the
    walks are a pure function of the graph: from every node, one walk of
    up to ``length`` hops where hop ``s`` picks neighbor index

        ``md5_number_upper("walk:{start}:{s}") %% out_degree(cur)``

    over the current node's neighbors in canonical sort order.  Walks
    stop early at sink nodes (inner joins drop them — exactly the
    random-walk-with-teleport-less semantics).

    Engine shape: NO per-row Python in the hop loop — a ranked adjacency
    table (u, idx, v) and a degree table are built once (one groupby
    each); each hop is a degree fetch + an (u, idx) composite-key hash
    join, the standard relational DeepWalk formulation.  Output rows
    (start, step, node) for steps 0..length."""
    import numpy as np
    import ray.data

    from .dedup import _join_partitions

    def dedupe(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            e = pa.array([], pa.string())
            return pa.table({"u": e, "v": e})
        return pa.table(
            {"u": batch.column("src_canonical"), "v": batch.column("dst_canonical")}
        ).group_by(["u", "v"]).aggregate([])

    adj = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(dedupe, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])
        .materialize()
    )
    empty = pa.table(
        {
            "start": pa.array([], pa.string()),
            "step": pa.array([], pa.int64()),
            "node": pa.array([], pa.string()),
        }
    )
    if adj.count() == 0:
        return ray.data.from_arrow(empty)

    def rank_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "u" not in group.column_names:
            return pa.table(
                {
                    "u": pa.array([], pa.string()),
                    "idx": pa.array([], pa.int64()),
                    "v": pa.array([], pa.string()),
                }
            )
        t = group.sort_by([("v", "ascending")])
        return pa.table(
            {
                "u": t.column("u"),
                "idx": pa.array(np.arange(t.num_rows, dtype=np.int64)),
                "v": t.column("v"),
            }
        )

    ranked = adj.groupby("u").map_groups(rank_group, batch_format="pyarrow").materialize()
    degrees = (
        adj.select_columns(["u"]).groupby("u").count()
        .rename_columns({"count()": "deg"})
        .materialize()
    )

    n_part = num_partitions
    if n_part is None:
        n_part = 1 if adj.count() < 10_000 else _join_partitions()

    def starts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.table(
                {"start": pa.array([], pa.string()), "cur": pa.array([], pa.string())}
            )
        seen = sorted(
            set(batch.column("u").to_pylist()) | set(batch.column("v").to_pylist())
        )
        return pa.table(
            {"start": pa.array(seen, pa.string()), "cur": pa.array(seen, pa.string())}
        )

    from ray.data.aggregate import Min

    frontier = (
        adj.map_batches(starts, batch_format="pyarrow")
        .groupby("start")
        .aggregate(Min("cur", alias_name="cur"))
        .materialize()
    )

    out_parts = []

    def emit(step):
        def f(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "start" not in batch.column_names:
                return empty
            return pa.table(
                {
                    "start": batch.column("start"),
                    "step": pa.array(
                        np.full(batch.num_rows, step, np.int64)
                    ),
                    "node": batch.column("cur"),
                }
            )

        return f

    out_parts.append(frontier.map_batches(emit(0), batch_format="pyarrow"))

    for step in range(1, length + 1):
        # degree fetch, then pick = H(start, step) % deg
        with_deg = frontier.join(
            degrees, join_type="inner", num_partitions=n_part,
            on=("cur",), right_on=("u",),
        ).materialize()
        if with_deg.count() == 0:
            break

        def pick(batch: pa.Table, _step=step) -> pa.Table:
            if batch.num_rows == 0 or "start" not in batch.column_names:
                return pa.table(
                    {
                        "start": pa.array([], pa.string()),
                        "cur": pa.array([], pa.string()),
                        "idx": pa.array([], pa.int64()),
                    }
                )
            st = batch.column("start").to_pylist()
            dg = batch.column("deg").to_pylist()
            idx = [
                _neg_hash_u64(f"walk:{s}:{_step}") % d for s, d in zip(st, dg)
            ]
            return pa.table(
                {
                    "start": batch.column("start"),
                    "cur": batch.column("cur"),
                    "idx": pa.array(idx, pa.int64()),
                }
            )

        picked = with_deg.map_batches(pick, batch_format="pyarrow")
        nxt = picked.join(
            ranked, join_type="inner", num_partitions=n_part,
            on=("cur", "idx"), right_on=("u", "idx"),
        )

        def advance(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "start" not in batch.column_names:
                return pa.table(
                    {
                        "start": pa.array([], pa.string()),
                        "cur": pa.array([], pa.string()),
                    }
                )
            return pa.table(
                {"start": batch.column("start"), "cur": batch.column("v")}
            )

        frontier = nxt.map_batches(advance, batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        out_parts.append(frontier.map_batches(emit(step), batch_format="pyarrow"))

    out = out_parts[0]
    for part in out_parts[1:]:
        out = out.union(part)
    return out


def _lpa_remotes():
    """BSP worker tasks for synchronous label propagation (lazy so import
    never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_und(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p]: bounds[p + 1]], v[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        """Partition state: u-sorted out-edges, sorted owned-node array,
        per-node label initialized to the node's own id."""
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        labels = nodes.copy()
        return u, v, nodes, labels

    @ray.remote
    def msgs(part, P: int):
        """(dst, label) shards: every node sends its CURRENT label along
        every out-edge — O(E) messages per round, the LPA invariant."""
        u, v, nodes, labels = part
        if len(u) == 0:
            ei = np.empty(0, np.int64)
            return [(ei, ei)] * P
        lab = labels[np.searchsorted(nodes, u)]
        dest = v % P
        order = np.argsort(dest, kind="stable")
        vs, ls, dest = v[order], lab[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(vs[bounds[p]: bounds[p + 1]], ls[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def reduce_part(part, *incoming):
        """New label per node = most frequent incoming neighbor label,
        ties -> smallest label id.  All P shards' messages concatenate
        BEFORE counting, so the mode is a pure function of the graph (no
        arrival-order dependence)."""
        u, v, nodes, labels = part
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        mv = np.concatenate([s[0] for s in incoming]) if incoming else np.empty(0, np.int64)
        ml = np.concatenate([s[1] for s in incoming]) if incoming else np.empty(0, np.int64)
        if len(mv) == 0:
            return part
        order = np.lexsort((ml, mv))
        mv, ml = mv[order], ml[order]
        # run-length count of (dst, label) pairs
        new_run = np.r_[True, (mv[1:] != mv[:-1]) | (ml[1:] != ml[:-1])]
        starts = np.flatnonzero(new_run)
        cnt = np.diff(np.r_[starts, len(mv)])
        rd, rl = mv[starts], ml[starts]
        # per dst: max count, tie -> min label.  Sort (dst asc, count
        # desc, label asc) and take the first row of each dst run.
        order2 = np.lexsort((rl, -cnt, rd))
        rd, rl = rd[order2], rl[order2]
        first = np.r_[True, rd[1:] != rd[:-1]]
        wd, wl = rd[first], rl[first]
        new_labels = labels.copy()
        new_labels[np.searchsorted(nodes, wd)] = wl
        return u, v, nodes, new_labels

    @ray.remote
    def to_table(part) -> pa.Table:
        _, _, nodes, labels = part
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "community": pa.array(labels, pa.int64()),
            }
        )

    @ray.remote(num_returns=2)
    def expose(part):
        _, _, nodes, labels = part
        return nodes, labels

    @ray.remote
    def splice(part, nodes_loaded, labels_loaded):
        u, v, nodes, _ = part
        if len(nodes_loaded) != len(nodes) or not (nodes_loaded == nodes).all():
            raise ValueError("checkpoint partition node set mismatch")
        return u, v, nodes, labels_loaded.astype(np.int64)

    return split_und, concat_part, msgs, reduce_part, to_table, expose, splice


def label_propagation(edges_ds, *, rounds: int = 4, num_partitions: int | None = None,
                      checkpoint_dir: str | None = None,
                      checkpoint_every: int = 2,
                      checkpoint_fingerprint: str | None = None):
    """Community detection by synchronous label propagation (Raghavan et
    al. 2007) over the UNDIRECTED SIMPLE projection of the entity graph:
    every node starts in its own community (label = own id); each round
    every node adopts the most frequent label among its neighbors, ties
    broken toward the smallest label id.  Exactly ``rounds`` synchronous
    rounds — a fixed round count sidesteps LPA's oscillation-under-
    convergence-checks problem and makes the output a pure function of
    the graph, independent of partitioning (messages are counted after a
    full concatenate, never folded in arrival order).

    Same BSP shape as components/PageRank/coreness: distinct symmetric
    (u, v) pairs hash-partition ONCE by source; each round ships O(E)
    (dst, label) messages between the P partitions and the driver sees
    only P refs — re-invoking Dataset shuffle operators per round would
    pay seconds of setup per iteration at any scale.

    Emits (node, community) int64 rows — ids match the engine's
    content-derived node ids, so the single-process gold mirror
    (sources/corpus.lpa_reference) is hash-exact by construction."""
    import ray
    import ray.data

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_und, concat_part, msgs, reduce_part, to_table, expose, splice = _lpa_remotes()

    def sym_simple(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        s, d = batch.column("src_id"), batch.column("dst_id")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep).combine_chunks(), d.filter(keep).combine_chunks()
        t = pa.table({"u": pa.concat_arrays([s, d]), "v": pa.concat_arrays([d, s])})
        return t.group_by(["u", "v"]).aggregate([])  # per-batch dedup combiner

    sym = (
        edges_ds.map_batches(sym_simple, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])  # global dedup: the label multiset is per NEIGHBOR
        .materialize()
    )
    block_refs = list(sym.to_arrow_refs())
    if not block_refs:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "community": pa.array([], pa.int64())})
        )
    shard_lists = [split_und.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]
    # per-round lineage: labels resume from the newest complete checkpoint
    # whose fingerprint matches (params + input CONTENT digest — same-count
    # rewired inputs never share a checkpoint)
    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        fp = checkpoint_fingerprint or (
            f"lpa:P={P}:rounds={int(rounds)}"
            f":digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P)
        if loaded is not None:
            start_round, value_refs = loaded
            parts = [
                splice.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]
    for rnd in range(start_round, max(0, int(rounds))):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        parts = [
            reduce_part.remote(parts[p], *[msg_lists[q][p] for q in range(P)])
            for p in range(P)
        ]
        if checkpoint_dir and (rnd + 1) % checkpoint_every == 0:
            from ..state import bsp_ckpt

            bsp_ckpt.save_round(
                checkpoint_dir, fp, rnd + 1,
                [expose.remote(parts[p]) for p in range(P)],
            )
    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def _sssp_remotes():
    """BSP worker tasks for bounded weighted shortest paths (lazy so
    import never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_edges(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        w = np.asarray(tbl.column("w").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, w, dest = u[order], v[order], w[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [
            (u[bounds[p]: bounds[p + 1]], v[bounds[p]: bounds[p + 1]], w[bounds[p]: bounds[p + 1]])
            for p in range(P)
        ]

    @ray.remote
    def concat_part(seed_ids, *edge_parts):
        INF = np.iinfo(np.int64).max
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        w = np.concatenate([s[2] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v, w = u[order], v[order], w[order]
        nodes = np.unique(u)
        dist = np.full(len(nodes), INF, dtype=np.int64)
        idx = np.searchsorted(nodes, seed_ids)
        ok = idx < len(nodes)
        sub = idx[ok]
        sub = sub[nodes[sub] == seed_ids[ok]]
        dist[sub] = 0
        frontier = np.zeros(len(nodes), dtype=bool)
        frontier[sub] = True
        return u, v, w, nodes, dist, frontier

    @ray.remote
    def msgs(part, P: int):
        """(dst, dist_u + w) relaxations from this round's FRONTIER nodes
        only — Bellman-Ford with frontier pruning, so total message volume
        is O(sum of improved-node degrees)."""
        u, v, w, nodes, dist, frontier = part
        if not frontier.any():
            ei = np.empty(0, np.int64)
            return [(ei, ei)] * P
        lo = np.searchsorted(u, nodes[frontier], side="left")
        hi = np.searchsorted(u, nodes[frontier], side="right")
        if len(lo):
            vs = np.concatenate([v[a:b] for a, b in zip(lo, hi)])
            ds_ = np.concatenate(
                [d + w[a:b] for a, b, d in zip(lo, hi, dist[frontier])]
            )
        else:
            vs = np.empty(0, np.int64)
            ds_ = np.empty(0, np.int64)
        dest = vs % P
        order = np.argsort(dest, kind="stable")
        vs, ds_, dest = vs[order], ds_[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(vs[bounds[p]: bounds[p + 1]], ds_[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def reduce_part(part, *incoming):
        u, v, w, nodes, dist, _ = part
        new = dist.copy()
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        for mv, md in incoming:
            if len(mv):
                idx = np.searchsorted(nodes, mv)
                np.minimum.at(new, idx, md)
        frontier = new < dist
        return (u, v, w, nodes, new, frontier), bool(frontier.any())

    @ray.remote
    def to_table(part) -> pa.Table:
        INF = np.iinfo(np.int64).max
        _, _, _, nodes, dist, _ = part
        fin = dist < INF
        return pa.table(
            {
                "node": pa.array(nodes[fin], pa.int64()),
                "dist": pa.array(dist[fin], pa.int64()),
            }
        )

    @ray.remote(num_returns=2)
    def expose(part):
        """(dist, frontier) encoded as one int64 per node: finite dists
        (bounded by max_hops x 1e6, far below 2^62) pack as dist*2 +
        frontier; INF stays the sentinel (its frontier is always False)."""
        INF = np.iinfo(np.int64).max
        _, _, _, nodes, dist, frontier = part
        enc = np.where(dist == INF, INF, dist * 2 + frontier.astype(np.int64))
        return nodes, enc

    @ray.remote
    def splice(part, nodes_loaded, enc_loaded):
        INF = np.iinfo(np.int64).max
        u, v, w, nodes, _, _ = part
        if len(nodes_loaded) != len(nodes) or not (nodes_loaded == nodes).all():
            raise ValueError("checkpoint partition node set mismatch")
        enc = enc_loaded.astype(np.int64)
        inf = enc == INF
        dist = np.where(inf, INF, enc // 2)
        frontier = np.where(inf, False, (enc & 1).astype(bool))
        return u, v, w, nodes, dist, frontier

    return split_edges, concat_part, msgs, reduce_part, to_table, expose, splice


def sssp_costs(edges_ds, seeds, *, max_hops: int = 4,
               num_partitions: int | None = None,
               checkpoint_dir: str | None = None,
               checkpoint_every: int = 2,
               checkpoint_fingerprint: str | None = None):
    """Bounded weighted shortest paths over the UNDIRECTED entity graph —
    the "how close are these entities" proximity query a KG serves, with
    the standard strength-to-distance transform: an unordered pair linked
    by n distinct (subj, pred, obj) assertions gets integer edge cost
    ``1_000_000 // n`` (more parallel assertions = closer), and a node's
    distance is the minimum total cost over paths of at most ``max_hops``
    edges from the seed set.

    Execution is ``max_hops`` rounds of frontier-pruned Bellman-Ford on
    the BFS BSP machinery (a node relaxes its neighbors only in rounds
    where its own distance improved); round r settles every best path of
    r edges, so the bounded-hop semantics are exact and a DuckDB
    recursive CTE over the same weighted edge list mirrors hash-exactly
    (all-integer costs).  Self-loops drop; seeds are canonical strings.

    Emits (canonical, dist) for reached nodes only."""
    import numpy as np
    import ray
    import ray.data
    from ray.data.aggregate import Min

    from .dedup import _join_partitions

    def idmap(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.int64()), "canonical": pa.array([], pa.string())}
            )
        seen: dict[int, str] = {}
        for side in ("src", "dst"):
            seen.update(
                zip(
                    batch.column(f"{side}_id").to_pylist(),
                    batch.column(f"{side}_canonical").to_pylist(),
                )
            )
        return pa.table(
            {
                "node": pa.array(list(seen), pa.int64()),
                "canonical": pa.array(list(seen.values()), pa.string()),
            }
        )

    nodes = (
        edges_ds.select_columns(["src_id", "src_canonical", "dst_id", "dst_canonical"])
        .map_batches(idmap, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("canonical", alias_name="canonical"))
        .materialize()
    )
    seed_set = set(seeds)
    seed_rows = nodes.filter(lambda r: r["canonical"] in seed_set).take_all()
    seed_ids = np.asarray(sorted(r["node"] for r in seed_rows), dtype=np.int64)

    # ---- unordered pair multiplicities -> integer costs ----
    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        s = np.asarray(batch.column("src_id").to_pylist(), dtype=np.int64)
        d = np.asarray(batch.column("dst_id").to_pylist(), dtype=np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, d), pa.int64()),
                "b": pa.array(np.maximum(s, d), pa.int64()),
            }
        )

    # edges rows are distinct (src, pred, dst) assertions, so the pair
    # count is a plain exact groupby (per-batch combiner not needed: the
    # oriented rows ARE the partials Ray's Count folds)
    pw = (
        edges_ds.select_columns(["src_id", "dst_id"])
        .map_batches(orient, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
    )

    def to_sym_cost(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            ei = pa.array([], pa.int64())
            return pa.table({"u": ei, "v": ei, "w": ei})
        a = np.asarray(batch.column("a").to_pylist(), dtype=np.int64)
        b = np.asarray(batch.column("b").to_pylist(), dtype=np.int64)
        n = np.asarray(batch.column("count()").to_pylist(), dtype=np.int64)
        w = 1_000_000 // n
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b]), pa.int64()),
                "v": pa.array(np.concatenate([b, a]), pa.int64()),
                "w": pa.array(np.concatenate([w, w]), pa.int64()),
            }
        )

    sym_ds = pw.map_batches(to_sym_cost, batch_format="pyarrow").materialize()

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_edges, concat_part, msgs, reduce_part, to_table, expose, splice = _sssp_remotes()
    block_refs = list(sym_ds.to_arrow_refs())
    empty = pa.table(
        {"canonical": pa.array([], pa.string()), "dist": pa.array([], pa.int64())}
    )
    if not block_refs or len(seed_ids) == 0:
        return ray.data.from_arrow(empty)
    shard_lists = [split_edges.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    seed_ref = ray.put(seed_ids)
    parts = [
        concat_part.remote(seed_ref, *[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]
    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        seeds_tag = ",".join(str(s) for s in seed_ids.tolist())
        fp = checkpoint_fingerprint or (
            f"sssp:P={P}:hops={int(max_hops)}:seeds={seeds_tag}"
            f":digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P)
        if loaded is not None:
            start_round, value_refs = loaded
            parts = [
                splice.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]
    for rnd in range(start_round, max(0, int(max_hops))):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_part.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        changed = ray.get([n[1] for n in new])
        if checkpoint_dir and (rnd + 1) % checkpoint_every == 0:
            from ..state import bsp_ckpt

            bsp_ckpt.save_round(
                checkpoint_dir, fp, rnd + 1,
                [expose.remote(parts[p]) for p in range(P)],
            )
        if not any(changed):
            break
    dists = ray.data.from_arrow_refs([to_table.remote(p) for p in parts]).materialize()
    if dists.count() == 0:
        # unknown seeds reach nothing; empty sides crash Ray's hash join
        return ray.data.from_arrow(empty)
    n_part = 1 if nodes.count() < 10_000 else _join_partitions()
    out = dists.join(nodes, join_type="inner", num_partitions=n_part, on=("node",))
    return out.select_columns(["canonical", "dist"])


def _mix64(x):
    """splitmix64 finalizer — the deterministic 'random' priority for
    Luby's MIS, vectorized over uint64 and identical in the gold mirror
    (a hash priority bounds expected rounds at O(log n); node ids alone
    would degenerate to a sequential chain on adversarial orderings)."""
    import numpy as np

    x = np.asarray(x, dtype=np.uint64).copy()
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def mis_reference(pairs):
    """Single-process gold: the lexicographically-first MIS under the
    (priority, id) order — sequential greedy, provably equal to the
    parallel local-minima algorithm's output."""
    import numpy as np

    nodes = sorted({u for u, _ in pairs} | {v for _, v in pairs})
    arr = np.asarray(nodes, dtype=np.int64)
    pri = _mix64(arr.view(np.uint64) if arr.dtype == np.int64 else arr)
    order = sorted(range(len(nodes)), key=lambda i: (int(pri[i]), nodes[i]))
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    excluded: set[int] = set()
    selected: set[int] = set()
    for i in order:
        n = nodes[i]
        if n not in excluded:
            selected.add(n)
            excluded |= adj[n]
    return {n: (1 if n in selected else 0) for n in nodes}


def _mis_remotes():
    """BSP worker tasks for Luby-style maximal independent set (lazy so
    import never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_und(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p]: bounds[p + 1]], v[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        """State: u-sorted out-edges, owned nodes, per-node priority,
        status (0 undecided / 1 selected / 2 excluded), joined-last-round
        mask (only new members broadcast exclusions)."""
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        pri = _mix64(nodes.view(np.uint64))
        status = np.zeros(len(nodes), dtype=np.int8)
        joined = np.zeros(len(nodes), dtype=bool)
        return u, v, nodes, pri, status, joined

    @ray.remote
    def msgs(part, P: int):
        """Per out-edge: undecided senders ship (flag=0, pri, id) for the
        local-minimum test; last round's NEW members ship (flag=1, _, _)
        exclusions.  Settled nodes send nothing, so message volume decays
        with the undecided frontier."""
        u, v, nodes, pri, status, joined = part
        active = (status[np.searchsorted(nodes, u)] == 0)
        newly = joined[np.searchsorted(nodes, u)]
        send = active | newly
        if not send.any():
            ei = np.empty(0, np.int64)
            eu = np.empty(0, np.uint64)
            return [(ei, ei.astype(np.int8), eu, ei)] * P
        su, sv = u[send], v[send]
        sflag = np.where(newly[send], np.int8(1), np.int8(0))
        spri = pri[np.searchsorted(nodes, su)]
        dest = sv % P
        order = np.argsort(dest, kind="stable")
        sv, sflag, spri, su = sv[order], sflag[order], spri[order], su[order]
        bounds = np.searchsorted(dest[order], np.arange(P + 1))
        return [
            (
                sv[bounds[p]: bounds[p + 1]],
                sflag[bounds[p]: bounds[p + 1]],
                spri[bounds[p]: bounds[p + 1]],
                su[bounds[p]: bounds[p + 1]],
            )
            for p in range(P)
        ]

    @ray.remote
    def reduce_part(part, *incoming):
        """Undecided node: any MIS-flag message -> excluded; else if its
        (pri, id) beats the min over incoming UNDECIDED-neighbor messages
        (or none arrive) -> selected.  Messages fold after a full
        concatenate — arrival-order free."""
        u, v, nodes, pri, status, _ = part
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        dsts = np.concatenate([s[0] for s in incoming]) if incoming else np.empty(0, np.int64)
        flags = (
            np.concatenate([s[1] for s in incoming]) if incoming else np.empty(0, np.int8)
        )
        pris = (
            np.concatenate([s[2] for s in incoming]) if incoming else np.empty(0, np.uint64)
        )
        sids = np.concatenate([s[3] for s in incoming]) if incoming else np.empty(0, np.int64)
        new_status = status.copy()
        und = status == 0
        # exclusions from new MIS members
        if len(dsts):
            mis_d = np.unique(dsts[flags == 1])
            idx = np.searchsorted(nodes, mis_d)
            ok = (idx < len(nodes)) & und[np.minimum(idx, len(nodes) - 1)]
            new_status[idx[ok]] = 2
        # local-minimum joins among still-undecided nodes
        und2 = new_status == 0
        if und2.any():
            m0 = flags == 0
            d0, p0, s0 = dsts[m0], pris[m0], sids[m0]
            order = np.lexsort((s0, p0, d0))
            d0, p0, s0 = d0[order], p0[order], s0[order]
            first = np.r_[True, d0[1:] != d0[:-1]] if len(d0) else np.empty(0, bool)
            md, mp, ms = d0[first], p0[first], s0[first]
            # per owned undecided node, the min incoming (pri, id) if any
            cand = np.flatnonzero(und2)
            pos = np.searchsorted(md, nodes[cand])
            has = (pos < len(md)) & (md[np.minimum(pos, max(len(md) - 1, 0))] == nodes[cand]) if len(md) else np.zeros(len(cand), bool)
            own_p, own_i = pri[cand], nodes[cand]
            join = ~has
            if has.any():
                hp = mp[pos[has]]
                hi = ms[pos[has]]
                better = (own_p[has] < hp) | ((own_p[has] == hp) & (own_i[has] < hi))
                join[has] = better
            new_status[cand[join]] = 1
        joined = (new_status == 1) & (status == 0)
        changed = bool((new_status != status).any())
        return (u, v, nodes, pri, new_status, joined), changed

    @ray.remote
    def to_table(part) -> pa.Table:
        _, _, nodes, _, status, _ = part
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "selected": pa.array((status == 1).astype(np.int64), pa.int64()),
            }
        )

    @ray.remote(num_returns=2)
    def expose(part):
        """status (0/1/2) + 4*joined packed per node — the joined mask is
        live state (next round's exclusion messages come from it), so a
        checkpoint without it would let neighbors of a just-joined member
        join later."""
        _, _, nodes, _, status, joined = part
        return nodes, status.astype(np.int64) + 4 * joined.astype(np.int64)

    @ray.remote
    def splice(part, nodes_loaded, enc_loaded):
        u, v, nodes, pri, _, _ = part
        if len(nodes_loaded) != len(nodes) or not (nodes_loaded == nodes).all():
            raise ValueError("checkpoint partition node set mismatch")
        enc = enc_loaded.astype(np.int64)
        status = (enc % 4).astype(np.int8)
        joined = (enc // 4).astype(bool)
        return u, v, nodes, pri, status, joined

    return split_und, concat_part, msgs, reduce_part, to_table, expose, splice


def maximal_independent_set(edges_ds, *, max_rounds: int = 200,
                            num_partitions: int | None = None,
                            checkpoint_dir: str | None = None,
                            checkpoint_every: int = 5,
                            checkpoint_fingerprint: str | None = None):
    """Luby-style maximal independent set over the UNDIRECTED SIMPLE
    entity graph — the classic symmetry-breaking primitive (conflict-free
    scheduling, landmark selection, coarsening seeds).  Deterministic:
    priorities are the splitmix64 hash of the node id, and the parallel
    local-minima algorithm (join when your (priority, id) beats every
    undecided neighbor; newly-joined members exclude their neighbors next
    round) provably computes the lexicographically-first MIS under that
    order — the same set the sequential greedy gold
    (:func:`mis_reference`) produces, independent of partitioning.

    BSP shards as in components/coreness; message volume decays with the
    undecided frontier and expected rounds are O(log n) under the hash
    order.  Emits (node, selected 0/1) for every node with >= 1 edge."""
    import ray
    import ray.data

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_und, concat_part, msgs, reduce_part, to_table, expose, splice = _mis_remotes()

    def sym_simple(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        s, d = batch.column("src_id"), batch.column("dst_id")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep).combine_chunks(), d.filter(keep).combine_chunks()
        t = pa.table({"u": pa.concat_arrays([s, d]), "v": pa.concat_arrays([d, s])})
        return t.group_by(["u", "v"]).aggregate([])

    sym = (
        edges_ds.map_batches(sym_simple, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])
        .materialize()
    )
    block_refs = list(sym.to_arrow_refs())
    if not block_refs:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "selected": pa.array([], pa.int64())})
        )
    shard_lists = [split_und.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]
    start_round = 0
    fp = None
    if checkpoint_dir:
        from ..state import bsp_ckpt

        fp = checkpoint_fingerprint or (
            f"mis:P={P}:digest={bsp_ckpt.content_digest(block_refs):016x}"
        )
        loaded = bsp_ckpt.load_latest(checkpoint_dir, fp, P)
        if loaded is not None:
            start_round, value_refs = loaded
            parts = [
                splice.remote(parts[p], value_refs[p][0], value_refs[p][1])
                for p in range(P)
            ]
    for rnd in range(start_round, max_rounds):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_part.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        changed = ray.get([n[1] for n in new])
        if checkpoint_dir and (rnd + 1) % checkpoint_every == 0:
            from ..state import bsp_ckpt

            bsp_ckpt.save_round(
                checkpoint_dir, fp, rnd + 1,
                [expose.remote(parts[p]) for p in range(P)],
            )
        if not any(changed):
            break
    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def write_gold_mis(corpus_dir: str, out_dir: str) -> None:
    """Gold MIS over the gold graph's undirected simple projection -> a
    ``gold_mis.parquet`` (node, selected) the ``kg_mis`` oracle reads."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from ..sources.corpus import gold_edge_rows

    pairs = {
        (min(u, v), max(u, v)) for u, _p, v in gold_edge_rows(corpus_dir) if u != v
    }
    sel = mis_reference(sorted(pairs))
    nodes = sorted(sel)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "selected": pa.array([sel[n] for n in nodes], pa.int64()),
            }
        ),
        os.path.join(out_dir, "gold_mis.parquet"),
    )


def coloring_reference(pairs):
    """Single-process gold: greedy coloring in (splitmix64 priority, id)
    order, each node taking the smallest color unused by its
    already-colored neighbors — exactly the coloring Jones-Plassmann
    computes in parallel."""
    import numpy as np

    nodes = sorted({u for u, _ in pairs} | {v for _, v in pairs})
    arr = np.asarray(nodes, dtype=np.int64)
    pri = _mix64(arr.view(np.uint64))
    order = sorted(range(len(nodes)), key=lambda i: (int(pri[i]), nodes[i]))
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    color: dict[int, int] = {}
    for i in order:
        n = nodes[i]
        used = {color[m] for m in adj[n] if m in color}
        c = 0
        while c in used:
            c += 1
        color[n] = c
    return color


def _coloring_remotes():
    """BSP worker tasks for Jones-Plassmann greedy coloring (lazy so
    import never touches Ray)."""
    import numpy as np

    import ray

    @ray.remote
    def split_und(tbl: pa.Table, P: int):
        if tbl.num_rows == 0 or "u" not in tbl.column_names:
            empty = np.empty(0, np.int64)
            return [(empty, empty)] * P
        u = np.asarray(tbl.column("u").to_pylist(), dtype=np.int64)
        v = np.asarray(tbl.column("v").to_pylist(), dtype=np.int64)
        dest = u % P
        order = np.argsort(dest, kind="stable")
        u, v, dest = u[order], v[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(u[bounds[p]: bounds[p + 1]], v[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def concat_part(*edge_parts):
        """State: u-sorted out-edges, owned nodes, per-node color (-1
        uncolored), remaining higher-priority-neighbor count (priorities
        are a pure hash of the id, so hp_count needs NO exchange), and a
        growing (node_idx, color) buffer of received neighbor colors."""
        edge_parts = [s[0] if isinstance(s, list) else s for s in edge_parts]
        u = np.concatenate([s[0] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        v = np.concatenate([s[1] for s in edge_parts]) if edge_parts else np.empty(0, np.int64)
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        nodes = np.unique(u)
        pu = _mix64(u.view(np.uint64))
        pv = _mix64(v.view(np.uint64))
        smaller = (pv < pu) | ((pv == pu) & (v < u))
        hp = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(hp, np.searchsorted(nodes, u[smaller]), 1)
        color = np.full(len(nodes), -1, dtype=np.int64)
        buf_n = np.empty(0, np.int64)
        buf_c = np.empty(0, np.int64)
        # round 0: nodes with no smaller-priority neighbors take color 0
        newly = hp == 0
        color[newly] = 0
        return u, v, nodes, hp, color, buf_n, buf_c, newly

    @ray.remote
    def msgs(part, P: int):
        """Newly-colored nodes ship (dst, color) along edges toward
        LARGER-(pri, id) neighbors only — the only receivers whose greedy
        turn is still ahead."""
        u, v, nodes, hp, color, _bn, _bc, newly = part
        if not newly.any():
            ei = np.empty(0, np.int64)
            return [(ei, ei)] * P
        src_new = newly[np.searchsorted(nodes, u)]
        pu = _mix64(u.view(np.uint64))
        pv = _mix64(v.view(np.uint64))
        larger = (pu < pv) | ((pu == pv) & (u < v))
        send = src_new & larger
        sv = v[send]
        sc = color[np.searchsorted(nodes, u[send])]
        dest = sv % P
        order = np.argsort(dest, kind="stable")
        sv, sc, dest = sv[order], sc[order], dest[order]
        bounds = np.searchsorted(dest, np.arange(P + 1))
        return [(sv[bounds[p]: bounds[p + 1]], sc[bounds[p]: bounds[p + 1]]) for p in range(P)]

    @ray.remote
    def reduce_part(part, *incoming):
        """Fold received colors into the buffer, decrement hp counts;
        nodes reaching hp == 0 take mex(buffered colors) — a vectorized
        run-length mex, no per-node Python loop."""
        u, v, nodes, hp, color, buf_n, buf_c, _ = part
        incoming = [s[0] if isinstance(s, list) else s for s in incoming]
        mv = np.concatenate([s[0] for s in incoming]) if incoming else np.empty(0, np.int64)
        mc = np.concatenate([s[1] for s in incoming]) if incoming else np.empty(0, np.int64)
        new_hp = hp.copy()
        if len(mv):
            idx = np.searchsorted(nodes, mv)
            np.subtract.at(new_hp, idx, 1)
            buf_n = np.concatenate([buf_n, idx])
            buf_c = np.concatenate([buf_c, mc])
        eligible = (new_hp == 0) & (color < 0)
        new_color = color.copy()
        if eligible.any():
            # mex per eligible node over its buffered neighbor colors
            el = np.flatnonzero(eligible)
            sel = np.isin(buf_n, el)
            bn, bc = buf_n[sel], buf_c[sel]
            order = np.lexsort((bc, bn))
            bn, bc = bn[order], bc[order]
            # distinct (node, color)
            if len(bn):
                keep = np.r_[True, (bn[1:] != bn[:-1]) | (bc[1:] != bc[:-1])]
                bn, bc = bn[keep], bc[keep]
            mex = np.zeros(len(nodes), dtype=np.int64)
            if len(bn):
                starts = np.flatnonzero(np.r_[True, bn[1:] != bn[:-1]])
                lens = np.diff(np.r_[starts, len(bn)])
                within = np.arange(len(bn)) - np.repeat(starts, lens)
                # first position where sorted distinct colors diverge from
                # 0,1,2,... is the mex; all-matching runs mex at run length
                mism = bc != within
                big = np.where(mism, within, np.iinfo(np.int64).max)
                first_mism = np.minimum.reduceat(big, starts)
                run_mex = np.where(
                    first_mism == np.iinfo(np.int64).max, lens, first_mism
                )
                mex[bn[starts]] = run_mex
            new_color[el] = mex[el]
        newly = (new_color >= 0) & (color < 0)
        changed = bool(newly.any())
        return (u, v, nodes, new_hp, new_color, buf_n, buf_c, newly), changed

    @ray.remote
    def to_table(part) -> pa.Table:
        _, _, nodes, _, color, _, _, _ = part
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "color": pa.array(color, pa.int64()),
            }
        )

    return split_und, concat_part, msgs, reduce_part, to_table


def greedy_coloring(edges_ds, *, max_rounds: int = 500,
                    num_partitions: int | None = None):
    """Jones-Plassmann greedy graph coloring over the UNDIRECTED SIMPLE
    entity graph: each node waits for all neighbors with smaller
    (splitmix64 priority, id) to color, then takes the smallest color
    they left free — provably identical to the sequential greedy coloring
    in that order (:func:`coloring_reference`), hence deterministic and
    partition-invariant, with at most Δ+1 colors.

    The priority is a pure hash of the node id, so the
    higher-priority-neighbor counts initialize with NO exchange; each
    round ships only newly-colored nodes' (dst, color) messages toward
    their later-turn neighbors — total message volume over the whole run
    is exactly E/2.  Expected rounds are O(log n) under the hash order.
    Emits (node, color) for every node with >= 1 edge."""
    import ray
    import ray.data

    P = num_partitions or max(4, int(ray.cluster_resources().get("CPU", 4)))
    split_und, concat_part, msgs, reduce_part, to_table = _coloring_remotes()

    def sym_simple(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_id" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        s, d = batch.column("src_id"), batch.column("dst_id")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep).combine_chunks(), d.filter(keep).combine_chunks()
        t = pa.table({"u": pa.concat_arrays([s, d]), "v": pa.concat_arrays([d, s])})
        return t.group_by(["u", "v"]).aggregate([])

    sym = (
        edges_ds.map_batches(sym_simple, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])
        .materialize()
    )
    block_refs = list(sym.to_arrow_refs())
    if not block_refs:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "color": pa.array([], pa.int64())})
        )
    shard_lists = [split_und.options(num_returns=P).remote(r, P) for r in block_refs]
    if P == 1:
        shard_lists = [[s] for s in shard_lists]
    parts = [
        concat_part.remote(*[shard_lists[i][p] for i in range(len(block_refs))])
        for p in range(P)
    ]
    for _ in range(max_rounds):
        msg_lists = [msgs.options(num_returns=P).remote(parts[p], P) for p in range(P)]
        if P == 1:
            msg_lists = [[m] for m in msg_lists]
        new = [
            reduce_part.options(num_returns=2).remote(
                parts[p], *[msg_lists[q][p] for q in range(P)]
            )
            for p in range(P)
        ]
        parts = [n[0] for n in new]
        changed = ray.get([n[1] for n in new])
        if not any(changed):
            break
    return ray.data.from_arrow_refs([to_table.remote(p) for p in parts])


def write_gold_coloring(corpus_dir: str, out_dir: str) -> None:
    """Gold greedy coloring over the gold graph -> ``gold_coloring.parquet``
    (node, color) the ``kg_coloring`` oracle reads."""
    import os

    import pyarrow.parquet as pq

    from ..sources.corpus import gold_edge_rows

    pairs = {
        (min(u, v), max(u, v)) for u, _p, v in gold_edge_rows(corpus_dir) if u != v
    }
    col = coloring_reference(sorted(pairs))
    nodes = sorted(col)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "color": pa.array([col[n] for n in nodes], pa.int64()),
            }
        ),
        os.path.join(out_dir, "gold_coloring.parquet"),
    )


def katz_walks(edges_ds, rounds: int = 4, beta: int = 8,
               num_partitions: int | None = None):
    """Katz-style walk centrality over the directed SIMPLE graph (distinct
    ``(src, dst)`` canonical pairs, self-loops dropped) in EXACT integer
    arithmetic: with ``w_k(v)`` = number of directed walks of length ``k``
    ending at ``v``,

        ``katz = sum_{k=1..rounds} beta^(rounds-k) * w_k(v)``

    — the classic attenuation series ``sum alpha^k (A^T)^k 1`` with
    ``alpha = 1/beta`` scaled by ``beta^rounds`` so every term is an
    integer and the DuckDB oracle (chained CTEs, one per round) is
    bit-exact.  Emits ``(node, katz)`` for EVERY node (sinks with no
    inbound walks score 0).

    Scale shape: each round is one hash join (edges x current weights on
    the source key — the O(E) exchange) plus one groupby-sum; the
    accumulator is a lazy union re-aggregated once at the end, so no
    driver-side state beyond the per-round overflow scalar.  Overflow is
    CHECKED, not wrapped: walk counts grow like indeg^k, so each round
    asserts ``max(w) * beta^rounds`` stays far inside int64 and raises
    with the offending magnitude (the kg_trend lesson: int64 products on
    real corpus moments must fail loudly).  For celebrity-hub graphs at
    100 TB keep ``rounds`` small or pre-cap degrees; the series semantics
    (and this oracle) are unchanged."""
    import ray.data
    from ray.data.aggregate import Sum

    from ..ops.dedup import _join_partitions

    def to_e(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(
                {"s": pa.array([], pa.string()), "o": pa.array([], pa.string())}
            )
        s = batch.column("src_canonical")
        o = batch.column("dst_canonical")
        t = pa.table({"s": s, "o": o}).filter(pc.not_equal(s, o))
        return t.group_by(["s", "o"]).aggregate([])

    e = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_e, batch_format="pyarrow")
        .groupby(["s", "o"])
        .count()
        .select_columns(["s", "o"])
        .materialize()
    )
    if e.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()), "katz": pa.array([], pa.int64())}
            )
        )
    n_part = num_partitions
    if n_part is None:
        n_part = 1 if e.count() < 10_000 else _join_partitions()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "s" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.string())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("s").combine_chunks(), batch.column("o").combine_chunks()]
                )
            }
        )

    def zero(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.string()), "part": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "node": batch.column("node"),
                "part": pa.array([0] * batch.num_rows, pa.int64()),
            }
        )

    nodes0 = (
        e.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .select_columns(["node"])
        .map_batches(zero, batch_format="pyarrow")
    )

    def scaled(w_ds, factor: int):
        def scale(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "node" not in batch.column_names:
                return pa.table(
                    {"node": pa.array([], pa.string()), "part": pa.array([], pa.int64())}
                )
            return pa.table(
                {
                    "node": batch.column("node"),
                    "part": pc.multiply_checked(
                        batch.column("w").cast(pa.int64()),
                        pa.scalar(factor, pa.int64()),
                    ),
                }
            )

        return w_ds.map_batches(scale, batch_format="pyarrow")

    # w_1 = indegree (w_0 == 1 everywhere)
    w = (
        e.groupby("o")
        .count()
        .rename_columns({"o": "node", "count()": "w"})
        .materialize()
    )
    total = nodes0.union(scaled(w, beta ** (rounds - 1)))
    for k in range(2, rounds + 1):
        cap = (1 << 62) // (beta**rounds)
        mx = w.max("w")
        if mx is not None and int(mx) > cap:
            raise OverflowError(
                f"katz_walks: round-{k - 1} walk count {mx} would overflow "
                f"int64 under beta^{rounds} scaling; reduce rounds or cap "
                "degrees upstream"
            )

        def fold(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "o" not in batch.column_names:
                return pa.table(
                    {"node": pa.array([], pa.string()), "w": pa.array([], pa.int64())}
                )
            t = pa.table(
                {"node": batch.column("o"), "w": batch.column("w").cast(pa.int64())}
            )
            # per-batch combiner before the groupby sum
            t = t.group_by("node").aggregate([("w", "sum")])
            return pa.table({"node": t.column("node"), "w": t.column("w_sum")})

        w = (
            e.join(
                w,
                join_type="inner",
                num_partitions=n_part,
                on=("s",),
                right_on=("node",),
            )
            .map_batches(fold, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("w", alias_name="w"))
            .materialize()
        )
        # a DAG shallower than `rounds` drains the walk frontier; an empty
        # Dataset has no schema to hash-join on, and every later term is 0
        if w.count() == 0:
            break
        total = total.union(scaled(w, beta ** (rounds - k)))

    return (
        total.groupby("node")
        .aggregate(Sum("part", alias_name="katz"))
        .select_columns(["node", "katz"])
    )


def motif_census(edges_ds, num_partitions: int | None = None):
    """Directed triad (3-node motif) census over the KG's canonical edge
    pairs: every triangle of the underlying undirected simple graph is
    classified by the permutation-invariant key

        ``(n_dir, n_recip, n_cycles)``

    — total directed edges among the 3 pairs (3..6), reciprocal pairs
    (0..3), and directed 3-cycles (0..2) — which separates the classic
    transitive/feed-forward triad (3,0,0) from the cyclic one (3,0,1)
    and counts the denser reciprocal classes, the standard motif
    signature used to characterize web/citation graphs.  Emits one row
    per observed key: ``(n_dir, n_recip, n_cycles, n)``.

    Scale shape = :func:`triangle_counts` (degree-oriented wedge
    enumeration, so celebrity hubs fan out through their few
    higher-degree neighbors and oriented out-degree stays O(sqrt E)),
    with per-lex-pair direction flags (has lo->hi / has hi->lo, a Max
    groupby — the OR combiner) carried through the wedge join so the
    classification is a vectorized per-triangle pass with no extra
    exchange; the result table is at most 24 rows, so the final count
    groupby is trivial."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Max

    from ..ops.dedup import _join_partitions

    empty_out = pa.table(
        {
            "n_dir": pa.array([], pa.int64()),
            "n_recip": pa.array([], pa.int64()),
            "n_cycles": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )

    def to_flags(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "f": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                }
            )
        s = batch.column("src_canonical")
        d = batch.column("dst_canonical")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep), d.filter(keep)
        lt = pc.less(s, d)
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())
        t = pa.table(
            {
                "a": pc.if_else(lt, s, d),
                "b": pc.if_else(lt, d, s),
                "f": pc.if_else(lt, one, zero),
                "r": pc.if_else(lt, zero, one),
            }
        )
        # per-batch OR combiner (Max == boolean OR on 0/1 flags)
        t = t.group_by(["a", "b"]).aggregate([("f", "max"), ("r", "max")])
        return pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "f": t.column("f_max"),
                "r": t.column("r_max"),
            }
        )

    und = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(to_flags, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("f", alias_name="f"), Max("r", alias_name="r"))
        .materialize()
    )
    if und.count() < 3:
        return ray.data.from_arrow(empty_out)
    n_part = num_partitions
    if n_part is None:
        n_part = 1 if und.count() < 10_000 else _join_partitions()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.string())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
                )
            }
        )

    degrees = (
        und.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .rename_columns({"count()": "deg"})
    )

    def explode_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "f": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int32()),
                    "key": pa.array([], pa.string()),
                }
            )
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        f = batch.column("f").cast(pa.int64()).combine_chunks()
        r = batch.column("r").cast(pa.int64()).combine_chunks()
        n = batch.num_rows
        return pa.table(
            {
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "f": pa.concat_arrays([f, f]),
                "r": pa.concat_arrays([r, r]),
                "side": pa.array([0] * n + [1] * n, pa.int32()),
                "key": pa.concat_arrays([a, b]),
            }
        )

    def split_sides(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "side" not in batch.column_names:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "f": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                    "deg_a": pa.array([], pa.int64()),
                    "deg_b": pa.array([], pa.int64()),
                }
            )
        is_a = pc.equal(batch.column("side"), pa.scalar(0, pa.int32()))
        zero = pa.scalar(0, pa.int64())
        deg = batch.column("deg").cast(pa.int64())
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "f": batch.column("f"),
                "r": batch.column("r"),
                "deg_a": pc.if_else(is_a, deg, zero),
                "deg_b": pc.if_else(is_a, zero, deg),
            }
        )

    with_deg = (
        und.map_batches(explode_sides, batch_format="pyarrow")
        .join(degrees, join_type="inner", num_partitions=n_part,
              on=("key",), right_on=("node",))
        .map_batches(split_sides, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(
            Max("f", alias_name="f"),
            Max("r", alias_name="r"),
            Max("deg_a", alias_name="deg_a"),
            Max("deg_b", alias_name="deg_b"),
        )
    )

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table(
                {
                    "u": pa.array([], pa.string()),
                    "v": pa.array([], pa.string()),
                    "vdeg": pa.array([], pa.int64()),
                    "f": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                }
            )
        da, db = batch.column("deg_a"), batch.column("deg_b")
        fwd = pc.less_equal(da, db)
        return pa.table(
            {
                "u": pc.if_else(fwd, batch.column("a"), batch.column("b")),
                "v": pc.if_else(fwd, batch.column("b"), batch.column("a")),
                "vdeg": pc.if_else(fwd, db, da),
                # flags stay LEX-normalized (per (a, b) with a < b) no
                # matter which endpoint the degree orientation leads with
                "f": batch.column("f"),
                "r": batch.column("r"),
            }
        )

    oriented = with_deg.map_batches(orient, batch_format="pyarrow").materialize()

    def make_wedges(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "apex": pa.array([], pa.string()),
                "wa": pa.array([], pa.string()),
                "wb": pa.array([], pa.string()),
                "f1": pa.array([], pa.int64()),
                "r1": pa.array([], pa.int64()),
                "f2": pa.array([], pa.int64()),
                "r2": pa.array([], pa.int64()),
            }
        )
        if group.num_rows < 2 or "u" not in group.column_names:
            return empty
        idx = pc.sort_indices(
            group, sort_keys=[("vdeg", "ascending"), ("v", "ascending")]
        )
        vs = group.column("v").take(idx).combine_chunks()
        fs = group.column("f").cast(pa.int64()).take(idx).combine_chunks()
        rs = group.column("r").cast(pa.int64()).take(idx).combine_chunks()
        ii, jj = np.triu_indices(len(vs), k=1)
        ii = pa.array(ii, pa.int64())
        jj = pa.array(jj, pa.int64())
        return pa.table(
            {
                "apex": pa.array([group.column("u")[0].as_py()] * len(ii), pa.string()),
                "wa": vs.take(ii),
                "wb": vs.take(jj),
                "f1": fs.take(ii),
                "r1": rs.take(ii),
                "f2": fs.take(jj),
                "r2": rs.take(jj),
            }
        )

    wedges = oriented.groupby("u").map_groups(
        make_wedges, batch_format="pyarrow"
    ).materialize()
    if wedges.count() == 0:
        return ray.data.from_arrow(empty_out)

    tri = wedges.join(
        oriented.select_columns(["u", "v", "f", "r"]),
        join_type="inner",
        num_partitions=n_part,
        on=("wa", "wb"),
        right_on=("u", "v"),
    )

    def classify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "apex" not in batch.column_names:
            return empty_out.drop_columns(["n"])
        u = np.asarray(batch.column("apex").to_pylist(), dtype=object)
        wa = np.asarray(batch.column("wa").to_pylist(), dtype=object)
        wb = np.asarray(batch.column("wb").to_pylist(), dtype=object)
        flags = {
            c: np.asarray(batch.column(c).to_pylist(), dtype=np.int64)
            for c in ("f1", "r1", "f2", "r2", "f", "r")
        }
        # lex keys of the 3 pairs: (u, wa) -> flags f1/r1, (u, wb) ->
        # f2/r2, (wa, wb) -> f/r (wa < wb NOT guaranteed — flags are
        # lex-normalized per pair, so only the key needs normalizing)
        def key(x, y):
            lo = np.minimum(x, y)
            hi = np.maximum(x, y)
            return np.char.add(np.char.add(lo.astype(str), "\x01"), hi.astype(str))

        k1, k2, k3 = key(u, wa), key(u, wb), key(wa, wb)
        ks = np.stack([k1, k2, k3])           # (3, n)
        f = np.stack([flags["f1"], flags["f2"], flags["f"]])
        r = np.stack([flags["r1"], flags["r2"], flags["r"]])
        order = np.argsort(ks, axis=0, kind="stable")  # pq < pr < qr lex
        cols = np.arange(ks.shape[1])
        f_pq, f_pr, f_qr = (f[order[i], cols] for i in range(3))
        r_pq, r_pr, r_qr = (r[order[i], cols] for i in range(3))
        n_dir = f_pq + r_pq + f_pr + r_pr + f_qr + r_qr
        n_recip = f_pq * r_pq + f_pr * r_pr + f_qr * r_qr
        # with p < q < r: the two cyclic orientations are
        # p->q->r->p  ==  (pq fwd) & (qr fwd) & (pr bwd), and its reverse
        n_cycles = f_pq * f_qr * r_pr + r_pq * r_qr * f_pr
        t = pa.table(
            {
                "n_dir": pa.array(n_dir, pa.int64()),
                "n_recip": pa.array(n_recip, pa.int64()),
                "n_cycles": pa.array(n_cycles, pa.int64()),
                "one": pa.array(np.ones(len(n_dir), np.int64)),
            }
        )
        # per-batch combiner: at most 24 keys survive per block
        t = t.group_by(["n_dir", "n_recip", "n_cycles"]).aggregate([("one", "sum")])
        return pa.table(
            {
                "n_dir": t.column("n_dir"),
                "n_recip": t.column("n_recip"),
                "n_cycles": t.column("n_cycles"),
                "n": t.column("one_sum"),
            }
        )

    from ray.data.aggregate import Sum

    return (
        tri.map_batches(classify, batch_format="pyarrow")
        .groupby(["n_dir", "n_recip", "n_cycles"])
        .aggregate(Sum("n", alias_name="n"))
    )


def double_sweep(edges_ds, *, max_depth: int = 64, num_partitions: int | None = None):
    """Graph-diameter lower bound by the standard double-sweep heuristic
    (Magnien/Latapy/Habib): BFS from a deterministic seed (the
    lexicographically smallest canonical), hop to the farthest node
    reached, BFS again — the second eccentricity lower-bounds the
    diameter of the seed's component and is exact on trees.

    Two :func:`bfs_depths` BSP runs (each O(E) total message volume with
    frontier early-exit; ``max_depth`` only bounds a pathological chain)
    plus two argmax reductions done as per-block ``select_k`` combiners —
    ``blocks x 1`` rows move, never the depth table.  Emits ONE row
    ``(seed, far1, ecc1, far2, diameter_lb)``; farthest-node ties break
    to the lexicographically smallest canonical, matching the SQL
    ``order by depth desc, node limit 1``.
    """
    import ray.data

    def _argmax_depth(depths_ds) -> tuple[str, int]:
        def top1(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch
            idx = pc.select_k_unstable(
                batch,
                k=1,
                sort_keys=[("depth", "descending"), ("canonical", "ascending")],
            )
            return batch.take(idx)

        rows = (
            depths_ds.map_batches(top1, batch_format="pyarrow")
            .repartition(1)
            .map_batches(top1, batch_format="pyarrow", batch_size=None)
            .take_all()
        )
        return rows[0]["canonical"], int(rows[0]["depth"])

    # deterministic seed: global min canonical via a <=1-row-per-block combiner
    def min1(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"canonical": pa.array([], pa.string())})
        lo = min(
            min(batch.column("src_canonical").to_pylist()),
            min(batch.column("dst_canonical").to_pylist()),
        )
        return pa.table({"canonical": pa.array([lo], pa.string())})

    seed_rows = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(min1, batch_format="pyarrow")
        .take_all()
    )
    if not seed_rows:
        return ray.data.from_arrow(
            pa.table(
                {
                    "seed": pa.array([], pa.string()),
                    "far1": pa.array([], pa.string()),
                    "ecc1": pa.array([], pa.int64()),
                    "far2": pa.array([], pa.string()),
                    "diameter_lb": pa.array([], pa.int64()),
                }
            )
        )
    seed = min(r["canonical"] for r in seed_rows)

    d1 = bfs_depths(edges_ds, [seed], max_depth=max_depth,
                    num_partitions=num_partitions)
    far1, ecc1 = _argmax_depth(d1)
    d2 = bfs_depths(edges_ds, [far1], max_depth=max_depth,
                    num_partitions=num_partitions)
    far2, ecc2 = _argmax_depth(d2)

    return ray.data.from_arrow(
        pa.table(
            {
                "seed": pa.array([seed], pa.string()),
                "far1": pa.array([far1], pa.string()),
                "ecc1": pa.array([ecc1], pa.int64()),
                "far2": pa.array([far2], pa.string()),
                "diameter_lb": pa.array([ecc2], pa.int64()),
            }
        )
    )


def closeness_sampled(
    edges_ds,
    n_sources: int = 8,
    max_depth: int = 32,
    num_partitions: int | None = None,
):
    """Sampled closeness centrality in EXACT integers: per node, the
    count of sampled sources that reach it within ``max_depth`` hops and
    the SUM of those hop distances (the closeness estimate is
    ``n_reached / sum_dist`` — left as an exact integer pair so the
    DuckDB oracle is bit-stable; Eppstein-Wang style sampling, the
    standard scale path since exact all-pairs closeness is O(V*E)).

    Sources are the ``n_sources`` lexicographically smallest canonicals
    in the edge set — a deterministic, SQL-mirrorable rule.  The BFS
    static state (node id map + symmetrized edge shards) is built ONCE by
    :func:`_bfs_static` and shared: each source is one :func:`_bfs_run`
    BSP run over those immutable shards (the :func:`bfs_depths` kernel),
    and the runs union and settle in ONE (canonical) groupby.

    Emits ``(canonical, n_sources_reached, sum_dist)``."""
    import numpy as np
    from ray.data.aggregate import Count, Sum

    # min-k canonicals: per-batch local head-k combiner, driver head-k
    # over <= k x blocks rows (never the node set)
    def local_min_k(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table({"canonical": pa.array([], pa.string())})
        vals = sorted(
            set(batch.column("src_canonical").to_pylist())
            | set(batch.column("dst_canonical").to_pylist())
        )[:n_sources]
        return pa.table({"canonical": pa.array(vals, pa.string())})

    cand: set[str] = set()
    for b in (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(local_min_k, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        cand.update(b.column("canonical").to_pylist())
    sources = sorted(cand)[:n_sources]

    # one static build (id map + symmetrized shard split), then one BSP
    # run per source over the SHARED immutable shards — the per-source
    # edge re-pass was the 8x setup cost the first cut paid
    nodes = _bfs_nodes(edges_ds)
    static = _bfs_static(edges_ds, nodes, num_partitions)
    runs = [
        _bfs_run(static, nodes, [s], max_depth) for s in sources
    ]
    if not runs:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "n_sources_reached": pa.array([], pa.int64()),
                    "sum_dist": pa.array([], pa.int64()),
                }
            )
        )
    u = runs[0].union(*runs[1:]) if len(runs) > 1 else runs[0]

    def shape(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "canonical" not in batch.column_names:
            return pa.table(
                {
                    "canonical": pa.array([], pa.string()),
                    "n_sources_reached": pa.array([], pa.int64()),
                    "sum_dist": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "canonical": batch.column("canonical"),
                "n_sources_reached": batch.column("count()").cast(pa.int64()),
                "sum_dist": batch.column("sum(depth)").cast(pa.int64()),
            }
        )

    return (
        u.groupby("canonical")
        .aggregate(Count(), Sum("depth"))
        .map_batches(shape, batch_format="pyarrow")
    )


def degree_gini(edges_ds):
    """Gini coefficient of the undirected-degree distribution — the one-
    number hub-skew diagnostic that decides whether the celebrity-cut
    ops need their ``max_degree`` bound on a given corpus.  EXACT integer
    arithmetic end to end: the result is the ratio pair

        gini = gini_num / gini_den,
        gini_num = 2 * sum(i * d_i) - (n + 1) * sum(d),
        gini_den = n * sum(d)

    over degrees sorted ascending (1-indexed).  Driver state is the
    DEGREE HISTOGRAM (O(distinct degree values) rows, <= max degree), and
    the position sum per histogram bucket is closed-form
    ``v * (c*p + c*(c+1)//2)`` — no global sort, no per-node driver rows.
    Emits one row ``(n_nodes, sum_deg, gini_num, gini_den)``."""
    import numpy as np
    import ray.data

    def und(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        s, d = batch.column("src_canonical"), batch.column("dst_canonical")
        lt = pc.less(s, d)
        t = pa.table(
            {"a": pc.if_else(lt, s, d), "b": pc.if_else(lt, d, s)}
        ).filter(pc.not_equal(s, d))
        return t.group_by(["a", "b"]).aggregate([])  # batch-local distinct

    edges = (
        edges_ds.select_columns(["src_canonical", "dst_canonical"])
        .map_batches(und, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
    )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"node": pa.array([], pa.string())})
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks(),
                        batch.column("b").combine_chunks(),
                    ]
                )
            }
        )

    def deg_only(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "count()" not in batch.column_names:
            return pa.table({"deg": pa.array([], pa.int64())})
        return pa.table({"deg": batch.column("count()").cast(pa.int64())})

    hist_ds = (
        edges.map_batches(explode, batch_format="pyarrow")
        .groupby("node")
        .count()
        .map_batches(deg_only, batch_format="pyarrow")
        .groupby("deg")
        .count()
    )
    hist: dict[int, int] = {}
    for b in hist_ds.iter_batches(batch_format="pyarrow"):
        for v, c in zip(b.column("deg").to_pylist(), b.column("count()").to_pylist()):
            hist[int(v)] = hist.get(int(v), 0) + int(c)

    n = sum(hist.values())
    sum_deg = sum(v * c for v, c in hist.items())
    pos_sum = 0  # sum over sorted degrees of (1-indexed position * degree)
    p = 0
    for v in sorted(hist):
        c = hist[v]
        pos_sum += v * (c * p + c * (c + 1) // 2)
        p += c
    gini_num = 2 * pos_sum - (n + 1) * sum_deg
    gini_den = n * sum_deg
    return ray.data.from_arrow(
        pa.table(
            {
                "n_nodes": pa.array([n], pa.int64()),
                "sum_deg": pa.array([sum_deg], pa.int64()),
                "gini_num": pa.array([gini_num], pa.int64()),
                "gini_den": pa.array([gini_den], pa.int64()),
            }
        )
    )


def metapath_instances(edges_ds, pred1: str, pred2: str,
                       num_partitions: int | None = None):
    """Materialize the 2-hop metapath ``a -pred1-> mid -pred2-> c`` — the
    constrained path query a KG actually serves ("people who work for
    orgs located in X").  Both sides are PREDICATE-FILTERED before the
    exchange, so the join moves only the matching edge subsets (predicate
    selectivity is the free prune at 10^12 edges); one hash join on the
    mid entity, then a distinct groupby.  Emits distinct ``(a, mid, c)``."""
    from .dedup import _join_partitions

    def side(pred: str, out_a: str, out_b: str):
        def f(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "pred" not in batch.column_names:
                return pa.table(
                    {
                        out_a: pa.array([], pa.string()),
                        out_b: pa.array([], pa.string()),
                    }
                )
            t = batch.filter(pc.equal(batch.column("pred"), pred))
            return pa.table(
                {
                    out_a: t.column("src_canonical"),
                    out_b: t.column("dst_canonical"),
                }
            ).group_by([out_a, out_b]).aggregate([])  # batch-local distinct

        return edges_ds.select_columns(
            ["src_canonical", "pred", "dst_canonical"]
        ).map_batches(f, batch_format="pyarrow")

    left = side(pred1, "a", "mid").materialize()
    right = side(pred2, "mid2", "c").materialize()
    import ray.data

    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "mid": pa.array([], pa.string()),
            "c": pa.array([], pa.string()),
        }
    )
    if left.count() == 0 or right.count() == 0:
        return ray.data.from_arrow(empty)  # empty-side hash-join guard
    n_part = num_partitions or _join_partitions()
    if num_partitions is None and min(left.count(), right.count()) < 10_000:
        n_part = 1  # tiny-input guard (empty shuffle partitions crash joins)
    joined = left.join(
        right, join_type="inner", num_partitions=n_part,
        on=("mid",), right_on=("mid2",),
    )

    def shape(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return empty
        return pa.table(
            {
                "a": batch.column("a"),
                "mid": batch.column("mid"),
                "c": batch.column("c"),
            }
        ).group_by(["a", "mid", "c"]).aggregate([])

    return (
        joined.map_batches(shape, batch_format="pyarrow")
        .groupby(["a", "mid", "c"])
        .count()
        .select_columns(["a", "mid", "c"])
    )


def validity_intervals(triples_ds, pages_ds, num_partitions: int | None = None):
    """Temporal-KG fact lifespans: for every distinct canonical triple,
    the crawl-time interval over which it was asserted —
    ``(subj_canonical, pred, obj_canonical, first_seen_us, last_seen_us,
    n_assertions)``.  The interval join powers "was this fact live at
    time T" queries and staleness audits (facts whose last_seen lags the
    corpus horizon are deletion candidates).

    Same narrow shape as :func:`latest_assertions`: triples pruned to
    key columns join pages ``(url, warc_ts)`` once, a per-batch
    (min, max, count) combiner per key, then one groupby folds the
    partials — a head fact re-asserted in every crawl ships O(blocks)
    partial rows, never every assertion."""
    from ray.data.aggregate import Max, Min, Sum

    from .dedup import _join_partitions

    def ts_cols(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(
                {"url": pa.array([], pa.string()), "ts": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "url": batch.column("url"),
                "ts": batch.column("warc_ts").cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    n_part = num_partitions or _join_partitions()
    if num_partitions is None and triples_ds.count() < 10_000:
        n_part = 1  # tiny-input guard (empty shuffle partitions crash joins)
    joined = triples_ds.select_columns(
        ["subj_canonical", "pred", "obj_canonical", "url"]
    ).join(
        pages_ds.select_columns(["url", "warc_ts"]).map_batches(
            ts_cols, batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=n_part,
        on=("url",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "subj_canonical": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj_canonical": pa.array([], pa.string()),
                "first_seen_us": pa.array([], pa.int64()),
                "last_seen_us": pa.array([], pa.int64()),
                "n_assertions": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return empty
        g = pa.table(
            {
                "subj_canonical": batch.column("subj_canonical"),
                "pred": batch.column("pred"),
                "obj_canonical": batch.column("obj_canonical"),
                "ts": batch.column("ts"),
            }
        ).group_by(["subj_canonical", "pred", "obj_canonical"]).aggregate(
            [("ts", "min"), ("ts", "max"), ([], "count_all")]
        )
        return pa.table(
            {
                "subj_canonical": g.column("subj_canonical"),
                "pred": g.column("pred"),
                "obj_canonical": g.column("obj_canonical"),
                "first_seen_us": g.column("ts_min").cast(pa.int64()),
                "last_seen_us": g.column("ts_max").cast(pa.int64()),
                "n_assertions": g.column("count_all").cast(pa.int64()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["subj_canonical", "pred", "obj_canonical"])
        .aggregate(
            Min("first_seen_us", alias_name="first_seen_us"),
            Max("last_seen_us", alias_name="last_seen_us"),
            Sum("n_assertions", alias_name="n_assertions"),
        )
    )


def ego_subgraph(edges_ds, seeds, *, depth: int = 2,
                 num_partitions: int | None = None):
    """K-hop INDUCED subgraph around a seed set — the "show me everything
    within 2 hops of X, with the connecting facts" query a KG serves.

    Node set = :func:`bfs_depths` (the proven BSP kernel) over the
    undirected view; the induced EDGE set is the directed edges whose
    BOTH endpoints were reached.  The reached-node set is broadcast once
    via ``ray.put`` and each edge batch filters against it — driver and
    broadcast state are O(neighborhood), which is the OUTPUT size, so
    the op is inherently bounded by what the caller asked to see (an
    ego net around a mega-hub is large because the ANSWER is large).

    Emits distinct ``(src_canonical, pred, dst_canonical)``."""
    import ray

    reached: set[str] = set()
    for b in bfs_depths(
        edges_ds, list(seeds), max_depth=depth, num_partitions=num_partitions
    ).iter_batches(batch_format="pyarrow"):
        reached.update(b.column("canonical").to_pylist())
    import ray.data

    empty = pa.table(
        {
            "src_canonical": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "dst_canonical": pa.array([], pa.string()),
        }
    )
    if not reached:
        return ray.data.from_arrow(empty)
    reach_ref = ray.put(pa.array(sorted(reached), pa.string()))

    def induced(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_canonical" not in batch.column_names:
            return empty
        rset = ray.get(reach_ref)
        keep = pc.and_(
            pc.is_valid(pc.index_in(batch.column("src_canonical"), value_set=rset)),
            pc.is_valid(pc.index_in(batch.column("dst_canonical"), value_set=rset)),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "src_canonical": t.column("src_canonical"),
                "pred": t.column("pred"),
                "dst_canonical": t.column("dst_canonical"),
            }
        ).group_by(["src_canonical", "pred", "dst_canonical"]).aggregate([])

    return (
        edges_ds.select_columns(["src_canonical", "pred", "dst_canonical"])
        .map_batches(induced, batch_format="pyarrow")
        .groupby(["src_canonical", "pred", "dst_canonical"])
        .count()
        .select_columns(["src_canonical", "pred", "dst_canonical"])
    )
