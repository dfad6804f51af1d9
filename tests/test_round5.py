"""Round-5 regression tests: observation-aware gold clusters and the
q4 shuffle-join fallback (VERDICT r4 + ADVICE items)."""

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# observation-aware gold clusters (sources/corpus.split_observed_components)


def _cluster(cid, typ, canonical, aliases):
    from pdf_entity_extraction_ray.sources.corpus import Cluster

    return Cluster(cid, typ, canonical, aliases)


class TestSplitObservedComponents:
    FAMILY = [
        "Brightwater Energy Partners",   # hub: pairwise-matches all others
        "Brightwater Energy",            # subset of the hub ONLY
        "Brightwater-Energy Partners",   # punct variant, similar to hub+typo
        "Brinhtwater Energy Partners",   # typo, similar to hub+punct variant
    ]

    def test_hub_observed_is_noop(self):
        from pdf_entity_extraction_ray.sources.corpus import (
            split_observed_components,
        )

        cl = _cluster(7, "ORG", self.FAMILY[0], list(self.FAMILY))
        observed = {("ORG", a) for a in self.FAMILY}
        out = split_observed_components([cl], observed)
        assert len(out) == 1
        assert sorted(out[0].aliases) == sorted(self.FAMILY)

    def test_unobserved_hub_splits(self):
        """Without the hub, the subset alias is predicate-disconnected
        from the punct/typo pair — gold must carry TWO components (the
        sf0.001 kg_nodes 377-vs-376 regression)."""
        from pdf_entity_extraction_ray.sources.corpus import (
            split_observed_components,
        )
        from pdf_entity_extraction_ray.stages.linking import surfaces_match

        # precondition of the scenario: hubless observed graph disconnects
        assert not surfaces_match(self.FAMILY[1], self.FAMILY[2])
        assert not surfaces_match(self.FAMILY[1], self.FAMILY[3])
        assert surfaces_match(self.FAMILY[2], self.FAMILY[3])

        cl = _cluster(7, "ORG", self.FAMILY[0], list(self.FAMILY))
        observed = {("ORG", a) for a in self.FAMILY[1:]}
        out = split_observed_components([cl], observed)
        assert len(out) == 2
        comps = sorted([sorted(c.aliases) for c in out])
        assert comps == [
            ["Brightwater Energy"],
            sorted(self.FAMILY[2:]),
        ]
        # ids deterministic and distinct, derived from the planted id
        assert sorted(c.cluster_id for c in out) == [7 * 64, 7 * 64 + 1]
        # each component's canonical follows the engine representative rule
        from pdf_entity_extraction_ray.stages.linking import representative

        for c in out:
            assert c.canonical == representative(sorted(c.aliases))

    def test_fully_unobserved_family_dropped(self):
        from pdf_entity_extraction_ray.sources.corpus import (
            split_observed_components,
        )

        cl = _cluster(3, "ORG", self.FAMILY[0], list(self.FAMILY))
        assert split_observed_components([cl], set()) == []

    def test_unobserved_alias_dropped_from_component(self):
        from pdf_entity_extraction_ray.sources.corpus import (
            split_observed_components,
        )

        cl = _cluster(5, "ORG", self.FAMILY[0], list(self.FAMILY))
        observed = {("ORG", self.FAMILY[0]), ("ORG", self.FAMILY[1])}
        out = split_observed_components([cl], observed)
        assert len(out) == 1
        assert sorted(out[0].aliases) == sorted(self.FAMILY[:2])

    def test_more_than_64_components_raises(self):
        """Component ids are cluster_id * 64 + k: a 65th component would
        take the next family's first id, so it must fail loudly."""
        from pdf_entity_extraction_ray.sources.corpus import (
            split_observed_components,
            tail_surfaces,
        )

        # distinct long-tail full forms share no word: no merge rule fires
        aliases = [tail_surfaces(k)[0] for k in range(65)]
        observed = {("ORG", a) for a in aliases}
        out = split_observed_components([_cluster(2, "ORG", aliases[0], aliases[:64])], observed)
        assert sorted(c.cluster_id for c in out) == list(range(2 * 64, 3 * 64))
        with pytest.raises(ValueError, match="65 observed components"):
            split_observed_components([_cluster(2, "ORG", aliases[0], aliases)], observed)


# ---------------------------------------------------------------------------
# q4_order_priority: the shuffle fallback must be live and equal the
# broadcast path (ADVICE r4: it was dead code behind an unconditional
# driver collect)


def _q4_rows(result_ds):
    t = pa.concat_tables(list(result_ds.iter_batches(batch_format="pyarrow")))
    return sorted(
        zip(
            t.column("o_orderpriority").to_pylist(),
            t.column("n_orders").to_pylist(),
        )
    )


class TestCelebrityCutDeterminism:
    """VERDICT r4 item 5: the max_degree celebrity cut is deterministic
    and EXACTLY the brute-force semantics 'apexes of degree > K contribute
    no wedges' — pairs whose common neighbors all have degree <= K are
    bit-identical to the uncut answer."""

    def _graph(self):
        import random
        from collections import defaultdict

        rng = random.Random(17)
        und = {
            (min(u, v), max(u, v))
            for u, v in ((rng.randrange(30), rng.randrange(30)) for _ in range(80))
            if u != v
        }
        # plant a celebrity hub: node 0 adjacent to everything
        und |= {(0, v) for v in range(1, 30)}
        nbr = defaultdict(set)
        for a, b in und:
            nbr[a].add(b)
            nbr[b].add(a)
        return und, nbr

    def _run(self, und, max_degree):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import resource_allocation

        tbl = pa.table(
            {
                "src_canonical": [f"n{u:02d}" for u, _ in und],
                "dst_canonical": [f"n{v:02d}" for _, v in und],
            }
        )
        out = {}
        for b in resource_allocation(
            ray.data.from_arrow(tbl), max_degree=max_degree
        ).iter_batches(batch_format="pyarrow"):
            for r in b.to_pylist():
                out[(r["a"], r["b"])] = (r["common"], r["ra_micro"], r["is_edge"])
        return out

    def test_cut_deterministic_and_brute_exact(self):
        import itertools

        und, nbr = self._graph()
        K = 10
        assert len(nbr[0]) > K  # the hub is actually cut
        got1 = self._run(und, K)
        got2 = self._run(und, K)
        assert got1 == got2  # determinism across runs

        exp = {}
        for a, b in itertools.combinations(sorted(nbr), 2):
            com = {w for w in nbr[a] & nbr[b] if len(nbr[w]) <= K}
            if com:
                exp[(f"n{a:02d}", f"n{b:02d}")] = (
                    len(com),
                    sum(1_000_000 // len(nbr[w]) for w in com),
                    int((min(a, b), max(a, b)) in und),
                )
        assert got1 == exp

    def test_uncut_pairs_unaffected(self):
        und, nbr = self._graph()
        K = 10
        cut, uncut = self._run(und, K), self._run(und, None)
        # every cut pair exists uncut; pairs whose neighbors all survive
        # the cut carry identical values
        for pair, (common, ra, is_edge) in cut.items():
            assert pair in uncut
            u_common, u_ra, u_is_edge = uncut[pair]
            assert u_common >= common and u_ra >= ra and u_is_edge == is_edge


class TestCheckpointPartFileLoss:
    """VERDICT r4 item 6: the bsp_ckpt storage contract (shared fs) is
    enforced by the transactional load — a checkpoint with ANY part file
    missing/unreadable where the load task runs (the non-shared-filesystem
    failure mode) is discarded WHOLE and the run recomputes from round 0,
    never splices a partial round."""

    def test_missing_part_discards_checkpoint(self, tmp_path):
        import glob
        import json
        import os

        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import coreness
        from pdf_entity_extraction_ray.sources.corpus import kcore_reference

        import random

        rng = random.Random(9)
        edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(160)]
        pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        want = kcore_reference(pairs)

        def ds():
            return ray.data.from_arrow(
                pa.table(
                    {
                        "src_id": pa.array([u for u, _ in edges], pa.int64()),
                        "dst_id": pa.array([v for _, v in edges], pa.int64()),
                    }
                )
            )

        ck = str(tmp_path / "ck")
        coreness(ds(), max_iters=2, checkpoint_dir=ck, checkpoint_every=1)\
            .take_all()
        m = json.load(open(f"{ck}/manifest.json"))
        assert m["round"] == 2
        parts = sorted(glob.glob(f"{ck}/round_2_part_*.parquet"))
        assert parts
        os.remove(parts[0])  # simulate a part on another node's local disk

        got = {
            r["node"]: r["core"]
            for r in coreness(ds(), checkpoint_dir=ck, checkpoint_every=50)
            .take_all()
        }
        assert got == want  # recomputed from scratch, still exact

    def test_corrupt_part_discards_checkpoint(self, tmp_path):
        import glob
        import json
        import os

        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import coreness
        from pdf_entity_extraction_ray.sources.corpus import kcore_reference

        import random

        rng = random.Random(13)
        edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(100)]
        pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        want = kcore_reference(pairs)

        def ds():
            return ray.data.from_arrow(
                pa.table(
                    {
                        "src_id": pa.array([u for u, _ in edges], pa.int64()),
                        "dst_id": pa.array([v for _, v in edges], pa.int64()),
                    }
                )
            )

        ck = str(tmp_path / "ck")
        coreness(ds(), max_iters=2, checkpoint_dir=ck, checkpoint_every=1)\
            .take_all()
        parts = sorted(glob.glob(f"{ck}/round_*_part_*.parquet"))
        with open(parts[-1], "wb") as f:
            f.write(b"not parquet")
        got = {
            r["node"]: r["core"]
            for r in coreness(ds(), checkpoint_dir=ck, checkpoint_every=50)
            .take_all()
        }
        assert got == want


class TestCsvNullContract:
    def test_write_rejects_nulls(self, tmp_path):
        import ray.data

        from pdf_entity_extraction_ray.sources.csvio import write_docs_csv

        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["a", None], pa.string()),
                    "lang": pa.array(["en", "en"], pa.string()),
                    "source": pa.array(["s", "s"], pa.string()),
                    "n_chars": pa.array([1, 0], pa.int64()),
                }
            )
        )
        with pytest.raises(Exception) as exc:
            write_docs_csv(ds, str(tmp_path / "csv"))
        assert "null" in str(exc.value)


class TestQ4ShuffleFallback:
    def test_paths_agree(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import q4_order_priority

        li = ray.data.read_parquet(f"{SF}/lineitem.parquet")
        orders = ray.data.read_parquet(f"{SF}/orders.parquet")
        broadcast = _q4_rows(q4_order_priority(li, orders))
        shuffled = _q4_rows(
            q4_order_priority(li, orders, broadcast_limit_bytes=0, num_partitions=2)
        )
        assert broadcast == shuffled
        assert len(broadcast) > 0
        assert all(n > 0 for _, n in broadcast)


def test_triu_pair_chunks_exact_and_bounded():
    """The chunked wedge-pair generator is exactly np.triu_indices in
    bounded slices (the mega-hub StringArray offset-overflow fix)."""
    import numpy as np

    from pdf_entity_extraction_ray.ops.graph_stats import _triu_pair_chunks

    nbrs = pa.array([f"n{i:03d}" for i in range(37)])
    got_a, got_b = [], []
    for ca, cb in _triu_pair_chunks(nbrs, chunk=50):
        assert len(ca) <= 50 and len(ca) == len(cb)
        got_a.extend(ca.to_pylist())
        got_b.extend(cb.to_pylist())
    ii, jj = np.triu_indices(37, k=1)
    want = [(f"n{i:03d}", f"n{j:03d}") for i, j in zip(ii, jj)]
    assert list(zip(got_a, got_b)) == want
    # degenerate apexes yield nothing
    assert list(_triu_pair_chunks(pa.array(["x"]))) == []
    assert list(_triu_pair_chunks(pa.array([], pa.string()))) == []
