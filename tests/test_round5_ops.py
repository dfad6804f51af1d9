"""Round-5 first op batch: Q1 pricing summary, Q2 argmin join, URL
canonicalization dedup, MMR diversified retrieval."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _rows(ds):
    out = []
    for b in ds.iter_batches(batch_format="pyarrow"):
        out.extend(b.to_pylist())
    return out


class TestQ1PricingSummary:
    def test_matches_bruteforce(self):
        import duckdb
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import q1_pricing_summary

        got = {
            (r["l_returnflag"], r["l_linestatus"]): (
                r["sum_qty"], r["sum_base_e2"], r["sum_disc_e4"],
                r["sum_charge_e6"], r["sum_disc_pct"], r["n_rows"],
            )
            for r in _rows(
                q1_pricing_summary(ray.data.read_parquet(f"{SF}/lineitem.parquet"))
            )
        }
        con = duckdb.connect()
        want = {
            (f, s): tuple(rest)
            for f, s, *rest in con.execute(
                f"""
                select l_returnflag, l_linestatus,
                       sum(cast(floor(l_quantity + 0.5) as bigint)),
                       sum(cast(floor(l_extendedprice*100 + 0.5) as bigint)),
                       sum(cast(floor(l_extendedprice*100 + 0.5) as bigint)
                           * (100 - cast(floor(l_discount*100+0.5) as bigint))),
                       sum(cast(floor(l_extendedprice*100 + 0.5) as bigint)
                           * (100 - cast(floor(l_discount*100+0.5) as bigint))
                           * (100 + cast(floor(l_tax*100+0.5) as bigint))),
                       sum(cast(floor(l_discount*100 + 0.5) as bigint)),
                       count(*)
                from '{SF}/lineitem.parquet'
                where l_shipdate <= timestamp '1998-09-01'
                group by 1, 2
                """
            ).fetchall()
        }
        assert got == want and len(got) > 0


class TestQ2ArgminJoin:
    def test_tie_break_and_names(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import q2_min_price_supplier

        li = pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "l_suppkey": pa.array([30, 10, 20, 10, 11], pa.int64()),
                "l_extendedprice": pa.array([5.0, 5.0, 7.0, 3.0, 2.5], pa.float64()),
            }
        )
        part = pa.table(
            {
                "p_partkey": pa.array([1, 2], pa.int64()),
                "p_name": pa.array(["alpha", "beta"], pa.string()),
            }
        )
        supp = pa.table(
            {
                "s_suppkey": pa.array([10, 11, 20, 30], pa.int64()),
                "s_name": pa.array(["s10", "s11", "s20", "s30"], pa.string()),
            }
        )
        got = {
            r["p_partkey"]: (r["s_suppkey"], r["s_name"], r["min_price_e2"], r["p_name"])
            for r in _rows(
                q2_min_price_supplier(
                    ray.data.from_arrow(li),
                    ray.data.from_arrow(part),
                    ray.data.from_arrow(supp),
                )
            )
        }
        # part 1: price tie 5.00 between suppliers 30 and 10 -> lower suppkey
        assert got == {
            1: (10, "s10", 500, "alpha"),
            2: (11, "s11", 250, "beta"),
        }

    def test_oversized_dimension_fails_closed(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import q2_min_price_supplier

        li = ray.data.read_parquet(f"{SF}/lineitem.parquet")
        part = ray.data.read_parquet(f"{SF}/part.parquet")
        supp = ray.data.read_parquet(f"{SF}/supplier.parquet")
        with pytest.raises(ValueError):
            q2_min_price_supplier(li, part, supp, broadcast_limit_bytes=0)


class TestCanonicalUrl:
    def test_rules(self):
        from pdf_entity_extraction_ray.ops.web import canonical_url

        urls = pa.array(
            [
                "HTTP://Example.com:80/a/b?b=2&utm_source=x&a=1#frag",
                "https://Site.test:443/",
                "https://site.test:8443/x?z=1&y=2",   # non-default port kept
                "http://h.test/p?utm_campaign=c",
                "not a url",
                "http://h.test/p?",
                "https://h.test",                     # empty path -> /
                "http://h.test/CaseKept/Path",
                "http://h.test/p?b=2&&a=1",           # empty params dropped,
                "http://h.test/p?&z=1&&utm_id=7&&a=1&",  # never merged
            ]
        )
        assert canonical_url(urls).to_pylist() == [
            "http://example.com/a/b?a=1&b=2",
            "https://site.test/",
            "https://site.test:8443/x?y=2&z=1",
            "http://h.test/p",
            "",
            "http://h.test/p",
            "https://h.test/",
            "http://h.test/CaseKept/Path",
            "http://h.test/p?a=1&b=2",
            "http://h.test/p?a=1&z=1",
        ]

    def test_url_dedup_first_seen_wins(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.web import url_dedup

        pages = pa.table(
            {
                "url": pa.array(
                    [
                        "https://a.test/x?b=2&a=1",
                        "HTTPS://A.test/x?a=1&b=2#f",   # same canonical
                        "https://b.test/y",
                    ]
                ),
                "warc_ts": pa.array(
                    np.array([2000, 1000, 500], dtype="datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
        got = sorted(
            (r["canon"], r["url"]) for r in _rows(url_dedup(ray.data.from_arrow(pages)))
        )
        # earliest crawl wins; the uppercase variant has the older ts
        assert got == [
            ("https://a.test/x?a=1&b=2", "HTTPS://A.test/x?a=1&b=2#f"),
            ("https://b.test/y", "https://b.test/y"),
        ]


class TestMMR:
    def test_first_pick_is_nearest_and_diversity_binds(self):
        from pdf_entity_extraction_ray.ops.ann import _mmr_select, _normalized

        # query along e0; an exact duplicate of the top hit, one diverse
        C = _normalized(
            [
                [1.0, 0.0, 0.0],    # id 1: nearest
                [1.0, 0.0, 0.0],    # id 2: exact duplicate of id 1
                [0.8, 0.6, 0.0],    # id 3: diverse, still relevant
            ]
        )
        q = _normalized([[1.0, 0.0, 0.0]])[0]
        ids = np.array([1, 2, 3], dtype=np.int64)
        picked = [v for v, _s in _mmr_select(q, ids, C, 2, lam=0.3)]
        assert picked[0] == 1          # pure relevance first (id tie-break)
        # id2 scores 0.3*1 - 0.7*1 = -0.4; id3 scores 0.3*0.8 - 0.7*0.8
        # = -0.32 > -0.4: diversity beats the duplicate
        assert picked[1] == 3

    def test_distributed_equals_gold_mirror(self, tmp_path):
        import ray.data

        from pdf_entity_extraction_ray.ops.ann import mmr_topk, write_gold_mmr
        import pyarrow.parquet as pq

        write_gold_mmr(SF, str(tmp_path), [0, 1, 2, 3, 4])
        gold = {
            (r["query_id"], r["rank"]): (r["vec_id"], r["mmr_milli"])
            for r in pq.read_table(f"{tmp_path}/gold_mmr.parquet").to_pylist()
        }
        got = {
            (r["query_id"], r["rank"]): (r["vec_id"], r["mmr_milli"])
            for r in _rows(
                mmr_topk(
                    ray.data.read_parquet(f"{SF}/embeddings.parquet"),
                    [0, 1, 2, 3, 4],
                    10,
                    source_path=f"{SF}/embeddings.parquet",
                )
            )
        }
        assert got == gold and len(got) == 50


class TestClosenessSampled:
    def test_matches_bruteforce(self):
        import collections
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import closeness_sampled

        # two components: a path a-b-c-d and a triangle x-y-z
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z"),
                 ("x", "z")]
        ids = {n: i for i, n in enumerate(sorted({u for e in edges for u in e}))}
        tbl = pa.table(
            {
                "src_id": pa.array([ids[u] for u, _ in edges], pa.int64()),
                "src_canonical": pa.array([u for u, _ in edges], pa.string()),
                "dst_id": pa.array([ids[v] for _, v in edges], pa.int64()),
                "dst_canonical": pa.array([v for _, v in edges], pa.string()),
            }
        )
        got = {
            r["canonical"]: (r["n_sources_reached"], r["sum_dist"])
            for b in closeness_sampled(
                ray.data.from_arrow(tbl), n_sources=3, max_depth=8
            ).iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }
        # sources = 3 smallest canonicals: a, b, c
        adj = collections.defaultdict(set)
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)

        def bfs(s):
            d = {s: 0}
            q = [s]
            while q:
                n = q.pop(0)
                for m in adj[n]:
                    if m not in d:
                        d[m] = d[n] + 1
                        q.append(m)
            return d

        want = collections.defaultdict(lambda: [0, 0])
        for s in ["a", "b", "c"]:
            for n, d in bfs(s).items():
                want[n][0] += 1
                want[n][1] += d
        assert got == {n: tuple(v) for n, v in want.items()}
        # the triangle component is unreachable from a/b/c: absent
        assert "x" not in got


class TestCdxIndex:
    def test_seek_and_reparse(self, tmp_path):
        """The layout columns (warc_file, offset, record_len) must locate
        the exact record bytes: seeking there and reparsing yields the
        indexed url/digest."""
        import hashlib

        import ray.data

        from pdf_entity_extraction_ray.sources.warc import (
            _parse_warc_bytes,
            cdx_index,
            surt_key,
            write_warc,
        )

        pages = pa.table(
            {
                "url": pa.array(
                    [f"https://s{i}.example.test/p/{i}?x=1" for i in range(7)]
                ),
                "warc_ts": pa.array(
                    np.array([1_600_000_000_000_000 + i for i in range(7)],
                             dtype="datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "html": pa.array(
                    [f"<html>{i}</html>".encode() for i in range(7)], pa.binary()
                ),
            }
        )
        wdir = str(tmp_path / "warc")
        write_warc(ray.data.from_arrow(pages), wdir)
        rows = []
        for b in cdx_index(wdir).iter_batches(batch_format="pyarrow"):
            rows.extend(b.to_pylist())
        assert len(rows) == 7
        import os

        for r in rows:
            with open(os.path.join(wdir, r["warc_file"]), "rb") as f:
                f.seek(r["offset"])
                blob = f.read(r["record_len"])
            t = _parse_warc_bytes(blob)
            assert t.num_rows == 1
            assert t.column("url")[0].as_py() == r["url"]
            html = t.column("html")[0].as_py()
            assert hashlib.md5(html).hexdigest() == r["digest_md5"]
            assert len(html) == r["n_bytes"]
            assert r["urlkey"] == surt_key(r["url"])

    def test_surt_rules(self):
        from pdf_entity_extraction_ray.sources.warc import surt_key

        assert surt_key("https://site9.example.test/page/209") == \
            "test,example,site9)/page/209"
        assert surt_key("http://A.B.test:8080/X?q=1") == "test,b,a)/X?q=1"
        assert surt_key("https://host.test") == "host,test".replace(
            "host,test", "test,host") + ")/"
        assert surt_key("garbage") == ""


class TestIvfRecall:
    def test_recall_bounds_and_probe_monotone(self, tmp_path):
        import ray.data

        from pdf_entity_extraction_ray.ops.ann import ivf_recall

        ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
        r8 = {
            r["query_id"]: r["recall_ppm"]
            for r in _rows(
                ivf_recall(ds, [0, 1, 2], 10, n_probe=8,
                           index_dir=str(tmp_path / "ivf"),
                           source_path=f"{SF}/embeddings.parquet")
            )
        }
        assert set(r8) == {0, 1, 2}
        assert all(0 <= v <= 1_000_000 for v in r8.values())
        # probing EVERY bucket makes IVF exact -> recall 100%
        dim = len(
            ray.data.read_parquet(f"{SF}/embeddings.parquet")
            .take(1)[0]["embedding"]
        )
        r_all = {
            r["query_id"]: r["recall_ppm"]
            for r in _rows(
                ivf_recall(ds, [0, 1, 2], 10, n_probe=dim,
                           index_dir=str(tmp_path / "ivf"),
                           source_path=f"{SF}/embeddings.parquet")
            )
        }
        assert all(v == 1_000_000 for v in r_all.values())
        assert all(r8[q] <= r_all[q] for q in r8)


class TestCodeDetect:
    def test_signals(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.text import code_detect_batch

        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "plain english prose with no symbols at all",
                        "def f(x):\n    return {x: [1]};\n    pass\n\tdone",
                        "",
                    ]
                ),
            }
        )
        got = {r["doc_id"]: r for r in _rows(
            ray.data.from_arrow(docs).map_batches(
                code_detect_batch, batch_format="pyarrow"
            )
        )}
        assert got[1]["is_code"] == 0 and got[1]["symbol_ppm"] == 0
        assert got[2]["is_code"] == 1
        # doc 2: 4 lines, 3 indented (two 4-space + one tab) -> 750000 ppm
        assert got[2]["indent_line_ppm"] == 750_000
        assert got[3]["n_chars"] == 0 and got[3]["is_code"] == 0


class TestSourceMix:
    def test_matches_bruteforce(self):
        import re

        import duckdb
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import source_mix

        got = {
            r["source"]: (r["n_docs"], r["n_tokens"], r["token_share_ppm"])
            for r in _rows(
                source_mix(ray.data.read_parquet(f"{SF}/documents.parquet"))
            )
        }
        import pyarrow.parquet as pq

        t = pq.read_table(f"{SF}/documents.parquet", columns=["source", "text"])
        per = {}
        for s, x in zip(t.column("source").to_pylist(), t.column("text").to_pylist()):
            d = per.setdefault(s, [0, 0])
            d[0] += 1
            d[1] += len(re.findall(r"[a-z0-9_]+", x.lower()))
        total = sum(v[1] for v in per.values())
        want = {
            s: (v[0], v[1], 1_000_000 * v[1] // total) for s, v in per.items()
        }
        assert got == want and len(got) > 1
        assert sum(v[2] for v in got.values()) <= 1_000_000  # floor shares


class TestBurstRates:
    def test_peak_and_tie_break(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.relational import user_burst_rates

        HOUR = 3_600_000_000
        # user 1: 3 events in hour0, 1 in hour1; user 2: tie 2-2 -> earlier hour
        stamps = [
            (1, 0), (1, 1), (1, 2), (1, HOUR + 5),
            (2, 0), (2, 1), (2, HOUR), (2, HOUR + 1),
        ]
        ev = pa.table(
            {
                "user_id": pa.array([u for u, _ in stamps], pa.int64()),
                "ts": pa.array(
                    np.array([t for _, t in stamps], dtype="datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
        got = {
            r["user_id"]: (r["peak_hour_us"], r["peak_events"])
            for r in _rows(user_burst_rates(ray.data.from_arrow(ev)))
        }
        assert got == {1: (0, 3), 2: (0, 2)}
        # threshold keeps only at-or-above users
        got3 = _rows(user_burst_rates(ray.data.from_arrow(ev), threshold_per_hour=3))
        assert [r["user_id"] for r in got3] == [1]


class TestDegreeGini:
    def test_star_vs_regular(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import degree_gini

        def run(edges):
            tbl = pa.table(
                {
                    "src_canonical": pa.array([u for u, _ in edges]),
                    "dst_canonical": pa.array([v for _, v in edges]),
                }
            )
            [row] = _rows(degree_gini(ray.data.from_arrow(tbl)))
            return row

        # 4-cycle: perfectly regular -> gini 0
        ring = run([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert ring["gini_num"] == 0 and ring["n_nodes"] == 4
        # star K1,5: skewed -> positive gini; exact brute check
        star = run([("hub", f"x{i}") for i in range(5)])
        degs = sorted([1] * 5 + [5])
        n, sd = len(degs), sum(degs)
        pos = sum((i + 1) * d for i, d in enumerate(degs))
        assert star["gini_num"] == 2 * pos - (n + 1) * sd
        assert star["gini_den"] == n * sd
        assert star["gini_num"] > 0
        # duplicate + reversed edge rows do not change degrees
        dup = run(
            [("hub", f"x{i}") for i in range(5)]
            + [(f"x{i}", "hub") for i in range(5)]
        )
        assert (dup["gini_num"], dup["gini_den"]) == (
            star["gini_num"], star["gini_den"]
        )


class TestMetapath:
    def test_matches_bruteforce(self):
        import itertools
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import metapath_instances

        edges = [
            ("p1", "works_for", "o1"), ("p2", "works_for", "o1"),
            ("p3", "works_for", "o2"), ("o1", "located_in", "c1"),
            ("o1", "located_in", "c2"), ("o2", "cites", "c1"),
            ("p1", "visited", "c1"),
            ("p1", "works_for", "o1"),  # duplicate edge row collapses
        ]
        tbl = pa.table(
            {
                "src_canonical": pa.array([e[0] for e in edges]),
                "pred": pa.array([e[1] for e in edges]),
                "dst_canonical": pa.array([e[2] for e in edges]),
            }
        )
        got = sorted(
            (r["a"], r["mid"], r["c"])
            for r in _rows(
                metapath_instances(
                    ray.data.from_arrow(tbl), "works_for", "located_in"
                )
            )
        )
        assert got == [
            ("p1", "o1", "c1"), ("p1", "o1", "c2"),
            ("p2", "o1", "c1"), ("p2", "o1", "c2"),
        ]

    def test_empty_side_short_circuits(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import metapath_instances

        tbl = pa.table(
            {
                "src_canonical": pa.array(["a"]),
                "pred": pa.array(["visited"]),
                "dst_canonical": pa.array(["b"]),
            }
        )
        out = _rows(
            metapath_instances(ray.data.from_arrow(tbl), "works_for", "located_in")
        )
        assert out == []


class TestCompactParquet:
    def test_content_preserving_and_actually_compacts(self, tmp_path):
        import glob

        import ray.data

        from pdf_entity_extraction_ray.sources.sinks import compact_parquet

        src = ray.data.read_parquet(f"{SF}/documents.parquet")
        small = str(tmp_path / "small")
        big = str(tmp_path / "big")
        src.write_parquet(small, min_rows_per_file=25, max_rows_per_file=25)
        n_small = len(glob.glob(f"{small}/*.parquet"))
        assert n_small >= 10  # genuinely fragmented input
        compact_parquet(small, big, target_rows_per_file=100_000)
        n_big = len(glob.glob(f"{big}/*.parquet"))
        assert n_big < n_small
        a = sorted(
            repr(r) for r in _rows(ray.data.read_parquet(small))
        )
        b = sorted(repr(r) for r in _rows(ray.data.read_parquet(big)))
        assert a == b and len(a) == src.count()


class TestValidityIntervals:
    def test_min_max_count(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import validity_intervals

        tri = pa.table(
            {
                "subj_canonical": pa.array(["A", "A", "A", "B"]),
                "pred": pa.array(["p", "p", "p", "q"]),
                "obj_canonical": pa.array(["X", "X", "X", "Y"]),
                "url": pa.array(["u1", "u2", "u3", "u1"]),
            }
        )
        pages = pa.table(
            {
                "url": pa.array(["u1", "u2", "u3"]),
                "warc_ts": pa.array(
                    np.array([100, 300, 200], dtype="datetime64[us]"),
                    pa.timestamp("us"),
                ),
            }
        )
        got = {
            (r["subj_canonical"], r["pred"], r["obj_canonical"]): (
                r["first_seen_us"], r["last_seen_us"], r["n_assertions"]
            )
            for r in _rows(
                validity_intervals(
                    ray.data.from_arrow(tri), ray.data.from_arrow(pages)
                )
            )
        }
        assert got == {("A", "p", "X"): (100, 300, 3), ("B", "q", "Y"): (100, 100, 1)}


class TestTopTokensByLang:
    def test_topk_and_ties(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.text import top_tokens_by_lang

        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "lang": pa.array(["en", "en", "fr"]),
                "text": pa.array(
                    [
                        "cat cat dog bird",
                        "dog bird bird",
                        "chat chien chat",
                    ]
                ),
            }
        )
        got = sorted(
            (r["lang"], r["rank"], r["token"], r["n"])
            for r in _rows(top_tokens_by_lang(ray.data.from_arrow(docs), k=2))
        )
        # en: bird=3, cat=2 (dog=2 loses the tie to cat alphabetically)
        assert got == [
            ("en", 1, "bird", 3), ("en", 2, "cat", 2),
            ("fr", 1, "chat", 2), ("fr", 2, "chien", 1),
        ]


class TestEgoSubgraph:
    def test_induced_edges_only(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import ego_subgraph

        # a -> b -> c -> d chain plus x -> y island; seeds {a}, depth 2
        edges = [("a", "p", "b"), ("b", "q", "c"), ("c", "r", "d"),
                 ("x", "s", "y"), ("b", "q", "c")]  # dup edge collapses
        ids = {n: i for i, n in enumerate("abcdxy")}
        tbl = pa.table(
            {
                "src_id": pa.array([ids[u] for u, _, _ in edges], pa.int64()),
                "src_canonical": pa.array([u for u, _, _ in edges]),
                "pred": pa.array([p for _, p, _ in edges]),
                "dst_id": pa.array([ids[v] for _, _, v in edges], pa.int64()),
                "dst_canonical": pa.array([v for _, _, v in edges]),
            }
        )
        got = sorted(
            (r["src_canonical"], r["pred"], r["dst_canonical"])
            for r in _rows(ego_subgraph(ray.data.from_arrow(tbl), ["a"], depth=2))
        )
        # reached = {a, b, c}; the c->d edge leaves the ego net, x/y island out
        assert got == [("a", "p", "b"), ("b", "q", "c")]

    def test_empty_seed_reach(self):
        import ray.data

        from pdf_entity_extraction_ray.ops.graph_stats import ego_subgraph

        tbl = pa.table(
            {
                "src_id": pa.array([1], pa.int64()),
                "src_canonical": pa.array(["a"]),
                "pred": pa.array(["p"]),
                "dst_id": pa.array([2], pa.int64()),
                "dst_canonical": pa.array(["b"]),
            }
        )
        out = _rows(ego_subgraph(ray.data.from_arrow(tbl), ["zzz"], depth=2))
        assert out == []
