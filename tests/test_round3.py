"""Round-3 hardening tests: DF-pruned IDF broadcasts, pushed-down query
fetches, IVF index fingerprinting, size-dispatched joins, the vectorized
sliding window, id-keyed degrees, minhash band auto-tuning, subject-miss
resilience in the join rewrite, and the pipeline's auto scale-path switch.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

SF = "/root/testdata/sf0.001"


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches)
    s = ds.schema()
    return pa.table({n: pa.array([], t) for n, t in zip(s.names, s.types)})


def _docs_ds():
    texts = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "the bird flew over the mat",
        "a cat and a dog and a bird",
        "unique zebra quagga okapi",
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


class TestPrunedIdf:
    def test_max_terms_keeps_top_df_and_bounds_vocab(self):
        from pdf_entity_extraction_ray.ops.tfidf import train_idf

        full, n = train_idf(_docs_ds(), max_terms=None)
        pruned, _ = train_idf(_docs_ds(), max_terms=3)
        assert len(pruned) <= 3
        # the kept terms are exactly the global top-3 by (df desc, term asc)
        df_order = sorted(full.items(), key=lambda kv: (kv[1], kv[0]))[:3]
        assert set(pruned) == {t for t, _ in df_order}
        for t, v in pruned.items():
            assert v == full[t]

    def test_min_df_filters_singletons(self):
        from pdf_entity_extraction_ray.ops.tfidf import _terms, train_idf

        docs = _docs_ds()
        texts = [r["text"] for r in docs.take_all()]
        df: dict[str, int] = {}
        for t in texts:
            for term in set(_terms(t)):
                df[term] = df.get(term, 0) + 1
        pruned, _ = train_idf(_docs_ds(), min_df=2, max_terms=None)
        assert set(pruned) == {t for t, d in df.items() if d >= 2}

    def test_default_bound_is_identity_at_small_vocab(self):
        from pdf_entity_extraction_ray.ops.tfidf import train_idf

        assert train_idf(_docs_ds())[0] == train_idf(_docs_ds(), max_terms=None)[0]

    def test_char_idf_respects_bound(self):
        from pdf_entity_extraction_ray.ops.pairscore import train_char_idf

        full, _ = train_char_idf(_docs_ds())
        bounded, _ = train_char_idf(_docs_ds(), max_terms=10)
        assert len(bounded) == 10 < len(full)
        assert all(bounded[g] == full[g] for g in bounded)


class TestQueryPushdown:
    def _emb_parquet(self, tmp_path, seed=0, n=40, dim=8):
        rng = np.random.RandomState(seed)
        tbl = pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    rng.standard_normal((n, dim)).tolist(), pa.list_(pa.float64())
                ),
            }
        )
        path = str(tmp_path / f"emb_{seed}.parquet")
        pq.write_table(tbl, path, row_group_size=8)
        return path, tbl

    def test_filtered_read_returns_exact_queries(self, tmp_path):
        from pdf_entity_extraction_ray.ops.ann import _collect_queries

        path, tbl = self._emb_parquet(tmp_path)
        ds = ray.data.read_parquet(path)
        qids, Q = _collect_queries(ds, [3, 17, 35], source_path=path)
        assert list(qids) == [3, 17, 35]
        raw = {v: e for v, e in zip(tbl.column("vec_id").to_pylist(), tbl.column("embedding").to_pylist())}
        for row, qid in zip(Q, qids):
            expect = np.asarray(raw[qid])
            expect = expect / np.linalg.norm(expect)
            assert np.allclose(row, expect)

    def test_distributed_fallback_matches_filtered_read(self, tmp_path):
        from pdf_entity_extraction_ray.ops.ann import _collect_queries

        path, _ = self._emb_parquet(tmp_path)
        ds = ray.data.read_parquet(path)
        qids_a, Q_a = _collect_queries(ds, [1, 9], source_path=path)
        qids_b, Q_b = _collect_queries(ds, [1, 9])
        assert list(qids_a) == list(qids_b) and np.allclose(Q_a, Q_b)

    def test_tfidf_knn_source_path_identical(self, tmp_path):
        from pdf_entity_extraction_ray.ops.tfidf import tfidf_knn

        docs = _collect(_docs_ds())
        path = str(tmp_path / "docs.parquet")
        pq.write_table(docs, path, row_group_size=2)
        ds = ray.data.read_parquet(path)

        def rows(out):
            t = _collect(out)
            return sorted(
                zip(
                    t.column("query_id").to_pylist(),
                    t.column("neighbor_id").to_pylist(),
                    t.column("rank").to_pylist(),
                )
            )

        assert rows(tfidf_knn(ds, [0, 1], 3, source_path=path)) == rows(
            tfidf_knn(ds, [0, 1], 3)
        )


class TestIvfFingerprint:
    def test_stale_index_for_other_corpus_is_rebuilt(self, tmp_path):
        """Reusing an index_dir across corpora must rebuild, not silently
        return neighbors from the wrong corpus (round-2 ADVICE)."""
        from pdf_entity_extraction_ray.ops.ann import knn_ivf

        def emb(seed):
            rng = np.random.RandomState(seed)
            tbl = pa.table(
                {
                    "vec_id": pa.array(range(40), pa.int64()),
                    "embedding": pa.array(
                        rng.standard_normal((40, 8)).tolist(), pa.list_(pa.float64())
                    ),
                }
            )
            path = str(tmp_path / f"corpus_{seed}.parquet")
            pq.write_table(tbl, path)
            return ray.data.read_parquet(path)

        def rows(out):
            t = _collect(out)
            return sorted(
                zip(
                    t.column("query_id").to_pylist(),
                    t.column("neighbor_id").to_pylist(),
                    t.column("rank").to_pylist(),
                )
            )

        shared = str(tmp_path / "ivf_shared")
        ds_a, ds_b = emb(1), emb(2)
        rows(knn_ivf(ds_a, [0, 1], k=3, n_probe=4, index_dir=shared))
        fp_a = open(os.path.join(shared, "_FINGERPRINT")).read()
        # same dir, different corpus (same row count!) -> must rebuild
        got_b = rows(knn_ivf(ds_b, [0, 1], k=3, n_probe=4, index_dir=shared))
        fp_b = open(os.path.join(shared, "_FINGERPRINT")).read()
        assert fp_a != fp_b
        fresh = rows(
            knn_ivf(ds_b, [0, 1], k=3, n_probe=4, index_dir=str(tmp_path / "ivf_fresh"))
        )
        assert got_b == fresh


@pytest.mark.skipif(not os.path.isdir(SF), reason="driver testdata absent")
class TestJoinDispatch:
    def _read(self, table):
        return ray.data.read_parquet(os.path.join(SF, f"{table}.parquet"))

    def test_orders_by_segment_both_paths_identical(self):
        from pdf_entity_extraction_ray.ops.relational import orders_by_segment

        def rows(out):
            t = _collect(out)
            return sorted(
                zip(t.column("c_mktsegment").to_pylist(), t.column("n_orders").to_pylist())
            )

        broadcast = rows(orders_by_segment(self._read("orders"), self._read("customer")))
        # broadcast_limit_bytes=0 forces the shuffle-join dispatch
        joined = rows(
            orders_by_segment(
                self._read("orders"), self._read("customer"), broadcast_limit_bytes=0
            )
        )
        assert broadcast == joined and broadcast

    def test_lineitems_by_priority_both_paths_identical(self):
        from pdf_entity_extraction_ray.ops.relational import lineitems_by_priority

        def rows(out):
            t = _collect(out)
            return sorted(
                zip(
                    t.column("o_orderpriority").to_pylist(),
                    t.column("n_items").to_pylist(),
                    t.column("sum_qty").to_pylist(),
                )
            )

        broadcast = rows(lineitems_by_priority(self._read("lineitem"), self._read("orders")))
        joined = rows(
            lineitems_by_priority(
                self._read("lineitem"), self._read("orders"), broadcast_limit_bytes=0
            )
        )
        assert broadcast == joined and broadcast


class TestSlidingWindowVectorized:
    def test_matches_python_reference(self):
        import datetime

        rng = np.random.RandomState(7)
        base = datetime.datetime(2024, 3, 1)
        ts = [
            base + datetime.timedelta(hours=int(h)) for h in rng.randint(0, 24 * 12, 300)
        ]
        users = rng.randint(0, 20, 300).tolist()
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "user_id": pa.array(users, pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                }
            )
        )
        from pdf_entity_extraction_ray.ops.relational import events_sliding_active_users

        out = _collect(events_sliding_active_users(ds, 3))
        got = dict(zip(out.column("day").to_pylist(), out.column("active_users").to_pylist()))

        expected: dict[str, set] = {}
        for t, u in zip(ts, users):
            for off in range(3):
                expected.setdefault(
                    (t.date() + datetime.timedelta(days=off)).strftime("%Y-%m-%d"), set()
                ).add(u)
        assert got == {d: len(s) for d, s in expected.items()}


class TestAsofJoin:
    def test_matches_python_reference_with_ties(self):
        import datetime

        base = datetime.datetime(2024, 5, 1)
        # interleaved users, including duplicate timestamps within a user
        rows = [
            (0, 1, 0), (1, 1, 60), (2, 2, 30), (3, 1, 60), (4, 2, 30),
            (5, 2, 90), (6, 1, 120), (7, 3, 10),
        ]
        ts = [base + datetime.timedelta(seconds=s) for _, _, s in rows]
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([r[0] for r in rows], pa.int64()),
                    "user_id": pa.array([r[1] for r in rows], pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                }
            )
        )
        from pdf_entity_extraction_ray.ops.relational import events_asof_prev

        out = _collect(events_asof_prev(ds))
        got = dict(zip(out.column("event_id").to_pylist(), out.column("prev_ts").to_pylist()))

        expected = {}
        for eid, uid, s in rows:
            earlier = [t for e2, u2, s2 in rows if u2 == uid and s2 < s
                       for t in [base + datetime.timedelta(seconds=s2)]]
            expected[eid] = max(earlier) if earlier else None
        assert got == expected


class TestRangeJoin:
    def test_pairs_within_matches_python_reference(self):
        import datetime

        rng = np.random.RandomState(11)
        base = datetime.datetime(2024, 6, 1)
        users = rng.randint(0, 8, 200).tolist()
        secs = rng.randint(0, 3600 * 24, 200).tolist()
        ts = [base + datetime.timedelta(seconds=int(s)) for s in secs]
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "user_id": pa.array(users, pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                }
            )
        )
        from pdf_entity_extraction_ray.ops.relational import events_pairs_within

        out = _collect(events_pairs_within(ds, 30))
        got = dict(zip(out.column("user_id").to_pylist(), out.column("n_pairs").to_pylist()))

        expected: dict[int, int] = {}
        rows = list(zip(users, secs))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i][0] == rows[j][0] and abs(rows[i][1] - rows[j][1]) <= 30 * 60:
                    expected[rows[i][0]] = expected.get(rows[i][0], 0) + 1
        assert got == expected and expected


class TestDegreesById:
    def test_shared_canonical_across_types_stays_separate(self):
        from pdf_entity_extraction_ray.ops.graph_stats import node_degrees, node_degrees_by_id
        from pdf_entity_extraction_ray.stages.linking import node_id_of

        gpe_2020 = node_id_of("GPE", "2020")
        date_2020 = node_id_of("DATE", "2020")
        tgt = node_id_of("PERSON", "Alice")
        edges = ray.data.from_arrow(
            pa.table(
                {
                    "src_id": pa.array([gpe_2020, date_2020], pa.int64()),
                    "src_canonical": pa.array(["2020", "2020"], pa.string()),
                    "pred": pa.array(["p", "p"], pa.string()),
                    "dst_id": pa.array([tgt, tgt], pa.int64()),
                    "dst_canonical": pa.array(["Alice", "Alice"], pa.string()),
                    "weight": pa.array([3, 4], pa.int64()),
                }
            )
        )
        merged = _collect(node_degrees(edges))
        row_2020 = merged.filter(pa.compute.equal(merged.column("canonical"), "2020"))
        assert row_2020.num_rows == 1  # documented canonical-keyed merge
        assert row_2020.column("out_weight").to_pylist() == [7]

        by_id = _collect(node_degrees_by_id(edges))
        rows_2020 = by_id.filter(pa.compute.equal(by_id.column("canonical"), "2020"))
        assert rows_2020.num_rows == 2  # graph-faithful: distinct node ids
        assert sorted(rows_2020.column("out_weight").to_pylist()) == [3, 4]
        alice = by_id.filter(pa.compute.equal(by_id.column("canonical"), "Alice"))
        assert alice.column("in_edges").to_pylist() == [2]
        assert alice.column("in_weight").to_pylist() == [7]


class TestAutoBands:
    @pytest.mark.skipif(not os.path.isdir(SF), reason="driver testdata absent")
    def test_diverse_corpus_keeps_exact_default(self):
        from pdf_entity_extraction_ray.ops.dedup import auto_minhash_bands

        docs = ray.data.read_parquet(os.path.join(SF, "documents.parquet"))
        assert auto_minhash_bands(docs) == 32

    def test_low_diversity_corpus_drops_to_16(self):
        from pdf_entity_extraction_ray.ops.dedup import auto_minhash_bands

        rng = np.random.RandomState(3)
        vocab = [f"w{i}" for i in range(10)]
        texts = [
            " ".join(rng.choice(vocab, 30).tolist()) for _ in range(400)
        ]
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        # simulate web scale: at n=200k the r=2 background collision rate
        # makes candidates quadratic, so the probe must choose bands=16
        assert auto_minhash_bands(ds, n_docs=200_000) == 16

    def test_auto_passthrough_matches_explicit(self):
        from pdf_entity_extraction_ray.ops.dedup import minhash_lsh_pairs

        texts = [
            "alpha beta gamma delta epsilon zeta iota kappa lambda mu",
            "alpha beta gamma delta epsilon zeta iota kappa lambda nu",
            "completely different words in this other document here",
        ]
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(3), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )

        def rows(out):
            t = _collect(out)
            return sorted(zip(t.column("doc_a").to_pylist(), t.column("doc_b").to_pylist()))

        assert rows(minhash_lsh_pairs(ds, 0.7, bands="auto")) == rows(
            minhash_lsh_pairs(ds, 0.7)
        )


class TestSubjectMissResilience:
    def test_join_rewrite_resolves_unknown_subject_as_singleton(self):
        """canonical_triples_join must never silently drop a triple whose
        subject is absent from the surface map — it resolves to a
        singleton node, exactly like the broadcast path (round-2 ADVICE)."""
        from pdf_entity_extraction_ray.stages.graph import canonical_triples_join
        from pdf_entity_extraction_ray.stages.linking import node_id_of

        surface_map = ray.data.from_arrow(
            pa.table(
                {
                    "type": pa.array(["PERSON"], pa.string()),
                    "surface": pa.array(["Alice"], pa.string()),
                    "node_id": pa.array([node_id_of("PERSON", "Alice Smith")], pa.int64()),
                    "canonical": pa.array(["Alice Smith"], pa.string()),
                }
            )
        )
        triples = ray.data.from_arrow(
            pa.table(
                {
                    "url": pa.array(["u1", "u2"], pa.string()),
                    "seg_id": pa.array([0, 0], pa.int32()),
                    "subj": pa.array(["Alice", "Ghost"], pa.string()),
                    "subj_type": pa.array(["PERSON", "PERSON"], pa.string()),
                    "pred": pa.array(["born_on", "born_on"], pa.string()),
                    "obj": pa.array(["July 2020", "July 2020"], pa.string()),
                    "obj_type": pa.array(["DATE", "DATE"], pa.string()),
                    "obj_norm": pa.array(["2020-07-01", "2020-07-01"], pa.string()),
                }
            )
        )
        # num_partitions=1: Ray's chained hash joins crash on EMPTY shuffle
        # partitions (pre-existing small-data quirk, independent of join
        # type — 2 rows over 4 partitions leaves some empty); one partition
        # keeps every partition non-empty at this size
        out = _collect(canonical_triples_join(triples, surface_map, num_partitions=1))
        assert out.num_rows == 2  # nothing dropped
        by_subj = {
            s: (c, i)
            for s, c, i in zip(
                out.column("subj").to_pylist(),
                out.column("subj_canonical").to_pylist(),
                out.column("src_id").to_pylist(),
            )
        }
        assert by_subj["Alice"] == ("Alice Smith", node_id_of("PERSON", "Alice Smith"))
        assert by_subj["Ghost"] == ("Ghost", node_id_of("PERSON", "Ghost"))
        assert set(out.column("obj_canonical").to_pylist()) == {"2020-07-01"}


class TestStdlibContainerCodecs:
    def test_bmp_roundtrip_features_identical(self):
        from pdf_entity_extraction_ray.ops.multimodal import (
            _raw_image_payload,
            decode_bmp,
            decode_raw_rgb8,
            encode_bmp,
            rgb8_features,
        )

        raw = _raw_image_payload(5, w=13, h=7)  # odd width exercises row padding
        img = decode_raw_rgb8(raw, 13, 7)
        assert np.array_equal(decode_bmp(encode_bmp(img)), img)
        assert rgb8_features(decode_bmp(encode_bmp(img))) == rgb8_features(img)

    def test_wav_roundtrip_frames_identical(self):
        from pdf_entity_extraction_ray.ops.multimodal import (
            AudioFeatureExtractor,
            _raw_audio_payload,
            decode_wav,
            encode_wav,
        )

        pcm = _raw_audio_payload(3)
        wav = encode_wav(pcm)
        back, rate = decode_wav(wav)
        assert back == pcm and rate == 8000
        fx = AudioFeatureExtractor()
        assert fx._pcm16_frames(back, rate) == fx._pcm16_frames(pcm)

    def test_container_stage_paths_match_raw(self):
        """BMP/WAV rows flow through the actor-pool stages via the REAL
        stdlib decode and produce byte-identical outputs to the raw rows."""
        from pdf_entity_extraction_ray.ops.multimodal import (
            _RAW_H,
            _RAW_W,
            AudioFeatureExtractor,
            BMP_IMAGE,
            ImageFeatureExtractor,
            RAW_AUDIO,
            RAW_IMAGE,
            WAV_AUDIO,
            _raw_audio_payload,
            _raw_image_payload,
            decode_raw_rgb8,
            encode_bmp,
            encode_wav,
        )

        raw_img = _raw_image_payload(9)
        bmp = encode_bmp(decode_raw_rgb8(raw_img, _RAW_W, _RAW_H))
        imgs = pa.table(
            {
                "media_id": pa.array([1, 2], pa.int64()),
                "kind": pa.array(["image", "image"], pa.string()),
                "payload": pa.array([raw_img, bmp], pa.binary()),
                "mime": pa.array([RAW_IMAGE, BMP_IMAGE], pa.string()),
                "width": pa.array([_RAW_W, -1], pa.int32()),
                "height": pa.array([_RAW_H, -1], pa.int32()),
                "duration_ms": pa.array([-1, -1], pa.int32()),
            }
        )
        out = ImageFeatureExtractor(fake=False)(imgs)
        f = out.column("features").to_pylist()
        assert f[0] == f[1]

        raw_audio = _raw_audio_payload(4)
        auds = pa.table(
            {
                "media_id": pa.array([1, 2], pa.int64()),
                "kind": pa.array(["audio", "audio"], pa.string()),
                "payload": pa.array([raw_audio, encode_wav(raw_audio)], pa.binary()),
                "mime": pa.array([RAW_AUDIO, WAV_AUDIO], pa.string()),
                "width": pa.array([-1, -1], pa.int32()),
                "height": pa.array([-1, -1], pa.int32()),
                "duration_ms": pa.array([1000, 1000], pa.int32()),
            }
        )
        out = AudioFeatureExtractor(fake=False)(auds)
        by_id: dict[int, list] = {}
        for mid, off, feat in zip(
            out.column("media_id").to_pylist(),
            out.column("frame_ms").to_pylist(),
            out.column("features").to_pylist(),
        ):
            by_id.setdefault(mid, []).append((off, feat))
        assert by_id[1] == by_id[2] and by_id[1]


class TestTinyInputDedup:
    def test_exact_dedup_on_a_handful_of_rows(self):
        """Ray's hash join crashes on empty shuffle partitions; the winner
        join must auto-drop to one partition for tiny inputs."""
        from pdf_entity_extraction_ray.ops.dedup import exact_dedup

        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                    "text": pa.array(["a", "a", "b", "c"], pa.string()),
                    "lang": pa.array(["en"] * 4, pa.string()),
                    "source": pa.array(["s"] * 4, pa.string()),
                    "n_chars": pa.array([1] * 4, pa.int64()),
                }
            )
        )
        kept = sorted(r["doc_id"] for r in exact_dedup(ds).take_all())
        assert kept == [0, 2, 3]


class TestCurationOps:
    def test_hash_split_matches_reference_and_proportions(self):
        import hashlib

        from pdf_entity_extraction_ray.ops.sample import hash_split

        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(range(2000), pa.int64())})
        )
        out = _collect(hash_split(ds))
        got = dict(zip(out.column("doc_id").to_pylist(), out.column("split").to_pylist()))

        def ref(i):
            h = int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "little")
            u = h / 2**64
            return "train" if u < 0.9 else ("val" if u < 0.95 else "test")

        assert got == {i: ref(i) for i in range(2000)}
        counts = {s: list(got.values()).count(s) for s in ("train", "val", "test")}
        assert 0.85 < counts["train"] / 2000 < 0.95  # proportions roughly honored

    def test_stratified_sample_smallest_ids_per_group(self):
        from pdf_entity_extraction_ray.ops.sample import stratified_sample

        rng = np.random.RandomState(5)
        langs = [f"l{int(x)}" for x in rng.randint(0, 6, 500)]
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(500), pa.int64()),
                    "lang": pa.array(langs, pa.string()),
                }
            )
        )
        out = _collect(stratified_sample(ds, "lang", 7))
        got: dict[str, list] = {}
        for d, g in zip(out.column("doc_id").to_pylist(), out.column("group").to_pylist()):
            got.setdefault(g, []).append(d)
        expected: dict[str, list] = {}
        for i, g in enumerate(langs):
            expected.setdefault(g, [])
            if len(expected[g]) < 7:
                expected[g].append(i)
        assert {g: sorted(v) for g, v in got.items()} == expected

    def test_weighted_mix_rates_and_rep_numbering(self):
        from pdf_entity_extraction_ray.ops.sample import (
            _mix_hash_u64,
            mix_cutoff,
            weighted_mix,
        )

        srcs = ["a", "b", "c", "d"] * 250
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(1000), pa.int64()),
                    "source": pa.array(srcs, pa.string()),
                }
            )
        )
        rates = {"a": 2.5, "b": 0.3, "c": 0.0}  # d falls to default 1.0
        out = _collect(weighted_mix(ds, rates))
        got = sorted(
            zip(
                out.column("doc_id").to_pylist(),
                out.column("source").to_pylist(),
                out.column("rep").to_pylist(),
            )
        )
        expected = []
        for i, s in enumerate(srcs):
            whole, frac = mix_cutoff(rates.get(s, 1.0))
            n = whole + (1 if _mix_hash_u64(i) < frac else 0)
            expected.extend((i, s, r) for r in range(n))
        assert got == sorted(expected)
        # every 'a' doc appears at least twice, no 'c' docs survive, and
        # the fractional tails land near their rates
        per_src = {s: sum(1 for _, x, _ in got if x == s) for s in "abcd"}
        assert per_src["c"] == 0 and per_src["d"] == 250
        assert 2.2 * 250 < per_src["a"] < 2.8 * 250
        assert 0.15 * 250 < per_src["b"] < 0.45 * 250



class TestLinkingJoinParts:
    def test_local_cap(self):
        from pdf_entity_extraction_ray.stages.linking import _join_parts

        assert _join_parts() <= 8


class TestAutoScalePathSwitch:
    def test_bench_forces_only_the_scale_plan(self, monkeypatch):
        """bench.py's GRAFT_KG_MODES forces the one plan run_kg can be
        forced into (auto_threshold=0); any other value raises."""
        import bench

        monkeypatch.delenv("GRAFT_KG_MODES", raising=False)
        assert bench._kg_modes() == {}
        monkeypatch.setenv("GRAFT_KG_MODES", "distributed,join")
        assert bench._kg_modes() == {"auto_threshold": 0}
        for bad in ("driver,join", "distributed,broadcast", "driver,broadcast"):
            monkeypatch.setenv("GRAFT_KG_MODES", bad)
            with pytest.raises(ValueError, match="distributed,join"):
                bench._kg_modes()

    def test_auto_resolves_both_ways_with_identical_outputs(
        self, small_corpus, tmp_path_factory
    ):
        """run_kg's auto mode must pick the broadcast fast path for a small
        surface universe and the distributed/join scale path past the
        threshold — with row-identical graph outputs either way."""
        import pyarrow.dataset as pads

        from pdf_entity_extraction_ray.pipelines.kg import run_kg

        out_small = str(tmp_path_factory.mktemp("kg_auto_small"))
        res_small = run_kg(
            f"{small_corpus}/pages", out_small, n_buckets=2, concurrency=2
        )
        assert res_small["resolved_linking_mode"] == "driver"
        assert res_small["resolved_rewrite_mode"] == "broadcast"

        out_scale = str(tmp_path_factory.mktemp("kg_auto_scale"))
        res_scale = run_kg(
            f"{small_corpus}/pages", out_scale, n_buckets=2, concurrency=2,
            auto_threshold=0,
        )
        assert res_scale["resolved_linking_mode"] == "distributed"
        assert res_scale["resolved_rewrite_mode"] == "join"

        def table_key(out, name, cols):
            t = pads.dataset(f"{out}/{name}", partitioning="hive").to_table()
            return sorted(zip(*[t.column(c).to_pylist() for c in cols]))

        for name, cols in [
            ("nodes", ["node_id", "canonical", "type", "n_mentions"]),
            ("edges", ["src_id", "pred", "dst_id", "weight"]),
        ]:
            assert table_key(out_small, name, cols) == table_key(out_scale, name, cols), name


class TestDsirSelect:
    def _docs(self):
        import pyarrow as pa
        import ray.data

        rows = [
            (0, "clean prose article quality prose", "en"),
            (1, "spamword zz zz noise", "fr"),
            (2, "clean article clean", "en"),
            (3, "noise spamword garble", "fr"),
            (4, "", "en"),  # empty doc must score 0, not vanish
            (5, "clean prose noise", "fr"),
        ]
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                    "lang": pa.array([r[2] for r in rows], pa.string()),
                }
            )
        ), rows

    def _brute(self, rows, target_lang, hash_buckets):
        import math
        from collections import Counter

        from pdf_entity_extraction_ray.ops.sample import _dsir_bucket
        from pdf_entity_extraction_ray.ops.text import TOKEN_RE

        def feats(t):
            ws = TOKEN_RE.findall(t.lower())
            return ws if hash_buckets is None else [
                _dsir_bucket(w, hash_buckets) for w in ws
            ]

        raw, tgt = Counter(), Counter()
        for _, t, lang in rows:
            fs = feats(t)
            raw.update(fs)
            if lang == target_lang:
                tgt.update(fs)
        t_raw, t_tgt, v = (
            float(sum(raw.values())),
            float(sum(tgt.values())),
            float(len(raw)),
        )
        w = {
            f: math.floor(
                1_000_000.0
                * math.log(((tgt[f] + 1.0) * (t_raw + v)) / ((cr + 1.0) * (t_tgt + v)))
            )
            for f, cr in raw.items()
        }
        out = {}
        for doc_id, t, _ in rows:
            s = sum(w[f] for f in feats(t))
            out[doc_id] = (s, 1 if s > 0 else 0)
        return out

    def test_matches_bruteforce_both_feature_spaces(self):
        from pdf_entity_extraction_ray.ops.sample import dsir_select

        ds, rows = self._docs()
        for hb in (None, 16):
            got = {
                r["doc_id"]: (r["score_ppm"], r["keep"])
                for r in dsir_select(ds, target_lang="en", hash_buckets=hb).take_all()
            }
            assert got == self._brute(rows, "en", hb)
            assert got[4] == (0, 0)  # empty doc survived with score 0

    def test_target_slice_scores_higher(self):
        """Docs made of target-language-dominant tokens must outscore the
        non-target-dominant ones (the selection property DSIR exists for)."""
        from pdf_entity_extraction_ray.ops.sample import dsir_select

        ds, _ = self._docs()
        got = {r["doc_id"]: r["score_ppm"] for r in dsir_select(ds).take_all()}
        assert got[0] > 0 and got[2] > 0  # en-vocabulary docs
        assert got[1] < 0 and got[3] < 0  # fr-vocabulary docs
