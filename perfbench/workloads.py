"""The KG-build workloads: seeded corpus + gold generation (the load
generator, never timed), the build call each run times, and the output
check every timed run must pass.

Every workload is one closed-loop caller: the next ``run_kg`` call starts
only after the previous one returned and its outputs were checked.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import pyarrow.dataset as pads
import pyarrow.parquet as pq

N_PER_TYPE = 25  # default head catalog: ~250 linked surfaces
HEAD_PAGES = 2000
TAIL_PAGES = 1500
DELTA_PAGES = 75  # 5% of the tail base
WARMUP_PAGES = 200
MIN_PR = 0.95
TITLE_TYPES = ("PERSON", "ORG", "GPE")


class OutputCheckError(Exception):
    """A build returned, but its outputs are wrong."""


def write_pages(path: str, indices, seed: int, n_pages: int, tail_every: int):
    """Write one pages Parquet file; return its gold (mentions, triples)."""
    from pdf_entity_extraction_ray.sources.corpus import pages_batch

    table, mentions, triples = pages_batch(
        list(indices), seed, N_PER_TYPE, n_pages, tail_every
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return mentions, triples


class Gold:
    """Canonical gold triples under the gold-cluster protocol of
    ``tests/test_e2e.py::test_triple_pr_canonical``: both sides map each
    endpoint to its observation-aware gold cluster id, DATE endpoints stay
    as their ISO string."""

    def __init__(self, seed: int, mentions: list[dict], triples: list[dict]):
        from pdf_entity_extraction_ray.functions.textnorm import surface_norm
        from pdf_entity_extraction_ray.sources.corpus import (
            cached_catalog,
            gold_canonical_triples,
            split_observed_components,
        )

        self._norm = surface_norm
        catalog = cached_catalog(seed, N_PER_TYPE)
        observed = {(m["type"], m["text"]) for m in mentions}
        self.lookup: dict[tuple[str, str], int] = {}
        for c in split_observed_components(catalog, observed):
            for a in c.aliases:
                s = a.title() if c.type in TITLE_TYPES else a
                self.lookup[(c.type, surface_norm(s))] = c.cluster_id
        self.triples: set[tuple] = set()
        for t, c in zip(triples, gold_canonical_triples(catalog, triples)):
            sc = c["subj"].title() if t["subj_type"] in TITLE_TYPES else c["subj"]
            oc = c["obj"].title() if t["obj_type"] in TITLE_TYPES else c["obj"]
            self.triples.add(
                (t["url"], t["seg_id"], self.key(t["subj_type"], sc), t["pred"],
                 self.key(t["obj_type"], oc))
            )

    def key(self, typ: str, name: str):
        if typ == "DATE":
            return name
        return self.lookup.get((typ, self._norm(name)), ("UNK", name))

    def precision_recall(self, canon_dir: str) -> tuple[float, float, int]:
        tbl = pads.dataset(canon_dir).to_table(
            columns=["url", "seg_id", "subj_type", "pred", "obj_type",
                     "subj_canonical", "obj_canonical"]
        )
        pred = {
            (u, sid, self.key(st, sc), p, self.key(ot, oc))
            for u, sid, st, p, ot, sc, oc in zip(
                *(tbl.column(i).to_pylist() for i in range(tbl.num_columns))
            )
        }
        tp = len(pred & self.triples)
        return tp / max(1, len(pred)), tp / max(1, len(self.triples)), tbl.num_rows


def edges_digest(edges_dir: str) -> str:
    """Order-independent digest of the edges table (content-derived ids make
    it identical across runs of the same inputs)."""
    tbl = pads.dataset(edges_dir).to_table()
    tbl = tbl.sort_by([(c, "ascending") for c in ("src_id", "pred", "dst_id")])
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(tbl.column_names):
        h.update(name.encode())
        h.update(repr(tbl.column(name).to_pylist()).encode())
    return h.hexdigest()


class Workload:
    """Base: a fresh ``run_kg(resume=False)`` over one generated corpus."""

    name = ""
    tail_every = 0
    n_pages = 0
    resume = False
    plan = ("driver", "broadcast")  # resolved (linking, rewrite) modes

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work = work_dir
        self.pages_dir = os.path.join(work_dir, "pages")
        self.out_dir = os.path.join(work_dir, "out")
        self.reference_digest: str | None = None

    def run_kwargs(self) -> dict:
        return {}

    def generate(self) -> None:
        """Corpus + gold for this seed, and the warm-up corpus: further
        pages of the same seed (the load generator; untimed)."""
        mentions, triples = write_pages(
            os.path.join(self.pages_dir, "part-0.parquet"),
            range(self.n_pages), self.seed, self.n_pages, self.tail_every,
        )
        self.gold = Gold(self.seed, mentions, triples)
        write_pages(
            os.path.join(self.work, "warm", "pages", "part-0.parquet"),
            range(self.n_pages, self.n_pages + WARMUP_PAGES), self.seed,
            self.n_pages + WARMUP_PAGES, self.tail_every,
        )

    def pages_per_run(self) -> int:
        return self.n_pages

    def reset(self) -> None:
        """Bring the output dir to the run's starting state (untimed)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def build(self) -> tuple[float, dict]:
        """The timed region: one ``run_kg`` call, start to return."""
        from pdf_entity_extraction_ray.pipelines.kg import run_kg

        t0 = time.perf_counter()
        res = run_kg(
            self.pages_dir, self.out_dir, seed=self.seed, resume=self.resume,
            **self.run_kwargs(),
        )
        return time.perf_counter() - t0, res

    def warm_up(self) -> None:
        """The untimed warm-up build of set-up, over the warm-up corpus, so
        the session's worker processes, imports and tagger state are warm
        before the first timed build (which then fixes the reference
        digest)."""
        from pdf_entity_extraction_ray.pipelines.kg import run_kg

        warm = os.path.join(self.work, "warm")
        run_kg(os.path.join(warm, "pages"), os.path.join(warm, "out"),
               seed=self.seed, resume=False, **self.run_kwargs())
        shutil.rmtree(warm)

    def check(self, res: dict | None = None) -> dict:
        """Triple P/R against gold, the edges digest against the workload's
        first build and, given the ``run_kg`` result, the plan it resolved
        to; raises :class:`OutputCheckError`."""
        if res is not None:
            plan = (res["resolved_linking_mode"], res["resolved_rewrite_mode"])
            if plan != self.plan:
                raise OutputCheckError(f"run_kg resolved plan {plan}, expected {self.plan}")
        precision, recall, n_triples = self.gold.precision_recall(
            os.path.join(self.out_dir, "triples_canonical")
        )
        digest = edges_digest(os.path.join(self.out_dir, "edges"))
        if self.reference_digest is None:
            self.reference_digest = digest
        if precision < MIN_PR or recall < MIN_PR:
            raise OutputCheckError(f"triple P/R {precision:.4f}/{recall:.4f} < {MIN_PR}")
        if digest != self.reference_digest:
            raise OutputCheckError("edges digest differs from the workload's first build")
        return {"precision": precision, "recall": recall, "triples": n_triples}


class HeadBuild(Workload):
    """Tagging-bound: default head catalog, no long tail, broadcast plan."""

    name = "head_build"
    n_pages = HEAD_PAGES


class TailAppend(Workload):
    """Incremental refresh: every page plants a long-tail cluster (so the
    distinct-surface universe grows with the corpus), a base is built once,
    and each build restores it, sees one new 5% delta file and calls
    ``run_kg(resume=True)``: only the delta is tagged, linking and graph
    recompute over the union."""

    name = "tail_append"
    n_pages = TAIL_PAGES
    tail_every = 1
    resume = True

    def run_kwargs(self) -> dict:
        from pdf_entity_extraction_ray.sources.corpus import TAIL_PATTERN, TAIL_TYPE

        return {"extra_patterns": [(TAIL_PATTERN, TAIL_TYPE)]}

    def generate(self) -> None:
        mentions, triples = write_pages(
            os.path.join(self.work, "base", "part-0.parquet"),
            range(self.n_pages), self.seed, self.n_pages, self.tail_every,
        )
        d_mentions, d_triples = write_pages(
            os.path.join(self.work, "delta", "part-1.parquet"),
            range(self.n_pages, self.n_pages + DELTA_PAGES), self.seed,
            self.n_pages + DELTA_PAGES, self.tail_every,
        )
        self.gold = Gold(self.seed, mentions + d_mentions, triples + d_triples)
        self.pristine = os.path.join(self.work, "base_out")

    def pages_per_run(self) -> int:
        return DELTA_PAGES

    def warm_up(self) -> None:
        """Build the base, keep a pristine copy of its output, land the delta
        file next to the base pages, then make one untimed append: the first
        append of a session does ~50% more work in the graph phase than the
        ones after it."""
        os.makedirs(self.pages_dir, exist_ok=True)
        shutil.copy2(os.path.join(self.work, "base", "part-0.parquet"), self.pages_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.build()
        shutil.copytree(self.out_dir, self.pristine)
        shutil.copy2(os.path.join(self.work, "delta", "part-1.parquet"), self.pages_dir)
        self.reset()
        self.build()

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        shutil.copytree(self.pristine, self.out_dir)


WORKLOADS = {w.name: w for w in (HeadBuild, TailAppend)}
