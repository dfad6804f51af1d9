"""Deterministic synthetic web-page corpus with planted KG ground truth.

Per BASELINE.json ``input_hint`` the engine's input is a Parquet table of
Common-Crawl-style pages ``(url, warc_ts, html, text, lang)``.  This module
synthesizes that table at any scale with *known* gold mentions, triples and
alias clusters, mirroring the reference's labeled-data protocol
(``cejil_labeled_data/labels/name_labels.txt`` parsed at
src/ollama_entity_extraction/check_performance.py:56-59: one real-world
entity per line, comma-separated alias surface forms).

Planted alias-variation classes are exactly the reference's canonicalization
targets (src/check_heuristics.py): accent variants (:19-42), word-order
permutations (:45-60), subset/short names (:63-97), initial abbreviations
(:175-226), punctuation variants (:229-249), and typos within Levenshtein
ratio > 0.79 (src/ollama_entity_extraction/OllamaNERExtractor.py:122-126).

Everything is a pure function of ``(seed, page_idx)`` — pages can be
generated inside parallel Ray tasks with no shared state and identical
output at any parallelism level.  No wall clock, no global RNG.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import random
from dataclasses import dataclass, field

from ..functions.textnorm import ascii_fold

# ---------------------------------------------------------------------------
# vocabulary pools (disjoint from entity-name pools so the gazetteer never
# fires on filler/boilerplate text)

FIRST_NAMES = [
    "José", "María", "Andrés", "Lucía", "Miguel", "Sofía", "Ramón", "Elena",
    "Héctor", "Paula", "Víctor", "Irene", "Óscar", "Nadia", "Rubén", "Clara",
    "Tomás", "Diana", "Félix", "Laura", "Iván", "Nora", "Adrián", "Teresa",
    "Hugo", "Alicia", "Bruno", "Carmen", "Diego", "Estela", "Fabio", "Gloria",
    "Jorge", "Karina", "Leo", "Marta", "Nestor", "Olga", "Pablo", "Rosa",
]
MIDDLE_NAMES = [
    "Alejandro", "Beatriz", "Camilo", "Dolores", "Esteban", "Fernanda",
    "Gabriel", "Herminia", "Ignacio", "Juliana", "Leopoldo", "Manuela",
    "Nicolás", "Octavia", "Patricio", "Querubín", "Rodrigo", "Susana",
    "Teodoro", "Úrsula", "Valentín", "Ximena", "Yolanda", "Zacarías",
]
LAST_NAMES = [
    "Gutiérrez", "Fernández", "Ochoa", "Paredes", "Quintana", "Riquelme",
    "Saavedra", "Talavera", "Urrutia", "Vallejo", "Zambrano", "Ibáñez",
    "Cárdenas", "Domínguez", "Echeverría", "Fuentes", "Galarza", "Herrera",
    "Izquierdo", "Jaramillo", "Kowalski", "Larrañaga", "Mendoza", "Navarrete",
    "Obregón", "Palacios", "Quiñones", "Rentería", "Sandoval", "Tapia",
    "Ugarte", "Villanueva", "Wexford", "Yáñez", "Zúñiga", "Aguirre",
    "Bustamante", "Carrasco", "Delgado", "Escalante", "Figueroa", "Granados",
    "Hidalgo", "Iturbide", "Jiménez", "Ledesma", "Maldonado", "Noriega",
    "Arancibia", "Benavides", "Cifuentes", "Donoso", "Espinoza", "Fontecilla",
    "Gallardo", "Henríquez", "Inostroza", "Jofré", "Klapp", "Lagos",
    "Montalva", "Novoa", "Orellana", "Pizarro", "Quezada", "Retamal",
    "Silva", "Troncoso", "Undurraga", "Vicuña", "Walker", "Ybarra",
    "Zamorano", "Astudillo", "Barrientos", "Contreras", "Díaz", "Errázuriz",
    "Fredes", "Garretón", "Huidobro", "Infante", "Jerez", "Küster",
    "Letelier", "Matta", "Neruda", "Ossandón", "Prat", "Quintanilla",
    "Rozas", "Subercaseaux", "Toro", "Urzúa", "Vergara", "Wood",
]
ORG_HEADS = [
    "Globex", "Initech", "Umbra", "Vertex", "Zephyr", "Quanta", "Helix",
    "Nimbus", "Orion", "Pinnacle", "Solstice", "Tundra", "Vanguard", "Wavecrest",
    "Borealis", "Cascade", "Dynamo", "Equinox", "Fulcrum", "Gyroscope",
    "Apex", "Bastion", "Citadel", "Delta", "Everest", "Falcon",
    "Hollowbrook", "Ironwood", "Juniper", "Kestrel", "Lodestar", "Meridian",
    "Northwind", "Oakhaven", "Palisade", "Quicksilver", "Ridgeline", "Stonegate",
    "Timberline", "Ultraviolet", "Voyager", "Windward", "Xanthic", "Yellowtail",
    "Zenith", "Amberfield", "Brightwater", "Coldspring", "Dawnfire", "Eastgate",
    "Foxglove", "Greenmantle", "Highcastle", "Saltmarsh", "Jadeview", "Kingsford",
    "Longshore", "Moonstone", "Nightingale", "Oceanview",
]
ORG_MIDS = [
    "Analytics", "Robotics", "Logistics", "Biotech", "Energy", "Capital",
    "Maritime", "Textiles", "Mining", "Telecom", "Aerospace", "Agro",
    "Chemical", "Media", "Pharma", "Foundry",
]
ORG_TAILS = ["Group", "Holdings", "Partners", "Laboratories", "Industries", "Consortium"]
GPE_NAMES = [
    "Bogotá", "Asunción", "Córdoba", "Mérida", "Cancún", "San Ramón",
    "Valparaíso", "Concepción", "Maracaibo", "Bariloche", "Cusco", "Ibagué",
    "Montería", "Neiva", "Popayán", "Quibdó", "Riohacha", "Tunja",
    "Villavicencio", "Zipaquirá", "Medellín", "Cartagena", "Santa Marta",
    "Bucaramanga", "Pereira", "Manizales", "Armenia", "Pasto",
]
LAW_CODES = ["Civil", "Penal", "Commercial", "Labor", "Tax", "Electoral"]

FILLER_WORDS = (
    "alpha beta gamma delta epsilon theta lambda sigma omega kappa "
    "river stone cloud meadow harbor summit valley prairie canyon lagoon "
    "copper cobalt quartz basalt granite marble obsidian amber jade onyx"
).split()
BOILER_NAV = "Home About Contact Archive Subscribe"
BOILER_FOOTER = "All rights reserved. Terms of service apply."

PRED_PHRASES = {
    "en": {
        "works_for": "works for",
        "born_on": "was born on",
        "located_in": "is located in",
        "visited": "visited",
        "cites": "cites",
    },
    "es": {
        "works_for": "trabaja para",
        "born_on": "nació el",
        "located_in": "está ubicada en",
        "visited": "visitó",
        "cites": "cita",
    },
    "fr": {
        "works_for": "travaille pour",
        "born_on": "est né le",
        "located_in": "est située à",
        "visited": "a visité",
        "cites": "invoque",
    },
    "de": {
        "works_for": "arbeitet für",
        "born_on": "wurde geboren am",
        "located_in": "befindet sich in",
        "visited": "besuchte",
        "cites": "zitiert",
    },
    "pt": {
        "works_for": "trabalha para",
        "born_on": "nasceu em",
        "located_in": "está localizada em",
        "visited": "visitou",
        "cites": "menciona",
    },
}

PAGES_EPOCH = _dt.datetime(2020, 1, 1)

#: bump when synthesis output changes (consumers regenerate stale caches)
CORPUS_VERSION_MARKER = "_corpus_v4"  # v4: observation-aware gold clusters


# ---------------------------------------------------------------------------
# entity catalog


@dataclass
class Cluster:
    cluster_id: int
    type: str
    canonical: str           # the "most complete" surface (title-cased display)
    aliases: list[str] = field(default_factory=list)  # includes canonical

    def all_surfaces(self) -> list[str]:
        return self.aliases


def _typo(name: str, rng: random.Random) -> str:
    """One-char substitution in a long word — stays above Levenshtein 0.79."""
    words = name.split()
    k = max(range(len(words)), key=lambda i: len(words[i]))
    w = words[k]
    pos = rng.randrange(1, len(w) - 1)
    repl = chr(ord("a") + rng.randrange(26))
    words[k] = w[:pos] + repl + w[pos + 1 :]
    return " ".join(words)


def _merge_conflict(aliases: list[str], accepted: list[Cluster]) -> bool:
    """True when any alias would merge with any accepted same-type cluster
    under the full rule set (D2 thresholds / M21 subset / M22 abbreviation).
    Used as a final rejection-sampling guard so gold clusters are valid by
    construction at ANY seed and size."""
    from ..functions.textnorm import (
        abbreviation_expands_to,
        surfaces_similar,
        words_subset_merge_key,
    )

    for cluster in accepted:
        for a in cluster.aliases:
            for b in aliases:
                if (
                    surfaces_similar(a, b)
                    or words_subset_merge_key(a, b)
                    or words_subset_merge_key(b, a)
                    or abbreviation_expands_to(a, b)
                    or abbreviation_expands_to(b, a)
                ):
                    return True
    return False


def split_observed_components(
    clusters: list[Cluster], observed: set[tuple[str, str]]
) -> list[Cluster]:
    """Split each planted alias family into merge-predicate-connected
    components over its OBSERVED aliases (the (type, text) pairs that
    actually occur as gold mentions in this corpus sample).

    A planted family is star-connected through its full canonical name;
    a sample that never emits that hub can leave the observed aliases
    disconnected under the engine's pairwise rules (D2 similarity / M21
    subset / M22 abbreviation), and transitive-closure linking — the
    reference's union-find semantics — must then keep them apart.  Gold
    clusters therefore carry the components, not the planted family, so
    gold equals what a CORRECT engine computes at any scale/seed.  When
    every family's hub is observed (the common case) this is a no-op.

    Unobserved aliases are dropped (they have no observable trace);
    fully-unobserved families disappear.  Component ids are
    ``cluster_id * 64 + k`` with components ordered by smallest alias —
    deterministic, and collision-free because every emitted id is of the
    same form with k < 64; a family that splits into more components
    raises ``ValueError``.  Each component's canonical is the engine's
    most-complete-name representative over its observed aliases."""
    from ..stages.linking import representative, surfaces_match

    out: list[Cluster] = []
    for c in clusters:
        obs = sorted(a for a in c.aliases if (c.type, a) in observed)
        if not obs:
            continue
        parent = list(range(len(obs)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(obs)):
            for j in range(i + 1, len(obs)):
                if surfaces_match(obs[i], obs[j]):
                    parent[find(i)] = find(j)
        comps: dict[int, list[str]] = {}
        for i, a in enumerate(obs):
            comps.setdefault(find(i), []).append(a)
        if len(comps) > 64:
            raise ValueError(
                f"cluster {c.cluster_id} splits into {len(comps)} observed "
                "components; component ids cluster_id * 64 + k need k < 64"
            )
        for k, aliases in enumerate(sorted(comps.values(), key=lambda g: g[0])):
            out.append(
                Cluster(
                    c.cluster_id * 64 + k,
                    c.type,
                    representative(sorted(aliases)),
                    sorted(aliases),
                )
            )
    return out


def make_catalog(seed: int = 42, n_per_type: int = 25) -> list[Cluster]:
    """Seeded entity catalog: ``n_per_type`` alias clusters for each of
    PERSON / ORG / GPE / LAW.  (DATE entities are generated inline per page
    and canonicalized by parsed value, not by the catalog.)"""
    rng = random.Random(f"catalog:{seed}")
    clusters: list[Cluster] = []
    cid = 0

    # PERSON: canonical = "First Middle Last" (3 words, most complete).
    # Last names are globally unique across person clusters — two initials
    # aliases sharing a last name ("P. O. Zúñiga" vs "I. B. Zúñiga") are
    # Levenshtein 0.83 > 0.79 and would falsely merge.  Person count is
    # therefore capped at len(LAST_NAMES).
    # (first, middle) pairs also unique: "Jorge Gabriel Bustamante" vs
    # "Jorge Gabriel Carrasco" share 2/3 words > 0.65.
    lasts = rng.sample(LAST_NAMES, k=min(n_per_type, len(LAST_NAMES)))
    # ... and initial-pair SETS unique: "P. A. Jaramillo" vs "A. P. Vicuña"
    # share the words {p., a.} -> word-intersection 2/3 > 0.65.
    used_fm: set = set()
    used_ii: set = set()
    for l in lasts:
        while True:
            f, m = rng.choice(FIRST_NAMES), rng.choice(MIDDLE_NAMES)
            ii = frozenset((f[0], m[0]))
            if (f, m) not in used_fm and ii not in used_ii:
                used_fm.add((f, m))
                used_ii.add(ii)
                break
        canonical = f"{f} {m} {l}"
        variants = [
            f"{f} {l}",                      # subset, word-intersection 2/3
            ascii_fold(canonical),           # accent fold, Levenshtein > 0.79
            f"{l}, {f} {m}",                 # word-order / punctuation
            f"{f[0]}. {m[0]}. {l}",          # initials (M22 abbreviation rule)
            _typo(canonical, rng),           # typo within ratio > 0.79
        ]
        aliases = _uniq([canonical] + rng.sample(variants, k=rng.randint(2, 4)))
        if _merge_conflict(aliases, [c for c in clusters if c.type == "PERSON"]):
            continue  # skip this last name; pools are sized with headroom
        clusters.append(Cluster(cid, "PERSON", canonical, aliases))
        cid += 1

    # ORG: canonical = "Head Mid Tail" (3 words); unique head per cluster —
    # a shared head with different mids can land within ~0.001 of the 0.79
    # Levenshtein threshold ("Globex Analytics Group" vs "Globex Robotics
    # Group" -> 0.7907), so heads are never reused.  Org count is therefore
    # capped at len(ORG_HEADS).
    # ... and unique (mid, tail) pairs: "Juniper Maritime Group" vs
    # "Zephyr Maritime Group" share 2/3 words > 0.65 and would merge.
    heads = rng.sample(ORG_HEADS, k=min(n_per_type, len(ORG_HEADS), len(ORG_MIDS) * len(ORG_TAILS)))
    used_mt: set = set()
    for h in heads:
        while True:
            mdl, t = rng.choice(ORG_MIDS), rng.choice(ORG_TAILS)
            if (mdl, t) not in used_mt:
                used_mt.add((mdl, t))
                break
        canonical = f"{h} {mdl} {t}"
        # punctuation variant is hyphenated (not a trailing "."): a trailing
        # dot is indistinguishable from "plain alias + sentence period", which
        # would make gold spans ambiguous under longest-first matching
        variants = [f"{h} {mdl}", f"{h}-{mdl} {t}", _typo(canonical, rng)]
        aliases = _uniq([canonical] + rng.sample(variants, k=rng.randint(1, 3)))
        if _merge_conflict(aliases, [c for c in clusters if c.type == "ORG"]):
            continue
        clusters.append(Cluster(cid, "ORG", canonical, aliases))
        cid += 1

    # GPE: mostly 1-word accented city names; accent-fold alias
    gpes = rng.sample(GPE_NAMES, k=min(n_per_type, len(GPE_NAMES)))
    for g in gpes:
        aliases = [g]
        if ascii_fold(g) != g:
            aliases.append(ascii_fold(g))
        if _merge_conflict(aliases, [c for c in clusters if c.type == "GPE"]):
            continue
        clusters.append(Cluster(cid, "GPE", g, _uniq(aliases)))
        cid += 1

    # LAW: canonical "{W1} {W2} Statute" with W1/W2 drawn WITHOUT replacement
    # from a pool of long, mutually dissimilar words (each word used in at
    # most one law), so two distinct laws share only the word "Statute"
    # (word-intersection 1/3) and have an edit-heavy differing prefix
    # (Levenshtein ratio well under 0.79).  Count capped at pool_size // 2.
    law_word_pool = rng.sample(
        MIDDLE_NAMES + LAST_NAMES + ORG_HEADS, len(MIDDLE_NAMES + LAST_NAMES + ORG_HEADS)
    )
    n_laws = min(n_per_type, len(law_word_pool) // 2)
    for k in range(n_laws):
        w1, w2 = law_word_pool[2 * k], law_word_pool[2 * k + 1]
        canonical = f"{w1} {w2} Statute"
        variants = [f"{w1}-{w2} Statute", ascii_fold(canonical)]
        aliases = _uniq([canonical] + rng.sample(variants, k=rng.randint(1, 2)))
        if _merge_conflict(aliases, [c for c in clusters if c.type == "LAW"]):
            continue
        clusters.append(Cluster(cid, "LAW", canonical, aliases))
        cid += 1

    return clusters


def _uniq(items: list[str]) -> list[str]:
    seen: dict[str, None] = {}
    for it in items:
        seen.setdefault(it, None)
    return list(seen)


def catalog_gazetteer(clusters: list[Cluster]) -> list[tuple[str, str]]:
    """(surface, type) pairs for the tagger gazetteer."""
    return [(s, c.type) for c in clusters for s in c.all_surfaces()]


# ---------------------------------------------------------------------------
# page generation


def _pick_cluster(clusters_of_type: list[Cluster], rng: random.Random) -> Cluster:
    """Zipf-ish head skew: 30% of picks land on the first 3 clusters —
    the high-degree-entity (countries/celebrities) scenario the north_star
    calls out."""
    if len(clusters_of_type) > 3 and rng.random() < 0.30:
        return rng.choice(clusters_of_type[:3])
    return rng.choice(clusters_of_type)


_MONTHS_BY_LANG = {
    "es": ["enero", "febrero", "marzo", "abril", "mayo", "junio", "julio",
           "agosto", "septiembre", "octubre", "noviembre", "diciembre"],
    "fr": ["janvier", "février", "mars", "avril", "mai", "juin", "juillet",
           "août", "septembre", "octobre", "novembre", "décembre"],
    "de": ["Januar", "Februar", "März", "April", "Mai", "Juni", "Juli",
           "August", "September", "Oktober", "November", "Dezember"],
    "pt": ["janeiro", "fevereiro", "março", "abril", "maio", "junho", "julho",
           "agosto", "setembro", "outubro", "novembro", "dezembro"],
}


def _fmt_date(d: _dt.date, lang: str, rng: random.Random) -> str:
    if lang in ("es", "pt"):
        months = _MONTHS_BY_LANG[lang]
        return f"{d.day} de {months[d.month - 1]} de {d.year}"
    if lang == "fr":
        return f"{d.day} {_MONTHS_BY_LANG['fr'][d.month - 1]} {d.year}"
    if lang == "de":
        return f"{d.day}. {_MONTHS_BY_LANG['de'][d.month - 1]} {d.year}"
    style = rng.randrange(3)
    months = [
        "January", "February", "March", "April", "May", "June", "July",
        "August", "September", "October", "November", "December",
    ]
    if style == 0:
        return f"{months[d.month - 1]} {d.day}, {d.year}"
    if style == 1:
        return f"{d.day} {months[d.month - 1]} {d.year}"
    return d.isoformat()


@dataclass
class GoldPage:
    url: str
    warc_ts: _dt.datetime
    html: bytes
    text: str
    lang: str
    segments: list[str]
    mentions: list[dict]   # url seg_id text type start end page_start page_end
    triples: list[dict]    # url seg_id subj subj_type pred obj obj_type (surface level)


def _page_url(page_idx: int) -> str:
    return f"https://site{page_idx % 50}.example.test/page/{page_idx}"


# ---------------------------------------------------------------------------
# Long-tail entity clusters (the >10^6-distinct-surface scale knob).
#
# The head catalog is capped by the name pools (~200 clusters), so the
# distinct (type, surface) universe of a default corpus stays small no
# matter how many pages are generated.  ``tail_every`` plants ONE extra
# singleton-ish ORG cluster per ``tail_every`` pages: a 3-word canonical
# plus its 2-word prefix alias (merged by the M21 subset rule — they share
# two word-block keys).  Words are hash-derived base-26 strings with a
# ``Zq`` marker prefix so the family is recognizable by ONE regex
# (TAIL_PATTERN, the tagger's open-vocabulary stand-in for a real model's
# unseen-surface recall) and merge-safe by construction: two clusters
# share a word only on a >=48-bit hash collision, any two full surfaces
# are Levenshtein-dissimilar (random letters), and no word is a single
# initial (so M22 can never fire).  With tails the distinct-surface
# universe grows as 2 * n_pages / tail_every — past the pipeline's
# AUTO_DISTRIBUTED_THRESHOLD at ~500k pages with tail_every=1.

TAIL_PATTERN = r"(?<!\w)Zq[a-z]{8}(?: Zq[a-z]{8}){1,2}(?!\w)"
TAIL_TYPE = "ORG"


def tail_surfaces(k: int) -> tuple[str, str]:
    """Deterministic (full, alias) surface pair for tail cluster ``k``."""
    h = hashlib.blake2b(f"tail:{k}".encode(), digest_size=24).digest()
    letters = "".join(chr(ord("a") + (b % 26)) for b in h)
    words = ["Zq" + letters[i * 8 : (i + 1) * 8] for i in range(3)]
    return " ".join(words), " ".join(words[:2])


def _tail_block(page_idx: int, tail_every: int) -> tuple[str, list, list] | None:
    """The extra segment planting tail cluster ``page_idx // tail_every``
    (both alias forms, so linking observes a mergeable pair)."""
    if not tail_every or page_idx % tail_every:
        return None
    full, alias = tail_surfaces(page_idx // tail_every)
    lead = "Briefing filed by "
    mid = " under review. Analysts at "
    tail = " responded."
    text = f"{lead}{full}{mid}{alias}{tail}"
    mentions = [
        {"text": full, "type": TAIL_TYPE,
         "start": len(lead), "end": len(lead) + len(full)},
        {"text": alias, "type": TAIL_TYPE,
         "start": len(lead) + len(full) + len(mid),
         "end": len(lead) + len(full) + len(mid) + len(alias)},
    ]
    return text, mentions, []


def generate_page(
    page_idx: int, clusters: list[Cluster], seed: int = 42, n_pages: int | None = None,
    tail_every: int = 0,
) -> GoldPage:
    """Deterministic page: html + canonical text + gold mentions/triples.

    When ``n_pages`` is known, the page carries three deterministic
    OUTLINKS to other corpus pages — planted as EMPTY ``<a href>`` anchors
    inside the boilerplate nav, so the canonical extracted text stays
    byte-identical (empty anchors whitespace-collapse away) while the
    corpus gains a real web link graph for the link-extraction ops."""
    rng = random.Random(f"page:{seed}:{page_idx}")
    # web-major language mix: ~60% en, 10% each es/fr/de/pt (deterministic
    # by page index; drives multilingual date parsing + relation phrases)
    lang = {7: "es", 3: "fr", 5: "de", 9: "pt"}.get(page_idx % 10, "en")
    by_type: dict[str, list[Cluster]] = {}
    for c in clusters:
        by_type.setdefault(c.type, []).append(c)

    phr = PRED_PHRASES[lang]
    paragraphs: list[list[tuple[str, list, list]]] = []  # sentences per para
    n_paras = rng.randint(1, 3)
    for _ in range(n_paras):
        sentences = []
        for _ in range(rng.randint(2, 4)):
            sentences.append(_gen_sentence(rng, by_type, phr, lang))
        paragraphs.append(sentences)

    # assemble segments = [title, nav, paragraphs..., footer]; the canonical
    # page text is the single-space join (matches htmlx.html_to_text)
    title = f"Chronicle {page_idx}"
    blocks: list[str] = [title, BOILER_NAV]
    seg_records: list[tuple[str, list, list]] = [(title, [], []), (BOILER_NAV, [], [])]
    for sentences in paragraphs:
        seg_text, seg_mentions, seg_triples = _join_sentences(sentences)
        blocks.append(seg_text)
        seg_records.append((seg_text, seg_mentions, seg_triples))
    tail_rec = _tail_block(page_idx, tail_every)
    if tail_rec is not None:  # long-tail cluster segment (scale corpora)
        blocks.append(tail_rec[0])
        seg_records.append(tail_rec)
    blocks.append(BOILER_FOOTER)
    seg_records.append((BOILER_FOOTER, [], []))

    url = _page_url(page_idx)
    page_text = " ".join(blocks)

    mentions: list[dict] = []
    triples: list[dict] = []
    offset = 0
    for seg_id, (seg_text, seg_mentions, seg_triples) in enumerate(seg_records):
        for m in seg_mentions:
            mentions.append(
                {
                    "url": url, "seg_id": seg_id, "text": m["text"], "type": m["type"],
                    "start": m["start"], "end": m["end"],
                    "page_start": offset + m["start"], "page_end": offset + m["end"],
                }
            )
        for t in seg_triples:
            triples.append({"url": url, "seg_id": seg_id, **t})
        offset += len(seg_text) + 1

    outlinks: list[str] = []
    if n_pages and n_pages > 1:
        for k in (1, 2, 3):
            j = (page_idx * 7 + k * 13) % n_pages
            if j != page_idx:
                outlinks.append(_page_url(j))
    html = _render_html(title, [b for b in blocks[2:-1]], rng, outlinks).encode("utf-8")
    ts = PAGES_EPOCH + _dt.timedelta(seconds=page_idx)
    return GoldPage(url, ts, html, page_text, lang, [r[0] for r in seg_records], mentions, triples)


def _gen_sentence(rng, by_type, phr, lang) -> tuple[str, list, list]:
    """One sentence: (text, local mentions, local triples)."""
    roll = rng.random()
    if roll < 0.18:  # filler, no entities
        n = rng.randint(6, 12)
        words = [rng.choice(FILLER_WORDS) for _ in range(n)]
        return " ".join(words).capitalize() + ".", [], []

    kind = rng.choice(["works_for", "born_on", "located_in", "visited", "cites"])
    if kind == "works_for":
        s, o = _pick_cluster(by_type["PERSON"], rng), _pick_cluster(by_type["ORG"], rng)
        subj, obj = rng.choice(s.aliases), rng.choice(o.aliases)
        parts = [(subj, "PERSON"), (f" {phr['works_for']} ", None), (obj, "ORG"), (".", None)]
        trip = {"subj": subj, "subj_type": "PERSON", "pred": "works_for", "obj": obj,
                "obj_type": "ORG", "subj_cluster": s.cluster_id, "obj_cluster": o.cluster_id}
    elif kind == "born_on":
        s = _pick_cluster(by_type["PERSON"], rng)
        d = _dt.date(1950 + rng.randrange(60), 1 + rng.randrange(12), 1 + rng.randrange(28))
        subj, obj = rng.choice(s.aliases), _fmt_date(d, lang, rng)
        parts = [(subj, "PERSON"), (f" {phr['born_on']} ", None), (obj, "DATE"), (".", None)]
        trip = {"subj": subj, "subj_type": "PERSON", "pred": "born_on", "obj": obj,
                "obj_type": "DATE", "subj_cluster": s.cluster_id, "obj_cluster": -1,
                "obj_date": d.isoformat()}
    elif kind == "located_in":
        s, o = _pick_cluster(by_type["ORG"], rng), _pick_cluster(by_type["GPE"], rng)
        subj, obj = rng.choice(s.aliases), rng.choice(o.aliases)
        parts = [(subj, "ORG"), (f" {phr['located_in']} ", None), (obj, "GPE"), (".", None)]
        trip = {"subj": subj, "subj_type": "ORG", "pred": "located_in", "obj": obj,
                "obj_type": "GPE", "subj_cluster": s.cluster_id, "obj_cluster": o.cluster_id}
    elif kind == "visited":
        s, o = _pick_cluster(by_type["PERSON"], rng), _pick_cluster(by_type["GPE"], rng)
        subj, obj = rng.choice(s.aliases), rng.choice(o.aliases)
        parts = [(subj, "PERSON"), (f" {phr['visited']} ", None), (obj, "GPE"), (".", None)]
        trip = {"subj": subj, "subj_type": "PERSON", "pred": "visited", "obj": obj,
                "obj_type": "GPE", "subj_cluster": s.cluster_id, "obj_cluster": o.cluster_id}
    else:  # cites
        laws = by_type["LAW"]
        s, o = _pick_cluster(laws, rng), _pick_cluster(laws, rng)
        while o.cluster_id == s.cluster_id and len(laws) > 1:
            o = _pick_cluster(laws, rng)
        subj, obj = rng.choice(s.aliases), rng.choice(o.aliases)
        parts = [(subj, "LAW"), (f" {phr['cites']} ", None), (obj, "LAW"), (".", None)]
        trip = {"subj": subj, "subj_type": "LAW", "pred": "cites", "obj": obj,
                "obj_type": "LAW", "subj_cluster": s.cluster_id, "obj_cluster": o.cluster_id}

    text = ""
    mentions = []
    for piece, typ in parts:
        if typ is not None:
            mentions.append({"text": piece, "type": typ, "start": len(text), "end": len(text) + len(piece)})
        text += piece
    return text, mentions, [trip]


def _join_sentences(sentences: list[tuple[str, list, list]]) -> tuple[str, list, list]:
    text = ""
    mentions: list[dict] = []
    triples: list[dict] = []
    for i, (sent, sent_mentions, sent_triples) in enumerate(sentences):
        if i:
            text += " "
        base = len(text)
        for m in sent_mentions:
            mentions.append({**m, "start": base + m["start"], "end": base + m["end"]})
        triples.extend(sent_triples)
        text += sent
    return text, mentions, triples


def validate_catalog(clusters: list[Cluster]) -> list[tuple[str, str]]:
    """Assert no two DISTINCT clusters of the same type contain surfaces the
    merge rules (D2 thresholds / M21 subset / M22 abbreviation) would join.
    Returns offending pairs (empty = valid).  O(n^2) — small catalogs only
    (the construction guards above make large catalogs safe by design)."""
    from ..functions.textnorm import (
        abbreviation_expands_to,
        surfaces_similar,
        words_subset_merge_key,
    )

    offending: list[tuple[str, str]] = []
    by_type: dict[str, list[Cluster]] = {}
    for c in clusters:
        by_type.setdefault(c.type, []).append(c)
    for cs in by_type.values():
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                for a in cs[i].aliases:
                    for b in cs[j].aliases:
                        if (
                            surfaces_similar(a, b)
                            or words_subset_merge_key(a, b)
                            or words_subset_merge_key(b, a)
                            or abbreviation_expands_to(a, b)
                            or abbreviation_expands_to(b, a)
                        ):
                            offending.append((a, b))
    return offending


# ---------------------------------------------------------------------------
# Parquet corpus writer (Ray-parallel; each task regenerates the catalog
# deterministically from the seed, so nothing is shipped per batch)

import functools


@functools.lru_cache(maxsize=8)
def cached_catalog(seed: int, n_per_type: int) -> list[Cluster]:
    return make_catalog(seed, n_per_type)


def gold_canonical_triples(clusters: list[Cluster], surface_triples) -> list[dict]:
    """Rewrite surface-level gold triples to canonical entity names (DATE
    objects canonicalize to their ISO date string)."""
    by_id = {c.cluster_id: c for c in clusters}
    out = []
    for t in surface_triples:
        subj = by_id[t["subj_cluster"]].canonical
        obj = t["obj_date"] if t.get("obj_date") else by_id[t["obj_cluster"]].canonical
        out.append(
            {
                "subj": subj, "subj_type": t["subj_type"], "pred": t["pred"],
                "obj": obj, "obj_type": t["obj_type"],
            }
        )
    return out


def pages_batch(
    page_indices, seed: int, n_per_type: int, n_pages: int | None = None,
    tail_every: int = 0,
):
    """Generate a batch of pages + gold rows for the given page indices.
    Pure function of (seed, index) — safe at any parallelism.  Pass
    ``n_pages`` to plant the deterministic outlink graph (see
    :func:`generate_page`); ``tail_every`` plants the long-tail entity
    clusters (see :func:`tail_surfaces`)."""
    import pyarrow as pa

    clusters = cached_catalog(seed, n_per_type)
    pages = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    mentions: list[dict] = []
    triples: list[dict] = []
    for idx in page_indices:
        page = generate_page(
            int(idx), clusters, seed, n_pages=n_pages, tail_every=tail_every
        )
        pages["url"].append(page.url)
        pages["warc_ts"].append(page.warc_ts)
        pages["html"].append(page.html)
        pages["text"].append(page.text)
        pages["lang"].append(page.lang)
        mentions.extend(page.mentions)
        triples.extend(page.triples)
    pages_table = pa.table(
        {
            "url": pa.array(pages["url"], pa.string()),
            "warc_ts": pa.array(pages["warc_ts"], pa.timestamp("us")),
            "html": pa.array(pages["html"], pa.binary()),
            "text": pa.array(pages["text"], pa.large_string()),
            "lang": pa.array(pages["lang"], pa.string()),
        }
    )
    return pages_table, mentions, triples


def write_corpus(
    out_dir: str,
    n_pages: int,
    seed: int = 42,
    n_per_type: int = 25,
    write_gold: bool = True,
    parallelism: int = 0,
    tail_every: int = 0,
) -> None:
    """Materialize pages.parquet (+ gold_* when asked) under ``out_dir``
    using a Ray pipeline: ``range(n_pages) -> map_batches(generate)``.
    Deterministic at any parallelism level.

    ``tail_every`` > 0 plants one long-tail ORG cluster per ``tail_every``
    pages (see :func:`tail_surfaces`) — the distinct-surface scale knob.
    Tail gold coverage is MENTIONS-ONLY: gold_clusters stays the head
    catalog (tail clusters are trivially derivable as (full, alias) pairs
    of :func:`tail_surfaces`, and the scale suites gate on
    broadcast-vs-distributed mode equality rather than gold)."""
    import pyarrow as pa
    import ray.data

    parallelism = parallelism or max(4, n_pages // 2000)

    def make(batch: dict) -> "pa.Table":
        table, mentions, triples = pages_batch(
            batch["id"].tolist(), seed, n_per_type, n_pages, tail_every
        )
        return table

    ds = ray.data.range(n_pages, override_num_blocks=parallelism)
    ds.map_batches(make, batch_format="numpy").write_parquet(f"{out_dir}/pages")

    if write_gold:

        def make_mentions(batch: dict) -> "pa.Table":
            _, mentions, _ = pages_batch(
                batch["id"].tolist(), seed, n_per_type, n_pages, tail_every
            )
            return pa.Table.from_pylist(
                mentions,
                schema=pa.schema(
                    [
                        ("url", pa.string()), ("seg_id", pa.int32()),
                        ("text", pa.string()), ("type", pa.string()),
                        ("start", pa.int32()), ("end", pa.int32()),
                        ("page_start", pa.int32()), ("page_end", pa.int32()),
                    ]
                ),
            )

        def make_triples(batch: dict) -> "pa.Table":
            clusters = cached_catalog(seed, n_per_type)
            _, _, triples = pages_batch(batch["id"].tolist(), seed, n_per_type, n_pages)
            canon = gold_canonical_triples(clusters, triples)
            rows = [
                {
                    "url": t["url"], "seg_id": t["seg_id"], "subj": t["subj"],
                    "subj_type": t["subj_type"], "pred": t["pred"], "obj": t["obj"],
                    "obj_type": t["obj_type"], "subj_canonical": c["subj"],
                    "obj_canonical": c["obj"],
                }
                for t, c in zip(triples, canon)
            ]
            return pa.Table.from_pylist(
                rows,
                schema=pa.schema(
                    [
                        ("url", pa.string()), ("seg_id", pa.int32()),
                        ("subj", pa.string()), ("subj_type", pa.string()),
                        ("pred", pa.string()), ("obj", pa.string()),
                        ("obj_type", pa.string()), ("subj_canonical", pa.string()),
                        ("obj_canonical", pa.string()),
                    ]
                ),
            )

        base = ray.data.range(n_pages, override_num_blocks=parallelism)
        base.map_batches(make_mentions, batch_format="numpy").write_parquet(
            f"{out_dir}/gold_mentions"
        )
        base = ray.data.range(n_pages, override_num_blocks=parallelism)
        base.map_batches(make_triples, batch_format="numpy").write_parquet(
            f"{out_dir}/gold_triples"
        )

        # Gold clusters are OBSERVATION-AWARE: a planted alias family is
        # star-connected through its full canonical name, so a corpus
        # sample that never emits the hub alias leaves the observed
        # aliases DISCONNECTED under the engine's pairwise predicates —
        # and transitive-closure linking (the reference semantics,
        # src/methods union of D2/M21/M22 merges) must NOT merge them.
        # Splitting here makes gold equal the closure a correct engine
        # computes at ANY scale/seed (a no-op whenever the hub is
        # observed, so sf0.01-scale gold is unchanged).
        import pyarrow.dataset as pads

        gm_obs = pads.dataset(f"{out_dir}/gold_mentions").to_table(
            columns=["type", "text"]
        )
        observed = set(
            zip(gm_obs.column("type").to_pylist(), gm_obs.column("text").to_pylist())
        )
        clusters = split_observed_components(cached_catalog(seed, n_per_type), observed)
        clusters_table = pa.table(
            {
                "cluster_id": pa.array([c.cluster_id for c in clusters], pa.int64()),
                "type": pa.array([c.type for c in clusters], pa.string()),
                "canonical": pa.array([c.canonical for c in clusters], pa.string()),
                "aliases": pa.array([c.aliases for c in clusters], pa.list_(pa.string())),
            }
        )
        import pyarrow.parquet as pq
        import os

        os.makedirs(f"{out_dir}/gold_clusters", exist_ok=True)
        pq.write_table(clusters_table, f"{out_dir}/gold_clusters/part-0.parquet")
        write_gold_pagerank(out_dir)
        write_gold_kcore(out_dir)
        write_gold_linkrank(out_dir, n_pages)
        write_gold_hits(out_dir)
        write_gold_hyperball(out_dir)
        write_gold_truss(out_dir)
        write_gold_communities(out_dir)

    # synthesis-version marker: cached corpus dirs from an older synthesizer
    # (e.g. pre-link-graph) are detected and regenerated by consumers
    with open(f"{out_dir}/{CORPUS_VERSION_MARKER}", "w") as f:
        f.write("1")


def pagerank_reference(uv: list, iterations: int = 20, damping: float = 0.85):
    """Single-process numpy PageRank over (u, v) edge pairs — the engine's
    exact formulation (ops/graph_stats.pagerank: damped power iteration,
    dangling mass redistributed uniformly).  Returns (sorted nodes, ranks)."""
    import numpy as np

    nodes = sorted({u for u, _ in uv} | {v for _, v in uv})
    idx = {n: i for i, n in enumerate(nodes)}
    n_total = max(len(nodes), 1)
    u_idx = np.array([idx[u] for u, _ in uv], dtype=np.int64)
    v_idx = np.array([idx[v] for _, v in uv], dtype=np.int64)
    deg = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(deg, u_idx, 1)
    rank = np.full(len(nodes), 1.0 / n_total, dtype=np.float64)
    for _ in range(iterations):
        contrib = rank / np.maximum(deg, 1)
        dangling = float(rank[deg == 0].sum())
        sums = np.zeros(len(nodes), dtype=np.float64)
        np.add.at(sums, v_idx, contrib[u_idx])
        rank = (1.0 - damping) / n_total + damping * dangling / n_total + damping * sums
    return nodes, rank


def gold_edge_rows(out_dir: str) -> set[tuple[int, str, int]]:
    """Distinct (src_id, pred, dst_id) edge rows of the gold graph — the
    derivation the kg_* oracle SQL and the engine's edges table both
    reduce to: observed mention surfaces -> alias clusters -> per-cluster
    representative (the engine's most-complete-name rule) -> canonical
    triples -> distinct edge rows."""
    import pyarrow.dataset as pads

    from ..stages.linking import node_id_of, representative

    gm = pads.dataset(f"{out_dir}/gold_mentions").to_table(columns=["type", "text"])
    gt = pads.dataset(f"{out_dir}/gold_triples").to_table(
        columns=["subj", "subj_type", "pred", "obj", "obj_type", "obj_canonical"]
    )
    gc = pads.dataset(f"{out_dir}/gold_clusters").to_table()

    alias_cluster: dict[tuple[str, str], int] = {}
    for cid, typ, aliases in zip(
        gc.column("cluster_id").to_pylist(),
        gc.column("type").to_pylist(),
        gc.column("aliases").to_pylist(),
    ):
        for a in aliases:
            alias_cluster[(typ, a)] = cid

    observed: dict[int, set[str]] = {}
    for typ, text in zip(gm.column("type").to_pylist(), gm.column("text").to_pylist()):
        cid = alias_cluster.get((typ, text))
        if cid is not None:
            observed.setdefault(cid, set()).add(text)
    rep = {cid: representative(sorted(texts)) for cid, texts in observed.items()}

    edge_rows: set[tuple[int, str, int]] = set()
    for subj, styp, pred, obj, otyp, ocanon in zip(
        gt.column("subj").to_pylist(),
        gt.column("subj_type").to_pylist(),
        gt.column("pred").to_pylist(),
        gt.column("obj").to_pylist(),
        gt.column("obj_type").to_pylist(),
        gt.column("obj_canonical").to_pylist(),
    ):
        src = node_id_of(styp, rep[alias_cluster[(styp, subj)]])
        oc = ocanon if otyp == "DATE" else rep[alias_cluster[(otyp, obj)]]
        edge_rows.add((src, pred, node_id_of(otyp, oc)))
    return edge_rows


def kcore_reference(pairs: set[tuple[int, int]]) -> dict[int, int]:
    """Single-process k-core decomposition of an undirected simple graph
    (distinct (u, v) pairs, no self-loops) via the classic peeling
    algorithm: repeatedly remove the minimum-degree node; a node's core
    number is the largest degree floor seen when it is removed."""
    import heapq

    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    deg = {n: len(s) for n, s in adj.items()}
    heap = [(d, n) for n, d in deg.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    k = 0
    while heap:
        d, n = heapq.heappop(heap)
        if n in core or d != deg[n]:
            continue  # stale heap entry
        k = max(k, d)
        core[n] = k
        for m in adj[n]:
            if m not in core:
                deg[m] -= 1
                heapq.heappush(heap, (deg[m], m))
    return core


def write_gold_kcore(out_dir: str) -> None:
    """Single-process reference k-core numbers over the gold graph's
    undirected simple projection -> a ``gold_kcore`` table (node, core),
    the driver-visible oracle for the engine's iterated-h-index BSP
    decomposition (ops/graph_stats.coreness) — integer-valued, so the
    hash compare is exact by construction."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    pairs = {
        (min(u, v), max(u, v))
        for u, _p, v in gold_edge_rows(out_dir)
        if u != v
    }
    core = kcore_reference(pairs)
    nodes = sorted(core)
    os.makedirs(f"{out_dir}/gold_kcore", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "core": pa.array([core[n] for n in nodes], pa.int64()),
            }
        ),
        f"{out_dir}/gold_kcore/part-0.parquet",
    )


def write_gold_pagerank(
    out_dir: str, iterations: int = 20, damping: float = 0.85
) -> None:
    """Single-process reference PageRank over the gold graph -> a
    ``gold_pagerank`` table (node, rank_ppm) next to the other gold tables,
    so ``kg_pagerank`` gets a driver-visible SQL oracle.

    The edge derivation mirrors the kg_* oracle SQL exactly: observed
    mention surfaces -> alias clusters -> per-cluster representative
    (the engine's most-complete-name rule) -> canonical triples ->
    distinct (src_id, pred, dst_id) rows — i.e. the engine's edges table,
    which is hash-checked against the same derivation.  Ranks are the
    standard damped power iteration with uniform dangling redistribution
    (the engine's ops/graph_stats.pagerank formulation), scaled to
    integer parts-per-million: cross-engine float noise is ~1e-15 while
    the ppm grid is 1e-6, so the rounded values are hash-stable."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import os

    edge_rows = gold_edge_rows(out_dir)

    # multigraph semantics match the engine: one (u, v) edge per distinct
    # (src, pred, dst) row, so two predicates between a pair count twice
    nodes, rank = pagerank_reference(
        [(u, v) for u, _p, v in edge_rows], iterations=iterations, damping=damping
    )

    os.makedirs(f"{out_dir}/gold_pagerank", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "rank_ppm": pa.array(
                    np.round(rank * 1e6).astype(np.int64), pa.int64()
                ),
            }
        ),
        f"{out_dir}/gold_pagerank/part-0.parquet",
    )


def _render_html(
    title: str,
    para_blocks: list[str],
    rng: random.Random,
    outlinks: list[str] | None = None,
) -> str:
    noise_id = rng.randrange(10**6)
    paras = "\n".join(f'    <p class="c{rng.randrange(9)}">{b}</p>' for b in para_blocks)
    # empty anchors: whitespace-collapsed away by html_to_segments, so the
    # canonical nav segment text is byte-identical with or without them
    links = "".join(f'<a href="{u}"></a> ' for u in (outlinks or []))
    return (
        "<html>\n<head>\n"
        f"  <title>{title}</title>\n"
        "  <style>body { margin: 0; } .hidden { display: none }</style>\n"
        f"  <script>var t = {noise_id}; console.log(t &amp;&amp; 1);</script>\n"
        "</head>\n<body>\n"
        f"  <nav>{links}<a href=\"/\">Home</a> <a href=\"/about\">About</a> <a>Contact</a>\n"
        "       <a>Archive</a> <a>Subscribe</a></nav>\n"
        "  <!-- generated page -->\n  <main>\n"
        f"{paras}\n"
        "  </main>\n"
        f"  <footer>{BOILER_FOOTER}</footer>\n"
        "</body>\n</html>\n"
    )


def write_gold_linkrank(
    out_dir: str, n_pages: int, iterations: int = 20, damping: float = 0.85
) -> None:
    """Single-process reference PageRank over the PLANTED host link graph
    (the deterministic outlink rule in :func:`generate_page`, collapsed to
    distinct host-index pairs, self-loops kept — exactly what the engine's
    ops/web.link_pagerank derives from the html) -> a ``gold_linkrank``
    table (host, rank_ppm)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    pairs: set[tuple[int, int]] = set()
    for i in range(n_pages):
        for k in (1, 2, 3):
            j = (i * 7 + k * 13) % n_pages
            if j != i:
                pairs.add((i % 50, j % 50))
    nodes, rank = pagerank_reference(sorted(pairs), iterations=iterations, damping=damping)
    os.makedirs(f"{out_dir}/gold_linkrank", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "host": pa.array(
                    [f"site{n}.example.test" for n in nodes], pa.string()
                ),
                "rank_ppm": pa.array(np.round(rank * 1e6).astype(np.int64), pa.int64()),
            }
        ),
        f"{out_dir}/gold_linkrank/part-0.parquet",
    )


def hits_reference(uv: list, iterations: int = 20):
    """Single-process numpy HITS (Kleinberg hubs/authorities) over (u, v)
    edge pairs — the engine's exact formulation (ops/graph_stats.hits:
    h starts at 1, authority pull then hub push per round, L2
    normalization after each half-step).  Returns (sorted nodes, hub,
    auth)."""
    import numpy as np

    nodes = sorted({u for u, _ in uv} | {v for _, v in uv})
    idx = {n: i for i, n in enumerate(nodes)}
    u_idx = np.array([idx[u] for u, _ in uv], dtype=np.int64)
    v_idx = np.array([idx[v] for _, v in uv], dtype=np.int64)
    h = np.ones(len(nodes), dtype=np.float64)
    a = np.zeros(len(nodes), dtype=np.float64)
    for _ in range(iterations):
        a = np.zeros(len(nodes), dtype=np.float64)
        np.add.at(a, v_idx, h[u_idx])
        na = float(np.sqrt((a * a).sum()))
        if na > 0:
            a = a / na
        h = np.zeros(len(nodes), dtype=np.float64)
        np.add.at(h, u_idx, a[v_idx])
        nh = float(np.sqrt((h * h).sum()))
        if nh > 0:
            h = h / nh
    return nodes, h, a


def write_gold_hits(out_dir: str, iterations: int = 20) -> None:
    """Single-process reference HITS over the gold graph -> a ``gold_hits``
    table (node, hub_ppm, auth_ppm), same ppm-grid trick as
    :func:`write_gold_pagerank` (cross-engine float noise ~1e-15 vs the
    1e-6 grid).  Multigraph semantics match the engine: one (u, v) edge
    per distinct (src, pred, dst) row."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    edge_rows = gold_edge_rows(out_dir)
    nodes, hub, auth = hits_reference(
        [(u, v) for u, _p, v in edge_rows], iterations=iterations
    )
    os.makedirs(f"{out_dir}/gold_hits", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "hub_ppm": pa.array(
                    np.round(hub * 1e6).astype(np.int64), pa.int64()
                ),
                "auth_ppm": pa.array(
                    np.round(auth * 1e6).astype(np.int64), pa.int64()
                ),
            }
        ),
        f"{out_dir}/gold_hits/part-0.parquet",
    )


def write_gold_hyperball(out_dir: str, max_t: int = 4, p_bits: int = 8) -> None:
    """Single-process HyperBall mirror over the gold graph -> a
    ``gold_hyperball`` table (node, t, est_micro): EXACT forward ball sets
    per node (t <= max_t), HLL registers over each set with the engine's
    hash (ops/sketch.hll_single_register), estimates via the SHARED closed
    form (ops/sketch.hll_row_estimates).  Registers are a pure function of
    the graph (HLL max-merge == set union), so the engine's distributed
    counters are bit-identical and the micro-grid ints hash-match."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..ops.sketch import hll_row_estimates, hll_single_register

    uv = {(u, v) for u, _p, v in gold_edge_rows(out_dir)}
    nodes = sorted({u for u, _ in uv} | {v for _, v in uv})
    succ: dict[int, set[int]] = {}
    for u, v in uv:
        succ.setdefault(u, set()).add(v)

    m = 1 << p_bits
    seed = {
        n: hll_single_register(str(int(n)).encode("utf-8"), p_bits) for n in nodes
    }

    def regs_of(balls: dict[int, set[int]]) -> np.ndarray:
        regs = np.zeros((len(nodes), m), np.uint8)
        for i, n in enumerate(nodes):
            for x in balls[n]:
                b, rho = seed[x]
                if rho > regs[i, b]:
                    regs[i, b] = rho
        return regs

    balls = {n: {n} for n in nodes}
    out_node: list[int] = []
    out_t: list[int] = []
    out_est: list[int] = []
    for t in range(max_t + 1):
        if t > 0:
            new_balls = {}
            for n in nodes:
                s = set(balls[n])
                for w in succ.get(n, ()):
                    s |= balls[w]
                new_balls[n] = s
            balls = new_balls
        est = np.round(
            hll_row_estimates(regs_of(balls), p_bits) * 1e6
        ).astype(np.int64)
        out_node.extend(nodes)
        out_t.extend([t] * len(nodes))
        out_est.extend(est.tolist())

    os.makedirs(f"{out_dir}/gold_hyperball", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(out_node, pa.int64()),
                "t": pa.array(out_t, pa.int64()),
                "est_micro": pa.array(out_est, pa.int64()),
            }
        ),
        f"{out_dir}/gold_hyperball/part-0.parquet",
    )


def truss_reference(pairs: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Single-process k-truss decomposition of an undirected simple graph
    (distinct (u, v) pairs, u < v, no self-loops) via support peeling:
    repeatedly remove the minimum-support edge; its truss number is the
    running maximum of (support at removal + 2)."""
    import heapq

    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    sup = {
        (u, v): len(adj[u] & adj[v]) for u, v in pairs
    }
    heap = [(s, e) for e, s in sup.items()]
    heapq.heapify(heap)
    truss: dict[tuple[int, int], int] = {}
    k = 2
    while heap:
        s, e = heapq.heappop(heap)
        if e in truss or s != sup[e]:
            continue  # stale heap entry
        k = max(k, s + 2)
        truss[e] = k
        u, v = e
        for w in adj[u] & adj[v]:
            for f in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                if f not in truss:
                    sup[f] -= 1
                    heapq.heappush(heap, (sup[f], f))
        adj[u].discard(v)
        adj[v].discard(u)
    return truss


def write_gold_truss(out_dir: str) -> None:
    """Single-process truss decomposition over the gold graph -> a
    ``gold_truss`` table (u, v, truss) keyed by int node ids (u < v),
    matching the engine's ops/graph_stats.truss_decomposition output."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    uv = {
        (min(u, v), max(u, v))
        for u, _p, v in gold_edge_rows(out_dir)
        if u != v
    }
    truss = truss_reference(uv)
    rows = sorted(truss.items())
    os.makedirs(f"{out_dir}/gold_truss", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "u": pa.array([e[0] for e, _ in rows], pa.int64()),
                "v": pa.array([e[1] for e, _ in rows], pa.int64()),
                "truss": pa.array([t for _, t in rows], pa.int64()),
            }
        ),
        f"{out_dir}/gold_truss/part-0.parquet",
    )


def lpa_reference(pairs, rounds: int = 4):
    """Single-process synchronous label propagation over distinct
    undirected (u, v) pairs — the engine's exact formulation
    (ops/graph_stats.label_propagation): labels start at own id; each
    round every node adopts the most frequent label among its DISTINCT
    neighbors, ties toward the smallest label id; exactly ``rounds``
    synchronous rounds.  Returns {node: community}."""
    from collections import Counter

    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    labels = {n: n for n in adj}
    for _ in range(rounds):
        new = {}
        for n, nbrs in adj.items():
            c = Counter(labels[m] for m in nbrs)
            best = max(c.items(), key=lambda kv: (kv[1], -kv[0]))
            new[n] = best[0]
        labels = new
    return labels


def write_gold_communities(out_dir: str, rounds: int = 4) -> None:
    """Single-process reference label-propagation communities over the
    gold graph's undirected simple projection -> a ``gold_communities``
    table (node, community) — integer node ids (the engine's
    content-derived ids), so the oracle hash compare is exact by
    construction."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    pairs = {
        (min(u, v), max(u, v))
        for u, _p, v in gold_edge_rows(out_dir)
        if u != v
    }
    labels = lpa_reference(sorted(pairs), rounds=rounds)
    nodes = sorted(labels)
    os.makedirs(f"{out_dir}/gold_communities", exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "community": pa.array([labels[n] for n in nodes], pa.int64()),
            }
        ),
        f"{out_dir}/gold_communities/part-0.parquet",
    )
