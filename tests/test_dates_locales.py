"""Locale coverage of the deterministic date grammar (dateparser parity).

The reference's M9 runs ``dateparser.search.search_dates`` with its full
locale zoo (src/methods/DateParser.py:44-50); the deterministic grammar
stands in for it and must at least cover every locale the corpus's
``lang`` column can carry (en, es, fr, de, pt) — a non-English date that
fails ``is_parseable_date`` silently drops a DATE mention (round-3
verdict gap 4).
"""

import datetime as dt
import re

import pytest

from pdf_entity_extraction_ray.functions.dates import (
    is_parseable_date,
    parse_date,
    search_dates,
)

GOLD = dt.date(2004, 5, 17)

CASES = [
    # en (existing)
    ("May 17, 2004", GOLD),
    ("17 May 2004", GOLD),
    ("2004-05-17", GOLD),
    # es (existing)
    ("17 de mayo de 2004", GOLD),
    # fr
    ("17 mai 2004", GOLD),
    ("17 décembre 2004", dt.date(2004, 12, 17)),
    ("17 aout 2004", dt.date(2004, 8, 17)),     # accentless variant
    ("17 août 2004", dt.date(2004, 8, 17)),
    ("17 janvier 2004", dt.date(2004, 1, 17)),
    # de (note the ordinal day dot)
    ("17. Mai 2004", GOLD),
    ("17. März 2004", dt.date(2004, 3, 17)),
    ("17. Marz 2004", dt.date(2004, 3, 17)),    # accentless variant
    ("17. Dezember 2004", dt.date(2004, 12, 17)),
    ("17 Oktober 2004", dt.date(2004, 10, 17)),
    # pt
    ("17 de maio de 2004", GOLD),
    ("17 de março de 2004", dt.date(2004, 3, 17)),
    ("17 de marco de 2004", dt.date(2004, 3, 17)),
    ("17 de fevereiro de 2004", dt.date(2004, 2, 17)),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_locale_dates_parse(text, expected):
    assert is_parseable_date(text)
    assert parse_date(text) == expected


def test_search_dates_spans_cover_full_locale_expression():
    """The matched text must cover the WHOLE planted expression (gold
    mention offsets depend on exact span boundaries)."""
    for text, expected in CASES:
        got = search_dates(f"born {text} end")
        assert got and got[0][0] == text and got[0][1] == expected, text


def test_year_run_prefilter_drops_no_match():
    """``date_matches`` skips texts without four consecutive digits; it must
    yield exactly DATE_RE's matches everywhere, including non-ASCII digits
    (``\\d`` is Unicode in both patterns) and on generated corpus text."""
    from pdf_entity_extraction_ray.functions.dates import DATE_RE, date_matches
    from pdf_entity_extraction_ray.sources.corpus import cached_catalog, generate_page

    texts = [f"born {t} end" for t, _ in CASES] + [
        "٢٠٠٤-٠٥-١٧ and 17/05/२००४", "May 17, 204", "17 mai 20O4", "no digits", "",
    ]
    clusters = cached_catalog(42, 25)
    for idx in range(200):
        texts.extend(generate_page(idx, clusters, 42, tail_every=2).segments)
    n_skipped = 0
    for text in texts:
        want = [(m.span(), m.group(0)) for m in DATE_RE.finditer(text)]
        assert [(m.span(), m.group(0)) for m in date_matches(text)] == want, text
        n_skipped += re.search(r"\d{4}", text) is None
    assert n_skipped and any(DATE_RE.search(t) for t in texts)


def test_non_dates_still_rejected():
    for text in ["mai", "17 de 2004", "Mai Mai Mai", "17. 2004", "de mayo"]:
        assert not is_parseable_date(text), text


def test_corpus_plants_all_locales_and_dates_parse():
    """Every lang the corpus emits has parseable planted dates: generate
    pages until each locale produced at least one born_on DATE mention,
    and assert each planted DATE text parses (the gold P/R 1.0
    precondition)."""
    from pdf_entity_extraction_ray.sources.corpus import cached_catalog, generate_page

    clusters = cached_catalog(42, 25)
    seen: dict[str, int] = {}
    for idx in range(400):
        page = generate_page(idx, clusters, 42)
        for m in page.mentions:
            if m["type"] == "DATE":
                assert is_parseable_date(m["text"]), (page.lang, m["text"])
                seen[page.lang] = seen.get(page.lang, 0) + 1
    assert set(seen) >= {"en", "es", "fr", "de", "pt"}, seen


class TestRelativeDates:
    """Round-5: the dateparser RELATIVE forms (reference
    check_spark_nlp.py 'next monday'/'yesterday') with an EXPLICIT anchor
    instead of dateparser's wall clock."""

    ANCHOR = __import__("datetime").date(2024, 5, 15)  # a Wednesday

    def test_grammar(self):
        import datetime as dt

        from pdf_entity_extraction_ray.functions.dates import (
            parse_relative_date,
        )

        a = self.ANCHOR
        cases = {
            "today": a, "yesterday": a - dt.timedelta(1),
            "Tomorrow": a + dt.timedelta(1),
            # next = strictly after, last = strictly before (dateparser
            # PREFER_DATES_FROM defaults); anchor IS a Wednesday
            "next wednesday": dt.date(2024, 5, 22),
            "last wednesday": dt.date(2024, 5, 8),
            "next monday": dt.date(2024, 5, 20),
            "last sunday": dt.date(2024, 5, 12),
            "3 days ago": dt.date(2024, 5, 12),
            "1 week ago": dt.date(2024, 5, 8),
            "in 2 weeks": dt.date(2024, 5, 29),
            "in 1 day": dt.date(2024, 5, 16),
            # multilingual day words
            "ayer": a - dt.timedelta(1), "hier": a - dt.timedelta(1),
            "gestern": a - dt.timedelta(1), "ontem": a - dt.timedelta(1),
            "demain": a + dt.timedelta(1), "amanhã": a + dt.timedelta(1),
            "heute": a, "hoje": a,
        }
        for text, want in cases.items():
            assert parse_relative_date(text, a) == want, text
        assert parse_relative_date("no dates here", a) is None

    def test_anchored_entry_points(self):
        import datetime as dt

        from pdf_entity_extraction_ray.functions.dates import (
            parse_date_anchored,
            search_dates_anchored,
        )

        a = self.ANCHOR
        # absolute grammar wins and needs no anchor
        assert parse_date_anchored("2004-11-05", None) == dt.date(2004, 11, 5)
        assert parse_date_anchored("yesterday", None) is None  # legacy path
        assert parse_date_anchored("yesterday", a) == a - dt.timedelta(1)
        got = search_dates_anchored(
            "seen yesterday, due 2004-11-05, back in 2 weeks", a
        )
        assert got == [
            ("yesterday", a - dt.timedelta(1)),
            ("2004-11-05", dt.date(2004, 11, 5)),
            ("in 2 weeks", dt.date(2024, 5, 29)),
        ]

    def test_anchored_entry_points_gate_day_words_by_language(self):
        """German "Hier" is "here" and French "morgen" is no word: on a de
        page only "morgen" resolves, on a fr page only "Hier"."""
        import datetime as dt

        from pdf_entity_extraction_ray.functions.dates import (
            parse_date_anchored,
            search_dates_anchored,
        )

        a, text = self.ANCHOR, "Hier ist das Haus, morgen früh"
        assert search_dates_anchored(text, a, "de") == [("morgen", a + dt.timedelta(1))]
        assert search_dates_anchored(text, a, "fr") == [("Hier", a - dt.timedelta(1))]
        assert search_dates_anchored(text, a) == search_dates_anchored(text, a, "en") == []
        assert parse_date_anchored(text, a, "de") == a + dt.timedelta(1)
        assert parse_date_anchored(text, a, "fr") == a - dt.timedelta(1)
        assert parse_date_anchored(text, a) is None
        assert parse_date_anchored("vu hier, yesterday", a, "de") == a - dt.timedelta(1)

    def test_no_word_boundary_false_positives(self):
        from pdf_entity_extraction_ray.functions.dates import RELATIVE_RE

        # substrings of larger words must not trigger
        for text in ("hierarchy", "smorgasbord", "heutelike", "untoday"):
            assert RELATIVE_RE.search(text) is None, text
        # possessive/plural forms DO match the base word (span = the word)
        m = RELATIVE_RE.search("hier!")
        assert m and m.group(0) == "hier"

    def _resolved(self, pages):
        """``relative_date_mentions`` over (lang, text) pages crawled on
        the anchor day -> {(url, expr, resolved)}."""
        import datetime as dt

        import pyarrow as pa
        import ray.data

        from pdf_entity_extraction_ray.ops.text import relative_date_mentions

        ts = dt.datetime(2024, 5, 15, 12, tzinfo=dt.timezone.utc)
        table = pa.table(
            {
                "url": [f"https://x.test/{lang}/{i}" for i, (lang, _) in enumerate(pages)],
                "text": [text for _, text in pages],
                "warc_ts": pa.array([ts] * len(pages), pa.timestamp("us", tz="UTC")),
                "lang": [lang for lang, _ in pages],
            }
        )
        out = relative_date_mentions(ray.data.from_arrow(table)).take_all()
        return {(r["url"].split("/")[3], r["expr"], r["resolved"]) for r in out}

    def test_day_words_count_only_in_their_page_language(self):
        """French "hier" is yesterday on a fr page, and "here" on de and
        en pages; German "morgen" likewise.  English forms count on every
        page."""
        got = self._resolved([
            ("fr", "vu hier"), ("de", "hier ist es"), ("en", "hier"),
            ("de", "bis morgen"), ("fr", "morgen"),
            ("fr", "seen yesterday"), ("de", "next monday"),
        ])
        assert got == {
            ("fr", "hier", "2024-05-14"),
            ("de", "morgen", "2024-05-16"),
            ("fr", "yesterday", "2024-05-14"),
            ("de", "next monday", "2024-05-20"),
        }

    def test_match_gate_by_language(self):
        from pdf_entity_extraction_ray.functions.dates import (
            RELATIVE_RE,
            relative_match_in_lang,
        )

        def ok(text, lang):
            return relative_match_in_lang(RELATIVE_RE.search(text), lang)

        assert ok("Hier", "fr") and not ok("hier", "de") and not ok("hier", "en")
        assert ok("ayer", "es") and not ok("ayer", "pt") and not ok("ayer", None)
        assert ok("today", "de") and ok("3 days ago", "pt") and ok("tomorrow", None)
