"""Seeded inputs, rule programs and engine-independent oracles.

Each workload turns a seed into a list of documents.  A document carries its
input XML text, the exact output ``transform_file`` must produce for it, and
its node count (elements, texts, comments and processing instructions, as
the engine's parser will see them).  The expected output is computed here in
plain Python from the generator's own data; nothing in this module imports
the engine, so an engine bug cannot hide in its own oracle.

Document sizes follow a fixed low-discrepancy schedule, and the seed only
varies the content.  Runs of different seeds then see the same spread of
sizes, and any prefix of the document list covers the size range evenly,
so a traced run that stops part-way through the list is not biased toward
one size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GOLDEN = 0.6180339887498949


@dataclass
class Doc:
    text: str
    expected: str
    nodes: int


@dataclass
class Workload:
    name: str
    rules: str  # template mode, or goal mode when it defines go/2
    docs: list[Doc]


def schedule(count: int, lo: int, hi: int) -> list[int]:
    """*count* sizes in [lo, hi], spread by the golden-ratio sequence."""
    return [lo + int((hi - lo) * ((i * GOLDEN) % 1.0) + 0.5) for i in range(count)]


def esc_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor"
).split()


# ---------------------------------------------------------------------------
# template-rows: many small deterministic solves per node.

TEMPLATE_RULES = """\
% A dozen templates; most name elements a stock table never contains, so
% every node pays for trying (and rejecting) their heads.
template(element(invoice,_,_),[]).
template(element(header,A,_),[element(h,A,[])]).
template(element(caption,_,[text(T)]),[element(h1,[],[text(T)])]).
template(element(footer,_,_),[comment(footer)]).
template(element(discount,A,C),[element(d,A,C)]).
template(element(row,A,C),
         [element(line,[Ref],[text(Label),
                              element(total,[],[text(Total)]),
                              element(remark,[],[text(Note)])])]) :-
  E = element(row,A,C),
  transform(E / note, element(note,_,[text(Note)])),
  transform(E @ id, Id),
  transform(E @ name, Name),
  transform(E @ price, Price),
  transform(E / qty, Qty),
  Total is string(mult(element(price,[],[text(Price)]), Qty)),
  Label is cat(Name, ' #', Id),
  Ref is cat('ref="', Id, '"').
template(element(row,A,C),
         [element(line,[Ref],[text(Label),
                              element(total,[],[text(Total)])])]) :-
  E = element(row,A,C),
  transform(E @ id, Id),
  transform(E @ name, Name),
  transform(E @ price, Price),
  transform(E / qty, Qty),
  Total is string(mult(element(price,[],[text(Price)]), Qty)),
  Label is cat(Name, ' #', Id),
  Ref is cat('ref="', Id, '"').
template(element(subtotal,_,_),[]).
template(element(tax,_,_),[]).
template(element(meta,_,_),[]).
template(comment(_),[]).
template(element(empty,_,[]),[]).
"""

NOTES = ("fragile & heavy", "keep <dry>", "ships in 2 days", "last units", "x > y")


def template_rows(seed: int, count: int, lo: int, hi: int) -> Workload:
    rnd = random.Random("template-rows/%d" % seed)
    docs = []
    for rows in schedule(count, lo, hi):
        caption = "Stock %s & %s" % (rnd.choice(WORDS), rnd.choice(WORDS))
        src = ['<table name="t%d">\n  <caption>%s</caption>\n' % (rows, esc_text(caption))]
        out = ["<result><h1>%s</h1>" % esc_text(caption)]
        nodes = 3
        for i in range(rows):
            row_id = "r%d" % i
            name = "%s%d" % (rnd.choice(WORDS), rnd.randint(1, 99))
            # Which rows have notes and how many digits the numbers have
            # is fixed, so that every seed asks the engine for the same work.
            price = rnd.randint(100, 999)
            qty = rnd.randint(10, 50)
            note = rnd.choice(NOTES) if (i * GOLDEN) % 1.0 < 0.3 else None
            quote = rnd.choice("\"'")
            attrs = " ".join("%s=%s%s%s" % (k, quote, v, quote) for k, v in (("id", row_id), ("name", name), ("price", price)))
            note_src = "<note>%s</note>" % esc_text(note) if note else ""
            src.append("  <row %s><qty>%d</qty>%s</row>\n" % (attrs, qty, note_src))
            label = "%s #%s" % (name, row_id)
            remark = "<remark>%s</remark>" % esc_text(note) if note else ""
            out.append('<line ref="%s">%s<total>%d</total>%s</line>' % (row_id, esc_text(label), price * qty, remark))
            nodes += 3 + (2 if note else 0)
        src.append("</table>\n")
        out.append("</result>")
        docs.append(Doc("".join(src), "".join(out), nodes))
    return Workload("template-rows", TEMPLATE_RULES, docs)


# ---------------------------------------------------------------------------
# goal-query: one backtracking-heavy go/2 that reads and rebuilds the tree.

GOAL_RULES = """\
go(Doc, [element(report, [Count], Sections)]) :-
  findall(I, transform(Doc ^ item, I), Items),
  length(Items, Len),
  Count is cat('items="', Len, '"'),
  findall(S2, (transform(Doc / section, S), section(S, S2)), Sections0),
  transform(sortbyName element(report, [], Sections0), element(_, _, Sections)).

section(S, element(Name, [Total], Kids)) :-
  transform(S @ name, Name),
  transform(S sort price, Sorted),
  Sorted = element(_, _, Items),
  sumq(Items, Q),
  Total is cat('qty="', Q, '"'),
  strip(Items, Stripped),
  insertAfter(element(x, [], Stripped), element(cheapest, [], []), 1,
              element(_, _, Kids)).

sumq([], 0).
sumq([I|T], S) :- sumq(T, S0), S is plus(I, S0).

strip([], []).
strip([I|T], [I2|T2]) :- removeAttribute(I, cat, I2), strip(T, T2).
"""

SECTION_NAMES = ("tools", "garden", "books", "music", "toys", "food", "sport", "office")
CATEGORIES = ("hand", "power", "misc", "bulk")


def reverse_stable_sort(items: list, key) -> list:
    """The prelude quicksort's order: ascending, equal keys in reverse input order."""
    return sorted(reversed(items), key=key)


def goal_query(seed: int, count: int, lo: int, hi: int) -> Workload:
    """Catalogs of *lo*..*hi* items in 3-6 sections (one per dozen items)."""
    rnd = random.Random("goal-query/%d" % seed)
    docs = []
    for total in schedule(count, lo, hi):
        sections = max(3, min(6, total // 12))
        per = [total // sections + (1 if s < total % sections else 0) for s in range(sections)]
        src = ["<catalog>\n"]
        nodes = 1
        rendered = []  # (element name, xml) per section, in document order
        for size in per:
            name = rnd.choice(SECTION_NAMES)
            src.append('  <section name="%s">\n' % name)
            items = []
            for _ in range(size):
                item = ("K%d" % rnd.randint(100, 999), str(rnd.randint(1, 300)), rnd.choice(CATEGORIES), rnd.randint(1, 50))
                items.append(item)
                src.append('    <item sku="%s" price="%s" cat="%s">%d</item>\n' % item)
            src.append("  </section>\n")
            nodes += 1 + 2 * size
            ordered = reverse_stable_sort(items, key=lambda it: it[1])
            kids = ['<item sku="%s" price="%s">%d</item>' % (sku, price, qty) for sku, price, _, qty in ordered]
            kids.insert(1, "<cheapest/>")
            qty_sum = sum(it[3] for it in items)
            rendered.append((name, '<%s qty="%d">%s</%s>' % (name, qty_sum, "".join(kids), name)))
        src.append("</catalog>\n")
        ordered_sections = reverse_stable_sort(rendered, key=lambda sec: sec[0])
        expected = '<report items="%d">%s</report>' % (total, "".join(xml for _, xml in ordered_sections))
        docs.append(Doc("".join(src), expected, nodes))
    return Workload("goal-query", GOAL_RULES, docs)


# Name -> (generator, documents per second of run, size range).  A run
# transforms its set a fixed number of times (``run.PASSES``), so a set is
# sized for those passes to take about the run's length on a 2-core machine;
# smoke sizes are tiny.
WORKLOADS = {
    "template-rows": (template_rows, 0.667, (20, 90)),
    "goal-query": (goal_query, 0.667, (18, 24)),
}
SMOKE_SIZES = {
    "template-rows": (4, (2, 6)),
    "goal-query": (3, (3, 6)),
}
# The tail percentile needs more than ten documents beyond it.
MIN_DOCS = 12


def make(name: str, seed: int, seconds: float, smoke: bool = False) -> Workload:
    generator, per_s, (lo, hi) = WORKLOADS[name]
    count = max(MIN_DOCS, round(per_s * seconds))
    if smoke:
        count, (lo, hi) = SMOKE_SIZES[name]
    return generator(seed, count, lo, hi)
