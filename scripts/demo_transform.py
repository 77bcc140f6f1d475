"""Run a small end-to-end transformation and print every stage.

The demo reads an XML document, applies a rule program (templates plus a
goal-driven variant), and prints the input, the rules, and the serialized
result.  Without arguments it runs on a built-in sample; pass ``--in`` and
``--rules`` to transform your own files.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from termxform.template_engine import TransformOptions, transform_file

SAMPLE_DOC = """\
<library>
  <book id="1"><title>Objects First</title><price>39</price></book>
  <book id="2"><title>A Discipline of Programming</title><price>55</price></book>
  <book id="3"><title>Paradigms of AI Programming</title><price>31</price></book>
</library>
"""

SAMPLE_RULES = """\
% Rewrite every book into a table row keeping its id attribute and title text.
go(Doc, [element(table, [], Rows)]) :-
  findall(Row, bookRow(Doc, Row), Rows).

bookRow(Doc, element(tr, [], [element(td, [], [text(Id)]),
                              element(td, [], [text(Title)])])) :-
  transform(Doc / book, Book),
  transform(Book @ id, Id),
  transform(Book / title # 1, Title).
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="input", help="XML document (default: built-in sample)")
    parser.add_argument("--rules", help="rule file (default: built-in sample)")
    parser.add_argument("--pretty", action="store_true", help="indent the output")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        doc_path = args.input or str(Path(scratch) / "sample.xml")
        rules_path = args.rules or str(Path(scratch) / "sample.tx")
        if args.input is None:
            Path(doc_path).write_text(SAMPLE_DOC, encoding="utf-8")
        if args.rules is None:
            Path(rules_path).write_text(SAMPLE_RULES, encoding="utf-8")

        print("--- input ---")
        print(Path(doc_path).read_text(encoding="utf-8").rstrip())
        print("--- rules ---")
        print(Path(rules_path).read_text(encoding="utf-8").rstrip())

        report = transform_file(
            doc_path, rules_path, options=TransformOptions(pretty=args.pretty)
        )

    print("--- result ---")
    if report.status != "ok":
        print("no solution", file=sys.stderr)
        return 1
    for document in report.documents:
        print(document.rstrip("\n"))
    print(
        "--- %d solution(s); parse %.3fs, rules %.3fs, solve %.3fs, serialize %.3fs ---"
        % (
            report.solutions,
            report.timings["parse"],
            report.timings["rules"],
            report.timings["solve"],
            report.timings["serialize"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
