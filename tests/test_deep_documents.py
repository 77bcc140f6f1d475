"""Documents far deeper than Python's recursion limit.

Parsing, serializing, template traversal and the roundtrip divergence walk
all run over explicit stacks.  Each test runs in a fresh interpreter, at
Python's default recursion limit.
"""

from __future__ import annotations

from fresh_interpreter import run_python

DEPTH = 100_000


def deep_document(tmp_path):
    path = tmp_path / "deep.xml"
    path.write_text("<a>" * DEPTH + "x" + "</a>" * DEPTH, encoding="utf-8")
    return str(path)


def test_cli_roundtrip_of_a_deep_document(tmp_path):
    done = run_python("-m", "termxform.cli", "roundtrip", "--in", deep_document(tmp_path))
    assert (done.returncode, done.stdout, done.stderr) == (0, "roundtrip OK\n", "")


def test_cli_transform_copies_the_text_of_a_deep_document(tmp_path):
    source = deep_document(tmp_path)
    done = run_python(
        "-m", "termxform.cli", "transform", "--rules", "prelude-only", "--default-text", "copy", "--in", source,
        timeout=30,
    )
    assert (done.returncode, done.stdout) == (0, "x\n")


def test_traverse_of_a_deep_term():
    done = run_python("-c", """
from termxform.template_engine import traverse
from termxform.term_core import mk_element, mk_text, render_term
from termxform.transform_prelude import load_prelude
node = mk_text("x")
for _ in range(150_000):
    node = mk_element("a", children=[node])
print([render_term(item) for item in traverse(node, load_prelude(None), "copy")])
""")
    assert (done.returncode, done.stdout, done.stderr) == (0, "['text(x)']\n", "")


def test_divergence_path_of_two_deep_chains():
    done = run_python("-c", """
from termxform.cli import _divergence_path
from termxform.term_core import mk_element, mk_text
first, second = mk_text("x"), mk_text("y")
for _ in range(20_000):
    first = mk_element("a", children=[first])
    second = mk_element("a", children=[second])
path = _divergence_path(first, second)
print(len(path), set(path))
""")
    assert (done.returncode, done.stdout, done.stderr) == (0, "20000 {0}\n", "")
