"""Tests for XML parsing, validation, and serialization."""

import random

import pytest
from hypothesis import given, settings

from fresh_interpreter import run_python
from termxform.term_core import (
    Atom,
    Compound,
    fresh_var,
    mk_comment,
    mk_element,
    mk_list,
    mk_pi,
    mk_text,
    term_equal,
)
from termxform.xml_io import (
    ParseError,
    ValidationError,
    check_serializable,
    parse_document,
    serialize_document,
    serialize_fragment,
)
from xmlgen import elements


def test_parse_simple_document():
    doc = parse_document('<a id="1"><b>hi</b></a>')
    assert doc == mk_element("a", [("id", "1")], [mk_element("b", [], [mk_text("hi")])])


def test_parse_attribute_quote_styles_normalized():
    doc = parse_document("<a x='1' y=\"2\"/>")
    assert doc == mk_element("a", [("x", "1"), ("y", "2")])


def test_parse_entities():
    doc = parse_document("<a>&amp;&lt;&gt;&quot;&apos;</a>")
    assert doc == mk_element("a", [], [mk_text("&<>\"'")])


def test_parse_entity_in_attribute():
    doc = parse_document('<a x="&quot;q&quot;"/>')
    assert doc == mk_element("a", [("x", '"q"')])


def test_parse_unknown_entity_rejected():
    with pytest.raises(ParseError, match="entity"):
        parse_document("<a>&nbsp;</a>")
    with pytest.raises(ParseError, match="entity"):
        parse_document("<a>bare & ampersand</a>")


def test_whitespace_only_text_dropped_by_default():
    doc = parse_document("<a>\n  <b/>\n</a>")
    assert doc == mk_element("a", [], [mk_element("b")])


def test_keep_ws_retains_whitespace_text():
    doc = parse_document("<a> <b/></a>", keep_ws=True)
    assert doc == mk_element("a", [], [mk_text(" "), mk_element("b")])


def test_mixed_text_is_never_dropped():
    doc = parse_document("<a> x </a>")
    assert doc == mk_element("a", [], [mk_text(" x ")])


def test_xml_declaration_consumed():
    doc = parse_document('<?xml version="1.0" encoding="UTF-8"?>\n<a/>')
    assert doc == mk_element("a")


def test_misc_outside_root_discarded():
    doc = parse_document("<!-- pre --><?go?><a/><!-- post -->")
    assert doc == mk_element("a")


def test_comment_and_pi_inside_element_kept_trimmed():
    doc = parse_document("<a><!--  note  --><? run  ?></a>")
    assert doc == mk_element("a", [], [mk_comment("note"), mk_pi("run")])


def test_pi_without_question_close():
    doc = parse_document("<a><?go></a>")
    assert doc == mk_element("a", [], [mk_pi("go")])
    assert serialize_document(doc) == "<a><?go?></a>"


def test_doctype_rejected():
    with pytest.raises(ParseError, match="DOCTYPE"):
        parse_document("<!DOCTYPE html><a/>")


def test_cdata_rejected():
    with pytest.raises(ParseError, match="CDATA"):
        parse_document("<a><![CDATA[x]]></a>")


def test_mismatched_closing_tag():
    with pytest.raises(ParseError, match="mismatched"):
        parse_document("<a><b></a></b>")


def test_unterminated_element():
    with pytest.raises(ParseError):
        parse_document("<a><b></b>")


def test_second_root_rejected():
    with pytest.raises(ParseError):
        parse_document("<a/><b/>")


def test_attribute_value_must_be_quoted():
    with pytest.raises(ParseError):
        parse_document("<a x=1/>")


def test_attribute_value_rejects_raw_lt():
    with pytest.raises(ParseError, match="'<'"):
        parse_document('<a x="a<b"/>')


def test_a_tag_may_not_repeat_an_attribute_name():
    # XML 1.0, WFC: Unique Att Spec.  The error is at the second occurrence.
    for text, col in (('<a x="1" x="2"/>', 10), ("<r><a b='1' x=\"1\" x='1'></a></r>", 19)):
        with pytest.raises(ParseError, match="repeated attribute 'x'") as caught:
            parse_document(text)
        assert (caught.value.line, caught.value.col) == (1, col)
    # A fault earlier in the tag is the one reported.
    with pytest.raises(ParseError, match="unknown or malformed entity reference"):
        parse_document('<a x="&bad;" x="1"/>')
    assert parse_document('<a x="1" y="1" X="1"/>') == mk_element("a", [("x", "1"), ("y", "1"), ("X", "1")])


def test_parse_error_positions():
    try:
        parse_document("<a>\n<b x=></b></a>")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col > 1
    else:
        pytest.fail("expected a parse error")


def test_invalid_name_start():
    with pytest.raises(ParseError):
        parse_document("<1a/>")


def test_serialize_escapes_text():
    text = serialize_document(mk_element("a", [], [mk_text('x & <y> "z"')]))
    assert text == '<a>x &amp; &lt;y&gt; "z"</a>'


def test_serialize_escapes_attributes():
    # Attribute values escape & < and the quote; > stays literal.
    text = serialize_document(mk_element("a", [("x", 'p & <q> "r"')]))
    assert text == '<a x="p &amp; &lt;q> &quot;r&quot;"/>'


def test_serialize_self_closes_empty_elements():
    assert serialize_document(mk_element("a", [("x", "1")])) == '<a x="1"/>'


def test_serialize_comment_and_pi():
    doc = mk_element("a", [], [mk_comment("note"), mk_pi("go")])
    assert serialize_document(doc) == "<a><!--note--><?go?></a>"


def test_pretty_output():
    doc = mk_element("a", [], [mk_element("b", [], [mk_element("c")]), mk_element("d")])
    assert serialize_document(doc, pretty=True) == (
        "<a>\n  <b>\n    <c/>\n  </b>\n  <d/>\n</a>\n"
    )


def test_pretty_keeps_text_children_inline():
    doc = mk_element("a", [], [mk_text("hi"), mk_element("b")])
    assert serialize_document(doc, pretty=True) == "<a>hi<b/></a>\n"


def test_serialize_fragment_concatenates():
    out = serialize_fragment([mk_text("one"), mk_element("b"), mk_text("two")])
    assert out == "one<b/>two"


def test_validation_rejects_non_element_root():
    with pytest.raises(ValidationError, match="was not expected here!"):
        serialize_document(mk_text("hi"))


def test_validation_rejects_bad_element_name():
    bad = Compound("element", (Atom("no space"), Atom("[]"), Atom("[]")))
    with pytest.raises(ValidationError, match="Error: "):
        check_serializable(bad)


def test_validation_rejects_improper_attribute_list():
    bad = Compound("element", (Atom("a"), fresh_var("A"), Atom("[]")))
    with pytest.raises(ValidationError, match="Error in remaining attributes list: "):
        check_serializable(bad)


def test_validation_rejects_malformed_attribute():
    bad = Compound("element", (Atom("a"), mk_list([Atom("plain")]), Atom("[]")))
    with pytest.raises(ValidationError, match="Error in remaining attributes list: "):
        check_serializable(bad)


def test_validation_rejects_a_repeated_attribute_name():
    entries = [Atom('x="1"'), Atom('y="2"'), Atom('x="2"'), Atom("plain")]
    bad = mk_element("r", [], [mk_element("a"), Compound("element", (Atom("a"), mk_list(entries), Atom("[]")))])
    # The first bad entry in list order is reported: the repeat, not "plain".
    message = "Error in attributes list: repeated attribute x (at path [1])"
    for call in (check_serializable, serialize_document):
        with pytest.raises(ValidationError) as caught:
            call(bad)
        assert str(caught.value) == message
    # An improper attribute list is still reported before any entry in it,
    # whether it is open or ends in an atom; else the first bad entry is.
    for attrs, shown in (
        (mk_list(entries[:3], fresh_var("T")), "['x=\"1\"','y=\"2\"','x=\"2\"'|_T"),
        (mk_list(entries[3:] + entries[:3], Atom("end")), "[plain,'x=\"1\"','y=\"2\"','x=\"2\"'|end]"),
        (mk_list(entries[3:] + entries[:3]), "plain"),
    ):
        with pytest.raises(ValidationError) as caught:
            check_serializable(Compound("element", (Atom("a"), attrs, Atom("[]"))))
        assert str(caught.value).startswith("Error in remaining attributes list: " + shown)


def test_validation_rejects_empty_text():
    with pytest.raises(ValidationError):
        check_serializable(mk_element("a", [], [mk_text("")]))


def test_validation_allows_whitespace_text():
    check_serializable(mk_element("a", [], [mk_text("  ")]))


def test_validation_rejects_untrimmed_comment():
    with pytest.raises(ValidationError):
        check_serializable(mk_element("a", [], [mk_comment(" padded ")]))


def test_validation_rejects_comment_terminator():
    with pytest.raises(ValidationError):
        check_serializable(mk_element("a", [], [mk_comment("x --> y")]))


def test_validation_rejects_pi_with_gt():
    with pytest.raises(ValidationError):
        check_serializable(mk_element("a", [], [mk_pi("x > y")]))


def test_validation_reports_path():
    bad = mk_element("a", [], [mk_element("b"), mk_element("c", [], [mk_text("")])])
    try:
        check_serializable(bad)
    except ValidationError as exc:
        assert exc.path == [1, 0]
    else:
        pytest.fail("expected a validation error")


def test_validation_rejects_unbound_variable_child():
    with pytest.raises(ValidationError):
        check_serializable(mk_element("a", [], [fresh_var("X")]))


@settings(max_examples=150)
@given(elements())
def test_roundtrip_random_trees(tree):
    assert term_equal(parse_document(serialize_document(tree)), tree)


@settings(max_examples=75)
@given(elements())
def test_pretty_roundtrip_random_trees(tree):
    assert term_equal(parse_document(serialize_document(tree, pretty=True)), tree)


def _rows_document():
    rnd, out, i = random.Random(7), ["<rows>\n"], 0
    while sum(map(len, out)) < 1_000_000:
        q = rnd.choice("\"'")
        out.append("  <row id=%sr%d%s name=%sa &amp; b%s><qty>%d</qty><note>x &lt; y</note></row>\n" % (q, i, q, q, q, rnd.randint(1, 50)))
        i += 1
    return "".join(out) + "</rows>\n"


LINEAR_CASES = {
    "rows": (_rows_document, 0),
    "name": (lambda: "<" + "a" * 200_000 + "=", 2),
    "attrs": (lambda: "<a" + "".join(' x%d="1"' % i for i in range(50_000)), 2),
    "comment": (lambda: "<a>" + "x" * 200_000 + "<!-- open", 2),
    "distinct": (lambda: "<a" + "".join(' x%d="1"' % i for i in range(50_000)) + "/>", 0),
    "repeated": (lambda: "<a" + ' x="1"' * 50_000 + "/>", 2),
}


@pytest.mark.parametrize("case", list(LINEAR_CASES))
def test_parse_stays_linear(tmp_path, case):
    """The parser is one regular expression.  A backtracking slip in it
    (a name that can end early, say) makes these inputs quadratic.
    Each must end inside the timeout: a ~1 MB document with entities
    and both quote styles with exit 0, and three malformed ones with
    exit 2 (a 200,000-letter name followed by "=", a tag with 50,000
    distinct attributes and no ">", a comment left open after 200 KB).
    A tag may not repeat an attribute name, and the check for it is
    one set per tag: a closed tag with 50,000 distinct attributes has
    exit 0, the same attribute 50,000 times in a closed tag exit 2."""
    document, expected = LINEAR_CASES[case]
    path = tmp_path / ("%s.xml" % case)
    path.write_text(document(), encoding="utf-8")
    done = run_python("-m", "termxform.cli", "roundtrip", "--in", str(path), timeout=60)
    assert done.returncode == expected, done.stderr
