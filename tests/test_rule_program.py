"""The rule loader: each rule text is parsed, merged and indexed once.

``template_engine.rule_program`` keys its cache by the rule text, so
``transform_file`` re-reads the file on every call but parses it only when
the text is new.  The cached programs are shared by every later document,
so these tests also check that a transform leaves them as they were, and
compare cached runs with a fresh parse per document on random trees.
"""

import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings

from termxform import template_engine
from termxform.logic_engine import ResourceLimitError
from termxform.rule_language import ParseError
from termxform.template_engine import (
    TemplateError,
    TransformOptions,
    rule_program,
    transform_file,
)
from termxform.xml_io import serialize_document
from xmlgen import elements

TEMPLATE_RULES = "template(element(b, _, C), [element(strong, [], C)])."

GOAL_RULES = "go(Doc, [element(n, [], [text(N)])]) :- transform(count Doc, N0), N is string(N0), atom(N)."


@pytest.fixture(autouse=True)
def empty_cache():
    rule_program.cache_clear()
    yield
    rule_program.cache_clear()


@pytest.fixture
def parse_calls(monkeypatch):
    """The texts ``rule_program`` hands to ``parse_program``, in call order."""
    calls = []
    parse = template_engine.parse_program

    def counted(text, *args, **kwargs):
        calls.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(template_engine, "parse_program", counted)
    return calls


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


def test_one_rule_text_is_parsed_once_for_many_documents(tmp_path, parse_calls):
    rules = write(tmp_path / "rules.tx", TEMPLATE_RULES)
    outputs = []
    for index in range(3):
        source = write(tmp_path / ("in%d.xml" % index), "<a><b>%d</b></a>" % index)
        outputs.append(transform_file(source, rules).documents)
    assert outputs == [["<strong>0</strong>"], ["<strong>1</strong>"], ["<strong>2</strong>"]]
    assert parse_calls == [TEMPLATE_RULES]
    assert rule_program.cache_info().misses == 1


def test_the_prelude_alone_is_merged_once(tmp_path):
    source = write(tmp_path / "in.xml", "<a><b>hi</b></a>")
    assert transform_file(source, None).status == "no_solution"
    user, combined = rule_program(None)
    assert user is None
    assert rule_program(None)[1] is combined
    assert transform_file(source, None).status == "no_solution"
    assert rule_program.cache_info().misses == 1


def test_an_edited_rule_file_is_parsed_again(tmp_path, parse_calls):
    rules = tmp_path / "rules.tx"
    source = write(tmp_path / "in.xml", "<a><b>hi</b></a>")
    write(rules, TEMPLATE_RULES)
    assert transform_file(source, str(rules)).documents == ["<strong>hi</strong>"]
    write(rules, "template(element(b, _, C), [element(em, [], C)]).")
    assert transform_file(source, str(rules)).documents == ["<em>hi</em>"]
    write(rules, TEMPLATE_RULES)
    assert transform_file(source, str(rules)).documents == ["<strong>hi</strong>"]
    # The first text is still cached when it comes back.
    assert len(parse_calls) == 2


def test_a_rule_parse_error_is_raised_on_every_call(tmp_path, parse_calls):
    rules = tmp_path / "rules.tx"
    source = write(tmp_path / "in.xml", "<a><b>hi</b></a>")
    write(rules, "template(element(b, _, C), [C]")
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            transform_file(source, str(rules))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert len(parse_calls) == 2
    write(rules, TEMPLATE_RULES)
    assert transform_file(source, str(rules)).documents == ["<strong>hi</strong>"]


def _snapshot(program):
    """Everything a transform could change in a stored program."""
    return (
        list(program.clauses),
        {key: list(clauses) for key, clauses in program.clauses.items()},
        {
            key: ({first: list(bucket) for first, bucket in buckets.items()}, list(unkeyed))
            for key, (buckets, unkeyed) in program.index.items()
        },
        program.operators,
        [repr(clause) for clauses in program.clauses.values() for clause in clauses],
    )


@pytest.mark.parametrize(
    "rules_text, expected",
    [
        (TEMPLATE_RULES, ["<strong>hi</strong>"]),
        (GOAL_RULES, ["<n>1</n>"]),
        ("go(Doc, [E]) :- transform(Doc / b, E), transform(E @ k, '1').", ['<b k="1">hi</b>']),
    ],
)
def test_a_transform_leaves_the_cached_programs_unchanged(tmp_path, rules_text, expected):
    rules = write(tmp_path / "rules.tx", rules_text)
    source = write(tmp_path / "in.xml", '<a><b k="1">hi</b></a>')
    user, combined = rule_program(rules_text)
    before = _snapshot(user), _snapshot(combined)
    for _ in range(2):
        assert transform_file(source, rules).documents == expected
    assert rule_program(rules_text) == (user, combined)
    assert (_snapshot(user), _snapshot(combined)) == before


def test_goal_and_template_rule_files_alternate_in_one_process(tmp_path):
    template_rules = write(tmp_path / "template.tx", TEMPLATE_RULES)
    goal_rules = write(tmp_path / "goal.tx", GOAL_RULES)
    source = write(tmp_path / "in.xml", "<a><b>hi</b></a>")
    results = [
        transform_file(source, rules).documents
        for rules in (template_rules, goal_rules, template_rules, goal_rules)
    ]
    assert results == [["<strong>hi</strong>"], ["<n>1</n>"]] * 2
    assert rule_program.cache_info().misses == 2


# ---------------------------------------------------------------------------
# Cached programs against a fresh parse per document, on random trees


DIFFERENTIAL_RULES = {
    "templates": """
template(element(N,A,_),[element(N,A,[])]):- atom_codes(N,[K|_]), K =< 101.
template(element(N,_,C),C):- atom_codes(N,[K|_]), K =< 105.
template(element(N,_,_),[text(no)]):- atom_codes(N,[K|_]), K =< 112, !, fail.
template(text(T),[text(T),text(T)]):- contains(T,x).
""",
    "goal": """
go(Doc, Rows) :-
  findall(element(N, [], []),
          (transform(descendant Doc, E), transform(name E, N)),
          Rows).
""",
    "sort": "go(Doc, [S]) :- transform(Doc sort a, S).",
}

_NUMBERED_VARIABLE = re.compile(r"_\d+")


@pytest.fixture(scope="module")
def rule_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("rules")
    return {name: write(directory / (name + ".tx"), text) for name, text in DIFFERENTIAL_RULES.items()}


def _outcome(source, rules):
    diagnostics = io.StringIO()
    with contextlib.redirect_stderr(diagnostics):
        try:
            report = transform_file(source, rules, options=TransformOptions(all_solutions=True))
        except (TemplateError, ResourceLimitError) as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = (report.status, report.solutions, report.documents)
    return result, _NUMBERED_VARIABLE.sub("_", diagnostics.getvalue())


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=3))
def test_cached_programs_agree_with_a_fresh_parse_per_document(rule_files, tmp_path_factory, tree):
    source = write(tmp_path_factory.mktemp("doc") / "in.xml", serialize_document(tree))
    for rules in rule_files.values():
        cached = _outcome(source, rules)
        with mock.patch.object(template_engine, "rule_program", rule_program.__wrapped__):
            fresh = _outcome(source, rules)
        assert cached == fresh
