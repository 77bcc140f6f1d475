"""Tests for Halstead-style counting, derivation, and reporting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fresh_interpreter import run_script
from termxform.cli import main
from termxform.metrics import (
    ClassifierConfig,
    DegenerateCountsError,
    HalsteadCounts,
    halstead,
    load_classification_config,
    render_report,
    report_csv,
    tokenize_classify,
)


def test_counts_reject_negative_values():
    with pytest.raises(ValueError, match="non-negative"):
        HalsteadCounts(eta1=-1, eta2=0, n1=0, n2=0)


def test_counts_reject_totals_below_distinct():
    with pytest.raises(ValueError, match="total operators"):
        HalsteadCounts(eta1=2, eta2=0, n1=1, n2=0)
    with pytest.raises(ValueError, match="total operands"):
        HalsteadCounts(eta1=0, eta2=3, n1=0, n2=2)


def test_halstead_derivation():
    report = halstead(HalsteadCounts(eta1=14, eta2=20, n1=62, n2=36))
    assert report.length == 98
    assert report.vocabulary == 34
    assert report.volume == pytest.approx(98 * math.log2(34))
    expected_nt = 14 * math.log2(14) + 20 * math.log2(20)
    assert report.theoretical_length == pytest.approx(expected_nt)
    assert report.delta == pytest.approx(100 * (expected_nt - 98) / expected_nt)
    assert report.lam == pytest.approx(64 / report.volume)
    assert report.bugs == pytest.approx(report.volume / 300)
    assert report.ratio == pytest.approx(62 / 36)


def test_halstead_delta_counts_overshoot_too():
    # N above N_T must deviate by the same formula with the roles swapped.
    report = halstead(HalsteadCounts(eta1=2, eta2=2, n1=50, n2=50))
    expected_nt = 4.0  # 2*log2(2) + 2*log2(2)
    assert report.theoretical_length == pytest.approx(expected_nt)
    assert report.delta == pytest.approx(100 * (100 - expected_nt) / 100)


def test_halstead_infinite_ratio_without_operands():
    report = halstead(HalsteadCounts(eta1=3, eta2=0, n1=5, n2=0))
    assert report.ratio == math.inf


def test_halstead_degenerate_empty():
    with pytest.raises(DegenerateCountsError):
        halstead(HalsteadCounts(eta1=0, eta2=0, n1=0, n2=0))


def test_halstead_degenerate_zero_volume():
    # A single-entry vocabulary makes log2(eta) zero.
    with pytest.raises(DegenerateCountsError):
        halstead(HalsteadCounts(eta1=1, eta2=0, n1=5, n2=0))


counts_strategy = st.tuples(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
).map(
    lambda t: HalsteadCounts(
        eta1=t[0], eta2=t[1], n1=t[0] + t[2], n2=t[1] + t[3]
    )
)


@given(counts_strategy)
def test_halstead_invariants(counts):
    report = halstead(counts)
    assert 0 <= report.delta <= 100
    assert report.lam > 0
    assert report.bugs > 0
    assert (report.delta == 0) == (
        report.theoretical_length == float(report.length)
    )
    # Full deviation only happens when the theoretical length collapses.
    if report.delta == 100:
        assert report.theoretical_length == 0


# ---------------------------------------------------------------------------
# Token classification


def test_classify_simple_fact():
    counts = tokenize_classify("a(b).")
    # Operators: ( ) .   Operands: a (head name), b.
    assert (counts.eta1, counts.eta2, counts.n1, counts.n2) == (3, 2, 3, 2)
    assert counts.loc == 1
    assert counts.bytes == len("a(b).")


def test_classify_rule_with_arithmetic():
    counts = tokenize_classify("p :- X is 1 + 2.")
    # Operators: :- . is +   Operands: p X 1 2.
    assert (counts.eta1, counts.eta2, counts.n1, counts.n2) == (4, 4, 4, 4)


def test_classify_atom_fact():
    counts = tokenize_classify("p.")
    assert (counts.eta1, counts.eta2, counts.n1, counts.n2) == (1, 1, 1, 1)


def test_classify_cut_and_semicolon_counted_once():
    counts = tokenize_classify("p :- (a ; b), !.")
    # Operators: :- ( ) ; , . !   Operands: p a b.
    assert (counts.eta1, counts.eta2, counts.n1, counts.n2) == (7, 3, 7, 3)


def test_classify_list_punctuation():
    counts = tokenize_classify("p([a|T]).")
    # Operators: ( [ | ] ) .  The cons functor itself is structural.
    assert (counts.eta1, counts.n1) == (6, 6)
    # Operands: p a T.
    assert (counts.eta2, counts.n2) == (3, 3)


def test_classify_repeated_tokens_accumulate_totals():
    counts = tokenize_classify("f(a, a, a).")
    # Operators: ( , ) . with , twice.
    assert (counts.eta1, counts.n1) == (4, 5)
    # Operands: f a with a three times.
    assert (counts.eta2, counts.n2) == (2, 4)


def test_classify_variables_scoped_per_clause():
    counts = tokenize_classify("p(X) :- q(X).\nr(X).")
    # X in the first clause is one operand used twice; the second clause
    # introduces a distinct X.
    assert (counts.eta2, counts.n2) == (2 + 2, 3 + 2)


def test_classify_variables_scoped_per_file():
    config = ClassifierConfig(variables_scope="file")
    counts = tokenize_classify("p(X) :- q(X).\nr(X).", config)
    # Operands: the heads p and r plus one file-wide X used three times.
    assert (counts.eta2, counts.n2) == (3, 5)


def test_classify_underscore_distinct_per_occurrence():
    counts = tokenize_classify("p(_, _).")
    assert (counts.eta2, counts.n2) == (3, 3)


def test_classify_functor_as_operand():
    config = ClassifierConfig(functor_as="operand")
    counts = tokenize_classify("p(f(a)).", config)
    # Operators: ( ) . with ( and ) twice each.
    assert (counts.eta1, counts.n1) == (3, 5)
    assert (counts.eta2, counts.n2) == (3, 3)


def test_classify_head_name_as_operator():
    config = ClassifierConfig(head_name_as="operator")
    counts = tokenize_classify("p(a).", config)
    assert (counts.eta1, counts.n1) == (4, 4)
    assert (counts.eta2, counts.n2) == (1, 1)


def test_classify_quoted_atoms_and_numbers_are_operands():
    counts = tokenize_classify("p('hello world', 3, 2.5).")
    assert (counts.eta2, counts.n2) == (4, 4)


def test_classify_loc_skips_blanks_and_comments():
    source = "a.\n\n% remark\nb.\n"
    counts = tokenize_classify(source)
    assert counts.loc == 2
    assert counts.bytes == len(source.encode("utf-8"))


def test_classify_rejects_bad_config():
    with pytest.raises(ValueError, match="functor_as"):
        tokenize_classify("a.", ClassifierConfig(functor_as="wat"))


# ---------------------------------------------------------------------------
# Configuration files


def test_load_classification_config(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text(
        "# comment\n\nfunctor_as = operand\nvariables_scope=file\n",
        encoding="utf-8",
    )
    config = load_classification_config(str(path))
    assert config == ClassifierConfig(
        functor_as="operand", head_name_as="operand", variables_scope="file"
    )


def test_load_classification_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text("functor_as=operator\ncolour=blue\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown configuration keys"):
        load_classification_config(str(path))


def test_load_classification_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text("functor_as operator\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        load_classification_config(str(path))


def test_load_classification_config_rejects_bad_values(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text("variables_scope=function\n", encoding="utf-8")
    with pytest.raises(ValueError, match="variables_scope"):
        load_classification_config(str(path))


# ---------------------------------------------------------------------------
# Reporting


def test_report_csv_layout():
    report = halstead(HalsteadCounts(eta1=14, eta2=20, n1=62, n2=36, loc=13, bytes=326))
    text = report_csv([("sample", report)])
    lines = text.splitlines()
    assert lines[0] == "label,LOC,Bytes,eta1,eta2,N1,N2,N1/N2,N_T,Delta_N,lambda,B"
    assert lines[1] == "sample,13,326,14,20,62,36,1.7222,139.7415,29.8705,0.1284,1.6619"


def test_report_csv_infinite_ratio():
    report = halstead(HalsteadCounts(eta1=3, eta2=0, n1=5, n2=0))
    text = report_csv([("noops", report)])
    assert text.splitlines()[1].split(",")[7] == "inf"


def test_render_report_lines():
    report = halstead(HalsteadCounts(eta1=14, eta2=20, n1=62, n2=36, loc=13, bytes=326))
    lines = render_report(report).splitlines()
    assert lines[0] == "source size: 13 LOC, 326 bytes"
    assert "theoretical length (N_T)  = 139.7415" in lines
    assert "length deviation   (D%)   = 29.8705" in lines
    assert "error estimate     (B)    = 1.6619" in lines


def test_render_report_without_size_info():
    report = halstead(HalsteadCounts(eta1=2, eta2=2, n1=3, n2=3))
    lines = render_report(report).splitlines()
    assert lines[0].startswith("distinct operators")


@given(
    st.text(
        alphabet="abcdefgXYZ(),.:- \n",
        min_size=0,
        max_size=60,
    )
)
def test_classify_never_undercounts_totals(text):
    # For any SOURCE that parses, totals dominate distinct counts, which is
    # exactly what the HalsteadCounts validator enforces on construction.
    try:
        counts = tokenize_classify(text)
    except Exception:
        return
    assert counts.n1 >= counts.eta1
    assert counts.n2 >= counts.eta2


def test_a_20000_element_list_is_counted(tmp_path, capsys):
    # The term walk runs over a stack of its own: when it recursed once per
    # list cell, 2,000 elements ended in "maximum recursion depth exceeded"
    # (exit 3), as the metrics path never changed Python's recursion limit.
    cells = 20_000
    path = tmp_path / "list.tx"
    path.write_text("p([%s]).\n" % ", ".join(["1"] * cells), encoding="utf-8")
    counts = tokenize_classify(path.read_text(encoding="utf-8"))
    # As for three elements (7 operators, 5 operands), with one more ',' and '1' per element.
    assert (counts.eta1, counts.eta2, counts.n1, counts.n2) == (6, 3, cells + 4, cells + 2)
    assert main(["metrics", "--src", str(path)]) == 0
    assert "total operands     (N2)   = %d" % (cells + 2) in capsys.readouterr().out


def test_the_metrics_table_script_runs():
    done = run_script("metrics_table.py")
    assert done.returncode == 0, done.stdout + done.stderr
