import json
import random

import pytest

from ultragraph import (
    FiniteSpace,
    ParseError,
    SimpleGraph,
    SpaceClass,
    classify,
    diametrical_graph,
    emit_graph,
    emit_space,
    metric_from_graph,
    parse_graph,
    parse_space,
    to_dot,
)
from ultragraph import cli, rationals
from ultragraph.cli import main
from ultragraph.rationals import parse_rational
from util import cycle_graph, random_metric_space, triple_space

SPACE_221 = "points: a b c\n0 2 2\n2 0 1\n2 1 0\n"
C5 = "vertices: a b c d e\na b\nb c\nc d\nd e\ne a\n"
P3 = "vertices: a b c\na b\nb c\n"


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text(SPACE_221)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5)
    return str(path)


def test_parse_space_round_trip_is_exact_and_byte_stable():
    rng = random.Random(7)
    for _ in range(50):
        s = random_metric_space(rng, rng.randint(1, 8))
        doc = emit_space(s)
        assert parse_space(doc) == s
        assert emit_space(parse_space(doc)) == doc


def test_parse_space_accepts_comments_and_rational_forms():
    doc = "# a comment\npoints: a b\n\n0 1.5\n3/2 0\n"
    s = parse_space(doc)
    assert s.distance("a", "b") == parse_space("points: a b\n0 3/2\n3/2 0\n").distance("a", "b")


def test_parse_space_errors_name_line_and_entry():
    with pytest.raises(ParseError, match="doc.txt:3: entry 2"):
        parse_space("points: a b\n0 1\n1 zz\n", origin="doc.txt")
    with pytest.raises(ParseError, match="expected 2 matrix rows"):
        parse_space("points: a b\n0 1\n", origin="doc.txt")
    with pytest.raises(ParseError, match="'points:'"):
        parse_space("matrix: a b\n", origin="doc.txt")


def test_parse_graph_round_trip_and_errors():
    g = parse_graph(C5)
    canonical = emit_graph(g)  # edge lines re-sorted by vertex position
    assert canonical == "vertices: a b c d e\na b\na e\nb c\nc d\nd e\n"
    assert parse_graph(canonical) == g
    assert emit_graph(parse_graph(canonical)) == canonical
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_graph("vertices: a b\na z\n")
    with pytest.raises(ParseError, match="loop"):
        parse_graph("vertices: a b\na a\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("vertices: a b\na b\nb a\n")


def test_dot_output_is_canonical():
    g = diametrical_graph(metric_from_graph(cycle_graph("abcd")))
    first = to_dot(g)
    assert first == to_dot(parse_graph(emit_graph(g)))
    assert first.index('"a" -- "b"') < first.index('"a" -- "d"')


def test_analyze_text_and_exit_code(space_file, capsys):
    assert main(["analyze", space_file]) == 0
    out = capsys.readouterr().out
    assert "class:             ultrametric" in out
    assert "diameter:          2" in out
    assert "parts are balls:   true" in out
    assert "{b,c}" in out


def test_analyze_json_fields(space_file, capsys):
    assert main(["analyze", space_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "ultrametric"
    assert payload["diameter"] == "2"
    assert payload["distance_set"] == ["0", "1", "2"]
    assert payload["diametrical_graph"]["parts"] == [["a"], ["b", "c"]]
    assert payload["sweep"]["verdict"] is True
    assert payload["gap_condition"] is False
    assert payload["parts_are_balls"] is True
    assert payload["provenance"]["tool"] == "ultragraph"


def test_analyze_one_point_space(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("points: a\n0\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep"] is None
    assert payload["diametrical_graph"]["edge_count"] == 0
    assert payload["gap_condition"] is None
    assert payload["parts_are_balls"] is None


def test_sweep_command(space_file, capsys):
    assert main(["sweep", space_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep"]["verdict"] is True
    assert [t["r"] for t in payload["sweep"]["thresholds"]] == ["1", "2"]


def test_sweep_of_a_non_metric_space_has_no_metric_qualifier(tmp_path, capsys):
    path = tmp_path / "semimetric.txt"
    path.write_text(emit_space(triple_space(6, 2, 2)))
    assert main(["sweep", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sweep verdict:     not ultrametric"
    assert main(["sweep", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep"]["verdict"] is False
    assert set(payload["sweep"]) == {"verdict", "thresholds"}


def test_graph_command_edge_list_and_dot(space_file, capsys):
    assert main(["graph", space_file]) == 0
    assert capsys.readouterr().out == "vertices: a b c\na b\na c\n"
    assert main(["graph", space_file, "--dot", "--threshold", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert '"b" -- "c";' in out


def test_construct_commands_emit_parseable_documents(tmp_path, capsys):
    assert main(["construct", "padic", "--p", "3", "--k", "1"]) == 0
    doc = capsys.readouterr().out
    assert doc == "points: 0 1 2\n0 1 1\n1 0 1\n1 1 0\n"

    assert main(["construct", "chain", "--values", "4", "2", "1"]) == 0
    chain = parse_space(capsys.readouterr().out)
    assert chain.n == 4

    assert main(["construct", "random", "--n", "6", "--levels", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", "random", "--n", "6", "--levels", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first  # deterministic per seed

    gpath = tmp_path / "g.txt"
    gpath.write_text(P3)
    assert main(["construct", "metric-from-graph", str(gpath)]) == 0
    space = parse_space(capsys.readouterr().out)
    assert diametrical_graph(space) == parse_graph(P3)


def test_transform_commands(space_file, capsys):
    assert main(["transform", "truncate", "--r", "3/2", space_file]) == 0
    t = parse_space(capsys.readouterr().out)
    assert t == parse_space("points: a b c\n0 3/2 3/2\n3/2 0 1\n3/2 1 0\n")

    assert main(["transform", "bound", "--dstar", "3", space_file]) == 0
    bounded_doc = capsys.readouterr().out
    bounded = parse_space(bounded_doc)
    assert bounded.distance("b", "c") == parse_space(SPACE_221).distance("b", "c") * 3 / 2

    bpath = space_file + ".bound"
    assert main(["transform", "bound", "--dstar", "3", space_file, "-o", bpath]) == 0
    assert main(["transform", "unbound", "--dstar", "3", bpath]) == 0
    assert parse_space(capsys.readouterr().out) == parse_space(SPACE_221)


def test_transform_bound_rejects_non_ultrametric(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(emit_space(triple_space(2, 1, 1)))
    assert main(["transform", "bound", "--dstar", "3", str(path)]) == 2


def test_compare_command(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    a.write_text(SPACE_221)
    b.write_text("points: x y z\n0 20 20\n20 0 3\n20 3 0\n")
    c.write_text(emit_space(triple_space(2, 1, 1)))

    assert main(["compare", str(a), str(b), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weakly_similar"] is True
    assert payload["isometric"] is False
    assert payload["witness"]["scaling"] == [["0", "0"], ["3", "1"], ["20", "2"]]

    assert main(["compare", str(a), str(c)]) == 1
    assert "weakly similar: no" in capsys.readouterr().out

    assert main(["compare", str(a), str(a), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["isometric"] is True


def test_predicate_command(tmp_path, c5_file, capsys):
    p3 = tmp_path / "p3.txt"
    p3.write_text(P3)
    assert main(["predicate", str(p3)]) == 0
    assert "safe" in capsys.readouterr().out

    assert main(["predicate", c5_file]) == 1
    capsys.readouterr()

    assert main(["predicate", c5_file, "--counterexample"]) == 1
    space = parse_space(capsys.readouterr().out)
    assert diametrical_graph(space) == parse_graph(C5)
    assert classify(space) is SpaceClass.METRIC_ONLY


@pytest.mark.parametrize("name", ["a b", "", 1, "#a"])
def test_constructors_refuse_names_documents_cannot_carry(name):
    with pytest.raises(ValueError, match="point labels"):
        FiniteSpace.from_rows([name, "z"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="vertex names"):
        SimpleGraph.from_edges([name, "z"], [(name, "z")])


def test_comment_like_vertex_name_exits_two(tmp_path, capsys):
    # read as a plain name, "#a" would make the edge line "#a b" a comment
    path = tmp_path / "g.txt"
    path.write_text("vertices: #a b c\nb c\n#a b\n")
    assert main(["predicate", str(path)]) == 2
    assert "g.txt:1: vertex names" in capsys.readouterr().err


def test_construct_random_over_budget_exits_two(capsys):
    # just over the budget, so a missing check costs seconds, not all memory
    assert main(["construct", "random", "--n", "2001"]) == 2
    assert "budget" in capsys.readouterr().err


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("points: a b\n0 zz\nzz 0\n")
    assert main(["analyze", str(bad)]) == 2
    assert "entry 2" in capsys.readouterr().err

    asym = tmp_path / "asym.txt"
    asym.write_text("points: a b\n0 1\n2 0\n")
    assert main(["analyze", str(asym)]) == 2
    assert "symmetry" in capsys.readouterr().err

    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()

    assert main(["no-such-command"]) == 2


def test_overlong_rationals_are_parse_errors(tmp_path, space_file, capsys):
    doc = tmp_path / "huge.txt"
    doc.write_text("points: a b c\n0 1e5000 1e5000\n1e5000 0 1\n1e5000 1 0\n")
    assert main(["analyze", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "huge.txt:2: entry 2" in err and "4300-digit limit" in err

    assert main(["transform", "truncate", "--r", "1e6000", space_file]) == 2
    assert "4300-digit limit" in capsys.readouterr().err

    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_rational("1e4300")
    assert len(str(parse_rational("1e4299"))) == 4300


def test_huge_exponent_is_refused_before_any_integer_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built for an over-limit token")

    monkeypatch.setattr(rationals, "Fraction", refuse)
    with pytest.raises(ParseError, match="exponent"):
        parse_rational("1e100000000")


def test_unexpected_exceptions_exit_three(monkeypatch, space_file, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_analyze", broken)
    assert main(["analyze", space_file]) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_output_flag_writes_files(tmp_path, space_file):
    out = tmp_path / "report.json"
    assert main(["analyze", space_file, "--json", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["class"] == "ultrametric"


def test_analyze_report_reproduces_library_answers(tmp_path, capsys):
    # report verdicts must match re-running the operations on the
    # parsed space
    from ultragraph import (
        classify,
        diameter,
        distance_set,
        format_rational,
        gap_condition,
        sweep,
        verify_parts_are_balls,
    )

    rng = random.Random(77)
    for i in range(10):
        s = random_metric_space(rng, rng.randint(2, 7))
        path = tmp_path / f"r{i}.txt"
        path.write_text(emit_space(s))
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diameter"] == format_rational(diameter(s))
        assert payload["distance_set"] == [format_rational(v) for v in distance_set(s)]
        edge_count = payload["diametrical_graph"]["edge_count"]
        assert edge_count == len(diametrical_graph(s).edges)
        assert payload["sweep"]["verdict"] == sweep(s).verdict
        assert payload["gap_condition"] == gap_condition(s)
        ultra = classify(s).name == "ULTRAMETRIC"
        assert (payload["class"] == "ultrametric") == ultra
        if ultra:
            assert payload["parts_are_balls"] == verify_parts_are_balls(s)
