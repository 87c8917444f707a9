import random

import pytest

from tncg import (
    FormatError,
    SetCoverInstance,
    StrategyProfile,
    gen_random_host,
    gen_random_profile,
    gen_random_setcover,
)
from tncg.fileio import (
    dump_graph,
    dump_profile,
    dump_setcover,
    load_graph,
    load_host,
    load_profile,
    load_setcover,
    parse_graph,
    parse_host,
    parse_profile,
    parse_setcover,
    save_graph,
    save_profile,
    save_setcover,
    validate_files,
)


def test_graph_round_trip():
    rng = random.Random(88)
    for _ in range(25):
        n = rng.randint(1, 9)
        t = rng.randint(1, max(1, min(4, n * (n - 1) // 2)))
        g = gen_random_host(n, t, rng.randrange(10**6)) if n > 1 else None
        if g is None:
            continue
        assert parse_graph(dump_graph(g)).edges == g.edges


def test_profile_round_trip():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randint(2, 9)
        host = gen_random_host(n, 1, rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(0, n), rng.randrange(10**6))
        back = parse_profile(dump_profile(p), n=n)
        assert back.canonical() == p.canonical()


def test_setcover_round_trip():
    rng = random.Random(90)
    for _ in range(25):
        sc = gen_random_setcover(7, 5, rng.randrange(10**6))
        back = parse_setcover(dump_setcover(sc))
        assert back.k == sc.k
        assert [sorted(s) for s in back.sets] == [sorted(s) for s in sc.sets]
    sc = SetCoverInstance(3, [{1, 2}, {3}], cover={1, 2})
    back = parse_setcover(dump_setcover(sc))
    assert set(back.cover) == {1, 2}


def test_comments_and_blanks_ignored():
    text = "# host on 3 nodes\n\n3 2\n0 1 1  # drawn edge\n0 2 2\n\n1 2 2\n"
    g = parse_host(text)
    assert g.n == 3 and g.edge_count == 3


def test_graph_errors_carry_position():
    cases = [
        ("", "missing header"),
        ("3", "header must be two integers"),
        ("3 x", "expected integer"),
        ("0 2", "node count"),
        ("3 -1", "lifetime"),
        ("3 2\n0 1", "edge line must be"),
        ("3 2\n1 1 1", "self-loop"),
        ("3 2\n0 5 1", "out of range"),
        ("3 2\n0 1 9", "outside 1..2"),
        ("3 2\n0 1 1\n1 0 2", "duplicate pair"),
    ]
    for text, fragment in cases:
        with pytest.raises(FormatError) as err:
            parse_graph(text, path="bad.tg")
        assert fragment in str(err.value)
        assert str(err.value).startswith("bad.tg:")


def test_host_check_is_layered_on_graph_parse():
    # parses as a graph but misses pair (1, 2) and label 1
    with pytest.raises(FormatError) as err:
        parse_host("3 2\n0 1 2\n0 2 2\n")
    assert "complete" in str(err.value)
    # complete, with labels 1..3 or none, but the header claims a larger lifetime
    for text, t, largest in [("3 5\n0 1 1\n0 2 2\n1 2 3\n", 5, 3), ("1 2\n", 2, 0)]:
        assert parse_graph(text).lifetime == largest
        with pytest.raises(FormatError) as err:
            parse_host(text, path="h.tg")
        assert str(err.value) == f"h.tg:1: host lifetime {t} must equal the largest label {largest}"
    # the lifetime error names the header's line, past leading comments
    with pytest.raises(FormatError) as err:
        parse_host("# host\n\n1 2\n")
    assert err.value.line == 3


def test_profile_errors_carry_position():
    cases = [
        ("0 1 2", "expected 'agent"),
        ("-1: 2", "negative agent"),
        ("0: 1\n0: 2", "duplicate agent"),
        ("0: -2", "negative endpoint"),
        ("0: 0", "buying to itself"),
        ("0: 1 1", "duplicate endpoint"),
    ]
    for text, fragment in cases:
        with pytest.raises(FormatError) as err:
            parse_profile(text, path="bad.tsp")
        assert fragment in str(err.value)
        assert str(err.value).startswith("bad.tsp:")


def test_profile_n_context():
    p = parse_profile("0: 2\n", n=5)
    assert p.n == 5
    assert p[0] == frozenset({2})
    # inferred size is max index + 1
    assert parse_profile("0: 2\n").n == 3
    with pytest.raises(FormatError) as err:
        parse_profile("0: 4\n", n=3)
    assert "out of range" in str(err.value)
    with pytest.raises(FormatError):
        parse_profile("7: 1\n", n=3)
    # empty text is the empty profile on one node without context
    assert parse_profile("").n == 1
    assert parse_profile("", n=4).canonical() == StrategyProfile(4, [set()] * 4).canonical()


def test_profile_range_error_names_its_line():
    # the range check runs after the whole file is read, against n, and
    # still names the offending line, past a comment, a valid line and a
    # blank one
    text = "# two agents\n0: 1\n\n1: 0 5\n"
    with pytest.raises(FormatError) as err:
        parse_profile(text, n=3, path="bad.tsp")
    assert err.value.line == 4
    assert str(err.value).startswith("bad.tsp:4:")
    assert "endpoint 5 out of range 0..2" in str(err.value)


def test_setcover_errors_carry_position():
    cases = [
        ("", "missing header"),
        ("3", "header must be two integers"),
        ("0 1\n1", "need k >= 1"),
        ("3 2\n1 2", "expected 2 set lines"),
        ("3 1\n5", "outside 1..3"),
        ("3 1\n1 2\nextra", "expected 'cover:'"),
        ("3 1\n1 2 3\ncover: 9", "outside 1..1"),
        ("3 1\n1 2 3\ncover: 1\njunk", "trailing content"),
    ]
    for text, fragment in cases:
        with pytest.raises(FormatError) as err:
            parse_setcover(text, path="bad.sc")
        assert fragment in str(err.value)
    # a cover line that does not cover fails the instance check
    with pytest.raises(FormatError) as err:
        parse_setcover("3 2\n1 2\n3\ncover: 1\n")
    assert "not a cover" in str(err.value)


def test_load_save(tmp_path):
    host = gen_random_host(5, 2, 220)
    profile = gen_random_profile(host, 4, 221)
    sc = gen_random_setcover(5, 4, 222)
    gp, pp, sp = tmp_path / "a.tg", tmp_path / "a.tsp", tmp_path / "a.sc"
    save_graph(host, gp)
    save_profile(profile, pp)
    save_setcover(sc, sp)
    assert load_graph(gp).edges == host.edges
    assert load_host(gp).edges == host.edges
    assert load_profile(pp, n=5).canonical() == profile.canonical()
    assert load_setcover(sp).k == sc.k


def test_validate_files(tmp_path):
    good = tmp_path / "good.tg"
    good.write_text("2 1\n0 1 1\n")
    bad = tmp_path / "bad.tsp"
    bad.write_text("0: 0\n")
    weird = tmp_path / "notes.txt"
    weird.write_text("hello")
    missing = tmp_path / "gone.sc"
    good_sc = tmp_path / "good.sc"
    good_sc.write_text("3 2\n1 2\n3\ncover: 1 2\n")
    bad_sc = tmp_path / "bad.sc"
    bad_sc.write_text("3 2\n1 2\n4\n")
    reports = validate_files([good, bad, weird, missing, good_sc, bad_sc])
    by_name = {r.path.rsplit("/", 1)[-1]: r for r in reports}
    assert by_name["good.tg"].ok and by_name["good.tg"].kind == "graph"
    assert not by_name["bad.tsp"].ok
    assert by_name["bad.tsp"].errors[0][0] == 1
    assert by_name["notes.txt"].kind == "unknown"
    assert not by_name["gone.sc"].ok
    assert by_name["good.sc"].ok and by_name["good.sc"].kind == "setcover"
    assert not by_name["bad.sc"].ok
    assert by_name["bad.sc"].errors == [(3, "element 4 outside 1..3")]
    d = by_name["bad.tsp"].as_dict()
    assert d["errors"][0]["line"] == 1


def test_validate_files_as_host(tmp_path):
    f = tmp_path / "g.tg"
    f.write_text("3 2\n0 1 2\n0 2 2\n1 2 2\n")  # valid graph, invalid host
    assert validate_files([f])[0].ok
    rep = validate_files([f], as_host=True)[0]
    assert rep.kind == "host" and not rep.ok
