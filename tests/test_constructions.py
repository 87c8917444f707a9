import hashlib
import json
import random

import pytest

from tncg import (
    SetCoverInstance,
    TemporalGraph,
    check_ne,
    empty_profile,
    gen_br_cycle,
    gen_hypercube,
    gen_random_directed,
    gen_random_host,
    gen_random_profile,
    gen_random_setcover,
    gen_reduction_br,
    gen_reduction_ne,
    gen_t2_equilibrium,
    gen_t2_family,
)


def test_setcover_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(0, [{1}])
    with pytest.raises(ValueError):
        SetCoverInstance(3, [])
    with pytest.raises(ValueError):
        SetCoverInstance(3, [{1}, set()])
    with pytest.raises(ValueError):
        SetCoverInstance(3, [{1, 4}])
    with pytest.raises(ValueError):
        SetCoverInstance(3, [{1, 2}, {3}], cover={1})  # misses 3
    with pytest.raises(ValueError):
        SetCoverInstance(3, [{1, 2}, {3}], cover={5})


def test_setcover_min_cover_golden():
    sc = SetCoverInstance(5, [{1, 2}, {3, 4}, {5}, {1, 3, 5}, {2, 4}])
    assert sc.m == 5
    assert sc.universe == {1, 2, 3, 4, 5}
    size, combo = sc.min_cover()
    assert size == 2
    assert combo == (4, 5)
    assert sc.is_cover({4, 5})
    assert not sc.is_cover({1, 2})


def test_setcover_uncoverable():
    sc = SetCoverInstance(4, [{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        sc.min_cover()


def test_hypercube_shape():
    for d in (3, 4):
        host, profile = gen_hypercube(d)
        n = 2 ** d
        assert host.n == n
        assert host.lifetime == d + 1
        host.validate_host()
        assert len(profile.arcs()) == d * n // 2
        # cube edges carry the index of the flipped bit
        for u in range(n):
            for w in profile[u]:
                x = u ^ w
                assert x & (x - 1) == 0  # single bit
                assert host.label(u, w) == x.bit_length()
                assert u < w  # smaller endpoint buys
    with pytest.raises(ValueError):
        gen_hypercube(2)


def test_t2_family_shape():
    for n in (5, 8, 11):
        host, profile = gen_t2_family(n)
        assert host.n == n
        assert host.lifetime == 2
        host.validate_host()
        assert len(profile.arcs()) == 2 * (n - 2)
        assert profile[0] == frozenset({1})
        assert profile[1] == frozenset({2})
        assert profile[2] == frozenset(range(3, n))
        for j in range(3, n):
            assert profile[j] == frozenset({0})
    with pytest.raises(ValueError):
        gen_t2_family(4)


def test_br_cycle_shape():
    host, profile, schedule = gen_br_cycle()
    assert host.n == 8
    assert host.lifetime == 5
    host.validate_host()
    assert schedule == [0, 2, 4, 0, 2, 4]
    assert len(profile.arcs()) == 14
    assert profile[7] == frozenset(range(6))


def test_reduction_br_layout():
    sc = SetCoverInstance(3, [{1, 2}, {2, 3}, {3}])
    host, profile, layout = gen_reduction_br(sc)
    incidence = sum(len(s) for s in sc.sets)
    assert host.n == 1 + sc.m + 3 + incidence
    assert host.lifetime == 2
    host.validate_host()
    assert layout.x == 0
    assert len(layout.set_nodes) == sc.m
    assert len(layout.elem_nodes) == 3
    assert len(layout.v_nodes) == incidence
    assert profile[layout.x] == frozenset()
    d = layout.as_dict()
    assert d["x"] == 0 and len(d["v_nodes"]) == incidence


def test_reduction_ne_layout():
    sc = SetCoverInstance(3, [{1, 2}, {2, 3}, {3}], cover={1, 2})
    host, profile, layout = gen_reduction_ne(sc)
    incidence = sum(len(s) for s in sc.sets)
    outside = sc.m - 2
    assert host.n == 2 + sc.m + 3 + incidence + outside
    assert host.lifetime == 3
    host.validate_host()
    assert len(layout.w_nodes) == outside
    assert profile[layout.x] == frozenset(layout.set_nodes[i - 1] for i in (1, 2))


def test_reduction_ne_requires_cover():
    sc = SetCoverInstance(2, [{1}, {2}])
    with pytest.raises(ValueError):
        gen_reduction_ne(sc)


def test_reduction_ne_compresses_when_no_outside_sets():
    sc = SetCoverInstance(2, [{1}, {2}], cover={1, 2})
    host, profile, layout = gen_reduction_ne(sc)
    assert layout.w_nodes == {}
    assert host.lifetime == 2  # the outside-set label class is absent
    host.validate_host()


def test_t2_equilibrium_basics():
    rng = random.Random(5005)
    for _ in range(25):
        n = rng.randint(4, 8)
        host = gen_random_host(n, rng.choice((1, 2)), rng.randrange(10**6))
        profile = gen_t2_equilibrium(host)
        assert len(profile.arcs()) == n - 1
        assert check_ne(host, profile).stable
    with pytest.raises(ValueError):
        gen_t2_equilibrium(gen_random_host(5, 3, 0))


def test_t2_equilibrium_on_one_node_host():
    host = TemporalGraph(1, {})
    profile = gen_t2_equilibrium(host)
    assert profile == empty_profile(1)
    assert check_ne(host, profile).stable


def test_random_host_is_valid_and_deterministic():
    a = gen_random_host(7, 3, 99)
    b = gen_random_host(7, 3, 99)
    assert a.edges == b.edges
    a.validate_host()
    with pytest.raises(ValueError):
        gen_random_host(4, 7, 0)  # only 6 pairs available


def test_random_profile_and_directed():
    host = gen_random_host(6, 2, 11)
    profile = gen_random_profile(host, 8, 12)
    assert len(profile.arcs()) == 8
    assert gen_random_profile(host, 8, 12).canonical() == profile.canonical()
    with pytest.raises(ValueError):
        gen_random_profile(host, 31, 0)  # > 6*5 ordered pairs
    g = gen_random_directed(6, 5, 3, 13)
    assert len(g.arcs) == 5
    assert all(1 <= lab <= 3 for lab in g.arcs.values())


def test_random_setcover_is_coverable():
    rng = random.Random(31337)
    for _ in range(30):
        sc = gen_random_setcover(8, 6, rng.randrange(10**6))
        assert 2 <= sc.k <= 8
        assert 2 <= sc.m <= 6
        size, combo = sc.min_cover()
        assert sc.is_cover(set(combo))
        assert size == len(combo)
    a = gen_random_setcover(8, 6, 777)
    b = gen_random_setcover(8, 6, 777)
    assert a.sets == b.sets and a.k == b.k


def _generator_outputs():
    """Every generator's output as JSON-ready records: hosts with their edge
    insertion order, profiles, layouts and directed graphs."""
    def host_rec(host):
        return [host.n, [[u, v, label] for (u, v), label in host.edges.items()]]

    for d in range(3, 8):
        host, profile = gen_hypercube(d)
        yield host_rec(host), profile.canonical()
    for n in range(5, 13):
        host, profile = gen_t2_family(n)
        yield host_rec(host), profile.canonical()
    host, profile, schedule = gen_br_cycle()
    yield host_rec(host), profile.canonical(), schedule
    rng = random.Random(4242)
    for _ in range(60):
        sc = gen_random_setcover(6, 5, rng.randrange(10**6))
        host, profile, layout = gen_reduction_br(sc)
        yield host_rec(host), profile.canonical(), layout.as_dict()
        # the all-sets cover leaves no set outside, the compressing case
        for cover in (sc.min_cover()[1], range(1, sc.m + 1)):
            covered = SetCoverInstance(sc.k, sc.sets, cover)
            host, profile, layout = gen_reduction_ne(covered)
            yield host_rec(host), profile.canonical(), layout.as_dict()
    for n in range(2, 31):
        pairs = n * (n - 1) // 2
        host = gen_random_host(n, rng.randint(1, pairs), rng.randrange(10**6))
        profile = gen_random_profile(host, rng.randint(0, 2 * pairs), rng.randrange(10**6))
        g = gen_random_directed(n, rng.randint(0, 2 * pairs), rng.randint(1, pairs),
                                rng.randrange(10**6))
        arcs = [[u, v, label] for (u, v), label in g.arcs.items()]
        yield host_rec(host), profile.canonical(), arcs


def test_generator_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for record in _generator_outputs():
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == "53fec1756915b1a000e43e41184bae9d7ce832c24e0f91b14da1233a8bb29484"
