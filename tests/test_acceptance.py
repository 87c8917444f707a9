"""Acceptance gate: one test per headline property, one printed line each.

Run with -s to see the [PASS]/[FAIL] lines on success; pytest shows them on
failure regardless.
"""

import random
import time
from fractions import Fraction

from tncg import (
    PreconditionViolated,
    SetCoverInstance,
    StrategyProfile,
    check_ge,
    check_ne,
    exact_best_response,
    gen_br_cycle,
    gen_hypercube,
    gen_random_host,
    gen_random_setcover,
    gen_reduction_br,
    gen_reduction_ne,
    gen_t2_family,
    is_temporally_connected,
    minimum_spanner,
    poa_ratio,
    reach,
    run_dynamics,
    run_experiment,
)

from oracles import brute_minimum_spanner, brute_reach


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_hypercube_poa():
    details = []
    ok = True
    for d, edges, opt, num, den in ((3, 12, 7, 12, 7), (4, 32, 15, 32, 15)):
        t0 = time.monotonic()
        host, profile = gen_hypercube(d)
        ne = check_ne(host, profile)
        ge_ok = check_ge(host, profile).stable if d == 4 else True
        _, size = minimum_spanner(host)
        ratio = poa_ratio(host, profile)
        dt = time.monotonic() - t0
        good = (
            ne.stable and ge_ok
            and profile.arc_count == edges
            and size == opt
            and ratio == Fraction(num, den)
            and dt < 60
        )
        ok = ok and good
        details.append(f"d={d} ne={ne.stable} edges={profile.arc_count} opt={size} "
                       f"poa={ratio} {dt:.2f}s")
    _report("C1 hypercube-poa", ok, "; ".join(details))


def test_c2_t2_tightness():
    ok = True
    details = []
    for n in range(5, 13):
        host, profile = gen_t2_family(n)
        stable = check_ne(host, profile).stable
        edges = profile.arc_count
        ratio = poa_ratio(host, profile)
        good = (
            stable
            and edges == 2 * (n - 2) == host.lifetime * (n - 2)
            and ratio == 2 - Fraction(2, n - 1)
        )
        ok = ok and good
        details.append(f"n={n} edges={edges} poa={ratio}")
    _report("C2 t2-tightness", ok, "; ".join(details[:3]) + " ...")


def test_c3_br_cycle():
    host, profile, schedule = gen_br_cycle()
    trace = run_dynamics(host, profile, schedule=schedule, rule="greedy")
    improving = all(m.cost_after < m.cost_before for m in trace.moves)
    ok = (
        trace.outcome == "cycle-detected"
        and trace.period == 6
        and trace.entry == 0
        and trace.final == profile.canonical()
        and len(trace.moves) == 6
        and improving
    )
    _report(
        "C3 br-cycle", ok,
        f"outcome={trace.outcome} period={trace.period} moves={len(trace.moves)} "
        f"back_to_start={trace.final == profile.canonical()} improving={improving}",
    )


def test_c4_reduction_oracles():
    t0 = time.monotonic()
    # the worked example: 5 elements, M1={1,2}, M2={1,2,4}, M3={3,5}
    sc = SetCoverInstance(5, [{1, 2}, {1, 2, 4}, {3, 5}])
    host, profile, layout = gen_reduction_br(sc)
    strategy, _ = exact_best_response(host, profile, layout.x)
    example_ok = len(strategy) == 2
    rng = random.Random(20260816)
    br_checked = ne_checked = 0
    agree = True
    for _ in range(20):
        inst = gen_random_setcover(8, 6, rng.randrange(10**9))
        min_size, combo = inst.min_cover()
        host, profile, layout = gen_reduction_br(inst)
        strategy, _ = exact_best_response(host, profile, layout.x)
        agree = agree and len(strategy) == min_size
        br_checked += 1
        # minimum cover must be NE
        with_min = SetCoverInstance(inst.k, inst.sets, cover=set(combo))
        host, profile, _ = gen_reduction_ne(with_min)
        agree = agree and check_ne(host, profile).stable
        ne_checked += 1
        # any strictly larger cover must not be
        extra = next((i for i in range(1, inst.m + 1) if i not in combo), None)
        if extra is not None:
            bigger = SetCoverInstance(inst.k, inst.sets, cover=set(combo) | {extra})
            host, profile, _ = gen_reduction_ne(bigger)
            agree = agree and not check_ne(host, profile).stable
            ne_checked += 1
    dt = time.monotonic() - t0
    ok = example_ok and agree and br_checked >= 20 and dt < 300
    _report(
        "C4 reduction-oracles", ok,
        f"example_br=2:{example_ok} br_instances={br_checked} "
        f"ne_checks={ne_checked} agree={agree} {dt:.1f}s",
    )


def test_c5_t2_existence(tmp_path):
    result = run_experiment(
        {"scenario": "t2-existence-sweep", "seed": 20260816}, out_dir=tmp_path
    )
    s = result.report["summary"]
    ok = (
        s["pass"]
        and s["falsifications"] == 0
        and s["exhaustive"] == 1024
        and s["random"] == 500
        and s["instances"] == 1524
    )
    _report(
        "C5 t2-existence", ok,
        f"exhaustive={s['exhaustive']} random={s['random']} "
        f"falsifications={s['falsifications']}",
    )


def test_c6_structural_audits(tmp_path):
    result = run_experiment(
        {"scenario": "random-ge-sweep", "seed": 20260816}, out_dir=tmp_path
    )
    s = result.report["summary"]
    ok = s["pass"] and s["falsifications"] == 0 and s["instances"] >= 200
    _report(
        "C6 structural-audits", ok,
        f"instances={s['instances']} converged_ge={s['converged_ge']} "
        f"cycles={s['cycles']} falsifications={s['falsifications']}",
    )


def test_c7_freeze_relabel(tmp_path):
    result = run_experiment(
        {"scenario": "freeze-relabel-audit", "seed": 20260816}, out_dir=tmp_path
    )
    s = result.report["summary"]
    ok = s["pass"] and s["falsifications"] == 0 and s["ges_verified"] >= 30
    _report(
        "C7 freeze-relabel", ok,
        f"ges_verified={s['ges_verified']} falsifications={s['falsifications']}",
    )


def test_c8_large_node(tmp_path):
    result = run_experiment(
        {"scenario": "large-node-audit", "seed": 20260816}, out_dir=tmp_path
    )
    s = result.report["summary"]
    rows = result.report["instances"]
    witnesses = [r for r in rows if r["expect_witness"]]
    rejections = [r for r in rows if not r["expect_witness"]]
    ok = (
        s["pass"]
        and s["falsifications"] == 0
        and len(witnesses) >= 20
        and all(r["verified"] for r in witnesses)
        and all(r["got_witness"] is False for r in rejections)
    )
    _report(
        "C8 large-node", ok,
        f"witnesses={len(witnesses)} verified_all={all(r['verified'] for r in witnesses)} "
        f"below_threshold_rejected={len(rejections)}",
    )


def test_c9_oracle_equivalence():
    rng = random.Random(99991)
    reach_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 7)
        t = rng.randint(1, min(4, n * (n - 1) // 2))
        host = gen_random_host(n, t, rng.randrange(10**9))
        for u in range(n):
            assert reach(host, u) == brute_reach(host, u)
        reach_checked += 1
    span_checked = 0
    while span_checked < 40:
        n = rng.randint(4, 7)
        t = rng.randint(2, min(4, n * (n - 1) // 2))
        host = gen_random_host(n, t, rng.randrange(10**9))
        if not is_temporally_connected(host):
            continue
        _, size = minimum_spanner(host)
        assert size == brute_minimum_spanner(host)
        span_checked += 1
    _report(
        "C9 oracle-equivalence", True,
        f"reach_instances={reach_checked} spanner_instances={span_checked}",
    )
