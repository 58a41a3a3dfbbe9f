"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import compare  # noqa: E402
import expect as E  # noqa: E402
import families as F  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

INF = float("inf")


@pytest.fixture
def lib():
    return harness.load_lib()


def walk(node, labels):
    for lab in labels:
        node = node.branches[lab]
    return node


# ---------------------------------------------------------------------------
# the families build what they claim


@pytest.mark.parametrize("n", [1, 2, 7])
def test_ring(lib, n):
    g = F.build_ring(lib.terms, n)
    nodes = E.reach(g)
    assert len(nodes) == n
    assert all(x.kind == "out" and (x.sender, x.receiver) == ("p", "q") for x in nodes)
    labels = sorted(lab for x in nodes for lab in x.branches)
    assert labels == ["a"] * (n - 1) + ["b"]
    assert walk(g, ["a"] * (n - 1) + ["b"]) is g
    parsed = lib.syntax.parse(F.ring_text(n)).globals_["G"]
    assert len(E.reach(parsed)) == n
    assert lib.oracles.oracle_bisimilar(parsed, g)
    twice = lib.syntax.parse(F.ring_text(n, "H", 2)).globals_["H"]
    assert len(E.reach(twice)) == 2 * n
    assert lib.oracles.oracle_bisimilar(twice, g)
    assert E.class_count(lib.oracles, twice) == n


@pytest.mark.parametrize("n", [1, 4])
def test_chain(lib, n):
    g = F.build_chain(lib.terms, n)
    assert len(E.reach(g)) == 2 * n + 1
    end = walk(g, ["l"] * (2 * n))
    assert end.kind == "end"
    node = g
    for i in range(2 * n):
        assert node.kind == ("out" if i % 2 == 0 else "in")
        assert list(node.branches) == ["l"]
        node = node.branches["l"]
    parsed = lib.syntax.parse(F.chain_text(n)).globals_["G"]
    assert lib.oracles.oracle_bisimilar(parsed, g)


@pytest.mark.parametrize("n", [1, 3])
def test_diamonds(lib, n):
    g = F.build_diamonds(lib.terms, n)
    assert len(E.reach(g)) == 3 * n
    node = g
    for _ in range(n):
        assert node.kind == "out" and sorted(node.branches) == ["x", "y"]
        x, y = node.branches["x"], node.branches["y"]
        assert x is not y
        assert x.kind == y.kind == "in"
        assert list(x.branches) == ["x"] and list(y.branches) == ["y"]
        assert x.branches["x"] is y.branches["y"]
        node = x.branches["x"]
    assert node is g


def test_pairs(lib):
    net = F.build_pairs(lib.terms, 3)
    assert net.players() == {p for pair in F.pair_names(3) for p in pair}
    for sender, receiver in F.pair_names(3):
        out, inp = net.get(sender), net.get(receiver)
        assert (out.kind, out.partner, inp.kind, inp.partner) == (
            "out", receiver, "in", sender)
        for node in (out, inp):
            assert node.branches == {"x": node, "y": node}


# ---------------------------------------------------------------------------
# the hand-written table agrees with tests/zoo.py and the oracles


def protocol(lib, name):
    return lib.syntax.parse((ROOT / "protocols" / f"{name}.mps").read_text())


def test_table_subjects_exist(lib):
    for (stem, subject, call) in E.PROTOCOL_TABLE:
        doc = protocol(lib, stem)
        if "/" in subject:
            gname, qname = subject.split("/")
            assert gname in doc.globals_
            assert qname in doc.queues or (qname == "-" and not doc.queues)
        else:
            assert subject in doc.networks or subject in doc.machines


def test_table_agrees_with_zoo(lib):
    O, zoo, Msg = lib.oracles, lib.zoo, lib.terms.Msg
    table = E.PROTOCOL_TABLE
    same = O.oracle_bisimilar

    depth = zoo.depth_example()
    doc = protocol(lib, "depth")
    assert same(doc.globals_["G"], depth.g) and same(doc.globals_["Inner"], depth.inner)
    assert table[("depth", "Inner/-", "wellformed.depth r")] == O.oracle_depth(depth.inner, "r")
    assert table[("depth", "G/-", "wellformed.bounded")] == E.oracle_bounded(O, depth.g)
    assert table[("depth", "Inner/-", "wellformed.bounded")] == E.oracle_bounded(O, depth.inner)

    unread = zoo.unread_branch()
    doc = protocol(lib, "unread")
    assert same(doc.globals_["G"], unread.g) and doc.queues["M"] == unread.queue
    assert str(unread.probe) == "p->r:l2"
    assert table[("unread", "G/M", "wellformed.weight p->r:l2")] == O.oracle_weight(
        unread.probe, unread.g) == INF
    assert table[("unread", "G/M", "wellformed.balanced")] == "not accept"

    # nobody ever reads on p->r, so the stray message stays: not balanced
    stuck = zoo.stuck_reader()
    doc = protocol(lib, "stuck")
    assert same(doc.globals_["G"], stuck.g) and doc.queues["Stray"] == stuck.queue
    assert not any(n.kind == "in" and (n.sender, n.receiver) == ("p", "r")
                   for n in E.reach(stuck.g))
    assert table[("stuck", "G/Stray", "wellformed.balanced")] == "not accept"

    # after the send, q waits for lp but only l can ever arrive
    mp = zoo.mp()
    doc = protocol(lib, "mp")
    assert same(doc.globals_["G"], mp.g)
    assert O.oracle_weight(Msg("p", "l", "q"), mp.g.branches["l"]) == INF
    assert table[("mp", "G/-", "wellformed.balanced")] == "not accept"
    (comm, net, queue), = O.oracle_session_successors(mp.net, lib.terms.Queue())
    assert O.oracle_session_successors(net, queue) == [] and not net.is_empty
    assert table[("mp", "N", "sessions.check_liveness")] == "counterexample"

    doc = protocol(lib, "machines")
    for name, machine in (("Copy", zoo.copy_loop()), ("Eraser", zoo.eraser()),
                          ("Parity", zoo.parity())):
        assert doc.machines[name].delta == machine.delta
        kind = table[("machines", name, "accepts")]
        for word in workloads._words(machine.input_alphabet, 3):
            got = O.oracle_qm_run(machine.delta, machine.start, machine.bottom, word, 500)
            assert (got[0] == "accepted") == E.machine_accepts(kind, word)
            if got[0] == "accepted":
                assert got[1] == len(word) + 1


# ---------------------------------------------------------------------------
# the harness


def test_limit_stops_a_call_and_checks_count_wrong_answers(lib):
    rec = harness.Recorder(0.05, ())
    previous = signal.signal(signal.SIGALRM, rec.on_alarm)
    try:
        rec.begin_input("x")
        assert rec.call("spin", lambda: next(x for x in itertools.count() if x < 0)) is harness.FAILED
        assert rec.call("raise", lambda: 1 / 0) is harness.FAILED
        rec.call("right", lambda: 2, expect=lambda r: r == 2)
        rec.call("wrong", lambda: 3, expect=lambda r: r == 2)
        rec.call("unknown", lambda: 4, expect=lambda r: None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert [c.outcome for c in rec.calls] == [
        harness.TIMEOUT, harness.RAISED, harness.DECIDED, harness.DECIDED, harness.DECIDED]
    assert rec.calls[0].end - rec.calls[0].start == pytest.approx(0.05)
    checked, wrong = harness.verify(rec.calls)
    assert checked == 2 and len(wrong) == 1 and wrong[0].startswith("x wrong")


def test_best_times_take_each_calls_least_time():
    best = {}
    harness.keep_best(best, {("a", "f", 0): 3.0, ("a", "f", 1): None, ("b", "g", 0): None})
    harness.keep_best(best, {("a", "f", 0): 2.0, ("a", "f", 1): 4.0, ("b", "g", 0): None})
    best, verdicts = harness.best_times(best, 0.5, 10.0)
    # a call stopped in every pass counts at the limit, unscaled
    assert best == {("a", "f", 0): 1.0, ("a", "f", 1): 2.0, ("b", "g", 0): 10.0}
    assert sorted(verdicts) == [3.0, 10.0]


def test_speed_factor_scales_to_the_reference():
    speed = harness.Speed()
    speed.times = [2 * harness.PROBE_REFERENCE_S] * 5 + [100.0]
    assert speed.factor() == pytest.approx(0.5)
    speed.probe()
    assert speed.times[-1] > 0


def test_gtype_text_round_trips(lib):
    rng = random.Random(5)
    for _ in range(50):
        g = lib.gen.random_gnode(rng)
        parsed = lib.syntax.parse(workloads.gtype_text(g)).globals_["G"]
        assert len(E.reach(parsed)) == len(E.reach(g))
        assert lib.oracles.oracle_bisimilar(parsed, g)


# ---------------------------------------------------------------------------
# compare mode


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10.03]
    faster = [v * 0.8 for v in base]
    same = list(reversed(base))
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, faster, "lower", 0.1) == "improved"
    assert compare.verdict(base, same, "lower", 0.1) == "no worse"
    assert compare.verdict(base, slower, "lower", 0.1) == "worse"
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, slower, "higher", 0.1) == "improved"
    # wider than the bound, yet every run of the change is better
    assert compare.verdict(noisy, [1.0] * 10, "lower", 0.1) == "improved"
    assert compare.verdict(noisy, [4.9] * 10, "lower", 0.1) == "no worse"


# ---------------------------------------------------------------------------
# a tiny run of every workload

TINY = workloads.Sizes(globals=6, networks=3, machines=3, machine_word_len=1,
                       ring=6, chain=5, key_chain=4, diamonds=3, pairs=2,
                       growing_rounds=40, hospital_steps=100)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if trace else "end_to_end"
    start = time.perf_counter()
    out, detail = harness.measure(workloads.WORKLOADS[name], ROOT, 7, 0, trace,
                                  workloads.LIMITS[name], sizes=TINY)
    assert time.perf_counter() - start < 30
    assert out["correct"] and out["failed"] == 0, detail["wrong_verdicts"]
    assert out["attempted"] > 0 and detail["checked"] > 0
    assert set(out["metrics"]) == {m["name"] for m in spec[group]}
