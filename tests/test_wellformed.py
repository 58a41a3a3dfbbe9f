"""Well-formedness judgments against the reference implementations."""

from __future__ import annotations

import random
import time

import pytest

from mpst import terms
from mpst.machines import Accepted, encode_config, qm_run, qm_start
from mpst.terms import (
    IN,
    OUT,
    GNode,
    Msg,
    Queue,
    gend,
    gin,
    gout,
    minimize,
    quotient,
    reachable_nodes,
)
from mpst.wellformed import (
    INF,
    Accept,
    ChannelMismatch,
    Unknown,
    agree,
    balanced_inductive,
    bounded,
    bounded_witness,
    depth,
    dread,
    indistinguishable,
    ok,
    queue_equiv_g,
    read,
    weakly_balanced_inductive,
    weight,
)
from gen import (
    LABELS,
    PARTS,
    chain,
    diamonds,
    lane_loop,
    random_gnode,
    random_machine,
    random_queue,
    random_word,
    ring,
)
from oracles import (
    oracle_agree,
    oracle_check_derivation,
    oracle_depth,
    oracle_dread,
    oracle_indistinguishable,
    oracle_inductive,
    oracle_players,
    oracle_queue_equiv,
    oracle_read,
    oracle_weight,
)
from zoo import (
    burst_choice,
    depth_example,
    hospital,
    mp,
    stuck_reader,
    unread_branch,
)


def graphs(seed, count, **kw):
    rng = random.Random(seed)
    return rng, [random_gnode(rng, **kw) for _ in range(count)]


def oracle_witness(g):
    """The first subterm in ``reachable_nodes`` order with a participant
    of infinite depth, and its least such participant."""
    for sub in reachable_nodes(g):
        for p in sorted(oracle_players(sub)):
            if oracle_depth(sub, p) == INF:
                return p, sub
    return None


class TestDepthAndWeight:
    def test_depth_matches_oracle(self):
        _, gs = graphs(3, 400)
        for g in gs:
            for p in PARTS:
                assert depth(g, p) == oracle_depth(g, p)

    def test_a_finite_depth_walks_no_players(self, monkeypatch):
        # only a participant that never moves makes depth look for it
        walks = []
        reach = terms.reachable_nodes
        monkeypatch.setattr(terms, "reachable_nodes",
                            lambda root: walks.append(root) or reach(root))
        g = gout("p", "q", {"a": gin("p", "q", {"a": gend()}),
                            "b": gout("q", "p", {"c": gend()})})
        assert (depth(g, "p"), depth(g, "q")) == (1, 2)
        assert walks == []
        assert depth(g, "r") == 0 and walks == [g]

    def test_weight_matches_oracle(self):
        rng, gs = graphs(4, 400)
        for g in gs:
            for _ in range(3):
                sender, receiver = rng.sample(PARTS, 2)
                msg = Msg(sender, rng.choice(LABELS), receiver)
                assert weight(msg, g) == oracle_weight(msg, g)

    def test_bounded_witness_follows_search_order(self):
        _, gs = graphs(5, 400, max_nodes=10)
        unbounded = 0
        for g in gs:
            want = oracle_witness(g)
            got = bounded_witness(g)
            assert bounded(g) == (want is None)
            if want is None:
                assert got is None
                continue
            unbounded += 1
            assert got["participant"] == want[0]
            assert got["subterm"] is want[1]
        assert 0 < unbounded < len(gs)

    def test_zoo(self):
        ex = depth_example()
        assert depth(ex.inner, "r") == INF
        # from r's first output on, the l2 loop can keep r waiting forever
        assert bounded_witness(ex.g) == {"participant": "r",
                                         "subterm": ex.g.branches["l"]}
        assert bounded(hospital().g) and bounded(burst_choice().g)
        ub = unread_branch()
        assert weight(ub.probe, ub.g) == INF


def loop_back(node, label):
    """``node`` with a branch ``label`` back to itself."""
    node.branches[label] = node
    return node


def witness_cases():
    """Hand-built graphs for the peel in ``bounded_witness``: name ->
    (graph, the witness as (participant, path of labels to the subterm)
    or None)."""
    cycle = loop_back(gout("q", "r"), "c")
    tie = gout("p", "r", {"a": loop_back(gout("r", "p", {"c": gout(
        "q", "p", {"d": gout("p", "q", {"e": gend()})})}), "b")})
    once = gout("p", "q", {"c": gend()})
    return {
        "end below a p node": (
            gout("p", "q", {"a": gout("q", "r", {"b": gend()})}), None),
        "cycle entered where p plays no part": (
            gout("p", "q", {"a": gout("r", "s", {"b": cycle})}), None),
        "cycle entered where p plays a part": (
            gout("p", "q", {"a": gout("r", "s", {"b": cycle, "d": gout(
                "p", "q", {"e": gout("q", "r", {"f": gend()})})})}),
            ("p", "a")),
        "self-loop": (
            loop_back(gout("q", "r", {"b": gout("p", "q", {"c": gend()})}),
                      "a"),
            ("p", "")),
        "two labels to one child": (
            gout("q", "r", {"a": once, "b": once}), None),
        "a p node whose children all meet p, beside an end": (
            gout("q", "r", {"a": gout("p", "q", {"c": gout("q", "r", {
                "d": gout("p", "q", {"e": gend()})})}),
                "b": gout("q", "r", {"f": gend()})}),
            ("p", "")),
        "least participant first": (
            gout("s", "t", {"a": loop_back(gout("s", "t"), "c"), "b": gout(
                "p", "q", {"x": gout("q", "p", {"y": gend()})})}),
            ("p", "")),
        "first subterm first": (tie, ("q", "")),
    }


@pytest.mark.parametrize("name", list(witness_cases()))
def test_bounded_witness_cases(name):
    g, want = witness_cases()[name]
    if want is not None:
        sub = g
        for label in want[1]:
            sub = sub.branches[label]
        want = (want[0], sub)
    assert oracle_witness(g) == want
    got = bounded_witness(g)
    assert (got and (got["participant"], got["subterm"])) == want


class TestQueueEquivalence:
    def test_indistinguishable_matches_oracle(self):
        rng, gs = graphs(6, 300)
        for g in gs:
            sender, receiver = rng.sample(PARTS, 2)
            a, b = rng.sample(LABELS, 2)
            m1, m2 = Msg(sender, a, receiver), Msg(sender, b, receiver)
            assert (indistinguishable(m1, m2, g)
                    == oracle_indistinguishable(m1, m2, g))

    def test_messages_on_different_channels(self):
        with pytest.raises(ChannelMismatch) as err:
            indistinguishable(Msg("p", "a", "q"), Msg("p", "a", "r"), gend())
        assert str(err.value) == "p->q:a and p->r:a travel on different channels"

    def test_queue_equiv_matches_oracle(self):
        rng, gs = graphs(7, 300, parts=PARTS[:3], labels=LABELS[:3])
        for g in gs:
            seq1 = random_queue(rng, parts=PARTS[:3], labels=LABELS[:3],
                                max_msgs=3).messages()
            # half the time a relabelling of seq1, else an unrelated queue
            if rng.random() < 0.5:
                seq2 = [Msg(m.sender, rng.choice(LABELS[:3]), m.receiver)
                        for m in seq1]
            else:
                seq2 = random_queue(rng, parts=PARTS[:3], labels=LABELS[:3],
                                    max_msgs=3).messages()
            rng.shuffle(seq2)
            q1, q2 = Queue.from_msgs(seq1), Queue.from_msgs(seq2)
            assert (queue_equiv_g(q1, q2, g)
                    == oracle_queue_equiv(seq1, seq2, g))


def ring_of_readers(rng, chans, max_nodes=8):
    """A ring of inputs on ``chans`` in turn and outputs from s, on no
    channel of ``chans``, each offering some of ``LABELS[:3]``.  A
    node's first branch goes on round the ring and most others do too;
    the rest go anywhere or to End, and may close cycles that pass some
    lane by."""
    nodes = [GNode(OUT, "s", rng.choice("pqr")) if rng.random() < 0.3
             else GNode(IN, *chans[i % len(chans)])
             for i in range(rng.randint(len(chans), max_nodes))]
    for i, node in enumerate(nodes):
        least = 1 if node.kind == OUT else 2
        labels = rng.sample(LABELS[:3], rng.randint(least, 3))
        for j, lab in enumerate(labels):
            node.branches[lab] = (
                nodes[(i + 1) % len(nodes)] if j == 0 or rng.random() < 0.75
                else rng.choice(nodes + [gend()]))
    return nodes[0]


def long_lanes(rng, chans):
    """A queue with a lane of 11 to 22 labels on each of ``chans``,
    mostly ``LABELS[:2]``, pushed one at a time so that the lanes past
    ``terms._SHORT`` share list buffers, and that queue with two heads
    popped from each lane, which leaves 9 to 20."""
    sends = [chan for chan in chans for _ in range(rng.randint(11, 22))]
    rng.shuffle(sends)
    full = Queue()
    for sender, receiver in sends:
        label = rng.choice(LABELS[:2]) if rng.random() < 0.95 else LABELS[2]
        full = full.push(sender, label, receiver)
    popped = full
    for chan in chans:
        popped = popped.pop(*chan)[1].pop(*chan)[1]
    return full, popped


class TestReadability:
    def check(self, g, queue):
        assert read(g, queue) == oracle_read(g, queue)
        assert dread(g, queue) == oracle_dread(g, queue)

    def test_random_graphs_and_queues(self):
        rng, gs = graphs(8, 500, max_nodes=10)
        seen = set()
        for g in gs:
            for _ in range(3):
                queue = random_queue(rng, max_msgs=rng.randint(1, 6))
                for sub in reachable_nodes(g)[:3]:
                    self.check(sub, queue)
                    seen.add((read(sub, queue), dread(sub, queue)))
        # every combination dread implies read allows shows up
        assert seen == {(False, False), (True, False), (True, True)}

    def test_long_lanes_on_several_channels(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(150):
            chans = rng.sample([("p", "q"), ("q", "r"), ("r", "p"),
                                ("q", "p")], rng.randint(2, 3))
            g = ring_of_readers(rng, chans)
            for queue in long_lanes(rng, chans):
                for sub in reachable_nodes(g)[:3]:
                    self.check(sub, queue)
                    seen.add(read(sub, queue))
        assert seen == {False, True}

    def test_a_lane_is_read_on_every_branch(self):
        # the first read goes on at eight nodes, and the third label is
        # left at End below one of them
        for bad in range(8):
            below = [gin("p", "q", {"b" if i == bad else "a": gend()})
                     for i in range(8)]
            g = gin("p", "q", {f"l{i}": gin("p", "q", {"a": n})
                               for i, n in enumerate(below)})
            lane = Queue({("p", "q"): ["l0", "a", "a"]})
            assert not read(g, lane) and not oracle_read(g, lane)

    def test_a_long_lane_reads_in_linear_time(self):
        # a memo keyed by whole queues hashes every suffix of the lane
        g = chain(10**4)
        start = time.perf_counter()
        assert read(g, Queue({("p", "q"): ["l"] * 10**4}))
        assert not read(g, Queue({("p", "q"): ["l"] * (10**4 + 1)}))
        assert time.perf_counter() - start < 1

    def test_machine_encodings(self):
        rng = random.Random(9)
        for _ in range(300):
            m = random_machine(rng)
            g, queue = encode_config(m, qm_start(m, random_word(rng, m)))
            self.check(g, queue)

    def test_zoo(self):
        for ex in (stuck_reader(), unread_branch()):
            assert not read(ex.g, ex.queue) and not dread(ex.g, ex.queue)
        h = hospital()
        pending = Queue.from_msgs([Msg("p", "nd", "s")])
        assert read(h.g1, pending) and dread(h.g1, pending)


def walk_inputs():
    """Random graphs with random queues, then encoded machine
    configurations, for the walks with path hypotheses."""
    rng, gs = graphs(10, 250, max_nodes=6)
    for g in gs:
        yield g, random_queue(rng, max_msgs=3)
    rng = random.Random(11)
    for _ in range(80):
        m = random_machine(rng)
        yield encode_config(m, qm_start(m, random_word(rng, m)))


class TestAgreementAndBalancing:
    def test_agree_matches_oracle(self):
        seen = set()
        for g, queue in walk_inputs():
            for mod_g in (False, True):
                got = agree(g, queue, mod_g)
                assert got == oracle_agree(g, queue, mod_g)
                seen.add(got)
        assert seen == {False, True}

    def test_loops_close_only_on_their_own_path(self):
        """Up to the equivalence, whether a state closes depends on the
        path to it: a state a sibling branch visited, or one finished
        on another path, must still be explored."""
        # G = p q!{l1; G1, a; G1}  G1 = p q!{a; end, l3; G}
        g, g1 = gout("p", "q"), gout("p", "q")
        g.branches.update(l1=g1, a=g1)
        g1.branches.update(a=gend(), l3=g)
        sibling = (g, Queue.from_msgs([Msg("p", "a", "q")]))
        # H = q p!{l2; H1, l3; H2}  H1 = p q!l1; H2
        # H2 = q p!{l2; H1, l3; end}
        h, h1, h2 = gout("q", "p"), gout("p", "q"), gout("q", "p")
        h.branches.update(l2=h1, l3=h2)
        h1.branches.update(l1=h2)
        h2.branches.update(l2=h1, l3=gend())
        finished = (h, Queue.from_msgs([Msg("q", "l2", "p")]))
        for root, queue in (sibling, finished):
            assert not oracle_agree(root, queue, mod_g=True)
            assert not agree(root, queue, mod_g=True)

    def test_hypotheses_live_on_their_own_path(self):
        # G = p q!{l1; G1, l2; G1, l3; G1}  G1 = q p!l2; G1: each branch
        # unfolds G1 once, which a revisit budget of 1 allows
        g1 = gout("q", "p")
        g1.branches["l2"] = g1
        g = gout("p", "q", {"l1": g1, "l2": g1, "l3": g1})
        want = oracle_inductive(g, Queue(), True, 1, False)
        got = weakly_balanced_inductive(g, Queue(), max_revisits=1)
        assert isinstance(want, Accept)
        assert got.derivation == want.derivation

    def test_checker_rejects_a_loop_closed_on_a_sibling(self):
        # G = p q!{a; p q?a; X, b; p q?b; X}  X = r s!d; r s?d; end:
        # each branch reaches X with the empty queue and unfolds it.  A
        # derivation whose b branch instead closes a loop at X against
        # the visit of the a branch must be rejected
        x = gout("r", "s", {"d": gin("r", "s", {"d": gend()})})
        g = gout("p", "q", {"a": gin("p", "q", {"a": x}),
                            "b": gin("p", "q", {"b": x})})
        for weak, check in ((False, balanced_inductive),
                            (True, weakly_balanced_inductive)):
            verdict = check(g, Queue())
            assert isinstance(verdict, Accept)
            assert oracle_check_derivation(g, Queue(), verdict.derivation,
                                           weak, False)
            b_read = verdict.derivation["branches"]["b"]
            assert b_read["branch"]["rule"] == "ib-Out"
            b_read["branch"] = {"rule": "ib-Cycle", "type": x,
                                "queue": Queue(), "hypothesis_queue": Queue(),
                                "suffix": Queue()}
            assert not oracle_check_derivation(
                g, Queue(), verdict.derivation, weak, False)

    def test_ok_needs_a_readable_hypothesis_queue(self):
        # the queue has not grown, so the empty suffix agrees and is
        # deeply readable; only the read of the old part can fail, and
        # end leaves p->q:l unread where an input of l reads it
        hq = Queue().push("p", "l", "q")
        assert not oracle_read(gend(), hq)
        assert ok(gend(), hq, hq) is None
        assert ok(gend(), hq, hq, weak=True) == Queue()
        assert ok(gin("p", "q", {"l": gend()}), hq, hq) == Queue()

    def test_output_only_graph_with_many_swaps(self):
        # G = p q!{a; G1, b; p q!{a; G3, b; G4, c; G1}, c; G4}
        # G1 = p q!{a; G, b; G2, c; G2}  G2 = p q!{a; G2, b; G1, c; G}
        # G3 = p q!{a; G1, b; G1, c; G4}  G4 = p q!{a; G2, b; G3}:
        # the agree calls of its loops swap labels in many states
        g, g1, g2, g3, g4 = (gout("p", "q") for _ in range(5))
        g.branches.update(a=g1, b=gout("p", "q", {"a": g3, "b": g4, "c": g1}),
                          c=g4)
        g1.branches.update(a=g, b=g2, c=g2)
        g2.branches.update(a=g2, b=g1, c=g)
        g3.branches.update(a=g1, b=g1, c=g4)
        g4.branches.update(a=g2, b=g3)
        verdict = weakly_balanced_inductive(g, Queue(), max_revisits=1)
        assert isinstance(verdict, Accept)

    def test_agreement_walks_each_lane_alone(self):
        # on the k-lane loop, the (node, queue) states number k 2^k but
        # the (node, lane) states only 2k per lane.  Every expanded state
        # walks its branch map once, and a lane's one swap test walks
        # the k nodes twice, for reachable_nodes and the label classes
        k = 12
        g, queue = lane_loop(k)
        for node in reachable_nodes(g):
            node.branches = CountingBranches(node.branches)
        assert agree(g, queue)
        walked = sum(node.branches.walks for node in reachable_nodes(g))
        assert walked <= 5 * k * k
        assert isinstance(weakly_balanced_inductive(*lane_loop(k)), Accept)

    def test_balancing_matches_oracle(self):
        verdicts = set()
        for g, queue in walk_inputs():
            verdicts |= check_balancing(g, queue)
        assert len(verdicts) == 4

    def test_diamonds_match_oracle(self):
        for n in range(1, 7):
            assert check_balancing(diamonds(n), Queue()) == {
                (False, Accept), (True, Accept)}

    def test_diamonds_share_their_subderivations(self):
        # each diamond is entered with the empty queue on 2^n paths,
        # which all read the same part of the path, so its three nodes
        # need few derivations, not one per path
        for check in (balanced_inductive, weakly_balanced_inductive):
            seen, todo = set(), [check(diamonds(16), Queue()).derivation]
            while todo:
                d = todo.pop()
                if id(d) not in seen:
                    seen.add(id(d))
                    todo += d.get("branches", {}).values()
                    todo += [d["branch"]] if "branch" in d else []
            assert len(seen) <= 8 * 16

    def test_a_failed_agreement_shares_nothing(self):
        # A = r s?{f; F, x; X}  X = p q!h; r s!x; A  F = p q!z; end: the
        # loop from A to A grows p->q:h, and agree(A, p->q:h) finishes
        # X with it before F fails.  X is not agreeable with p->q:h
        # either, so the next loop, from X to X, must not close
        a, x = gin("r", "s"), gout("p", "q")
        a.branches.update(f=gout("p", "q", {"z": gend()}), x=x)
        x.branches["h"] = gout("r", "s", {"x": a})
        grown = Queue.from_msgs([Msg("p", "h", "q")])
        assert not agree(x, grown) and not oracle_agree(x, grown)
        queue = Queue.from_msgs([Msg("r", "x", "s")])
        assert check_balancing(a, queue) == {(False, Unknown),
                                             (True, Unknown)}

    def test_subderivations_are_reused_only_on_the_same_path(self):
        # G = p q!{a; p q?a; N, b; B, c; p q?c; N}  B = p q?b; N
        # N = p q!b; B: N is reached with the empty queue from each
        # branch.  From the b branch, B is on the path and the loop
        # closes there; from the others it closes at N
        n, b = gout("p", "q"), gin("p", "q")
        n.branches["b"] = b
        b.branches["b"] = n
        g = gout("p", "q", {"a": gin("p", "q", {"a": n}), "b": b,
                            "c": gin("p", "q", {"c": n})})
        assert check_balancing(g, Queue()) == {(False, Accept),
                                               (True, Accept)}
        branches = balanced_inductive(g, Queue()).derivation["branches"]
        b_loop = branches["b"]["branch"]["branches"]["b"]
        c_loop = branches["c"]["branch"]["branches"]["b"]
        assert (b_loop["rule"], c_loop["rule"]) == ("ib-Cycle", "ib-In")


class CountingBranches(dict):
    """A branch map that counts how often it is walked: iterated, or
    its items or values taken."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()


def check_balancing(g, queue) -> set:
    """Both balancing checks, at both revisit budgets and both queue
    equivalences, against the oracle search; the (weak, verdict type)
    pairs seen."""
    verdicts = set()
    for weak, check in ((False, balanced_inductive),
                        (True, weakly_balanced_inductive)):
        for max_revisits in (1, 2):
            for mod_g in (False, True):
                got = check(g, queue, max_revisits, mod_g)
                want = oracle_inductive(g, queue, weak, max_revisits, mod_g)
                assert type(got) is type(want)
                if isinstance(want, Accept):
                    assert got.derivation == want.derivation
                    assert oracle_check_derivation(
                        g, queue, got.derivation, weak, mod_g)
                verdicts.add((weak, type(got)))
    return verdicts


def test_deep_inputs_do_not_recurse():
    g = chain(5000)
    assert len(g.key()) == 2 * 5000 + 1
    assert len(ring(10**4).key()) == 10**4
    assert len(reachable_nodes(minimize(chain(5000)))) == 2 * 5000 + 1
    big = ring(10**4)
    assert quotient(big) is big
    # a ring whose root also leads to a chain: q never moves on the ring
    tailed = ring(10**4)
    tailed.branches["t"] = chain(5000)
    assert len(tailed.key()) == 10**4 + 2 * 5000 + 1
    assert len(reachable_nodes(minimize(tailed))) == 10**4 + 2 * 5000 + 1
    assert bounded_witness(tailed) == {"participant": "q", "subterm": tailed}
    stray = Msg("p", "z", "r")
    queue = Queue.from_msgs([stray])
    assert depth(g, "q") == 2
    assert weight(stray, g) == INF
    assert bounded(g)
    assert not read(g, queue)
    assert not dread(g, queue)
    for mod_g in (False, True):
        assert agree(g, Queue(), mod_g)
    assert isinstance(balanced_inductive(g, Queue()), Accept)
    assert isinstance(weakly_balanced_inductive(g, Queue()), Accept)


ZOO_VERDICTS = [
    # (example, queue, balanced, weakly balanced)
    ("hospital", None, True, True),
    ("burst", None, True, True),
    ("depth", None, True, True),
    ("stuck", "queue", False, True),
    ("unread", "queue", False, True),
    ("mp", None, False, False),
]
ZOO = {"hospital": hospital, "burst": burst_choice, "depth": depth_example,
       "stuck": stuck_reader, "unread": unread_branch, "mp": mp}


@pytest.mark.parametrize("name,queue,balanced,weak", ZOO_VERDICTS)
def test_zoo_balancing_verdicts(name, queue, balanced, weak):
    ex = ZOO[name]()
    q = getattr(ex, queue) if queue else Queue()
    assert isinstance(balanced_inductive(ex.g, q), Accept) == balanced
    assert isinstance(weakly_balanced_inductive(ex.g, q), Accept) == weak
    assert agree(ex.g, q)


def test_machine_reduction_is_sound():
    """A machine diverges exactly when its encoded configuration is
    balanced, so one that accepts must never get Accept, and every
    Accept must have a derivation the checker re-derives."""
    rng = random.Random(1)
    accepted = derived = 0
    for _ in range(200):
        m = random_machine(rng)
        w = random_word(rng, m)
        accepts = isinstance(qm_run(m, w, max_steps=500), Accepted)
        accepted += accepts
        g, queue = encode_config(m, qm_start(m, w))
        for max_revisits in (1, 2):
            for mod_g in (False, True):
                verdict = balanced_inductive(g, queue, max_revisits, mod_g)
                if isinstance(verdict, Accept):
                    assert not accepts
                    assert oracle_check_derivation(
                        g, queue, verdict.derivation, False, mod_g)
                    derived += 1
    assert accepted >= 50 and derived > 0
