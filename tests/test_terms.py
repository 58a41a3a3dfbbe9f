"""Term graph core: bisimilarity, queues, networks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from mpst import terms
from mpst.sessions import Session, simulate
from mpst.terms import (
    Comm,
    GNode,
    Msg,
    Network,
    Queue,
    bisimilar,
    comms,
    gend,
    gin,
    gout,
    minimize,
    pin,
    players,
    pout,
    quotient,
    reachable_nodes,
    subterms,
)
from gen import chain, random_gnode, random_network, random_pnode, ring
from oracles import (oracle_bisimilar, oracle_players, oracle_refine, pop_last,
                     push_front, unfold)
from zoo import growing, hospital, mp


class TestNodes:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            GNode("loop")

    def test_self_communication_rejected(self):
        with pytest.raises(ValueError):
            gout("p", "p")

    def test_choice_needs_participants(self):
        with pytest.raises(ValueError):
            GNode("out", "p", None)
        with pytest.raises(ValueError):
            GNode("in", None, "q")

    def test_player(self):
        assert gout("p", "q", {"l": gend()}).player == "p"
        assert gin("p", "q", {"l": gend()}).player == "q"
        assert gend().player is None

    def test_process_and_global_never_equal(self):
        g = gout("p", "q", {"l": gend()})
        p = pout("q", {"l": gend()})
        assert not bisimilar(g, p)

    def test_process_nodes_are_global_nodes(self):
        # a process node leaves out the participant that moves
        out, inp = pout("q"), pin("p")
        assert type(out) is type(inp) is GNode
        assert (out.sender, out.receiver, out.player) == (None, "q", None)
        assert (inp.sender, inp.receiver, inp.player) == ("p", None, None)

    def test_partner(self):
        assert pout("q").partner == "q"
        assert pin("p").partner == "p"
        assert gout("p", "q").partner == "q"
        assert gin("p", "q").partner == "p"
        assert gend().partner is None

    def test_end_is_one_term(self):
        # a process and a global type end in the same term
        assert bisimilar(pout("q", {"l": gend()}).branches["l"],
                         gout("p", "q", {"l": gend()}).branches["l"])


class TestBisimilarity:
    def test_self_loop_vs_unrolled_loop(self):
        one = gout("p", "q")
        one.branches["l"] = one
        two = gout("p", "q")
        two.branches["l"] = gout("p", "q", {"l": two})
        assert bisimilar(one, two)
        assert bisimilar(two, one)

    def test_label_difference_detected(self):
        one = gout("p", "q")
        one.branches["l"] = one
        two = gout("p", "q")
        two.branches["m"] = two
        assert not bisimilar(one, two)

    def test_deep_difference_detected(self):
        a = gout("p", "q", {"l": gin("p", "q", {"l": gend()})})
        b = gout("p", "q", {"l": gin("p", "q", {"m": gend()})})
        assert not bisimilar(a, b)

    def test_hospital_has_six_subterm_classes(self):
        h = hospital()
        assert len(reachable_nodes(h.g)) == 6
        assert len(subterms(h.g)) == 6

    def test_hospital_branches_share_continuation(self):
        h = hospital()
        assert bisimilar(h.g1.branches["nd"], h.g1.branches["pr"])

    def test_matches_product_closure_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            a = random_gnode(rng)
            b = random_gnode(rng)
            assert bisimilar(a, b) == oracle_bisimilar(a, b)
            assert bisimilar(a, a)

    def test_matches_bounded_unfolding(self):
        # two graphs that differ do so within as many steps as they
        # have nodes together
        rng = random.Random(19)
        small = dict(max_nodes=4, parts=["p", "q"], labels=["a", "b", "l1"])
        same = 0
        for _ in range(400):
            a, b = random_gnode(rng, **small), random_gnode(rng, **small)
            d = len(reachable_nodes(a)) + len(reachable_nodes(b))
            assert bisimilar(a, b) == (unfold(a, d) == unfold(b, d))
            same += bisimilar(a, b)
        assert 0 < same < 400

    def test_equivalence_laws(self):
        rng = random.Random(11)
        graphs = [random_gnode(rng, max_nodes=5) for _ in range(30)]
        for a in graphs:
            assert bisimilar(a, a)
        for a in graphs:
            for b in graphs:
                assert bisimilar(a, b) == bisimilar(b, a)

    def test_minimize_preserves_meaning(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_gnode(rng)
            m = minimize(g)
            assert bisimilar(g, m)
            assert len(reachable_nodes(m)) <= len(reachable_nodes(g))
            assert len(reachable_nodes(m)) == len(subterms(g))

    def test_minimize_collapses_unrolled_loop(self):
        two = gout("p", "q")
        two.branches["l"] = gout("p", "q", {"l": two})
        assert len(reachable_nodes(minimize(two))) == 1

    def test_minimize_reads_a_cached_key_and_stores_none(self, monkeypatch):
        g = chain(3)
        m = minimize(g)
        assert g._key is None and m._key is None
        key = g.key()
        with monkeypatch.context() as patch:
            patch.setattr(terms, "_canonical_key", None)  # not to be called
            again = minimize(g)
        assert g._key is key and again is not m and again is not g
        assert again.key() == key
        assert not set(map(id, reachable_nodes(again))) & set(
            map(id, reachable_nodes(g)))

    def test_quotient_keeps_a_minimal_graph(self):
        # a graph whose nodes are pairwise not bisimilar is its own
        # quotient; any other gets minimize's fresh one
        rng = random.Random(17)
        kept = 0
        for _ in range(200):
            g = random_gnode(rng)
            q = quotient(g)
            assert bisimilar(g, q)
            assert len(reachable_nodes(q)) == len(subterms(g))
            minimal = len(reachable_nodes(g)) == len(subterms(g))
            assert (q is g) == minimal
            kept += minimal
        assert 0 < kept < 200

    def test_quotient_refines_once(self, monkeypatch):
        # the quotient of a graph that is not minimal is built from the
        # blocks that found it not minimal, with no second refinement
        refine, calls = terms._refine, []
        monkeypatch.setattr(terms, "_refine",
                            lambda nodes: calls.append(nodes) or refine(nodes))
        two = gout("p", "q")
        two.branches["l"] = gout("p", "q", {"l": two})
        q = quotient(two)
        assert q is not two and len(reachable_nodes(q)) == 1
        assert len(calls) == 1 and two._key is None


def partition(block):
    classes = {}
    for i, b in block.items():
        classes.setdefault(b, set()).add(i)
    return sorted(sorted(c) for c in classes.values())


def few_labels(seed, count, max_nodes):
    """Graphs over two participants and three labels, so that many
    nodes are bisimilar and splits take several rounds."""
    rng = random.Random(seed)
    kw = dict(parts=["p", "q"], labels=["a", "b", "c"], max_nodes=max_nodes)
    for _ in range(count):
        yield random_gnode(rng, **kw)
        yield random_pnode(rng, "p", **kw)


def shape(root):
    nodes = reachable_nodes(root)
    at = {id(n): i for i, n in enumerate(nodes)}
    return [(n._local_sig(), [(lab, at[id(c)]) for lab, c in n.branches.items()])
            for n in nodes]


class CountingBranches(dict):
    """A branch map that counts how often it is iterated, as signing a
    node, which sorts its labels, does."""

    sorts = 0

    def __iter__(self):
        self.sorts += 1
        return super().__iter__()


def tailed_cycle(lengths):
    """A cycle of ``p q!`` outputs, one per length in ``lengths``, each
    going on to the next by ``a`` and out by ``t`` to a fresh
    ``chain(length)``, so that tails of one length are bisimilar."""
    nodes = [gout("p", "q") for _ in lengths]
    for i, (node, n) in enumerate(zip(nodes, lengths)):
        node.branches["a"] = nodes[(i + 1) % len(nodes)]
        node.branches["t"] = chain(n)
    return nodes[0]


def peel_cases():
    """Hand-built graphs for the peel in ``_refine``, by name; each has
    a ``chain`` of two or more pairs, so that the first round splits."""
    loop = gout("p", "q")
    loop.branches["a"] = loop
    unrolled = gout("p", "q")
    unrolled.branches["a"] = gout("p", "q", {"a": unrolled})
    shared = gin("p", "q", {"x": gend()})
    return {
        "cycle into bisimilar tails": tailed_cycle((1, 2, 1, 2)),
        "two bisimilar cycles with tails": gout("r", "p", {
            "x": tailed_cycle((1, 2)), "y": tailed_cycle((1, 2, 1, 2))}),
        "self-loop": gout("r", "p", {"x": loop, "y": unrolled, "z": chain(2)}),
        "two labels to one child": gout("r", "p", {
            "x": gout("p", "q", {"a": shared, "b": shared}),
            "y": gout("p", "q", {"a": shared, "b": gin("p", "q", {
                "x": gend()})}),
            "z": chain(2)}),
        "empty choice beside end": gout("r", "p", {
            "x": gout("p", "q"), "y": gout("p", "q", {"a": gend()}),
            "z": gout("p", "q"), "w": gout("p", "q", {"a": gout("p", "q")}),
            "v": chain(2)}),
    }


class TestRefinement:
    @pytest.mark.parametrize("name", list(peel_cases()))
    def test_peel_cases_match_oracles(self, name, monkeypatch):
        peeled, peel = [], terms._peel

        def spy(seeds, preds):
            order = peel(seeds, preds)
            peeled.extend(order)
            return order

        monkeypatch.setattr(terms, "_peel", spy)
        nodes = reachable_nodes(peel_cases()[name])
        block = terms._refine(nodes)
        assert partition(block) == partition(oracle_refine(nodes))
        for a in nodes:
            for b in nodes:
                assert (block[id(a)] == block[id(b)]) == oracle_bisimilar(a, b)
        # the peel ran, and each case merges some pair of distinct nodes
        assert peeled and len(set(block.values())) < len(nodes)

    def test_no_cycle_takes_no_rounds(self):
        # a node over chains of k lengths, whose children settle in k
        # different rounds of splitting, would be signed again in each;
        # peeled, it is signed as often whatever k is
        def sorts(k):
            root = gout("p", "q")
            root.branches = CountingBranches(
                {f"l{i}": chain(i) for i in range(1, k + 1)})
            nodes = reachable_nodes(root)
            root.branches.sorts = 0
            block = terms._refine(nodes)
            sorts = root.branches.sorts
            assert partition(block) == partition(oracle_refine(nodes))
            return sorts

        assert sorts(10) == sorts(40)

    def test_partition_matches_moore_oracle(self):
        refined = 0
        for root in few_labels(29, 300, 40):
            nodes = reachable_nodes(root)
            got = partition(terms._refine(nodes))
            assert got == partition(oracle_refine(nodes))
            refined += len(got) > len({n._local_sig() for n in nodes})
        assert refined > 100

    def test_blocks_are_bisimilarity_classes(self):
        for root in few_labels(31, 150, 8):
            nodes = reachable_nodes(root)
            block = terms._refine(nodes)
            for a in nodes:
                for b in nodes:
                    assert (block[id(a)] == block[id(b)]) == oracle_bisimilar(a, b)

    def test_key_subterms_minimize_match_moore(self, monkeypatch):
        roots = list(few_labels(37, 100, 40))
        roots += [ring(7), chain(7), hospital().g]
        got = [(terms._canonical_key(r), subterms(r), shape(minimize(r)))
               for r in roots]
        monkeypatch.setattr(terms, "_refine", oracle_refine)
        want = [(terms._canonical_key(r), subterms(r), shape(minimize(r)))
                for r in roots]
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_minimize_families(self, n):
        assert len(reachable_nodes(minimize(ring(n)))) == n
        assert len(reachable_nodes(minimize(chain(n)))) == 2 * n + 1


class TestPlayers:
    def test_hospital(self):
        assert players(hospital().g) == {"p", "s"}

    def test_end_has_no_players(self):
        assert players(gend()) == set()

    def test_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_gnode(rng)
            assert players(g) == oracle_players(g)


class TestComm:
    def test_str_and_parse(self):
        out = Comm("out", "p", "q", "l")
        assert str(out) == "p->q!l"
        assert Comm.parse("p->q!l") == out
        inp = Comm.parse("p->q?l")
        assert inp.kind == "in" and inp.play == "q"
        assert Comm.parse(" _a -> $b ? 1x ") == Comm("in", "_a", "$b", "1x")

    def test_parse_garbage(self):
        # participants are identifiers and a label is a word, so a second
        # mark or arrow, or an empty or spaced name, is an error
        for text in ["pq.l", "p->q?l!x", "p->q->r!l", " ->q!l", "p-> !l",
                     "p->q!", "p->q!l x", "1p->q!l", "p->q!{l}"]:
            with pytest.raises(ValueError):
                Comm.parse(text)

    @given(st.sampled_from(["out", "in"]),
           st.sampled_from(["p", "q", "alice"]),
           st.sampled_from(["r", "s", "bob"]),
           st.text(alphabet="abcl123", min_size=1, max_size=4))
    def test_parse_roundtrip(self, kind, sender, receiver, label):
        c = Comm(kind, sender, receiver, label)
        assert Comm.parse(str(c)) == c

    def test_sort_key_outputs_first(self):
        cs = [Comm.parse("p->q?a"), Comm.parse("p->q!z"), Comm.parse("p->q!a")]
        assert [str(c) for c in sorted(cs, key=lambda c: c.sort_key)] == [
            "p->q!a", "p->q!z", "p->q?a"]

    def test_comms_of_hospital(self):
        got = {str(c) for c in comms(hospital().g)}
        assert got == {"p->s!nd", "p->s?nd", "p->s?pr", "s->p!ok", "s->p!ko",
                       "s->p?ok", "s->p?ko", "p->s!pr"}


class TestQueue:
    def test_fifo_per_channel(self):
        q = Queue().push("p", "a", "q").push("p", "b", "q")
        assert q.head("p", "q") == "a"
        lab, q2 = q.pop("p", "q")
        assert lab == "a" and q2.labels("p", "q") == ("b",)

    def test_channels_commute(self):
        m1, m2 = Msg("p", "a", "q"), Msg("r", "b", "q")
        assert Queue.from_msgs([m1, m2]) == Queue.from_msgs([m2, m1])

    def test_same_channel_order_matters(self):
        m1, m2 = Msg("p", "a", "q"), Msg("p", "b", "q")
        assert Queue.from_msgs([m1, m2]) != Queue.from_msgs([m2, m1])

    def test_direction_matters(self):
        assert Queue.from_msgs([Msg("p", "a", "q")]) != \
            Queue.from_msgs([Msg("q", "a", "p")])

    @pytest.mark.parametrize("make", [
        lambda: Queue.from_msgs([Msg("p", "l", "p")]),
        lambda: Queue({("p", "p"): ["l"]}),
        lambda: Queue().push("p", "l", "p"),
    ], ids=["from-msgs", "lanes", "push"])
    def test_rejects_message_to_sender(self, make):
        # parse refuses it and no participant could read it, so the
        # printers never meet one either
        with pytest.raises(ValueError, match="to itself"):
            make()

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            Queue().pop("p", "q")

    def test_push_front_then_pop(self):
        q = push_front(Queue().push("p", "b", "q"), "p", "a", "q")
        lab, q2 = q.pop("p", "q")
        assert lab == "a" and q2 == Queue().push("p", "b", "q")

    def test_pop_last_undoes_push(self):
        base = Queue().push("p", "a", "q")
        lab, q2 = pop_last(base.push("p", "z", "q"), "p", "q")
        assert lab == "z" and q2 == base

    def test_empty_lane_is_invisible(self):
        q = Queue().push("p", "a", "q")
        _, q2 = q.pop("p", "q")
        assert q2 == Queue() and q2.is_empty and len(q2) == 0

    def test_messages_listing(self):
        q = Queue.from_msgs([Msg("r", "z", "s"), Msg("p", "a", "q"),
                             Msg("p", "b", "q")])
        assert [str(m) for m in q.messages()] == [
            "p->q:a", "p->q:b", "r->s:z"]

    def test_len(self):
        q = Queue.from_msgs([Msg("p", "a", "q"), Msg("p", "b", "q"),
                             Msg("q", "a", "p")])
        assert len(q) == 3

    @given(st.lists(st.tuples(st.sampled_from(["p", "q", "r"]),
                              st.sampled_from(["a", "b"]),
                              st.sampled_from(["p", "q", "r"])),
                    max_size=6))
    def test_push_order_within_channel_is_kept(self, triples):
        triples = [(s, l, r) for s, l, r in triples if s != r]
        q = Queue()
        for s, l, r in triples:
            q = q.push(s, l, r)
        for chan in q.channels():
            expect = tuple(l for s, l, r in triples if (s, r) == chan)
            assert q.labels(*chan) == expect


_CHANS = [("p", "q"), ("q", "p"), ("r", "q")]


def _agrees(q, model):
    """``q`` reads like the plain-tuple lanes of ``model``."""
    model = {chan: lane for chan, lane in model.items() if lane}
    assert q.channels() == sorted(model)
    for chan in _CHANS:
        lane = model.get(chan, ())
        assert q.labels(*chan) == lane
        assert q.head(*chan) == (lane[0] if lane else None)
    assert len(q) == sum(map(len, model.values()))
    assert q.is_empty == (not model)
    assert q.messages() == [Msg(chan[0], lab, chan[1])
                            for chan in sorted(model) for lab in model[chan]]
    assert q.key() == tuple(sorted(model.items()))
    plain = Queue(model)
    assert q == plain and hash(q) == hash(plain)


class TestQueueLanes:
    """Lanes are slices of shared append-only buffers; a queue must
    never see a push made later on another queue sharing its buffer."""

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                              st.sampled_from(_CHANS), st.sampled_from("abc")),
                    max_size=40))
    def test_matches_tuple_model(self, ops):
        # each operation works on any earlier queue, so the sequences
        # fork: two pushes onto one ancestor, a push after a pop on a
        # shared buffer.  The long lane starts past the tuple buffers
        long = Queue()
        for lab in "abcabcabcab":
            long = long.push("p", lab, "q")
        made = [(Queue(), {}), (long, {("p", "q"): tuple("abcabcabcab")})]
        for is_push, at, chan, lab in ops:
            q, model = made[at % len(made)]
            lane = model.get(chan, ())
            if is_push:
                made.append((q.push(chan[0], lab, chan[1]),
                             {**model, chan: lane + (lab,)}))
            elif not lane:
                with pytest.raises(LookupError):
                    q.pop(*chan)
            else:
                head, rest = q.pop(*chan)
                assert head == lane[0]
                made.append((rest, {**model, chan: lane[1:]}))
        for q, model in made:
            _agrees(q, model)
        norm = [{c: lane for c, lane in m.items() if lane} for _, m in made]
        for (q1, _), m1 in zip(made, norm):
            for (q2, _), m2 in zip(made, norm):
                assert (q1 == q2) == (m1 == m2)
                if m1 == m2:
                    assert hash(q1) == hash(q2)

    def test_forks_do_not_see_later_pushes(self):
        front = tuple("abcdefghij")
        base = Queue()
        for lab in front:
            base = base.push("p", lab, "q")
        one = base.push("p", "x", "q")
        two = base.push("p", "y", "q")
        _, popped = base.pop("p", "q")
        three = popped.push("p", "z", "q")
        four = one.push("p", "w", "q")
        assert base.labels("p", "q") == front
        assert one.labels("p", "q") == front + ("x",)
        assert two.labels("p", "q") == front + ("y",)
        assert popped.labels("p", "q") == front[1:]
        assert three.labels("p", "q") == front[1:] + ("z",)
        assert four.labels("p", "q") == front + ("x", "w")

    def test_buffer_stays_within_twice_the_live_length(self):
        rng = random.Random(3)
        q = Queue()
        for _ in range(10**4):
            live = len(q)
            if live < 12 or live < 30 and rng.random() < 0.5:
                q = q.push("p", rng.choice("ab"), "q")
            else:
                _, q = q.pop("p", "q")
            for buf, lo, hi in q._lanes.values():
                assert len(buf) <= 2 * (hi - lo) + 1

    def test_lockstep_trace_keeps_its_queues(self):
        # p and r each send once per round and q reads once from the
        # second round on, alternating p and r; every round's queue
        # shares its buffers with the rounds after it
        seen = list(simulate(Session(growing().net, Queue()), max_steps=50,
                             lockstep_rounds=True))
        assert len(seen) == 50
        for step in seen:
            n, queue = step.step, step.session.queue
            assert len(queue) == n + 1
            assert queue.labels("p", "q") == ("l",) * (n - n // 2)
            assert queue.labels("r", "q") == ("lp",) * (n - (n - 1) // 2)


class TestNetwork:
    def test_terminated_components_dropped(self):
        assert Network({"p": gend()}).is_empty
        assert Network({"p": gend()}) == Network()

    def test_get_missing_is_end(self):
        assert Network().get("p").kind == "end"

    def test_players(self):
        assert mp().net.players() == {"p", "q"}

    def test_with_and_without(self):
        procs = dict(mp().net.items())
        assert Network({**procs, "p": gend()}).players() == {"q"}
        bigger = Network({**procs, "r": pout("p", {"l": gend()})})
        assert bigger.players() == {"p", "q", "r"}
        assert "r" in bigger and "r" not in mp().net
        first = Network({**procs, "r": pout("p", {"l": gend()}),
                         "a": pin("p", {"l": gend()})})
        assert [name for name, _ in first.items()] == ["a", "p", "q", "r"]

    @pytest.mark.parametrize("proc", [
        pout("q", {"l": pin("r", {"m": pout("p", {"x": gend()})})}),
        pout("q", {"l": pin("r", {"m": pout("q")})}),
        pout("q", {"l": pin("r", {"m": gout("q", "r", {"x": gend()})})}),
        pin("q", {"l": gin("p", "q", {"x": gend()})}),
    ], ids=["self-communication", "empty-choice", "global-node",
            "global-node-naming-itself"])
    def test_rejects_what_parse_would_not_read(self, proc):
        # each fault sits below the root: two levels down in the first
        # three rows, one in the last
        with pytest.raises(ValueError, match="cannot be parsed back"):
            Network({"p": proc, "q": pin("p", {"l": gend()})})

    @pytest.mark.parametrize("procs, bad", [
        ({"1x": pout("q", {"l": gend()})}, "participant '1x'"),
        ({"p": pout("q", {"l": pin("q", {"1l": gend()})})}, "label '1l'"),
        ({"end": pout("q", {"l": gend()})}, "participant 'end'"),
        ({"p": pout("q", {"l": pout("r-s", {"l": gend()})})},
         "participant 'r-s'"),
        ({"p": pin("q", {"proc": gend()})}, "label 'proc'"),
    ], ids=["bad-participant", "bad-label", "keyword-participant",
            "bad-partner", "keyword-label"])
    def test_rejects_names_parse_would_not_read(self, procs, bad):
        # the printers refuse these names, so a network refuses them too
        with pytest.raises(ValueError, match=f"{bad} .*cannot be parsed back"):
            Network(procs)

    def test_equality_is_componentwise_bisimilarity(self):
        one = pout("q")
        one.branches["l"] = one
        two = pout("q")
        two.branches["l"] = pout("q", {"l": two})
        assert Network({"p": one}) == Network({"p": two})
        assert hash(Network({"p": one})) == hash(Network({"p": two}))

    def test_random_networks_hashable(self):
        rng = random.Random(23)
        for _ in range(50):
            net = random_network(rng)
            assert Network(dict(net.items())) == net
