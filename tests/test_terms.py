"""Term graph core: bisimilarity, queues, networks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

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
    pend,
    pin,
    players,
    pout,
    reachable_nodes,
    subterms,
)
from gen import random_gnode, random_network
from oracles import oracle_bisimilar, oracle_players, unfold
from zoo import hospital, mp


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

    def test_player(self):
        assert gout("p", "q", {"l": gend()}).player == "p"
        assert gin("p", "q", {"l": gend()}).player == "q"
        assert gend().player is None

    def test_process_and_global_never_equal(self):
        g = gout("p", "q", {"l": gend()})
        p = pout("q", {"l": pend()})
        assert not bisimilar(g, p)


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

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            Comm.parse("pq.l")

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

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            Queue().pop("p", "q")

    def test_push_front_then_pop(self):
        q = Queue().push("p", "b", "q").push_front("p", "a", "q")
        lab, q2 = q.pop("p", "q")
        assert lab == "a" and q2 == Queue().push("p", "b", "q")

    def test_pop_last_undoes_push(self):
        base = Queue().push("p", "a", "q")
        lab, q2 = base.push("p", "z", "q").pop_last("p", "q")
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


class TestNetwork:
    def test_terminated_components_dropped(self):
        assert Network({"p": pend()}).is_empty
        assert Network({"p": pend()}) == Network()

    def test_get_missing_is_end(self):
        assert Network().get("p").kind == "end"

    def test_players(self):
        assert mp().net.players() == {"p", "q"}

    def test_with_and_without(self):
        net = mp().net
        assert net.without("p").players() == {"q"}
        assert net.with_comp("p", pend()).players() == {"q"}
        bigger = net.with_comp("r", pout("p", {"l": pend()}))
        assert bigger.players() == {"p", "q", "r"}
        assert "r" in bigger and "r" not in net

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
