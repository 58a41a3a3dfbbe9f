"""Session semantics: steps, lockstep rounds, liveness."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from mpst import sessions
from mpst.sessions import (
    ChoicePolicy,
    Classification,
    CounterexampleTrace,
    HorizonExceeded,
    MinLabelPolicy,
    NOT_ENABLED,
    NOT_LIVE,
    RandomPolicy,
    ScriptMismatch,
    ScriptPolicy,
    Session,
    Verified,
    _options_by_player,
    _perform,
    _rounds,
    _starved,
    check_liveness,
    classify,
    deadlock_info,
    enabled,
    lockstep,
    simulate,
    step_session,
    LivenessMode,
)
from mpst.syntax import parse
from mpst.terms import (Comm, END, IN, Network, OUT, Queue, _SHORT, gend, gout,
                        pin, pout, quotient, reachable_nodes)
from gen import (
    LABELS,
    PARTS,
    chain_network,
    pairs,
    random_gnode,
    random_network,
    random_pnode,
    random_queue,
)
from oracles import (
    _cycle_ok,
    oracle_bisimilar,
    oracle_liveness,
    oracle_session_successors,
    oracle_step,
)
from zoo import growing, hospital, mp


PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"


def fresh(net, queue=None):
    return Session(net, queue or Queue())


class TestStep:
    def test_send_appends(self):
        s = fresh(mp().net)
        nxt = step_session(s, Comm.parse("p->q!l"))
        assert nxt.queue.labels("p", "q") == ("l",)
        assert nxt.net.get("p").kind == "end"

    def test_receive_needs_matching_head(self):
        s = fresh(mp().net)
        assert step_session(s, Comm.parse("p->q?lp")) is NOT_ENABLED
        sent = step_session(s, Comm.parse("p->q!l"))
        # the only message is l, which the receiver does not expect
        assert step_session(sent, Comm.parse("p->q?lp")) is NOT_ENABLED
        assert step_session(sent, Comm.parse("p->q?l")) is NOT_ENABLED

    def test_wrong_label_or_partner(self):
        s = fresh(mp().net)
        assert step_session(s, Comm.parse("p->q!zz")) is NOT_ENABLED
        assert step_session(s, Comm.parse("p->r!l")) is NOT_ENABLED
        assert step_session(s, Comm.parse("q->p!l")) is NOT_ENABLED

    def test_matches_direct_rules(self):
        # default draws, then small components that never end
        rng = random.Random(61)
        nets = [random_network(rng) for _ in range(300)]
        nets += [random_network(rng, max_nodes=3, end_bias=0.0)
                 for _ in range(150)]
        candidates = [Comm(kind, sender, receiver, label)
                      for kind in ("out", "in")
                      for sender, receiver in itertools.permutations(PARTS, 2)
                      for label in LABELS]
        for net in nets:
            queue = random_queue(rng)
            s = fresh(net, queue)
            succ = {}
            for comm, net2, q2 in oracle_session_successors(net, queue):
                succ[comm] = Session(net2, q2)
            assert enabled(s) == set(succ)
            options = _options_by_player(s.net.items(), s.queue.head, {})
            assert {c for cs in options.values() for c in cs} == set(succ)
            for player, cs in options.items():
                assert {c.play for c in cs} == {player}
                assert list(cs) == sorted(cs, key=lambda c: c.sort_key)
            for comm in candidates + list(succ):
                expect = oracle_step(net, queue, comm)
                got = step_session(s, comm)
                if expect is None:
                    assert got is NOT_ENABLED, comm
                else:
                    assert got == Session(*expect), comm

    def test_component_with_its_own_slot_filled(self):
        # r's process may not be a global-type node such as p q!l, nor
        # one that fills r's own slot: parse reads neither as a component
        for sender in ("p", "r"):
            with pytest.raises(ValueError, match="cannot be parsed back"):
                Network({"r": gout(sender, "q", {"l": gend()})})


class TestEnabledAndClassify:
    def test_hospital_initially_only_the_send(self):
        s = fresh(hospital().net)
        assert {str(c) for c in enabled(s)} == {"p->s!nd"}
        assert classify(s) is Classification.LIVE

    def test_after_send_only_the_read(self):
        s = fresh(hospital().net)
        s = step_session(s, Comm.parse("p->s!nd"))
        assert {str(c) for c in enabled(s)} == {"p->s?nd"}

    def test_terminated(self):
        assert classify(fresh(Network())) is Classification.TERMINATED
        assert classify(fresh(Network(), Queue().push("p", "l", "q"))) \
            is Classification.DEADLOCKED

    def test_mp_deadlocks(self):
        s = fresh(mp().net)
        s = step_session(s, Comm.parse("p->q!l"))
        assert classify(s) is Classification.DEADLOCKED
        info = deadlock_info(s)
        assert info["blocked"] == {
            "q": {"from": "p", "expects": ["lp"], "head": "l"}}
        assert info["unread"] == ["p->q:l"]


class TestLockstep:
    def test_everyone_moves(self):
        delta, nxt = lockstep(fresh(growing().net))
        assert {str(c) for c in delta} == {"p->q!l", "r->q!lp"}
        assert len(nxt.queue) == 2

    def test_not_live(self):
        s = fresh(mp().net)
        s = step_session(s, Comm.parse("p->q!l"))
        assert lockstep(s) is NOT_LIVE

    def test_growing_rounds(self):
        s = fresh(growing().net)
        seen = []
        for step in simulate(s, max_steps=3, lockstep_rounds=True):
            seen.append(({str(c) for c in step.delta}, len(step.session.queue)))
        assert seen == [
            ({"p->q!l", "r->q!lp"}, 2),
            ({"p->q!l", "p->q?l", "r->q!lp"}, 3),
            ({"p->q!l", "r->q?lp", "r->q!lp"}, 4),
        ]

    def test_simulate_stops_at_quiescence(self):
        # after p's send, q reads only lp while the queue holds l, so
        # nothing is enabled and both kinds of step stop there
        s = fresh(mp().net)
        for rounds in (False, True):
            trace = list(simulate(s, max_steps=5, lockstep_rounds=rounds))
            assert [step.step for step in trace] == [1]
            assert {str(c) for c in trace[0].delta} == {"p->q!l"}
            assert classify(trace[0].session) is Classification.DEADLOCKED

    def test_order_independence(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(200):
            s = fresh(random_network(rng), random_queue(rng))
            result = lockstep(s)
            if result is NOT_LIVE:
                continue
            delta, nxt = result
            for perm in itertools.permutations(delta):
                state = (s.net, s.queue)
                for comm in perm:
                    state = oracle_step(*state, comm)
                    assert state is not None
                assert Session(*state) == nxt
                checked += 1
        assert checked > 50

    def test_delta_members_were_enabled(self):
        rng = random.Random(71)
        for _ in range(100):
            s = fresh(random_network(rng), random_queue(rng))
            result = lockstep(s, RandomPolicy(rng.randint(0, 999)))
            if result is NOT_LIVE:
                continue
            delta, _ = result
            assert delta <= enabled(s)
            assert len({c.play for c in delta}) == len(delta)

    def test_policy_must_choose_an_offered_option(self):
        # the stale policy keeps its first choice: in a lockstep round of
        # growing it gives r what p was offered, and in hospital it sends
        # again where only the read is offered
        for net, rounds in ((growing().net, True), (hospital().net, False)):
            with pytest.raises(ValueError, match="not among"):
                list(simulate(fresh(net), _StalePolicy(), 5, rounds))
        with pytest.raises(ValueError, match="not among"):
            lockstep(fresh(growing().net), _StalePolicy())

    def test_random_policy_is_reproducible(self):
        s = fresh(hospital().net)
        one = [step.delta for step in simulate(s, RandomPolicy(5), 8)]
        two = [step.delta for step in simulate(s, RandomPolicy(5), 8)]
        assert one == two

    def test_a_policy_cannot_reorder_the_move_table(self):
        # the options a policy gets are shared with every network derived
        # from the session, so they are tuples: a policy that reverses
        # them fails, and later rounds and steps see them as before
        s = fresh(parse("network N { p |> q!{a; end, b; end}, "
                        "q |> p?{a; end, b; end} }").networks["N"])
        before = lockstep(s), enabled(s)
        assert {str(c) for c in before[0][0]} == {"p->q!a"}
        for run in (lambda: list(simulate(s, _ReversingPolicy(), 3, True)),
                    lambda: list(simulate(s, _ReversingPolicy(), 3)),
                    lambda: lockstep(s, _ReversingPolicy())):
            try:
                run()
            except Exception:  # whatever it raises, nothing changed
                pass
            assert (lockstep(s), enabled(s)) == before
            for rounds in (True, False):
                first = next(simulate(s, MinLabelPolicy(), 1, rounds))
                assert {str(c) for c in first.delta} == {"p->q!a"}


class TestSnapshots:
    # a run performs its steps on one working state; every TraceStep
    # keeps a snapshot that no later step changes, list buffers of lanes
    # longer than terms._SHORT included

    @pytest.mark.parametrize("make, policy, steps, rounds", [
        (growing, MinLabelPolicy(), 300, True),
        (hospital, RandomPolicy(3), 2000, False),
    ])
    def test_snapshots_never_change(self, make, policy, steps, rounds):
        s = fresh(make().net)
        trace = list(simulate(s, policy, steps, rounds))
        assert len(trace) == steps
        assert max(len(step.session.queue) for step in trace) > _SHORT
        before = s
        for step in trace:
            net, queue = before.net, before.queue
            for comm in sorted(step.delta, key=str):
                net, queue = oracle_step(net, queue, comm)
            assert _same(Session(net, queue), step.session)
            before = step.session

    def test_a_repeated_configuration_sorts_nothing(self, monkeypatch):
        # the merged options of a single step are sorted once per run
        # and configuration: 36 sort keys for these 2,000 steps, where
        # sorting every step with more than one player asks for 4,395
        keys = []

        def counted(comm):
            keys.append(comm)
            return comm.sort_key

        monkeypatch.setattr(sessions, "_SORT_KEY", counted)
        trace = list(simulate(fresh(hospital().net), RandomPolicy(3), 2000))
        assert len(trace) == 2000
        assert len(keys) <= 40


class TestHospitalTrace:
    # under the default policy the negotiation runs: first proposal,
    # rejection, immediate second proposal read as a fresh one, second
    # rejection, and so on; the queue keeps one unread proposal ahead
    ARROWS = ["p->s!nd", "p->s?nd", "s->p!ko", "s->p?ko", "p->s!pr",
              "p->s!nd", "p->s?pr", "s->p!ko", "s->p?ko", "p->s!pr",
              "p->s!nd"]

    def test_default_policy_replays_the_negotiation(self):
        h = hospital()
        trace = list(simulate(fresh(h.net), MinLabelPolicy(), 11))
        assert [str(c) for step in trace for c in step.delta] == self.ARROWS
        final = trace[-1].session
        assert final.net == Network({"p": h.p1, "s": h.s})
        assert final.queue.labels("p", "s") == ("nd", "pr", "nd")

    def test_script_policy_replays_exactly(self):
        h = hospital()
        policy = ScriptPolicy([Comm.parse(a) for a in self.ARROWS])
        trace = list(simulate(fresh(h.net), policy, 11))
        got = [str(c) for step in trace for c in step.delta]
        assert got == self.ARROWS

    def test_script_mismatch_raises(self):
        policy = ScriptPolicy([Comm.parse("p->s!pr")])
        with pytest.raises(ScriptMismatch, match="expects"):
            list(simulate(fresh(hospital().net), policy, 1))

    def test_script_exhaustion_raises(self):
        policy = ScriptPolicy([])
        with pytest.raises(ScriptMismatch, match="ended"):
            list(simulate(fresh(hospital().net), policy, 1))


class TestLiveness:
    def test_clean_exchange_verified(self):
        net = Network({"p": pout("q", {"l": gend()}),
                       "q": pin("p", {"l": gend()})})
        for mode in LivenessMode:
            assert check_liveness(fresh(net), 10, mode) == Verified()

    def test_mp_counterexample(self):
        s = fresh(mp().net)
        for mode in LivenessMode:
            result = check_liveness(s, 10, mode)
            assert isinstance(result, CounterexampleTrace)
            assert len(result.trace) <= 2
            final = result.trace[-1][1]
            assert classify(final) is Classification.DEADLOCKED

    def test_growing_never_repeats(self):
        s = fresh(growing().net)
        for mode in LivenessMode:
            assert check_liveness(s, 12, mode) == HorizonExceeded(12)

    def test_hospital_inconclusive(self):
        # the all-ko schedule grows the queue forever, so the horizon
        # always cuts some schedule off
        s = fresh(hospital().net)
        assert check_liveness(s, 8) == HorizonExceeded(8)

    def test_starved_input_cycle_is_reported(self):
        # p and q loop happily, r waits forever on a message that
        # never comes
        net = Network({
            "p": _loop_out("q", "l"),
            "q": _loop_in("p", "l"),
            "r": pin("p", {"x": gend()}),
        })
        result = check_liveness(fresh(net), 10)
        assert isinstance(result, CounterexampleTrace)

    def test_unread_message_cycle_is_reported(self):
        net = Network({
            "p": _loop_out("q", "l"),
            "q": _loop_in("p", "l"),
        })
        stray = Queue().push("p", "zz", "r")
        result = check_liveness(fresh(net, stray), 10,
                                LivenessMode.QUEUE_CONSUMING)
        assert isinstance(result, CounterexampleTrace)
        # r is absent, so its lane is one marker, and the cycle of p and
        # q grows no lane: the lasso returns to an equal concrete state
        assert _genuine(fresh(net, stray), result.trace,
                        LivenessMode.QUEUE_CONSUMING)
        assert check_liveness(fresh(net, stray), 10,
                              LivenessMode.INPUT_ENABLING) == Verified()

    def test_lane_unread_once_its_receiver_moves_on(self):
        # p sends l forever, q reads one and ends: from then on nobody
        # reads p->q, so the lane keeps only that it is not empty.  No
        # participant waits, but a message stays unread forever on a
        # cycle that has no lasso, since its lane grows
        net = Network({"p": _loop_out("q", "l"),
                       "q": pin("p", {"l": gend()})})
        for horizon in (5, 50):
            assert check_liveness(fresh(net), horizon,
                                  LivenessMode.INPUT_ENABLING) == Verified()
            assert check_liveness(fresh(net), horizon,
                                  LivenessMode.QUEUE_CONSUMING) \
                == HorizonExceeded(horizon)

    def test_lane_to_an_absent_receiver_grows(self):
        # p sends l forever to r, who is absent, and q waits on p: the
        # cycle starves q and the lane p->r, and it grows that lane
        net = Network({"p": _loop_out("r", "l"),
                       "q": pin("p", {"l": gend()})})
        for horizon in (5, 50):
            for mode in LivenessMode:
                assert check_liveness(fresh(net), horizon, mode) \
                    == HorizonExceeded(horizon)

    def test_a_receiver_that_moves_on_drops_its_unread_lanes(
            self, monkeypatch):
        # p sends x or y to q and ends, r sends a or b to q.  After a, q
        # reads p, and y leads it to send c to r, so x and y stay apart;
        # after b it ends, and the lane p->q, x or y, is unread at once:
        # the two states after b are one.  Before unread lanes
        # collapsed, the check built the options of 12 states, not 9
        net = Network({
            "p": pout("q", {"x": gend(), "y": gend()}),
            "q": pin("r", {"a": pin("p", {"x": gend(),
                                          "y": pout("r", {"c": gend()})}),
                           "b": gend()}),
            "r": pout("q", {"a": gend(), "b": gend()}),
        })
        built = []

        def counted(*args):
            built.append(args)
            return _options_by_player(*args)

        monkeypatch.setattr(sessions, "_options_by_player", counted)
        assert check_liveness(fresh(net), 5) == Verified()
        assert len(built) == 9
        # under queue-consuming the ended q leaves x or y unread
        result = check_liveness(fresh(net), 5, LivenessMode.QUEUE_CONSUMING)
        assert _genuine(fresh(net), result.trace,
                        LivenessMode.QUEUE_CONSUMING)

    def test_labels_that_no_reader_tells_apart_are_one(self, monkeypatch):
        # as above, but q reads x and y into one node: p's two choices
        # meet in one state both after a and after b, so the check
        # builds the options of 5 states
        net = Network({
            "p": pout("q", {"x": gend(), "y": gend()}),
            "q": pin("r", {"a": pin("p", {"x": gend(), "y": gend()}),
                           "b": gend()}),
            "r": pout("q", {"a": gend(), "b": gend()}),
        })
        built = []

        def counted(*args):
            built.append(args)
            return _options_by_player(*args)

        monkeypatch.setattr(sessions, "_options_by_player", counted)
        assert check_liveness(fresh(net), 5) == Verified()
        assert len(built) == 5

    def test_a_lasso_through_merged_labels_turns_until_it_recurs(self):
        # p sends x or y to q forever, q reads either into the same node
        # and r waits on s, who is absent.  Up to labels the lane p->q
        # keeps its two messages, but the concrete lane goes from y x to
        # x x in the first turn of the cycle: only the second turn
        # returns to a session that the trace met before
        p = pout("q")
        p.branches.update(x=p, y=p)
        q = pin("p")
        q.branches.update(x=q, y=q)
        net = Network({"p": p, "q": q, "r": pin("s", {"a": gend()})})
        s = fresh(net, Queue({("p", "q"): ["y", "x"]}))
        result = check_liveness(s, 6)
        assert isinstance(result, CounterexampleTrace)
        assert _genuine(s, result.trace, LivenessMode.INPUT_ENABLING)
        assert [after.queue.labels("p", "q") for _, after in result.trace] \
            == [("x", "x"), ("x", "x")]

    @pytest.mark.parametrize("index, answers", [
        (39, ((HorizonExceeded, 6), (HorizonExceeded, 21))),
        (370, ((Verified, 2), (HorizonExceeded, 3)))])
    def test_unread_lanes_keep_corpus_states_few(self, monkeypatch, index,
                                                 answers):
        # network 39 reads none of its lanes, and 370 few: kept whole,
        # they make thousands to millions of states by horizon 6.  Each
        # new state builds its options once
        rng = random.Random(f"corpus/1/net/{index}")
        s = fresh(random_network(rng), random_queue(rng))
        built = []

        def counted(*args):
            built.append(args)
            return _options_by_player(*args)

        monkeypatch.setattr(sessions, "_options_by_player", counted)
        for mode, (answer, count) in zip(LivenessMode, answers):
            built.clear()
            assert type(check_liveness(s, 6, mode)) is answer
            assert len(built) == count <= 100

    def test_a_state_with_no_options_has_no_round(self, monkeypatch):
        # a completed state gets no round back to itself, so neither an
        # empty session nor one message read closes a cycle to search
        searched = []
        real = sessions._lasso

        def counted(*args):
            searched.append(args)
            return real(*args)

        monkeypatch.setattr(sessions, "_lasso", counted)
        exchange = Network({"p": pout("q", {"l": gend()}),
                            "q": pin("p", {"l": gend()})})
        for net in (Network(), exchange):
            for mode in LivenessMode:
                assert check_liveness(fresh(net), 5, mode) == Verified()
        assert searched == []

    def test_stuck_at_the_start(self):
        waiting = fresh(Network({"q": pin("p", {"l": gend()})}))
        stray = fresh(Network(), Queue().push("p", "l", "q"))
        for s, owing in ((waiting, LivenessMode.INPUT_ENABLING),
                         (stray, LivenessMode.QUEUE_CONSUMING)):
            for mode in LivenessMode:
                expect = CounterexampleTrace(()) if mode is owing else Verified()
                assert check_liveness(s, 10, mode) == expect

    def test_obligation_owed_off_the_cycle_is_not_reported(self):
        # r may send a forever; on that cycle r never waits and s reads
        # each a.  r waits, and the channel s->r holds a message, only
        # after a b, and both are served two rounds later
        r, r_waits = pout("s"), pin("s")
        r.branches.update(a=r, b=r_waits)
        r_waits.branches["c"] = r
        s, s_owes = pin("r"), pout("r")
        s.branches.update(a=s, b=s_owes)
        s_owes.branches["c"] = s
        session = fresh(Network({"r": r, "s": s}))
        for mode in LivenessMode:
            assert check_liveness(session, 8, mode) == Verified()
            assert oracle_liveness(session, 8, mode) == Verified()

    def test_cycle_closed_after_the_last_check_is_reported(self):
        # after ok, p and q loop and q reads each a; the first cycle
        # check passes there.  After bad, b0 and b1, p sends m to r,
        # which nobody reads, and loops with q: that cycle closes after
        # the graph has stopped doubling, so only the final check sees it
        p_ok, q_ok = _loop_out("q", "a"), _loop_in("p", "a")
        p_bad = pout("q", {"b0": pout("q", {"b1": pout("r", {
            "m": _loop_out("q", "a")})})})
        q_bad = pin("p", {"b0": pin("p", {"b1": q_ok})})
        session = fresh(Network({
            "p": pout("q", {"ok": p_ok, "bad": p_bad}),
            "q": pin("p", {"ok": q_ok, "bad": q_bad}),
        }))
        mode = LivenessMode.QUEUE_CONSUMING
        result = check_liveness(session, 20, mode)
        assert isinstance(result, CounterexampleTrace)
        assert isinstance(oracle_liveness(session, 20, mode),
                          CounterexampleTrace)

    def test_deadlock_generated_before_a_cycle_check_wins(self):
        # r waits forever.  After a, p and q loop from the second round
        # on, so the third round closes a cycle on which r is never
        # served.  After b and c, p and q end in that same third round
        # and leave r stuck: that deadlock is generated before the cycle
        # check after the round, so it is reported, not the lasso
        session = fresh(Network({
            "p": pout("q", {"a": _loop_out("q", "x"),
                            "b": pout("q", {"c": gend()})}),
            "q": pin("p", {"a": _loop_in("p", "x"),
                           "b": pin("p", {"c": gend()})}),
            "r": pin("p", {"z": gend()}),
        }))
        result = check_liveness(session, 10)
        assert isinstance(result, CounterexampleTrace)
        assert [{str(c) for c in delta} for delta, _ in result.trace] == [
            {"p->q!b"}, {"p->q!c", "p->q?b"}, {"p->q?c"}]
        final = result.trace[-1][1]
        assert final.net.players() == {"r"} and final.queue.is_empty
        assert _genuine(session, result.trace, LivenessMode.INPUT_ENABLING)

    def test_lasso_returns_on_rounds_that_keep_the_obligation(self):
        # p loops through four sends of a to q, which reads each one a
        # round later, while r waits.  From the start, b, m and a come
        # back in three rounds, but r reads m on the last of them; the
        # lasso must take the four rounds of a on which r is never served
        ring = [pout("q") for _ in range(4)]
        for i, node in enumerate(ring[1:], 1):
            node.branches["a"] = ring[(i + 1) % 4]
        ring[0].branches.update(
            a=ring[1], b=pout("r", {"m": pout("q", {"a": ring[0]})}))
        q = _loop_in("p", "a")
        q.branches["b"] = q
        session = fresh(Network({"p": ring[0], "q": q,
                                 "r": _loop_in("p", "m")}),
                        Queue().push("p", "a", "q"))
        mode = LivenessMode.INPUT_ENABLING
        result = check_liveness(session, 10, mode)
        assert isinstance(result, CounterexampleTrace)
        assert [{str(c) for c in delta} for delta, _ in result.trace] == [
            {"p->q!a", "p->q?a"}] * 4
        assert _same(result.trace[-1][1], session)
        assert _genuine(session, result.trace, mode)

    def test_least_starving_state_starts_the_lasso(self):
        # Random(3356), then random_network and random_queue.  p waits on
        # q forever.  After s->r!l1 and after s->r!l3 in round one, a
        # state lies on a cycle of r->q!a that starves p, and the second
        # starves s too.  The lasso starts at the state explored first
        net = parse("""
            proc N_p = q?a; N_p
            proc N_q = s!l3; N_q_1
            proc N_q_1 = r?{a; N_q_1, l1; N_q, l2; s!b; N_q_1}
            proc N_r = q!{a; N_r, l1; N_r}
            proc N_s = r!{a; N_s_1, l1; end, l3; q?a; N_s_1}
            proc N_s_1 = r!{a; end, b; N_s_2, l3; N_s_2}
            proc N_s_2 = p!{l1; end, l2; N_s, l3; end}
            network N { p |> N_p, q |> N_q, r |> N_r, s |> N_s }
        """).networks["N"]
        mode = LivenessMode.INPUT_ENABLING
        result = check_liveness(fresh(net), 4, mode)
        assert isinstance(result, CounterexampleTrace)
        assert [{str(c) for c in delta} for delta, _ in result.trace] == [
            {"q->s!l3", "r->q!a", "s->r!l1"}, {"r->q!a", "r->q?a"}]
        assert _genuine(fresh(net), result.trace, mode)

    def test_independent_pairs_verified(self):
        # pairs(3) has 9 reachable states, all explored within 4 rounds
        assert check_liveness(fresh(pairs(3)), 4) == Verified()

    def test_states_are_identified_up_to_bisimilarity(self):
        # p's five processes are bisimilar, so the state after round 2
        # is the one after round 1; told apart, no state would repeat
        # before round 6
        net = parse("""
            proc P0 = q!a; P1
            proc P1 = q!a; P2
            proc P2 = q!a; P3
            proc P3 = q!a; P4
            proc P4 = q!a; P0
            proc Q = p?a; Q
            network N { p |> P0, q |> Q }
        """).networks["N"]
        for horizon in (2, 3):
            for mode in LivenessMode:
                assert check_liveness(fresh(net), horizon, mode) == Verified()

    def test_a_state_recurs_once_its_lanes_empty(self):
        # p and q take turns on two channels, each emptied again: the
        # fourth round returns to the start, whose tuple holds no lane,
        # so the check closes the cycle within four rounds
        net = parse("""
            proc P = q!l; q?a; P
            proc Q = p?l; p!a; Q
            network N { p |> P, q |> Q }
        """).networks["N"]
        for mode in LivenessMode:
            assert check_liveness(fresh(net), 4, mode) == Verified()
            assert check_liveness(fresh(net), 3, mode) == HorizonExceeded(3)

    def test_an_empty_lane_is_owed_nothing(self):
        # every lane keeps its slot in the tuple, empty or not
        state = (pin("q", {"a": gend()}), (), ("a",))
        assert _starved(LivenessMode.QUEUE_CONSUMING, ["p"],
                        [("p", "q"), ("q", "p")], state, {}) == (("q", "p"),)

    def test_exploration_builds_no_network(self, monkeypatch):
        # states are flat tuples of process nodes and label tuples: a
        # network or a queue is built, checked or not, only for a
        # returned trace, and pairs(3) returns none
        built = []

        def counting(real):
            def counted(*args, **kwargs):
                built.append(args)
                return real(*args, **kwargs)
            return counted

        s = fresh(pairs(3))
        # p sends l, and q waits for m: deadlocked after one round
        wrong = fresh(Network({"p": pout("q", {"l": gend()}),
                               "q": pin("p", {"m": gend()})}))
        for cls in (Network, Queue):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
            monkeypatch.setattr(cls, "_of", counting(cls._of))
        assert check_liveness(s, 6) == Verified()
        assert len(built) == 0
        # the replay of a returned trace builds its network and its
        # queue unchecked, and the count sees both
        assert len(check_liveness(wrong, 3).trace) == 1
        assert len(built) == 2

    def test_empty_choice_never_reaches_the_check(self):
        # the completion test assumes that no choice is empty: p, stuck
        # on an output with no branch, would owe nothing and read as
        # Verified, though the session is deadlocked
        with pytest.raises(ValueError, match="cannot be parsed back"):
            Network({"p": pout("q")})

    def test_long_chain_does_not_recurse(self):
        assert check_liveness(fresh(chain_network(5000)), 10**4) == Verified()

    def test_long_restartable_chain(self):
        # nearly every layer closes a cycle back to the start, so
        # checking the components after every such layer is quadratic
        net = chain_network(2000, restart=True)
        assert check_liveness(fresh(net), 10**4) == Verified()

    def test_agrees_with_path_enumeration(self):
        rng = random.Random(73)
        drawn = [fresh(random_network(rng), random_queue(rng))
                 for _ in range(60)]
        # then sessions that send to a participant that is absent or
        # may end, whose lanes become unread
        rng = random.Random(83)
        drawn += [_unread_session(rng) for _ in range(60)]
        decided = 0
        for s in drawn:
            for horizon in (2, 4):
                for mode in LivenessMode:
                    new = check_liveness(s, horizon, mode)
                    old = oracle_liveness(s, horizon, mode)
                    if isinstance(new, CounterexampleTrace):
                        assert _genuine(s, new.trace, mode)
                    # where the oracle decides, a new Verified never
                    # meets an oracle counterexample, nor the reverse
                    if not isinstance(old, HorizonExceeded):
                        assert type(new) is type(old)
                        decided += 1
        assert decided > 100


class TestMoveTable:
    def test_shared_node_moves_for_each_participant(self):
        # p and r have one node: the table is keyed by participant and
        # node, since each sends on its own channel from it
        x = pout("q", {"l": gend()})
        s = fresh(Network({"p": x, "q": pin("p", {"m": gend()}), "r": x}))
        both = {Comm(OUT, "p", "q", "l"), Comm(OUT, "r", "q", "l")}
        assert enabled(s) == both
        delta, after = lockstep(s)
        assert delta == both
        assert after.queue.channels() == [("p", "q"), ("r", "q")]
        # q then waits for m behind l: a one-round deadlock
        for mode in LivenessMode:
            assert [d for d, _ in check_liveness(s, 3, mode).trace] == [both]

    def test_a_node_builds_its_moves_once(self, monkeypatch):
        # after a participant's first visit to a node no round builds a
        # Comm: growing has four, one per participant, node and label
        net = parse(PROTOCOLS.joinpath("growing.mps").read_text()) \
            .networks["N"]
        built = []

        def counted(*args):
            built.append(Comm(*args))
            return built[-1]

        monkeypatch.setattr(sessions, "Comm", counted)
        steps = list(simulate(fresh(net), max_steps=100,
                              lockstep_rounds=True))
        assert len(steps) == 100 and len(steps[-1].session.queue) == 101
        assert sorted(map(str, built)) == [
            "p->q!l", "p->q?l", "r->q!lp", "r->q?lp"]

    def test_liveness_keeps_its_own_table(self):
        # the quotient nodes of a check never enter the caller's table
        s = fresh(growing().net)
        list(simulate(s, max_steps=4, lockstep_rounds=True))
        size = len(s.net._moves)
        assert size == 4
        for horizon, mode in [(5, LivenessMode.INPUT_ENABLING),
                              (5, LivenessMode.QUEUE_CONSUMING),
                              (8, LivenessMode.INPUT_ENABLING)]:
            assert check_liveness(s, horizon, mode) == HorizonExceeded(horizon)
        assert len(s.net._moves) == size


def test_a_reader_has_one_option():
    # the lasso search takes a state's rounds to serve the same
    # obligations: a participant able to read has that one input, so
    # every round has the same readers and reads the same channels
    rng = random.Random(79)
    states = 0
    for _ in range(40):
        start = fresh(random_network(rng), random_queue(rng))
        layer = [(dict(start.net.items()), start.queue)]
        seen = set()
        for _ in range(4):
            nxt = []
            for procs, queue in layer:
                key = (tuple([(n, id(p)) for n, p in procs.items()]),
                       queue.key())
                if key in seen:
                    continue
                seen.add(key)
                opts = _options_by_player(procs.items(), queue.head, {})
                for comms in opts.values():
                    assert all(c.kind == OUT for c in comms) or len(comms) == 1
                reads = {frozenset((c.play, c.sender) for c in combo
                                   if c.kind == IN)
                         for combo in _rounds(opts)}
                assert len(reads) <= 1
                for combo in _rounds(opts):
                    after, lanes = dict(procs), queue._lanes.copy()
                    _perform(after, lanes, combo)
                    nxt.append((after, Queue._of(lanes)))
            layer = nxt
        states += len(seen)
    assert states > 1000


def test_read_masks_match_a_walk():
    # a node's mask names the senders of the inputs that it reaches, at
    # any node of its participant and in any order of lookup
    rng = random.Random(89)
    for _ in range(200):
        starts = [proc for _, proc in random_network(rng).items()]
        reads = sessions._Reads(starts)
        nodes = [(r, node) for r, start in enumerate(starts)
                 for node in reachable_nodes(start)]
        rng.shuffle(nodes)
        for r, node in nodes:
            mask = reads.mask(r, node)
            assert {name for name, bit in reads.bits.items() if mask & bit} \
                == {n.sender for n in reachable_nodes(node) if n.kind == IN}


def test_label_classes_match_a_walk():
    # two labels share a representative exactly when every input from
    # the sender in the receiver's own process offers neither or both,
    # with bisimilar continuations, at any order of lookup
    rng = random.Random(101)
    for _ in range(200):
        net = random_network(rng)
        labels = sessions._Labels({name: quotient(proc)
                                   for name, proc in net.items()})
        chans = [(s, r) for r in sorted(net.players()) for s in PARTS
                 if s != r]
        asks = [(s, r, lab) for s, r in chans for lab in LABELS]
        rng.shuffle(asks)
        rep = {ask: labels.rep(*ask) for ask in asks}
        for (s, r), (a, b) in itertools.product(
                chans, itertools.combinations(LABELS, 2)):
            walk = all(
                a not in node.branches and b not in node.branches
                or a in node.branches and b in node.branches
                and oracle_bisimilar(node.branches[a], node.branches[b])
                for node in reachable_nodes(net.get(r))
                if node.kind == IN and node.sender == s)
            assert (rep[s, r, a] == rep[s, r, b]) == walk


def test_components_follow_the_components_they_reach():
    # _Reads gathers its masks in one pass over the map of _components:
    # every edge stays inside its component or goes to one recorded
    # earlier, and each component's members are contiguous
    rng = random.Random(97)
    graphs = []
    for _ in range(300):
        size = rng.randint(1, 12)
        succ = {v: rng.sample(range(size), rng.randint(0, min(3, size)))
                for v in rng.sample(range(size), size)}
        graphs.append((list(succ), succ.__getitem__))
    graphs += [([random_gnode(rng)], lambda v: v.branches.values())
               for _ in range(300)]
    for nodes, succ in graphs:
        comp = sessions._components(nodes, succ)
        recorded = []  # the components, in the order of the map
        for c in comp.values():
            if not recorded or recorded[-1] != c:
                assert c not in recorded
                recorded.append(c)
        for v in comp:
            for w in succ(v):
                assert recorded.index(comp[w]) <= recorded.index(comp[v])


def _same(a, b):
    return (a.queue == b.queue and a.net.players() == b.net.players()
            and all(oracle_bisimilar(a.net.get(p), b.net.get(p))
                    for p in a.net.players()))


def _genuine(session, trace, mode):
    """The trace replays round by round, one enabled communication per
    participant able to move, and ends stuck short of completion or
    closes a lasso at its last state whose cycle breaks the mode's
    obligation."""
    states = [session]
    for delta, after in trace:
        net, queue = states[-1].net, states[-1].queue
        movers = {c.play for c, _, _ in oracle_session_successors(net, queue)}
        if len(delta) != len(movers) or {c.play for c in delta} != movers:
            return False
        for comm in sorted(delta, key=str):
            step = {c: (n, q) for c, n, q in oracle_session_successors(net, queue)}
            if comm not in step:
                return False
            net, queue = step[comm]
        if not _same(Session(net, queue), after):
            return False
        states.append(after)
    last = states[-1]
    if not oracle_session_successors(last.net, last.queue):
        if mode is LivenessMode.INPUT_ENABLING:
            return not last.net.is_empty
        return not last.queue.is_empty
    for at, earlier in enumerate(states[:-1]):
        if _same(earlier, last):
            return not _cycle_ok(mode, states[at:-1],
                                 [delta for delta, _ in trace[at:]])
    return False


def _unread_session(rng):
    """A session drawn until its queue, or an output of its network,
    targets a participant that is absent or may end."""
    while True:
        parts = rng.sample(PARTS, rng.randint(2, 3))
        net = Network({p: random_pnode(rng, p, max_nodes=4) for p in parts})
        queue = random_queue(rng)
        reach = {p: reachable_nodes(net.get(p)) for p in parts}
        live = {p for p, nodes in reach.items()
                if all(node.kind != END for node in nodes)}
        targets = {node.receiver for nodes in reach.values()
                   for node in nodes if node.kind == OUT}
        targets |= {m.receiver for m in queue.messages()}
        if targets - live:
            return fresh(net, queue)


class _ReversingPolicy(ChoicePolicy):
    def choose(self, options, player=None):
        options.reverse()
        return options[0]


class _StalePolicy(ChoicePolicy):
    first = None

    def choose(self, options, player=None):
        self.first = self.first or options[0]
        return self.first


def _loop_out(partner, label):
    node = pout(partner)
    node.branches[label] = node
    return node


def _loop_in(partner, label):
    node = pin(partner)
    node.branches[label] = node
    return node


def test_differential_slice_against_this_checkout():
    # tests/differential.py compares the layer with another checkout;
    # a slice against this one must find nothing to report
    import differential

    assert differential.main([str(Path(__file__).resolve().parent.parent),
                              "--sample", "20"]) == 0
