"""Queue machines: runs, validation and the global type encoding."""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

from mpst import machines
from mpst.machines import (
    Accepted,
    InvalidInputSymbol,
    MachineConfig,
    QueueMachine,
    RunningAfter,
    encode,
    encode_config,
    qm_run,
    qm_start,
    qm_step,
)
from mpst.terms import Comm, Queue, bisimilar, reachable_nodes
from gen import random_machine, random_word
from oracles import oracle_config_step, oracle_qm_run
from zoo import copy_loop, eraser, parity


class CountingDelta(dict):
    """A transition table that counts the lookups of its rows."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def counted(machine):
    """The machine with a :class:`CountingDelta` for its table."""
    return dataclasses.replace(machine, delta=CountingDelta(machine.delta))


def grower():
    """A queue that grows forever and keeps no symbol for good: s reads
    an a and writes three, t reads one and writes none, and $ goes as
    soon as t reads it."""
    return QueueMachine(
        ("s", "t"), ("a",), ("a", "$"), "$", "s",
        {("s", "a"): ("t", ("a", "a", "a")), ("s", "$"): ("s", ("$",)),
         ("t", "a"): ("s", ()), ("t", "$"): ("t", ())})


class TestValidation:
    def test_missing_delta_row(self):
        with pytest.raises(ValueError, match="misses"):
            QueueMachine(("s",), ("a",), ("a", "$"), "$", "s",
                         {("s", "a"): ("s", ())})

    def test_bottom_must_not_be_input(self):
        with pytest.raises(ValueError, match="bottom"):
            QueueMachine(("s",), ("a", "$"), ("a", "$"), "$", "s",
                         {("s", "a"): ("s", ()), ("s", "$"): ("s", ())})

    def test_unknown_start(self):
        with pytest.raises(ValueError, match="start"):
            QueueMachine(("s",), ("a",), ("a", "$"), "$", "t",
                         {("s", "a"): ("s", ()), ("s", "$"): ("s", ())})

    def test_delta_target_must_exist(self):
        with pytest.raises(ValueError, match="unknown state"):
            QueueMachine(("s",), ("a",), ("a", "$"), "$", "s",
                         {("s", "a"): ("t", ()), ("s", "$"): ("s", ())})

    @pytest.mark.parametrize("args,message", [
        (((), ("a",), ("a", "$"), "$", "s", {}),
         "machine needs at least one state"),
        ((("s",), ("a", "b"), ("a", "$"), "$", "s",
          {("s", "a"): ("s", ()), ("s", "$"): ("s", ())}),
         "input alphabet must embed in the queue alphabet"),
        ((("s",), ("a",), ("a", "$"), "$", "s",
          {("s", "a"): ("s", ("z",)), ("s", "$"): ("s", ())}),
         "delta row (s, a) uses unknown symbol"),
    ], ids=["no-state", "input-not-queue", "unknown-symbol"])
    def test_rejected_definitions(self, args, message):
        with pytest.raises(ValueError) as err:
            QueueMachine(*args)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_repeated_state_or_symbol(self):
        # the printer writes a delta row per listed state and symbol,
        # so a repeat would print every row of it twice
        delta = {("s", "a"): ("s", ()), ("s", "$"): ("s", ())}
        for args, what in (((("s", "s"), ("a",), ("a", "$")), "state"),
                           ((("s",), ("a", "a"), ("a", "$")), "input"),
                           ((("s",), ("a",), ("a", "$", "a")), "queue")):
            with pytest.raises(ValueError, match=f"^{what}.* listed twice"):
                QueueMachine(*args, "$", "s", delta)


class TestRuns:
    def test_eraser_accepts_everything(self):
        # one step per tape symbol, including the bottom marker
        assert qm_run(eraser(), "ab") == Accepted(3)
        assert qm_run(eraser(), "") == Accepted(1)

    def test_copy_loop_never_accepts(self):
        assert qm_run(copy_loop(), "a", max_steps=500) == RunningAfter(500)
        assert qm_run(copy_loop(), "", max_steps=500) == RunningAfter(500)

    def test_parity(self):
        assert qm_run(parity(), "aa") == Accepted(3)
        assert qm_run(parity(), "aaaa") == Accepted(5)
        assert isinstance(qm_run(parity(), "a", max_steps=200), RunningAfter)
        assert isinstance(qm_run(parity(), "aaa", max_steps=200), RunningAfter)

    def test_queue_empties_on_the_last_step(self):
        assert qm_run(eraser(), "ab", max_steps=3) == Accepted(3)
        assert qm_run(eraser(), "ab", max_steps=2) == RunningAfter(2)

    def test_long_run_takes_linear_time(self):
        # each a is read once and written twice, so a stays queued and
        # the run stops before its first step
        doubler = counted(QueueMachine(
            ("s",), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("s", ("a", "a")), ("s", "$"): ("s", ())}))
        assert qm_run(doubler, "a", max_steps=200000) == RunningAfter(200000)
        assert doubler.delta.lookups == 0
        # the grower's queue gains a symbol every second step and holds
        # no symbol for good; copying it at every step is quadratic
        start = time.perf_counter()
        assert qm_run(grower(), "a", max_steps=200000) == RunningAfter(200000)
        assert time.perf_counter() - start < 1

    def test_a_recurring_run_stops_at_once(self):
        m = counted(copy_loop())
        assert qm_run(m, "a", max_steps=10**6) == RunningAfter(10**6)
        assert m.delta.lookups < 64

    def test_a_late_loop_is_still_found(self):
        # erases the word, then rewrites the bottom marker forever: $ is
        # never dropped, so the run stops before its first step
        m = counted(QueueMachine(
            ("s", "t"), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("s", ()), ("s", "$"): ("t", ("$",)),
             ("t", "a"): ("t", ()), ("t", "$"): ("t", ("$",))}))
        assert qm_run(m, "a" * 1500, max_steps=10**4) == RunningAfter(10**4)
        assert m.delta.lookups == 0
        # erases the word, then turns $ into a and a into $ forever;
        # (t, a) and (u, $) would erase, so no symbol stays for good
        m = counted(QueueMachine(
            ("s", "t", "u"), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("s", ()), ("s", "$"): ("t", ("$",)),
             ("t", "a"): ("t", ()), ("t", "$"): ("u", ("a",)),
             ("u", "a"): ("t", ("$",)), ("u", "$"): ("u", ())}))
        assert qm_run(m, "a" * 1500, max_steps=10**4) == RunningAfter(10**4)
        assert 1500 < m.delta.lookups < 10**4

    def test_a_growing_run_makes_every_step(self):
        m = counted(QueueMachine(
            ("s",), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("s", ("a", "a")), ("s", "$"): ("s", ())}))
        assert qm_run(m, "a", max_steps=5000) == RunningAfter(5000)
        assert m.delta.lookups == 0  # a stays queued
        m = counted(grower())
        assert qm_run(m, "a", max_steps=5000) == RunningAfter(5000)
        assert m.delta.lookups == 5000

    def test_rejects_symbol_outside_input_alphabet(self):
        with pytest.raises(InvalidInputSymbol):
            qm_run(parity(), "ab")
        with pytest.raises(InvalidInputSymbol):
            qm_run(parity(), "$")

    def test_start_config(self):
        cfg = qm_start(parity(), "aa")
        assert cfg == MachineConfig("s0", ("a", "a", "$"))
        assert not cfg.final

    def test_a_final_configuration_has_no_step(self):
        with pytest.raises(ValueError, match="is final") as err:
            qm_step(eraser(), MachineConfig("q0", ()))
        assert type(err.value) is ValueError

    def test_matches_reference_interpreter(self):
        rng = random.Random(31)
        for _ in range(300):
            m = random_machine(rng)
            w = random_word(rng, m)
            got = qm_run(m, w, max_steps=2000)
            kind, steps = oracle_qm_run(m.delta, m.start, m.bottom, w, 2000)
            if kind == "accepted":
                assert got == Accepted(steps)
            else:
                assert got == RunningAfter(2000)


class TestQueueNeverEmpties:
    """The stop of a run whose queue holds a symbol that every row the
    run can still fire writes back."""

    @pytest.fixture
    def stops(self, monkeypatch):
        """The answers of the counting test, in the order of its calls."""
        answers = []
        test = machines._never_empties

        def spy(*args):
            answers.append(test(*args))
            return answers[-1]

        monkeypatch.setattr(machines, "_never_empties", spy)
        return answers

    def test_a_row_behind_an_unwritten_symbol_does_not_block(self):
        # b is never queued, so t and its erasing rows stay out of reach
        m = counted(QueueMachine(
            ("s", "t"), ("a", "b"), ("a", "b", "$"), "$", "s",
            {("s", "a"): ("s", ("a",)), ("s", "b"): ("t", ()),
             ("s", "$"): ("s", ()), ("t", "a"): ("t", ()),
             ("t", "b"): ("t", ()), ("t", "$"): ("t", ())}))
        assert qm_run(m, "a", max_steps=10**6) == RunningAfter(10**6)
        assert m.delta.lookups == 0

    def test_a_row_behind_a_written_symbol_blocks(self):
        # a becomes b, and s reads b into t, which erases everything
        m = counted(QueueMachine(
            ("s", "t"), ("a",), ("a", "b", "$"), "$", "s",
            {("s", "a"): ("s", ("b",)), ("s", "b"): ("t", ()),
             ("s", "$"): ("s", ("$",)), ("t", "a"): ("t", ()),
             ("t", "b"): ("t", ()), ("t", "$"): ("t", ())}))
        assert qm_run(m, "a") == Accepted(4)
        assert m.delta.lookups == 4

    def test_the_closure_follows_target_states(self):
        # s writes back what it reads, but its a row leads to t, which
        # erases everything
        m = counted(QueueMachine(
            ("s", "t"), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("t", ("a",)), ("s", "$"): ("s", ("$",)),
             ("t", "a"): ("t", ()), ("t", "$"): ("t", ())}))
        assert qm_run(m, "a") == Accepted(3)
        assert m.delta.lookups == 3
        assert qm_run(m, "") == RunningAfter(100000)
        assert m.delta.lookups == 3  # $ stays in s for good

    def test_a_stopped_run_never_accepts(self, stops):
        # machines that write more grow faster queues, which the
        # quadratic reference copies at every step
        rng = random.Random(41)
        fired = 0
        for _ in range(1000):
            m = random_machine(rng, max_states=rng.randint(1, 6),
                               max_write=rng.randint(1, 2))
            w = random_word(rng, m)
            stops.clear()
            got = qm_run(m, w, max_steps=3000)
            if any(stops):
                fired += 1
                assert got == RunningAfter(3000)
                kind, _ = oracle_qm_run(m.delta, m.start, m.bottom, w, 3000)
                assert kind != "accepted", (m, w)
        assert fired >= 400  # 438 of the 1000 runs

    def test_one_test_per_checkpoint(self, stops):
        # the configurations after steps 0, 1, 3, 7 and 15 are tested;
        # the eraser empties its queue after step 21
        assert qm_run(eraser(), "a" * 20) == Accepted(21)
        assert stops == [False] * 5


class TestEncoding:
    def test_one_input_node_per_state(self):
        m = parity()
        types = encode(m)
        assert set(types) == {"s0", "s1"}
        for state, g in types.items():
            assert g.kind == "in"
            assert set(g.branches) == set(m.queue_alphabet)

    def test_written_word_becomes_output_chain(self):
        m = QueueMachine(
            ("s",), ("a",), ("a", "$"), "$", "s",
            {("s", "a"): ("s", ("a", "a")), ("s", "$"): ("s", ())})
        g = encode(m)["s"]
        chain = g.branches["a"]
        assert chain.kind == "out" and list(chain.branches) == ["a"]
        chain = chain.branches["a"]
        assert chain.kind == "out" and list(chain.branches) == ["a"]
        assert chain.branches["a"] is g
        assert g.branches["$"] is g

    def test_single_channel(self):
        types = encode(random_machine(random.Random(5)))
        for g in types.values():
            for node in reachable_nodes(g):
                assert (node.sender, node.receiver) == ("p", "q")

    def test_encode_config_queue(self):
        m = parity()
        g, queue = encode_config(m, qm_start(m, "aa"))
        assert g is not encode(m)["s0"]  # fresh graphs per call
        assert queue == Queue({("p", "q"): ("a", "a", "$")})

    def test_step_alignment(self):
        # one machine step is the type configuration reading the head
        # and then sending the written word, one output per symbol
        rng = random.Random(37)
        for _ in range(100):
            m = random_machine(rng)
            cfg = qm_start(m, random_word(rng, m))
            g, queue = encode_config(m, cfg)
            for _ in range(5):
                if cfg.final:
                    break
                nxt = qm_step(m, cfg)
                head = cfg.queue[0]
                _, written = m.delta[(cfg.state, head)]
                g, queue = oracle_config_step(g, queue,
                                              Comm("in", "p", "q", head))
                for sym in written:
                    g, queue = oracle_config_step(g, queue,
                                                  Comm("out", "p", "q", sym))
                assert queue == Queue({("p", "q"): nxt.queue})
                assert bisimilar(g, encode(m)[nxt.state])
                cfg = nxt
