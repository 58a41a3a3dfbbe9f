"""Queue machines and their encoding as global type configurations.

A queue machine reads the head of its queue, rewrites state and
appends a word; it accepts by emptying the queue.  Each machine state
maps to a global type over a single channel whose configuration
semantics mirrors the machine step for step: the machine diverges from
a configuration exactly when the matching type configuration is
balanced.  Since acceptance is Turing-complete, this is the reduction
showing balancing has no complete algorithm.  A run that
:func:`qm_run` stops because its queue can never empty diverges, so
the reduction makes its encoded start configuration balanced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Tuple

from mpst.terms import Queue, gin, gout


class InvalidInputSymbol(ValueError):
    pass


@dataclass(frozen=True)
class Accepted:
    steps: int


@dataclass(frozen=True)
class RunningAfter:
    steps: int


@dataclass(frozen=True)
class QueueMachine:
    """States, alphabets and a total transition function.

    ``delta`` maps (state, queue symbol) to (state, appended word); it
    must cover all of states x queue_alphabet.  The bottom marker
    belongs to the queue alphabet but not to the input alphabet.
    """

    states: Tuple[str, ...]
    input_alphabet: Tuple[str, ...]
    queue_alphabet: Tuple[str, ...]
    bottom: str
    start: str
    delta: Mapping

    def __post_init__(self):
        if not self.states:
            raise ValueError("machine needs at least one state")
        for what, syms in (("state", self.states),
                           ("input symbol", self.input_alphabet),
                           ("queue symbol", self.queue_alphabet)):
            if len(set(syms)) < len(syms):
                raise ValueError(f"{what} listed twice in {' '.join(syms)}")
        if self.start not in self.states:
            raise ValueError(f"start state {self.start!r} unknown")
        gamma = set(self.queue_alphabet)
        if not set(self.input_alphabet) <= gamma:
            raise ValueError("input alphabet must embed in the queue alphabet")
        if self.bottom not in gamma or self.bottom in self.input_alphabet:
            raise ValueError("bottom must be a queue-only symbol")
        for state in self.states:
            for sym in self.queue_alphabet:
                if (state, sym) not in self.delta:
                    raise ValueError(f"delta misses ({state}, {sym})")
        for (state, sym), (nxt, written) in self.delta.items():
            if state not in self.states or nxt not in self.states:
                raise ValueError(f"delta row ({state}, {sym}) uses unknown state")
            if sym not in gamma or not set(written) <= gamma:
                raise ValueError(f"delta row ({state}, {sym}) uses unknown symbol")


@dataclass(frozen=True)
class MachineConfig:
    state: str
    queue: Tuple[str, ...]

    @property
    def final(self) -> bool:
        return not self.queue


def qm_start(machine: QueueMachine, word) -> MachineConfig:
    for sym in word:
        if sym not in machine.input_alphabet:
            raise InvalidInputSymbol(f"{sym!r} not in the input alphabet")
    return MachineConfig(machine.start, tuple(word) + (machine.bottom,))


def qm_step(machine: QueueMachine, config: MachineConfig) -> MachineConfig:
    if config.final:
        raise ValueError(f"configuration in state {config.state!r} is final: "
                         "its queue is empty")
    head, rest = config.queue[0], config.queue[1:]
    state, written = machine.delta[(config.state, head)]
    return MachineConfig(state, rest + tuple(written))


def _never_empties(rows, state, queue) -> bool:
    """Whether the queue keeps a symbol forever, by the counting
    argument of :func:`qm_run`; ``rows`` maps (state, symbol) to
    (state, written word), as ``delta`` does."""
    states, syms = {state}, set(queue)
    queued = frozenset(syms)
    todo = [(state, sym) for sym in syms]
    fired = []
    while todo:  # each row once, when its state and symbol are both in
        row = todo.pop()
        nxt, written = rows[row]
        fired.append((row[1], written))
        if nxt not in states:
            states.add(nxt)
            todo += [(nxt, sym) for sym in syms]
        for sym in written:
            if sym not in syms:
                syms.add(sym)
                todo += [(s, sym) for s in states]
    kept, dropped = syms, True
    while dropped:
        dropped = False
        for sym, written in fired:
            if sym in kept and kept.isdisjoint(written):
                kept.discard(sym)
                dropped = True
    return not kept.isdisjoint(queued)


def qm_run(machine: QueueMachine, word, max_steps: int = 100000):
    """Run to acceptance or give up after ``max_steps`` steps.

    The same steps as :func:`qm_step`, on a deque instead of a fresh
    tuple per step.  A run that comes back to a configuration it was in
    stops there with ``RunningAfter(max_steps)``, which is the full
    run's answer: the run is deterministic, so it goes round the same
    configurations forever, and none of them is final, or the run would
    have accepted on its first way round.  Recurrences are found as
    Brent (1980) finds cycles: the configurations after steps 0, 1, 3,
    7, 15, ... are saved and each one after is compared with the last
    saved, so a run with a tail of t steps before a period of p stops
    within 2 max(t + 1, p) + p steps, and the copies cost
    O(steps + symbols written) in all.  A compare is O(1) unless the
    states and the queues' lengths agree, as deques compare lengths
    first.

    A run whose queue can never empty stops with the same answer, as
    found by counting (after Jéron and Jard 1993).  Before each save,
    the rows the run can still fire are closed from the current state
    and the queued symbols: a row whose state and read symbol are in
    adds its target state and the symbols it writes.  Let P be the
    greatest set of symbols such that each of those rows that reads a
    P symbol writes one; it is found by dropping symbols until none
    goes.  No step then lowers the number of P symbols in the queue, so
    a queue that holds one never empties and the run never accepts.
    The closure takes each row it reaches once.
    """
    config = qm_start(machine, word)
    state, queue, delta = config.state, deque(config.queue), machine.delta
    rows = dict(delta.items())  # the test's copy: delta serves the steps
    done, span = 0, 1
    while done < max_steps:
        if _never_empties(rows, state, queue):
            return RunningAfter(max_steps)
        saved_state, saved = state, queue.copy()
        end = min(done + span, max_steps)
        for step in range(done, end):
            if not queue:
                return Accepted(step)
            state, written = delta[state, queue.popleft()]
            queue.extend(written)
            if state == saved_state and queue == saved:
                return RunningAfter(max_steps)
        done, span = end, 2 * span
    if not queue:
        return Accepted(max_steps)
    return RunningAfter(max_steps)


# ---------------------------------------------------------------------------
# encoding into global types

WRITER = "p"
MACHINE = "q"


def encode(machine: QueueMachine) -> dict:
    """One global type per state, all over the single channel p -> q.

    A state becomes an input choice over the whole queue alphabet; each
    branch appends the written word as a chain of outputs and continues
    with the target state's type.  Back edges land on the shared state
    nodes, so the result is a regular graph.
    """
    shells = {state: gin(WRITER, MACHINE) for state in machine.states}
    for state in machine.states:
        for sym in machine.queue_alphabet:
            nxt, written = machine.delta[(state, sym)]
            cont = shells[nxt]
            for out in reversed(tuple(written)):
                cont = gout(WRITER, MACHINE, {out: cont})
            shells[state].branches[sym] = cont
    return shells


def encode_config(machine: QueueMachine, config: MachineConfig):
    """The type configuration matching a machine configuration."""
    types = encode(machine)
    return types[config.state], Queue({(WRITER, MACHINE): config.queue})
