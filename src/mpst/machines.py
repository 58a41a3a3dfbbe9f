"""Queue machines and their encoding as global type configurations.

A queue machine reads the head of its queue, rewrites state and
appends a word; it accepts by emptying the queue.  Each machine state
maps to a global type over a single channel whose configuration
semantics mirrors the machine step for step: the machine diverges from
a configuration exactly when the matching type configuration is
balanced.  Since acceptance is Turing-complete, this is the reduction
showing balancing has no complete algorithm.
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
    """
    config = qm_start(machine, word)
    state, queue, delta = config.state, deque(config.queue), machine.delta
    done, span = 0, 1
    while done < max_steps:
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
