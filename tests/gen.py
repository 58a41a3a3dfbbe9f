"""Seeded random generators for graphs, networks, queues and machines,
and the ``ring``, ``chain``, ``diamonds``, ``chain_network`` and
``pairs`` scaling families."""

from __future__ import annotations

import random

from mpst.machines import QueueMachine
from mpst.terms import (
    END,
    IN,
    OUT,
    GNode,
    Msg,
    Network,
    Queue,
    gend,
    gin,
    gout,
    pend,
    pin,
    pout,
)

PARTS = ["p", "q", "r", "s"]
LABELS = ["l1", "l2", "l3", "a", "b"]


def random_gnode(rng: random.Random, max_nodes=8, parts=PARTS,
                 labels=LABELS, end_bias=0.2) -> GNode:
    count = rng.randint(1, max_nodes)
    shells = []
    for _ in range(count):
        if rng.random() < end_bias:
            shells.append(GNode(END))
        else:
            sender, receiver = rng.sample(parts, 2)
            shells.append(GNode(rng.choice((OUT, IN)), sender, receiver))
    for node in shells:
        if node.kind == END:
            continue
        for lab in rng.sample(labels, rng.randint(1, 3)):
            node.branches[lab] = rng.choice(shells)
    return shells[0]


def random_pnode(rng: random.Random, owner: str, max_nodes=6,
                 parts=PARTS, labels=LABELS, end_bias=0.25) -> GNode:
    partners = [x for x in parts if x != owner]
    count = rng.randint(1, max_nodes)
    shells = []
    for _ in range(count):
        if rng.random() < end_bias:
            shells.append(pend())
        else:
            make = rng.choice((pout, pin))
            shells.append(make(rng.choice(partners)))
    for node in shells:
        if node.kind == END:
            continue
        for lab in rng.sample(labels, rng.randint(1, 3)):
            node.branches[lab] = rng.choice(shells)
    return shells[0]


def random_network(rng: random.Random, parts=None, **kw) -> Network:
    if parts is None:
        parts = rng.sample(PARTS, rng.randint(2, len(PARTS)))
    return Network({p: random_pnode(rng, p, parts=parts, **kw)
                    for p in parts})


def random_queue(rng: random.Random, parts=PARTS, labels=LABELS,
                 max_msgs=4) -> Queue:
    msgs = []
    for _ in range(rng.randint(0, max_msgs)):
        sender, receiver = rng.sample(parts, 2)
        msgs.append(Msg(sender, rng.choice(labels), receiver))
    return Queue.from_msgs(msgs)


def random_machine(rng: random.Random, max_states=4, max_write=2) -> QueueMachine:
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    inp = ("a", "b")[:rng.randint(1, 2)]
    gamma = inp + ("$",)
    delta = {}
    for state in states:
        for sym in gamma:
            written = tuple(rng.choice(gamma)
                            for _ in range(rng.randint(0, max_write)))
            delta[(state, sym)] = (rng.choice(states), written)
    return QueueMachine(states, inp, gamma, "$", states[0], delta)


def random_word(rng: random.Random, machine: QueueMachine, max_len=4) -> str:
    return "".join(rng.choice(machine.input_alphabet)
                   for _ in range(rng.randint(0, max_len)))


def ring(n: int) -> GNode:
    """A cycle of n ``p q!`` outputs, labelled ``a`` but for the last,
    labelled ``b``; no two of its nodes are bisimilar."""
    nodes = [gout("p", "q") for _ in range(n)]
    for i, node in enumerate(nodes):
        node.branches["b" if i == n - 1 else "a"] = nodes[(i + 1) % n]
    return nodes[0]


def chain(n: int) -> GNode:
    """n output/input pairs on p->q ending in End."""
    node = gend()
    for _ in range(n):
        node = gout("p", "q", {"l": gin("p", "q", {"l": node})})
    return node


def diamonds(n: int) -> GNode:
    """n diamonds: each an output ``p q!{x, y}`` whose branches read
    their own label and meet at the next diamond; the last loops back
    to the first.  The number of paths doubles with each diamond."""
    outs = [gout("p", "q") for _ in range(n)]
    for i, out in enumerate(outs):
        for label in ("x", "y"):
            out.branches[label] = gin("p", "q", {label: outs[(i + 1) % n]})
    return outs[0]


def chain_network(n: int, restart: bool = False) -> Network:
    """p sends ``l`` to q n times and q reads it n times.  With
    ``restart``, p may send ``r`` instead at every step, and the ``r``
    takes p, and q once it reads it, back to the start."""
    p, q = pend(), pend()
    steps = []
    for _ in range(n):
        p = pout("q", {"l": p})
        q = pin("p", {"l": q})
        steps.append((p, q))
    if restart:
        for sender, reader in steps:
            sender.branches["r"] = p
            reader.branches["r"] = q
    return Network({"p": p, "q": q})


def pairs(k: int) -> Network:
    """k independent sender/receiver pairs, each looping on a choice of
    ``x`` or ``y``."""
    procs = {}
    for i in range(1, k + 1):
        out = pout(f"q{i}")
        out.branches["x"] = out
        out.branches["y"] = out
        inp = pin(f"p{i}")
        inp.branches["x"] = inp
        inp.branches["y"] = inp
        procs[f"p{i}"] = out
        procs[f"q{i}"] = inp
    return Network(procs)
