"""Hand-built graphs for the worked examples used across the test suite.

Each function returns fresh nodes so callers may mutate or extend the
graphs without affecting other tests.  The same examples exist in
surface syntax under ``protocols/``; the parser tests check that both
spellings denote bisimilar graphs.
"""

from __future__ import annotations

from types import SimpleNamespace

from mpst.machines import QueueMachine
from mpst.terms import (
    Msg,
    Network,
    Queue,
    gend,
    gin,
    gout,
    pin,
    pout,
)


def hospital() -> SimpleNamespace:
    """Patient p and hospital service s.

    The patient sends a day ``nd``, the service answers ``ok`` or
    ``ko``; on ``ko`` the patient proposes another day ``pr`` which the
    service reads as a fresh proposal.  The queue can grow without
    bound, one pending proposal per round.
    """
    p = pout("s")
    p1 = pin("s")
    p.branches["nd"] = p1
    p1.branches["ok"] = p
    p1.branches["ko"] = pout("s", {"pr": p})

    s = pin("p")
    s1 = pout("p")
    s.branches["nd"] = s1
    s.branches["pr"] = s1
    s1.branches["ok"] = s
    s1.branches["ko"] = s

    g = gout("p", "s")
    g1 = gin("p", "s")
    g2 = gout("s", "p")
    g.branches["nd"] = g1
    g1.branches["nd"] = g2
    g1.branches["pr"] = g2
    g2.branches["ok"] = gin("s", "p", {"ok": g})
    g2.branches["ko"] = gin("s", "p", {"ko": gout("p", "s", {"pr": g})})

    return SimpleNamespace(
        g=g, g1=g1, g2=g2, p=p, p1=p1, s=s, s1=s1,
        net=Network({"p": p, "s": s}),
        net1=Network({"p": p1, "s": s}),
    )


def mp() -> SimpleNamespace:
    """Sender and receiver that disagree on the label.

    The network follows the shape of its type, yet the session
    deadlocks after the send: the receiver only reads ``lp`` while the
    queue holds ``l``.
    """
    g = gout("p", "q")
    g.branches["l"] = gin("p", "q", {"lp": gend()})
    net = Network({
        "p": pout("q", {"l": gend()}),
        "q": pin("p", {"lp": gend()}),
    })
    return SimpleNamespace(g=g, net=net)


def depth_example() -> SimpleNamespace:
    """A type where r stops occurring after the first exchange.

    The l2 loop and the End branch both avoid r, so the inner type has
    unbounded depth for r and the whole type is not bounded.
    """
    gp = gout("p", "q")
    gp.branches["l1"] = gin("p", "q", {
        "l1": gout("q", "r", {"l3": gin("q", "r", {"l3": gend()})}),
    })
    gp.branches["l2"] = gin("p", "q", {"l2": gp})
    g = gout("r", "q", {"l": gin("r", "q", {"l": gp})})
    return SimpleNamespace(g=g, inner=gp)


def stuck_reader() -> SimpleNamespace:
    """An output loop between p and q, with a stray message for r.

    Nobody ever reads on channel p->r, so the configuration is weakly
    balanced but not balanced.
    """
    g = gout("p", "q")
    g.branches["l"] = gin("p", "q", {"l": g})
    return SimpleNamespace(g=g, queue=Queue.from_msgs([Msg("p", "lp", "r")]))


def unread_branch() -> SimpleNamespace:
    """An input choice where one branch never reads the second message."""
    g = gin("p", "q", {
        "l1": gin("p", "r", {"l2": gend()}),
        "l3": gend(),
    })
    msgs = [Msg("p", "l1", "q"), Msg("p", "l2", "r")]
    return SimpleNamespace(g=g, queue=Queue.from_msgs(msgs),
                           probe=Msg("p", "l2", "r"))


def growing() -> SimpleNamespace:
    """Three participants whose queue grows at every lockstep round."""
    p = pout("q")
    p.branches["l"] = p
    q = pin("p")
    q2 = pin("r")
    q.branches["l"] = q2
    q2.branches["lp"] = q
    r = pout("q")
    r.branches["lp"] = r
    return SimpleNamespace(net=Network({"p": p, "q": q, "r": r}))


def burst_choice() -> SimpleNamespace:
    """A two-participant protocol with a bursty branch and a steady branch.

    On l1 the producer sends three items before the consumer reads one;
    on l2 they settle into a one-in-one-out loop that never ends.
    """
    p = pin("q")
    p.branches["l1"] = pout("q", {"l": pout("q", {"l": pout("q", {"l": p})})})
    p2 = pout("q")
    p2.branches["l"] = p2
    p.branches["l2"] = p2

    q = pout("p")
    q.branches["l1"] = pin("p", {"l": q})
    q2 = pin("p")
    q2.branches["l"] = q2
    q.branches["l2"] = q2

    g = gout("q", "p")
    g1 = gout("p", "q", {
        "l": gout("p", "q", {"l": gout("p", "q", {"l": gin("p", "q", {"l": g})})}),
    })
    g2 = gout("p", "q")
    g2.branches["l"] = gin("p", "q", {"l": g2})
    g.branches["l1"] = gin("q", "p", {"l1": g1})
    g.branches["l2"] = gin("q", "p", {"l2": g2})

    return SimpleNamespace(g=g, net=Network({"p": p, "q": q}))


def copy_loop() -> QueueMachine:
    """Reads a symbol and writes it back, forever: accepts nothing."""
    return QueueMachine(
        states=("q0",), input_alphabet=("a",), queue_alphabet=("a", "$"),
        bottom="$", start="q0",
        delta={("q0", "a"): ("q0", ("a",)), ("q0", "$"): ("q0", ("$",))},
    )


def eraser() -> QueueMachine:
    """Consumes every symbol without writing: accepts every word."""
    delta = {("q0", sym): ("q0", ()) for sym in ("a", "b", "$")}
    return QueueMachine(
        states=("q0",), input_alphabet=("a", "b"),
        queue_alphabet=("a", "b", "$"), bottom="$", start="q0", delta=delta,
    )


def parity() -> QueueMachine:
    """Accepts words of even length, diverges on odd ones."""
    return QueueMachine(
        states=("s0", "s1"), input_alphabet=("a",),
        queue_alphabet=("a", "$"), bottom="$", start="s0",
        delta={
            ("s0", "a"): ("s1", ()),
            ("s1", "a"): ("s0", ()),
            ("s0", "$"): ("s0", ()),
            ("s1", "$"): ("s1", ("$",)),
        },
    )
