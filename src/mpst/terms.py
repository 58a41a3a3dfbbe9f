"""Regular term graphs for global types and process types.

Types with recursion are (possibly cyclic) graphs of nodes of one
class, :class:`GNode`: ``end``, or a choice with a branch map from
labels to child nodes, which may be filled in after construction to tie
back edges.  A graph that was hashed, compared or put in a network must
not be mutated.  A process node is a choice seen by the participant
that moves, whose own slot is left None: ``pout(q)`` has receiver q and
no sender, ``pin(p)`` sender p and no receiver.  One rule,
:func:`_unreadable`, says which graphs ``parse`` reads back and the
printers write, names included, and a network holds only such
components.

Equality of types is bisimilarity.  Every node can produce a canonical
key via partition refinement of its reachable subgraph; two nodes are
bisimilar exactly when their keys coincide.  Nodes and networks build
their keys once, on first use, and queues their keys and hashes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

END = "end"
OUT = "out"
IN = "in"


# ---------------------------------------------------------------------------
# nodes


class GNode:
    """A node of a global type or of a process type.

    ``out`` is an output choice ``p q ! {l_i; G_i}``, ``in`` an input
    choice ``p q ? {l_i; G_i}``; in both cases ``sender`` is p and
    ``receiver`` is q.  The participant moving first is the sender of
    an output and the receiver of an input.

    A process node leaves out the participant that moves: ``q ! {...}``
    has no sender and ``p ? {...}`` no receiver.  Every choice names its
    partner, the participant that does not move, and a global choice
    names both, so a process choice never equals a global one.
    """

    __slots__ = ("kind", "sender", "receiver", "branches", "_key")

    def __init__(self, kind: str, sender: Optional[str] = None,
                 receiver: Optional[str] = None,
                 branches: Optional[dict] = None):
        if kind not in (END, OUT, IN):
            raise ValueError(f"unknown node kind {kind!r}")
        if kind != END:
            if not (receiver if kind == OUT else sender):
                raise ValueError("choice nodes need a partner")
            if sender == receiver:
                raise ValueError(f"self-communication {sender!r} -> {receiver!r}")
        self.kind = kind
        self.sender = sender
        self.receiver = receiver
        self.branches = {} if branches is None else dict(branches)
        self._key = None

    @property
    def player(self) -> Optional[str]:
        """The participant that moves at this node; None at ``end`` and
        in a process node."""
        return self.sender if self.kind == OUT else self.receiver

    @property
    def partner(self) -> Optional[str]:
        """The participant that does not move; None at ``end``."""
        return self.receiver if self.kind == OUT else self.sender

    def _local_sig(self):
        if self.kind == END:
            return (END,)
        return (self.kind, self.sender, self.receiver,
                tuple(sorted(self.branches)))

    def key(self):
        if self._key is None:
            self._key = _canonical_key(self)
        return self._key

    def __repr__(self):
        if self.kind == END:
            return "<end>"
        mark = "!" if self.kind == OUT else "?"
        names = " ".join(filter(None, (self.sender, self.receiver)))
        labs = ",".join(sorted(self.branches))
        return f"<{names}{mark}{{{labs}}}>"


def gend() -> GNode:
    return GNode(END)


def gout(sender: str, receiver: str, branches: Optional[dict] = None) -> GNode:
    return GNode(OUT, sender, receiver, branches)


def gin(sender: str, receiver: str, branches: Optional[dict] = None) -> GNode:
    return GNode(IN, sender, receiver, branches)


def pout(partner: str, branches: Optional[dict] = None) -> GNode:
    return GNode(OUT, None, partner, branches)


def pin(partner: str, branches: Optional[dict] = None) -> GNode:
    return GNode(IN, partner, None, branches)


# ---------------------------------------------------------------------------
# bisimilarity


def reachable_nodes(root) -> list:
    """All nodes reachable from ``root``, root first, in a fixed order."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for lab in sorted(node.branches, reverse=True):
            stack.append(node.branches[lab])
    return list(seen.values())


def _children(node):
    return node.branches.values()


def _unreadable(nodes, is_global: bool = False, part: Optional[str] = None):
    """What ``parse`` would not read among ``nodes``, as a phrase, or
    None: a participant, ``part`` included, or a label that is not a
    name (:func:`_is_name`); a choice with no branch; one naming the
    wrong participants (a global type names both, a process the partner
    alone); or, in ``part``'s component, one whose partner is ``part``."""
    if part is not None and not _is_name(part):
        return f"participant {part!r}"
    for node in nodes:
        s, r = node.sender, node.receiver
        if node.kind == END:
            continue
        if (not node.branches or (s is None or r is None) == is_global
                or part is not None and node.partner == part):
            return repr(node)
        for name in (s, r):
            if name is not None and not _is_name(name):
                return f"participant {name!r}"
        for lab in node.branches:
            if not _is_name(lab):
                return f"label {lab!r}"
    return None


def _peel(seeds, preds) -> list:
    """``seeds``, then each node once all its children came before it,
    by Kahn's pass up ``preds`` (node -> parents, one per edge): the
    nodes from which every maximal path meets a seed."""
    left = dict.fromkeys(seeds, 0)  # a seed only goes below zero, not back
    order = list(left)
    for n in order:
        for m in preds[n]:
            left[m] = k = (left[m] if m in left else len(m.branches)) - 1
            if not k:
                order.append(m)
    return order


def _refine(nodes: list) -> dict:
    """Partition refinement; returns a map id(node) -> block index.

    Two nodes land in the same block exactly when they are bisimilar.

    Blocks start as the classes of local signatures.  A round signs
    nodes by their block and their children's blocks in label order,
    and splits each block by signature.  The first round signs every
    node; if it splits no block, no predecessor list is built.  Else
    the well-founded nodes, which reach no cycle, are peeled from those
    without children up (:func:`_peel`; Dovier, Piazza and Policriti
    2004), each signed once more, by its local signature and children's
    classes, and equal signatures share a class: exact, as only a node
    that reaches a cycle, like its parents, has an infinite unfolding.
    Rounds go on over the others alone (Paige and Tarjan 1987, Valmari
    2009), so a graph with no cycle runs none past the first; they start
    again if a node was peeled, and each later round signs only the
    predecessors of the nodes that changed block in the round before.
    The unsigned members of a block still share one signature, and a
    signed member differs from them, since one of its children holds a
    block index made in the round before; so the unsigned members form
    one part.  The largest part of a split keeps the block's index and
    the others move to new ones.  A node thus only moves into a block
    at most half the size of its old one, and the rounds sign
    O(m log n) nodes for the m edges among the nodes that reach a cycle.
    """
    index = {}
    block = {}
    for n in nodes:
        block[id(n)] = index.setdefault(n._local_sig(), len(index))
    cyclic = fresh = len(index)  # peeled classes are numbered from here
    members = preds = None
    signed = nodes if fresh < len(nodes) else ()  # else no block can split
    while signed:
        parts = {}
        for n in signed:
            sig = [block[id(n)]]
            for lab in sorted(n.branches):
                sig.append(block[id(n.branches[lab])])
            parts.setdefault(tuple(sig), []).append(n)
        if preds is None:
            if len(parts) == fresh:
                return block
            preds = {n: [] for n in nodes}
            for n in nodes:
                for child in n.branches.values():
                    preds[child].append(n)
            for n in _peel([n for n in nodes if not n.branches], preds):
                sig = [block[id(n)]]
                for lab in sorted(n.branches):
                    sig.append(block[id(n.branches[lab])])
                block[id(n)] = index.setdefault(tuple(sig), len(index))
            looping = [n for n in nodes if block[id(n)] < cyclic]
            members = {}
            for n in looping:
                members.setdefault(block[id(n)], set()).add(n)
            if fresh < len(index):
                fresh, signed = len(index), looping
                continue
        splits = {}
        for sig, part in parts.items():
            splits.setdefault(sig[0], []).append(part)
        moved = []
        for b, split in splits.items():
            old = members[b]
            rest = len(old) - sum(map(len, split))
            big = max(split, key=len)
            if len(big) < rest:
                big = None  # the unsigned members are the largest part
            elif rest:
                split.append(list(old.difference(*split)))
            for part in split:
                if part is big:
                    continue
                for n in part:
                    block[id(n)] = fresh
                old.difference_update(part)
                members[fresh] = set(part)
                fresh += 1
                moved.extend(part)
        signed = dict.fromkeys([p for n in moved for p in preds[n]])
    return block


def _classes(root):
    """The blocks of the nodes reachable from ``root`` and a map from
    each block to its first node in :func:`reachable_nodes` order."""
    nodes = reachable_nodes(root)
    block = _refine(nodes)
    rep = {}
    for n in nodes:
        rep.setdefault(block[id(n)], n)
    return block, rep


def _canonical_key(root, classes=None):
    """The key of ``root`` from its :func:`_classes`, refined unless given."""
    block, rep = classes or _classes(root)
    # number the blocks by a depth-first walk of the quotient graph,
    # taking branches in label order, so the key only depends on the
    # graph up to bisimilarity
    number = {}  # in the order of the walk
    stack = [block[id(root)]]
    while stack:
        b = stack.pop()
        if b in number:
            continue
        number[b] = len(number)
        n = rep[b]
        for lab in sorted(n.branches, reverse=True):
            stack.append(block[id(n.branches[lab])])
    entries = []
    for b in number:
        n = rep[b]
        entries.append((n._local_sig(),
                        tuple([(lab, number[block[id(n.branches[lab])]])
                               for lab in sorted(n.branches)])))
    return tuple(entries)


def bisimilar(a, b) -> bool:
    return a.key() == b.key()


def _build(key) -> list:
    """A fresh graph with a node per entry of ``key``, as its node list."""
    # a local signature starts with the kind, sender and receiver
    fresh = [GNode(*sig[:3]) for sig, _ in key]
    for node, (_, arms) in zip(fresh, key):
        node.branches = {lab: fresh[i] for lab, i in arms}
    return fresh


def minimize(root):
    """The quotient of ``root`` by bisimilarity, as a fresh graph with a
    node per entry of its key; a key cached on ``root`` is read, not stored."""
    return _build(root._key or _canonical_key(root))[0]


def _quotient_nodes(root) -> list:
    """The nodes of :func:`quotient` of ``root``, in walk (key) order."""
    block, rep = classes = _classes(root)
    return list(rep.values()) if len(rep) == len(block) else _build(
        _canonical_key(root, classes))


def quotient(root):
    """The quotient of ``root`` by bisimilarity: ``root`` itself when no
    two of the nodes it reaches are bisimilar, else :func:`minimize` of
    it, built from the same refinement."""
    return _quotient_nodes(root)[0]


def subterms(root) -> list:
    """One representative per bisimilarity class of subterm of ``root``."""
    return list(_classes(root)[1].values())


def _label_classes(root, chan, memo, nodes=None) -> dict:
    """Each label that occurs in the graph of ``root`` mapped to its
    class on ``chan``: the pairs (i, continuation) of the i-th input on
    ``chan`` that ``root`` reaches, in :func:`reachable_nodes` order,
    for the inputs that offer it.  A process input from p is on (p,
    None).  ``memo`` maps each (root, chan) to its result for one check.
    Given ``nodes``, those of ``root`` in that order, it walks no more."""
    classes = memo.get((root, chan))
    if classes is None:
        nodes = nodes or reachable_nodes(root)
        classes = {lab: [] for n in nodes for lab in n.branches}
        for i, n in enumerate([n for n in nodes if n.kind == IN and (
                n.sender, n.receiver) == chan]):
            for lab, child in n.branches.items():
                classes[lab].append((i, child))
        classes = memo[root, chan] = {lab: tuple(c)
                                      for lab, c in classes.items()}
    return classes


def _alike(root, chan, a, b, memo) -> bool:
    """The one label-class rule: whether ``root`` cannot tell labels
    ``a`` and ``b`` on ``chan`` apart.  Both occur in its graph, and
    every input on ``chan`` that it reaches offers neither or both with
    bisimilar continuations: their :func:`_label_classes` pair the same
    inputs with continuations that are one node or bisimilar."""
    classes = _label_classes(root, chan, memo)
    ca, cb = classes.get(a), classes.get(b)
    return (ca is not None and cb is not None and len(ca) == len(cb)
            and all(i == j and (x is y or bisimilar(x, y))
                    for (i, x), (j, y) in zip(ca, cb)))


def players(g: GNode) -> set:
    """Participants taking part in some communication of ``g``."""
    return {n.player for n in reachable_nodes(g) if n.kind != END}


# ---------------------------------------------------------------------------
# communications and messages


_NAME = re.compile(r"[\w$]+")  # exactly the isalnum(), _ and $ characters
# a communication's participants are names, its label any word
_COMM = re.compile(r"\s*({0})\s*->\s*({0})\s*([!?])\s*({0})\s*".format(
    _NAME.pattern))


def _starts_name(text: str) -> bool:
    """Whether ``text`` starts as a name does: with a letter
    (``isalpha()``), ``_`` or ``$``."""
    first = text[:1]
    return first.isalpha() or first in ("_", "$")


KEYWORDS = frozenset({"proc", "global", "network", "queue", "machine", "end"})


@lru_cache(maxsize=4096)  # asked of every name written or put in a network
def _is_name(text: str, keywords=KEYWORDS) -> bool:
    """Whether ``text`` is a name the syntax reads and writes: a
    ``_NAME`` word that :func:`_starts_name`, not in ``keywords``."""
    return (text not in keywords and _NAME.fullmatch(text) is not None
            and _starts_name(text))


class Comm(NamedTuple):
    """A single communication: output ``p->q!l`` or input ``p->q?l``."""

    kind: str
    sender: str
    receiver: str
    label: str

    @property
    def play(self) -> str:
        """The participant performing this communication."""
        return self.sender if self.kind == OUT else self.receiver

    @property
    def sort_key(self):
        # outputs before inputs, then by label and channel; used as the
        # default tie-break when simulating
        return (0 if self.kind == OUT else 1, self.label,
                self.sender, self.receiver)

    def __str__(self):
        mark = "!" if self.kind == OUT else "?"
        return f"{self.sender}->{self.receiver}{mark}{self.label}"

    @classmethod
    def parse(cls, text: str) -> "Comm":
        m = _COMM.fullmatch(text)
        if m is None or not (_starts_name(m[1]) and _starts_name(m[2])):
            raise ValueError(f"cannot parse communication {text!r}")
        return cls(OUT if m[3] == "!" else IN, m[1], m[2], m[4])


class Msg(NamedTuple):
    """A message ``sender->receiver:label`` travelling in a queue."""

    sender: str
    label: str
    receiver: str

    @property
    def channel(self):
        return (self.sender, self.receiver)

    def __str__(self):
        return f"{self.sender}->{self.receiver}:{self.label}"


def comms(g: GNode) -> set:
    """The communications occurring syntactically in ``g``."""
    out = set()
    for n in reachable_nodes(g):
        if n.kind == END:
            continue
        for lab in n.branches:
            out.add(Comm(n.kind, n.sender, n.receiver, lab))
    return out


# ---------------------------------------------------------------------------
# queues


# a lane of up to this many messages keeps a tuple buffer, copied on
# each push
_SHORT = 8


def _lane_push(lanes: dict, chan, label) -> None:
    """Append ``label`` to the lane of ``chan`` in a lane map, in place.

    A lane ``(buf, lo, hi)`` holds ``buf[lo:hi]``.  A short lane's
    buffer is a tuple, which the cyclic collector can stop tracking, and
    a push copies it.  A longer lane's buffer is a list that queues
    share and only ever append to, so a view never changes under its
    queue: a push appends to the list when the lane ends where the list
    does, and otherwise a push of another queue got there first and
    the live slice is copied.
    """
    lane = lanes.get(chan)
    if lane is None:
        lanes[chan] = ((label,), 0, 1)
        return
    buf, lo, hi = lane
    if type(buf) is list and len(buf) == hi:
        buf.append(label)
    elif hi - lo < _SHORT:
        buf, lo, hi = (*buf[lo:hi], label), 0, hi - lo
    else:
        buf, lo, hi = [*buf[lo:hi], label], 0, hi - lo
    lanes[chan] = (buf, lo, hi + 1)


def _lane_pop(lanes: dict, chan):
    """Remove and return the head of the lane of ``chan``, or None when
    the lane is empty.  A lane whose dead prefix outgrows its live part
    is copied, so the dead prefix never does and the copies cost O(1)
    per pop amortised."""
    lane = lanes.get(chan)
    if lane is None:
        return None
    buf, lo, hi = lane
    label = buf[lo]
    lo += 1
    if lo == hi:
        del lanes[chan]
    elif lo > hi - lo:
        lanes[chan] = (buf[lo:hi], 0, hi - lo)
    else:
        lanes[chan] = (buf, lo, hi)
    return label


class Queue:
    """An immutable message queue, one FIFO lane per ordered channel.

    A lane is a slice ``buf[lo:hi]`` of a buffer: a tuple for a short
    lane, and for a longer one an append-only list that queues may
    share.  Push and pop cost O(1) amortised, not the length of the
    lane, and a lane's dead prefix never outgrows its live part (see
    :func:`_lane_push` and :func:`_lane_pop`).  Empty lanes are
    dropped.

    Equality and hashing see queues up to the structural equivalence:
    messages on different channels commute and empty lanes are
    invisible, so two queues are equal exactly when every channel
    carries the same label sequence.  The key and the hash are each
    computed once, on first use.
    """

    __slots__ = ("_lanes", "_key", "_hash")

    def __init__(self, chans: Optional[dict] = None):
        lanes = {}
        for (sender, receiver), labels in (chans or {}).items():
            if sender == receiver:
                raise ValueError(f"message from {sender!r} to itself")
            if buf := tuple(labels):
                lanes[sender, receiver] = (buf, 0, len(buf))
        self._lanes = lanes
        self._key = None
        self._hash = None

    @classmethod
    def _of(cls, lanes: dict) -> "Queue":
        """The queue of a lane map, which it takes over."""
        q = cls.__new__(cls)
        q._lanes = lanes
        q._key = None
        q._hash = None
        return q

    @classmethod
    def from_msgs(cls, msgs: Iterable[Msg]) -> "Queue":
        lanes = {}
        for m in msgs:
            lanes.setdefault(m.channel, []).append(m.label)
        return cls(lanes)

    @property
    def is_empty(self) -> bool:
        return not self._lanes

    def labels(self, sender: str, receiver: str) -> tuple:
        lane = self._lanes.get((sender, receiver))
        if lane is None:
            return ()
        buf, lo, hi = lane
        return tuple(buf[lo:hi])

    def channels(self) -> list:
        return sorted(self._lanes)

    def head(self, sender: str, receiver: str) -> Optional[str]:
        lane = self._lanes.get((sender, receiver))
        return lane[0][lane[1]] if lane else None

    def push(self, sender: str, label: str, receiver: str) -> "Queue":
        if sender == receiver:
            raise ValueError(f"message from {sender!r} to itself")
        lanes = self._lanes.copy()
        _lane_push(lanes, (sender, receiver), label)
        return Queue._of(lanes)

    def pop(self, sender: str, receiver: str):
        """Remove the head of a channel; returns ``(label, rest)``."""
        lanes = self._lanes.copy()
        label = _lane_pop(lanes, (sender, receiver))
        if label is None:
            raise LookupError(f"empty channel {sender}->{receiver}")
        return label, Queue._of(lanes)

    def messages(self) -> list:
        """All messages, channels in sorted order, FIFO within each."""
        return [Msg(chan[0], lab, chan[1])
                for chan, labels in self.key() for lab in labels]

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(
                (chan, tuple(buf[lo:hi]))
                for chan, (buf, lo, hi) in self._lanes.items()))
        return self._key

    def __len__(self):
        return sum(hi - lo for _, lo, hi in self._lanes.values())

    def __eq__(self, other):
        return isinstance(other, Queue) and (
            self is other or self.key() == other.key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        inner = ", ".join(str(m) for m in self.messages())
        return f"[{inner}]"


# ---------------------------------------------------------------------------
# networks


class Network:
    """A finite map from participants to process types that ``parse``
    reads back, names included (:func:`_unreadable`), else ValueError.  Terminated
    components are dropped, so a network equals the empty one exactly
    when every participant has ended.  Neither a network nor its graphs
    change after construction, so its key and its moves (a table keyed
    by ``(participant, node)``, shared by :meth:`_of`) are built once.
    """

    __slots__ = ("_procs", "_key", "_moves")

    def __init__(self, procs: Optional[dict] = None):
        # kept in name order, so ``items`` need not sort
        procs = sorted((procs or {}).items())
        for name, proc in procs:
            if bad := _unreadable(reachable_nodes(proc), part=name):
                raise ValueError(f"{bad} in {name!r} cannot be parsed back")
        self._procs = {name: proc for name, proc in procs if proc.kind != END}
        self._key = None
        self._moves = {}

    @classmethod
    def _of(cls, procs: dict, moves: dict) -> "Network":
        """The network of a process map in name order, no end in it, and a
        move table, unchecked: each component is a subterm of a checked one."""
        net = cls.__new__(cls)
        net._procs = procs
        net._key = None
        net._moves = moves
        return net

    @property
    def is_empty(self) -> bool:
        return not self._procs

    def players(self) -> set:
        return set(self._procs)

    def get(self, name: str) -> GNode:
        proc = self._procs.get(name)
        return proc if proc is not None else gend()

    def items(self) -> Iterator:
        return iter(self._procs.items())

    def key(self):
        if self._key is None:
            self._key = tuple([(name, proc.key())
                               for name, proc in self._procs.items()])
        return self._key

    def __contains__(self, name):
        return name in self._procs

    def __len__(self):
        return len(self._procs)

    def __eq__(self, other):
        return isinstance(other, Network) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inner = " | ".join(f"{name}:{proc!r}" for name, proc in self.items())
        return f"<Net {inner or 'end'}>"
