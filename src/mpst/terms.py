"""Regular term graphs for global types and process types.

Types with recursion are represented as (possibly cyclic) graphs of
nodes of one class, :class:`GNode`.  A node is either ``end`` or a
choice carrying a branch map from labels to child nodes; the branch map
may be filled in after construction, which is how back edges are tied.
Once a graph has been hashed or compared it must not be mutated
further.  A process node is a choice seen by the participant that
moves, whose own slot is left None: ``pout(q)`` has receiver q and no
sender, ``pin(p)`` sender p and no receiver.

Equality of types is bisimilarity.  Every node can produce a canonical
key via partition refinement of its reachable subgraph; two nodes are
bisimilar exactly when their keys coincide.  Nodes and networks build
their keys once, on first use, and queues their keys and hashes.
"""

from __future__ import annotations

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

    def _bare_clone(self) -> "GNode":
        return GNode(self.kind, self.sender, self.receiver)

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


PNode = GNode


def gend() -> GNode:
    return GNode(END)


def gout(sender: str, receiver: str, branches: Optional[dict] = None) -> GNode:
    return GNode(OUT, sender, receiver, branches)


def gin(sender: str, receiver: str, branches: Optional[dict] = None) -> GNode:
    return GNode(IN, sender, receiver, branches)


pend = gend


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


def _refine(nodes: list) -> dict:
    """Partition refinement; returns a map id(node) -> block index.

    Two nodes land in the same block exactly when they are bisimilar.

    This is splitter-worklist refinement (Paige and Tarjan 1987,
    Valmari 2009).  Blocks start as the classes of local signatures.
    A round signs nodes by their block and their children's blocks in
    label order, and splits each block by signature.  The first round
    signs every node; each later round signs only the predecessors of
    the nodes that changed block in the round before.  The unsigned
    members of a block still share one signature, and a signed member
    differs from them, since one of its children holds a block index
    made in the round before; so the unsigned members form one part.
    The largest part of a split keeps the block's index and the others
    move to new ones.  A node thus only moves into a block at most half
    the size of its old one, at most log2 n times, and refinement signs
    O(m log n) nodes for m edges.  Predecessors and block members are
    built at the first split, so a graph whose local signatures already
    give the bisimilarity classes costs at most one signing pass.
    """
    index = {}
    block = {}
    for n in nodes:
        block[id(n)] = index.setdefault(n._local_sig(), len(index))
    fresh = len(index)
    members = preds = None
    # blocks of one node each cannot split
    signed = nodes if fresh < len(nodes) else ()
    while signed:
        parts = {}
        for n in signed:
            br = n.branches
            sig = (block[id(n)], tuple([block[id(br[lab])] for lab in sorted(br)]))
            parts.setdefault(sig, []).append(id(n))
        if members is None:
            if len(parts) == fresh:
                return block
            members, preds = {}, {}
            for n in nodes:
                members.setdefault(block[id(n)], set()).add(id(n))
                for child in n.branches.values():
                    preds.setdefault(id(child), []).append(n)
        splits = {}
        for (b, _), part in parts.items():
            splits.setdefault(b, []).append(part)
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
                for i in part:
                    block[i] = fresh
                old.difference_update(part)
                members[fresh] = set(part)
                fresh += 1
                moved.extend(part)
        signed = {id(p): p for i in moved for p in preds.get(i, ())}.values()
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


def _canonical_key(root):
    block, rep = _classes(root)
    # number the blocks by a depth-first walk of the quotient graph,
    # taking branches in label order, so the key only depends on the
    # graph up to bisimilarity
    number = {}
    order = []
    stack = [block[id(root)]]
    while stack:
        b = stack.pop()
        if b in number:
            continue
        number[b] = len(number)
        order.append(b)
        n = rep[b]
        for lab in sorted(n.branches, reverse=True):
            stack.append(block[id(n.branches[lab])])
    entries = []
    for b in order:
        n = rep[b]
        entries.append((n._local_sig(),
                        tuple((lab, number[block[id(n.branches[lab])]])
                              for lab in sorted(n.branches))))
    return tuple(entries)


def bisimilar(a, b) -> bool:
    return a.key() == b.key()


def minimize(root):
    """The quotient of ``root`` by bisimilarity, as a fresh graph."""
    block, rep = _classes(root)
    fresh = {b: n._bare_clone() for b, n in rep.items()}
    for b, n in rep.items():
        for lab, child in n.branches.items():
            fresh[b].branches[lab] = fresh[block[id(child)]]
    return fresh[block[id(root)]]


def subterms(root) -> list:
    """One representative per bisimilarity class of subterm of ``root``."""
    return list(_classes(root)[1].values())


def players(g: GNode) -> set:
    """Participants taking part in some communication of ``g``."""
    return {n.player for n in reachable_nodes(g) if n.kind != END}


# ---------------------------------------------------------------------------
# communications and messages


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
        for mark, kind in (("!", OUT), ("?", IN)):
            if mark in text:
                chan, _, label = text.partition(mark)
                sender, arrow, receiver = chan.partition("->")
                if arrow and sender and receiver and label:
                    return cls(kind, sender.strip(), receiver.strip(),
                               label.strip())
        raise ValueError(f"cannot parse communication {text!r}")


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
        if chans:
            for chan, labels in chans.items():
                buf = tuple(labels)
                if buf:
                    lanes[chan] = (buf, 0, len(buf))
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

    def after(self, comms: Iterable[Comm]) -> Optional["Queue"]:
        """The queue after ``comms`` in order: an output appends its
        label to its channel and an input removes its channel's head.
        None when an input's label is not the head it would read."""
        lanes = self._lanes.copy()
        for kind, sender, receiver, label in comms:
            if kind == OUT:
                _lane_push(lanes, (sender, receiver), label)
            elif _lane_pop(lanes, (sender, receiver)) != label:
                return None
        return Queue._of(lanes)

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
    """A finite map from participants to process types.

    Terminated components are dropped, so a network equals the empty
    one exactly when every participant has ended.  A network is never
    changed after construction, so its key is computed once.
    """

    __slots__ = ("_procs", "_key")

    def __init__(self, procs: Optional[dict] = None):
        # kept in name order, so ``items`` need not sort
        self._procs = {name: proc for name, proc in sorted((procs or {}).items())
                       if proc.kind != END}
        self._key = None

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

    def with_comp(self, name: str, proc: GNode) -> "Network":
        procs = dict(self._procs)
        procs[name] = proc
        return Network(procs)

    def without(self, name: str) -> "Network":
        procs = dict(self._procs)
        procs.pop(name, None)
        return Network(procs)

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((name, proc.key())
                                     for name, proc in self._procs.items()))
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
