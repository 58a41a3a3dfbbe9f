"""Surface syntax: parsing and printing of definition files.

A file is a sequence of definitions:

    proc P = s!nd; P1
    proc P1 = s?{ok; P, ko; s!pr; P}
    global G = p s!nd; G1
    network N { p |> P, s |> S }
    queue Q = [p->s:nd, p->s:pr]
    machine M { states q0; input a; queue_alphabet a $;
                bottom $; start q0; delta (q0, a) -> (q0, "a");
                delta (q0, $) -> (q0, "$"); }

The lexer is one regular expression, and a token's line and column
come from the offsets of its match.  Every name is an identifier under
the one rule of ``terms._is_name``; keywords are names only in machine
sections.

Terms are parsed straight into graph nodes.  Definitions may
reference each other by name in any order: a name stays in its place
as a token until the whole file is read, and then becomes an edge to
its definition's node, so cycles through names tie the back edges of
the term graphs.  A cycle that never passes through a communication,
like ``proc A = B`` with ``proc B = A``, is rejected.

Printing produces the same surface form back: nodes that are shared,
sit on a cycle, or are the root get a name, everything else is printed
inline.  Parsing the output yields bisimilar graphs: a printer raises
ValueError for a name ``parse`` would not read back.  Neither parsing
nor printing recurses, so no term is too deep for either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from mpst.machines import QueueMachine
from mpst.terms import (
    END,
    IN,
    OUT,
    GNode,
    Msg,
    Network,
    Queue,
    _is_name,
    gend,
    reachable_nodes,
)

KEYWORDS = {"proc", "global", "network", "queue", "machine", "end"}


# ---------------------------------------------------------------------------
# errors


class SourceError(Exception):
    """A problem at a known position in the source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ParseError(SourceError):
    pass


class UnboundName(SourceError):
    pass


class DuplicateLabelInChoice(SourceError):
    pass


class EmptyChoice(SourceError):
    pass


class SelfCommunication(SourceError):
    pass


# ---------------------------------------------------------------------------
# lexer


class Token(NamedTuple):
    type: str
    value: str
    line: int
    col: int


def _shown(tok: Token) -> str:
    """A token as an error message shows it, a string in its quotes."""
    shown = repr(tok.value)
    return f'"{shown[1:-1]}"' if tok.type == "string" else shown


_TOKEN = re.compile(r"""[ \t\r]*(?://[^\n]*)?(?:
    (?P<newline>\n) | (?P<ident>[\w$]+) | (?P<punct>->|\|>|[={}(),;!?[\]:])
    | (?P<string>"[^"\n]*") | (?P<stray>.) | (?P<eof>\Z))""", re.X)


def _lex(text: str):
    """The tokens of ``text``, then an eof token.  Each match of
    ``_TOKEN`` is blanks and a comment, then a token of the group that
    matched; ``stray`` takes any other character, so matches are
    contiguous.  A word that is not a name, like ``1x``, is stray."""
    tokens = []
    line, start = 1, 0  # the line and the offset where it starts
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, start = line + 1, m.end()
            continue
        value = m[kind]
        col = m.start(kind) - start + 1
        if kind == "string":
            value = value[1:-1]
        elif kind == "stray" or kind == "ident" and not _is_name(value):
            raise ParseError("unterminated string" if value == '"'
                             else f"stray character {value[0]!r}", line, col)
        tokens.append(Token(kind, value, line, col))
        if kind == "eof":
            return tokens


# ---------------------------------------------------------------------------
# parser
#
# Terms are parsed straight into nodes: each goes into a slot, which is
# a branch map and a label, a definition map and a name, or a network's
# component map and a participant.  A name in term position stays in
# its slot as a token until the whole file is read; ``_resolve`` then
# swaps it for the node of its definition.


@dataclass
class Document:
    """All definitions of one source file, resolved to graphs."""

    procs: dict = field(default_factory=dict)
    globals_: dict = field(default_factory=dict)
    networks: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    machines: dict = field(default_factory=dict)


# the keywords that start a definition: "end" is a term
_DEFINERS = KEYWORDS - {"end"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.doc = Document()
        # the slots that hold a name token, per kind of term
        self.refs = {"process": [], "global type": []}
        # (component map, participant token) of every network component
        self.parts = []

    def peek(self) -> Token:
        # ``next`` never moves past the eof token
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type == "eof":
            raise ParseError("unexpected end of file", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value or tok.type not in ("punct", "ident"):
            raise ParseError(f"expected {value!r}, found {_shown(tok)}",
                             tok.line, tok.col)
        return tok

    def name(self, what="name") -> Token:
        tok = self.next()
        if tok.type != "ident" or tok.value in KEYWORDS:
            raise ParseError(f"expected a {what}, found {_shown(tok)}",
                             tok.line, tok.col)
        return tok

    def head(self, keyword: str, defs: dict) -> str:
        """Reads ``keyword name`` of a definition that goes into
        ``defs``, and returns the name."""
        self.expect(keyword)
        name = self.name()
        if name.value in defs:
            raise ParseError(f"duplicate {keyword} definition {name.value!r}",
                             name.line, name.col)
        return name.value

    # ---- definitions

    def document(self) -> Document:
        doc = self.doc
        while self.peek().type != "eof":
            tok = self.peek()
            if tok.value == "proc":
                self.termdef("proc", "process", doc.procs)
            elif tok.value == "global":
                self.termdef("global", "global type", doc.globals_)
            elif tok.value == "network":
                self.netdef()
            elif tok.value == "queue":
                self.queuedef()
            elif tok.value == "machine":
                self.machinedef()
            else:
                raise ParseError(f"expected a definition, found {_shown(tok)}",
                                 tok.line, tok.col)
        _resolve(doc.procs, self.refs["process"])
        _resolve(doc.globals_, self.refs["global type"])
        for comps, part in self.parts:
            for sub in reachable_nodes(comps[part.value]):
                if part.value in (sub.sender, sub.receiver):
                    raise SelfCommunication(
                        f"{part.value!r} communicates with itself",
                        part.line, part.col)
        for name, comps in doc.networks.items():
            doc.networks[name] = Network(comps)
        return doc

    def termdef(self, keyword, what, defs):
        name = self.head(keyword, defs)
        self.expect("=")
        self.term(what, defs, name)

    def netdef(self):
        # the component map stands in for the network until names resolve
        comps = {}
        self.doc.networks[self.head("network", self.doc.networks)] = comps
        self.expect("{")
        self.component(comps)
        while self.peek().value == ",":
            self.next()
            self.component(comps)
        self.expect("}")

    def component(self, comps):
        part = self.name("participant")
        if part.value in comps:
            raise ParseError(f"participant {part.value!r} listed twice",
                             part.line, part.col)
        self.expect("|>")
        self.parts.append((comps, part))
        self.term("process", comps, part.value)

    def queuedef(self):
        name = self.head("queue", self.doc.queues)
        self.expect("=")
        self.expect("[")
        msgs = []
        if self.peek().value != "]":
            msgs.append(self.message())
            while self.peek().value == ",":
                self.next()
                msgs.append(self.message())
        self.expect("]")
        self.doc.queues[name] = Queue.from_msgs(msgs)

    def message(self):
        sender = self.name("participant")
        self.expect("->")
        receiver = self.name("participant")
        self.expect(":")
        label = self.name("label")
        if sender.value == receiver.value:
            raise SelfCommunication(
                f"message from {sender.value!r} to itself",
                sender.line, sender.col)
        return Msg(sender.value, label.value, receiver.value)

    # ---- terms

    def term(self, what, slots, key):
        """Parses a term of a process, or of a global type when ``what``
        is "global type", into ``slots[key]``.

        A process prefix ``q!`` or ``p?`` names the partner only, a
        global one ``p q!`` or ``p q?`` both participants.  A name is
        left in its slot as its token, and the slot is recorded for
        ``_resolve``.  A prefix without braces has one branch, so the
        loop walks down a ``;`` chain; each open ``{...}`` waits on
        ``braces`` with its branch map, its brace and the first label
        it repeats, which is reported once it closes.
        """
        is_global = what == "global type"
        refs = self.refs[what]
        braces = []
        while True:
            tok = self.next()
            if tok.type != "ident" or tok.value in _DEFINERS:
                raise ParseError(f"expected a {what}, found {_shown(tok)}",
                                 tok.line, tok.col)
            after = self.tokens[self.pos]
            if tok.value == "end" or not (
                    after.type == "ident" and after.value not in KEYWORDS
                    if is_global else after.value in ("!", "?")):
                # a leaf: close the choices it completes, then go on
                # with the next branch of the innermost open one
                if tok.value == "end":
                    slots[key] = gend()
                else:
                    slots[key] = tok
                    refs.append((slots, key))
                while braces and self.tokens[self.pos].value != ",":
                    self.expect("}")
                    _, brace, twice = braces.pop()
                    if twice is not None:
                        raise DuplicateLabelInChoice(
                            f"label {twice!r} appears twice in one choice",
                            brace.line, brace.col)
                if not braces:
                    return
                self.next()
                slots = braces[-1][0]
            else:
                names = ([tok.value, self.next().value] if is_global
                         else [tok.value])
                mark = self.next()
                if mark.value not in ("!", "?"):
                    raise ParseError(
                        f"expected '!' or '?', found {_shown(mark)}",
                        mark.line, mark.col)
                kind = OUT if mark.value == "!" else IN
                if len(names) == 1:
                    # a process leaves out its own participant, the one
                    # that moves
                    names.insert(0 if kind == OUT else 1, None)
                elif names[0] == names[1]:
                    raise SelfCommunication(
                        f"participant {tok.value!r} talking to itself",
                        tok.line, tok.col)
                node = slots[key] = GNode(kind, *names)
                slots = node.branches
                if self.tokens[self.pos].value == "{":
                    brace = self.next()
                    if self.tokens[self.pos].value == "}":
                        raise EmptyChoice("a choice needs at least one branch",
                                          brace.line, brace.col)
                    braces.append([slots, brace, None])
            key = self.name("label").value
            self.expect(";")
            if key in slots and braces[-1][2] is None:
                # a new node's map is empty, so ``slots`` is the brace's
                braces[-1][2] = key

    # ---- machines

    def machinedef(self):
        head = self.peek()
        name = self.head("machine", self.doc.machines)
        self.expect("{")
        parts = {"input": ()}
        delta = {}
        while self.peek().value != "}":
            word = self.name("section")
            if word.value in ("states", "input", "queue_alphabet"):
                parts[word.value] = self.symbols_until_semi(
                    allow_empty=word.value == "input")
            elif word.value in ("bottom", "start"):
                parts[word.value] = self.symbol()
                self.expect(";")
            elif word.value == "delta":
                self.expect("(")
                state = self.symbol()
                self.expect(",")
                sym = self.symbol()
                self.expect(")")
                self.expect("->")
                self.expect("(")
                target = self.symbol()
                self.expect(",")
                out = self.next()
                if out.type != "string":
                    raise ParseError("expected a quoted word",
                                     out.line, out.col)
                self.expect(")")
                self.expect(";")
                if (state, sym) in delta:
                    raise ParseError(
                        f"duplicate delta row ({state}, {sym})",
                        word.line, word.col)
                delta[(state, sym)] = (target, tuple(out.value.split()))
            else:
                raise ParseError(f"unknown machine section {word.value!r}",
                                 word.line, word.col)
        self.expect("}")
        for part in ("states", "queue_alphabet", "bottom", "start"):
            if part not in parts:
                raise ParseError(f"machine without {part}",
                                 head.line, head.col)
        try:
            self.doc.machines[name] = QueueMachine(
                parts["states"], parts["input"], parts["queue_alphabet"],
                parts["bottom"], parts["start"], delta)
        except ValueError as err:
            raise ParseError(str(err), head.line, head.col) from None

    def symbol(self) -> str:
        """Reads a machine's state or symbol: any identifier."""
        tok = self.next()
        if tok.type != "ident":
            raise ParseError(f"expected a symbol, found {_shown(tok)}",
                             tok.line, tok.col)
        return tok.value

    def symbols_until_semi(self, allow_empty=False):
        syms = []
        while self.peek().value != ";":
            syms.append(self.symbol())
        self.expect(";")
        if not syms and not allow_empty:
            raise ParseError("empty symbol list", self.peek().line,
                             self.peek().col)
        return tuple(syms)


def _resolve(defs: dict, refs: list) -> None:
    """Swaps the name tokens the parser left in ``defs`` and in the
    slots ``refs`` lists for nodes.

    A definition that is a bare name, like ``proc A = B``, first takes
    the node at the end of its alias chain.  A chain that comes back to
    one of its names never passes a communication, so it is rejected.
    Every other name is then an edge to its definition's node.
    """
    for name, body in defs.items():
        chain = {name: None}  # ordered, with O(1) membership
        while isinstance(body, Token):
            if body.value in chain:
                raise ParseError(
                    f"unguarded cycle {' = '.join(chain)} = {body.value}",
                    body.line, body.col)
            chain[body.value] = None
            body = _definition(defs, body)
        for link in chain:
            defs[link] = body
    for slots, key in refs:
        if isinstance(slots[key], Token):
            slots[key] = _definition(defs, slots[key])


def _definition(defs: dict, name: Token):
    if name.value not in defs:
        raise UnboundName(f"undefined name {name.value!r}",
                          name.line, name.col)
    return defs[name.value]


def parse(text: str) -> Document:
    """Parse a definition file into resolved graphs."""
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# printing


def _printed(name: str, what: str, keywords=KEYWORDS) -> str:
    """``name``, if ``parse`` reads it back as a ``what``."""
    if not _is_name(name) or name in keywords:
        raise ValueError(f"{what} {name!r} cannot be parsed back")
    return name


def _needs_name(root):
    """Nodes that get a definition of their own, in discovery order:
    the root, and every node other than an end with two or more incoming
    edges.  A back edge's target other than the root is also reached by
    the tree edge that discovered it, so cycles are cut at named nodes."""
    nodes = reachable_nodes(root)
    indeg = {}
    for node in nodes:
        for child in node.branches.values():
            indeg[id(child)] = indeg.get(id(child), 0) + 1
    # ends print inline even when shared
    return [root] + [node for node in nodes[1:]
                     if node.kind != END and indeg[id(node)] >= 2]


def _fmt_term(root, names, out):
    """Appends the body of ``root``'s definition to ``out``.  Below the
    root a node prints as its name if it has one and inline otherwise;
    ``stack`` holds what is still to be written, the next piece last."""
    stack = [root]
    at_def = True
    used = set()  # the participants and labels written
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif node.kind == END:
            out.append("end")
        elif not at_def and id(node) in names:
            out.append(names[id(node)])
        else:
            at_def = False
            used.update(node.branches, (node.sender, node.receiver))
            # the participants the node names: both in a global type,
            # the partner alone in a process
            who = " ".join(filter(None, (node.sender, node.receiver)))
            out.append(f"{who}{'!' if node.kind == OUT else '?'}")
            labs = sorted(node.branches)
            if len(labs) != 1:
                out.append("{")
                stack.append("}")
            for i in range(len(labs) - 1, -1, -1):
                stack.append(node.branches[labs[i]])
                stack.append(f", {labs[i]}; " if i else f"{labs[i]}; ")
    for name in used - {None}:
        _printed(name, "name")


def _fmt_defs(roots, keyword) -> list:
    """The definitions for each ``(root, name)`` of ``roots``: the root
    under its name, and every other node that needs one under that name
    with the next suffix ``_1``, ``_2``, ... that is not a root's name.
    The roots' names are distinct and suffixes are digits, so no name
    is defined twice."""
    reserved = {base for _, base in roots}
    defs = []
    for root, base in roots:
        named = _needs_name(root)
        names = {id(root): _printed(base, "name")}
        i = 0
        for node in named[1:]:
            i += 1
            while f"{base}_{i}" in reserved:
                i += 1
            names[id(node)] = f"{base}_{i}"
        for node in named:
            out = [f"{keyword} {names[id(node)]} = "]
            _fmt_term(node, names, out)
            defs.append("".join(out))
    return defs


def format_gtype(g: GNode, name: str = "G") -> str:
    return "\n".join(_fmt_defs([(g, name)], "global"))


def format_proc(p: GNode, name: str = "P") -> str:
    return "\n".join(_fmt_defs([(p, name)], "proc"))


def format_network(net: Network, name: str = "N") -> str:
    """Definitions for every component followed by the network line."""
    _printed(name, "name")
    roots = [(proc, f"{name}_{part}") for part, proc in net.items()]
    comps = [f"{_printed(part, 'participant')} |> {name}_{part}"
             for part, _ in net.items()]
    if not comps:
        # grammar wants a component, and ended ones are dropped anyway
        comps.append("p |> end")
    lines = _fmt_defs(roots, "proc")
    lines.append(f"network {name} {{ {', '.join(comps)} }}")
    return "\n".join(lines)


def format_queue(queue: Queue, name: str = "Q") -> str:
    inner = ", ".join(
        f"{_printed(s, 'participant')}->{_printed(r, 'participant')}:"
        f"{_printed(lab, 'label')}" for s, lab, r in queue.messages())
    return f"queue {_printed(name, 'name')} = [{inner}]"


def format_machine(machine: QueueMachine, name: str = "M") -> str:
    for sym in (*machine.states, *machine.queue_alphabet):  # all it names
        _printed(sym, "machine symbol", ())
    lines = [f"machine {_printed(name, 'name')} {{"]
    lines.append("  states " + " ".join(machine.states) + ";")
    lines.append("  input " + " ".join(machine.input_alphabet) + ";")
    lines.append("  queue_alphabet " + " ".join(machine.queue_alphabet) + ";")
    lines.append(f"  bottom {machine.bottom};")
    lines.append(f"  start {machine.start};")
    for state in machine.states:
        for sym in machine.queue_alphabet:
            target, written = machine.delta[(state, sym)]
            word = " ".join(written)
            lines.append(f'  delta ({state}, {sym}) -> ({target}, "{word}");')
    lines.append("}")
    return "\n".join(lines)
