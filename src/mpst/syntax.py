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

The lexer is one regular expression, and a token is only its text: a
string keeps its quotes, so a token's kind shows in its first character.
Tokens keep no position; an error works out its line and column when it
is raised, from the token's index.  Every name is an identifier under
the one rule of ``terms._is_name``; keywords are names only in machine
sections.  The parser's loops read tokens into locals and compare them;
a name is a member of ``_Parser.names``, which holds no quoted string:
``"!"`` is a string, never the mark ``!``.

Terms are parsed straight into graph nodes.  Definitions may
reference each other by name in any order: a name stays in its place
as its token's index until the whole file is read, and then becomes
an edge to its definition's node, so cycles through names tie the
back edges of the term graphs.  A cycle that never passes through a communication,
like ``proc A = B`` with ``proc B = A``, is rejected.

Printing produces the same surface form back: nodes that are shared,
sit on a cycle, or are the root get a name, everything else is printed
inline.  Parsing the output yields bisimilar graphs: a printer raises
ValueError for a name ``parse`` would not read back, a message to its
sender, and a graph that fails ``terms._unreadable``, the parser's and
``Network``'s rule.  Neither parsing nor printing recurses, so no term
is too deep for either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

from mpst.machines import QueueMachine
from mpst.terms import (
    END,
    IN,
    KEYWORDS,
    OUT,
    GNode,
    Msg,
    Network,
    Queue,
    _NAME,
    _is_name,
    _starts_name,
    _unreadable,
    gend,
    reachable_nodes,
)

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


def _shown(tok: str) -> str:
    """A token as an error message shows it, a string in its quotes."""
    return f'"{repr(tok[1:-1])[1:-1]}"' if tok[:1] == '"' else repr(tok)


_MARKS = {"->", "|>", *"={}(),;!?[]:", ""}  # and the empty eof token
_NOT_NAMES = _MARKS | KEYWORDS
_KINDS = {"!": OUT, "?": IN}  # the kind of a prefix, by its mark
# ASCII characters that lex alone and are stray, a lone quote among them
_STRAYS = {c for c in map(chr, range(128)) if not _starts_name(c)} - _MARKS
# a word never starts with a digit; ``.`` takes a one-character mark
_TOKEN = re.compile(r"""[ \t\r\n]* ((?!\d)%s | -> | \|> | //[^\n]* | "[^"\n]*"
    | . | \Z)""" % _NAME.pattern, re.X)


def _lex(text: str) -> list:
    """The tokens of ``text``, then the empty eof token.  Each match of
    ``_TOKEN`` is blanks, then a token: a word, a mark, a string in its
    quotes, a comment (dropped) or any other character, so matches are
    contiguous.  A token that is neither a mark nor a string and does
    not start a name (:func:`terms._starts_name`), like ``1`` or ``²``,
    is stray, and a lone ``"`` starts an unterminated string."""
    tokens = _TOKEN.findall(text)
    if "//" in text:  # a comment is a blank
        tokens = [tok for tok in tokens if tok[:2] != "//"]
    # after blanks at the end, \Z matches twice: keep one
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()
    bad = _STRAYS.intersection(tokens)
    if not text.isascii():
        bad.update(tok for tok in set(tokens) - _MARKS
                   if tok[0] != '"' and not _starts_name(tok))
    if bad:
        at = min(map(tokens.index, bad))
        raise ParseError("unterminated string" if tokens[at] == '"'
                         else f"stray character {tokens[at][0]!r}",
                         *_place(text, at))
    return tokens


def _place(text: str, index: int) -> tuple:
    """The line and column of token ``index`` of ``text``: the lexer
    keeps no positions, so this matches ``_TOKEN`` again up to it."""
    at = next(islice((m.start(1) for m in _TOKEN.finditer(text)
                      if m[1][:2] != "//"), index, None))
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# parser
#
# Terms are parsed straight into nodes: each goes into a slot, which is
# a branch map and a label, a definition map and a name, or a network's
# component map and a participant.  A name in term position stays in
# its slot as its token's index until the whole file is read;
# ``_Parser.resolve`` then swaps it for the node of its definition.


@dataclass
class Document:
    """All definitions of one source file, resolved to graphs."""

    procs: dict = field(default_factory=dict)
    globals_: dict = field(default_factory=dict)
    networks: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    machines: dict = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _lex(text)
        # the name test: the text's words less the keywords; no string
        self.names = set(tokens) - _NOT_NAMES
        if '"' in text:
            self.names = {tok for tok in self.names if tok[0] != '"'}
        self.pos = 0
        self.doc = Document()
        # the slots that hold a name's token index, per kind of term
        self.refs = {"process": [], "global type": []}
        # (component map, participant's token index) of every component
        self.parts = []

    def error(self, message: str, index: int, cls=ParseError) -> SourceError:
        """A ``cls`` error placed at token ``index``."""
        return cls(message, *_place(self.text, index))

    def take(self, value: str) -> bool:
        """Consumes the next token if it is the mark or word ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expected(self, what: str, at: int):
        """Raises that ``what`` was expected at token ``at``."""
        tok = self.tokens[at]
        raise self.error(f"expected {what}, found {_shown(tok)}" if tok
                         else "unexpected end of file", at)

    def expect(self, value: str) -> None:
        if not self.take(value):
            self.expected(repr(value), self.pos)

    def name(self, what="name") -> int:
        """Reads a name and returns its token index."""
        if self.tokens[self.pos] not in self.names:
            self.expected(f"a {what}", self.pos)
        self.pos += 1
        return self.pos - 1

    def head(self, keyword: str, defs: dict) -> str:
        """Reads and returns the name of a new ``keyword`` definition."""
        at = self.name()
        name = self.tokens[at]
        if name in defs:
            raise self.error(f"duplicate {keyword} definition {name!r}", at)
        return name

    # ---- definitions

    def document(self) -> Document:
        doc, tokens = self.doc, self.tokens
        while tok := tokens[self.pos]:
            self.pos += 1
            if tok == "proc" or tok == "global":
                what, defs = (("process", doc.procs) if tok == "proc"
                              else ("global type", doc.globals_))
                name = self.head(tok, defs)
                self.expect("=")
                self.term(what, defs, name)
            elif tok == "network":
                self.netdef()
            elif tok == "queue":
                self.queuedef()
            elif tok == "machine":
                self.machinedef(self.pos - 1)
            else:
                self.expected("a definition", self.pos - 1)
        self.resolve(doc.procs, self.refs["process"])
        self.resolve(doc.globals_, self.refs["global type"])
        for comps, at in self.parts:
            part = tokens[at]
            if _unreadable(reachable_nodes(comps[part]), part=part):
                raise self.error(f"{part!r} communicates with itself", at,
                                 SelfCommunication)
        for name, comps in doc.networks.items():  # each checked above
            doc.networks[name] = Network._of(
                {n: p for n, p in sorted(comps.items()) if p.kind != END}, {})
        return doc

    def netdef(self):
        # the component map stands in for the network until names resolve
        comps = {}
        self.doc.networks[self.head("network", self.doc.networks)] = comps
        self.expect("{")
        self.component(comps)
        while self.take(","):
            self.component(comps)
        self.expect("}")

    def component(self, comps):
        at = self.name("participant")
        part = self.tokens[at]
        if part in comps:
            raise self.error(f"participant {part!r} listed twice", at)
        self.expect("|>")
        self.parts.append((comps, at))
        self.term("process", comps, part)

    def queuedef(self):
        name = self.head("queue", self.doc.queues)
        self.expect("=")
        self.expect("[")
        msgs = []
        if not self.take("]"):
            msgs.append(self.message())
            while self.take(","):
                msgs.append(self.message())
            self.expect("]")
        self.doc.queues[name] = Queue.from_msgs(msgs)

    def message(self):
        at = self.name("participant")
        self.expect("->")
        receiver = self.tokens[self.name("participant")]
        self.expect(":")
        label = self.tokens[self.name("label")]
        sender = self.tokens[at]
        if sender == receiver:
            raise self.error(f"message from {sender!r} to itself", at,
                             SelfCommunication)
        return Msg(sender, label, receiver)

    # ---- terms

    def term(self, what, slots, key):
        """Parses a term of a process, or of a global type when ``what``
        is "global type", into ``slots[key]``.

        A process prefix ``q!`` or ``p?`` names the partner only, a
        global one ``p q!`` or ``p q?`` both participants.  A name is
        left in its slot as its token index, and the slot is recorded
        for :meth:`resolve`.  A prefix without braces has one branch,
        so the loop walks down a ``;`` chain; each open ``{...}`` waits
        on ``braces`` with its branch map, its brace's token index and
        the first label it repeats, which is reported once it closes.
        """
        is_global = what == "global type"
        refs = self.refs[what]
        tokens, names, pos = self.tokens, self.names, self.pos
        braces = []
        while True:
            at = pos if tokens[pos] in names else None
            if at is None and tokens[pos] != "end":
                self.expected(f"a {what}", pos)
            tok = tokens[pos + 1]
            if at is None or tok not in (names if is_global else _KINDS):
                # a leaf: close the choices it completes, then go on
                # with the next branch of the innermost open one
                slots[key] = gend() if at is None else at
                if at is not None:
                    refs.append((slots, key))
                pos += 1
                while braces and tokens[pos] != ",":
                    if tokens[pos] != "}":
                        self.expected("'}'", pos)
                    pos += 1
                    _, brace, twice = braces.pop()
                    if twice is not None:
                        raise self.error(
                            f"label {twice!r} appears twice in one choice",
                            brace, DuplicateLabelInChoice)
                if not braces:
                    self.pos = pos
                    return
                pos += 1
                slots = braces[-1][0]
            else:
                pos += 2 + is_global  # past the mark, after one name or two
                kind = _KINDS.get(tokens[pos - 1])
                if kind is None:
                    self.expected("'!' or '?'", pos - 1)
                # a process leaves out the participant that moves
                sender, receiver = (tokens[at], tok) if is_global else (
                    (None, tokens[at]) if kind == OUT else (tokens[at], None))
                if sender == receiver:
                    raise self.error(
                        f"participant {sender!r} talking to itself", at,
                        SelfCommunication)
                node = slots[key] = GNode(kind, sender, receiver)
                slots = node.branches
                if tokens[pos] == "{":
                    pos += 1
                    if tokens[pos] == "}":
                        raise self.error("a choice needs at least one branch",
                                         pos - 1, EmptyChoice)
                    braces.append([slots, pos - 1, None])
            key = tokens[pos]
            if key not in names:
                self.expected("a label", pos)
            if tokens[pos + 1] != ";":
                self.expected("';'", pos + 1)
            pos += 2
            if key in slots and braces[-1][2] is None:
                # a new node's map is empty, so ``slots`` is the brace's
                braces[-1][2] = key

    # ---- machines

    def machinedef(self, head):
        """Reads a machine after its keyword, token ``head``."""
        name = self.head("machine", self.doc.machines)
        self.expect("{")
        parts = {"input": ()}
        delta = {}
        while not self.take("}"):
            at = self.name("section")
            word = self.tokens[at]
            if word in ("states", "input", "queue_alphabet"):
                parts[word] = self.symbols_until_semi(
                    allow_empty=word == "input")
            elif word in ("bottom", "start"):
                parts[word] = self.symbol()
                self.expect(";")
            elif word == "delta":
                self.expect("(")
                state = self.symbol()
                self.expect(",")
                sym = self.symbol()
                self.expect(")")
                self.expect("->")
                self.expect("(")
                target = self.symbol()
                self.expect(",")
                if (out := self.tokens[self.pos])[:1] != '"':
                    raise self.error("expected a quoted word" if out
                                     else "unexpected end of file", self.pos)
                self.pos += 1
                self.expect(")")
                self.expect(";")
                if (state, sym) in delta:
                    raise self.error(
                        f"duplicate delta row ({state}, {sym})", at)
                delta[(state, sym)] = (target, tuple(out[1:-1].split()))
            else:
                raise self.error(f"unknown machine section {word!r}", at)
        for part in ("states", "queue_alphabet", "bottom", "start"):
            if part not in parts:
                raise self.error(f"machine without {part}", head)
        try:
            self.doc.machines[name] = QueueMachine(
                parts["states"], parts["input"], parts["queue_alphabet"],
                parts["bottom"], parts["start"], delta)
        except ValueError as err:
            raise self.error(str(err), head) from None

    def symbol(self) -> str:
        """Reads a machine's state or symbol: any word."""
        if self.tokens[self.pos] in KEYWORDS:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return self.tokens[self.name("symbol")]

    def symbols_until_semi(self, allow_empty=False):
        syms = []
        while not self.take(";"):
            syms.append(self.symbol())
        if not syms and not allow_empty:
            raise self.error("empty symbol list", self.pos)
        return tuple(syms)

    def resolve(self, defs: dict, refs: list) -> None:
        """Swaps the names the parser left in ``defs`` and in the slots
        ``refs`` lists, each held as its token index, for nodes.

        A definition that is a bare name, like ``proc A = B``, first takes
        the node at the end of its alias chain.  A chain that comes back to
        one of its names never passes a communication, so it is rejected.
        Every other name is then an edge to its definition's node.
        """
        for name, body in defs.items():
            chain = {name: None}  # ordered, with O(1) membership
            while type(body) is int:
                if self.tokens[body] in chain:
                    raise self.error(f"unguarded cycle {' = '.join(chain)} = "
                                     f"{self.tokens[body]}", body)
                chain[self.tokens[body]] = None
                body = self.definition(defs, body)
            for link in chain:
                defs[link] = body
        for slots, key in refs:
            if type(slots[key]) is int:
                slots[key] = self.definition(defs, slots[key])

    def definition(self, defs: dict, at: int):
        """The definition of the name at token ``at``."""
        name = self.tokens[at]
        if name not in defs:
            raise self.error(f"undefined name {name!r}", at, UnboundName)
        return defs[name]


def parse(text: str) -> Document:
    """Parse a definition file into resolved graphs."""
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# printing


def _printed(name: str, what: str, keywords=KEYWORDS) -> str:
    """``name``, if ``parse`` reads it back as a ``what``."""
    if not _is_name(name, keywords):
        raise ValueError(f"{what} {name!r} cannot be parsed back")
    return name


def _fmt_term(root, names, out):
    """Appends the body of ``root``'s definition to ``out``.  Below it a
    node prints as its entry in ``names`` (a name or ``end``), or inline;
    ``stack`` holds what is still to be written, the next piece last."""
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif node.kind == END:  # only a root is pushed as an end
            out.append("end")
        else:
            s, r = node.sender, node.receiver
            who = (r if s is None else s if r is None else f"{s} {r}") + (
                "!" if node.kind == OUT else "?")
            labs = sorted(node.branches)
            if len(labs) != 1:
                stack.append("}")
                who += "{"
            for i in range(len(labs) - 1, -1, -1):
                child = node.branches[labs[i]]
                piece = f", {labs[i]}; " if i else f"{who}{labs[i]}; "
                if (leaf := names.get(id(child))) is None:
                    stack += child, piece
                else:
                    stack.append(piece + leaf)


def _fmt_defs(roots, keyword) -> list:
    """The definitions of each ``(root, name)`` of ``roots``, one string
    per root: the root under its name, and each other node but an end
    with two or more incoming edges (one on every cycle) under that name
    and the next suffix ``_1``, ``_2``, ... that is no root's name."""
    reserved = {base for _, base in roots}
    defs = []
    for root, base in roots:
        nodes = reachable_nodes(root)
        if (bad := _unreadable(nodes, keyword == "global")) is not None:
            raise ValueError(f"{bad} cannot be parsed back in a {keyword}")
        shared = {}  # id -> whether two or more edges come in
        for node in nodes:
            for child in node.branches.values():
                shared[id(child)] = id(child) in shared
        names = {id(root): _printed(base, "name")}
        named, out = [root], []
        i = 0
        for node in nodes[1:]:
            if node.kind == END:
                names[id(node)] = "end"  # inline even when shared
            elif shared[id(node)]:
                i += 1
                while f"{base}_{i}" in reserved:
                    i += 1
                names[id(node)] = f"{base}_{i}"
                named.append(node)
        for node in named:
            out.append(f"\n{keyword} {names[id(node)]} = ")
            _fmt_term(node, names, out)
        defs.append("".join(out)[1:])
    return defs


def format_gtype(g: GNode, name: str = "G") -> str:
    return "\n".join(_fmt_defs([(g, name)], "global"))


def format_proc(p: GNode, name: str = "P") -> str:
    return "\n".join(_fmt_defs([(p, name)], "proc"))


def format_network(net: Network, name: str = "N") -> str:
    """Definitions for every component followed by the network line."""
    _printed(name, "name")
    roots = [(proc, f"{name}_{part}") for part, proc in net.items()]
    # a network holds only names that parse reads back
    comps = [f"{part} |> {name}_{part}" for part, _ in net.items()]
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
