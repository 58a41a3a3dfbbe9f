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
sections.  Every lookahead for a mark, a word or a name goes through
``_Parser.at`` or ``_Parser.at_name``, which a quoted string never
passes: ``"!"`` is a string, never the mark ``!``.

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
_TOKEN = re.compile(r"""[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (%s | -> | \|> | [={}(),;!?[\]:] | "[^"\n]*" | . | \Z)""" % _NAME.pattern,
                    re.X)


def _lex(text: str) -> list:
    """The tokens of ``text``, then the empty eof token.  Each match of
    ``_TOKEN`` is blanks and comments, then a token: a word, a mark, a
    string in its quotes, or any other character, so matches are
    contiguous.  A word that is not a name, like ``1x``, and any other
    character are stray, and a lone ``"`` starts an unterminated string."""
    tokens = _TOKEN.findall(text)
    # after blanks or a comment at the end, \Z matches twice: keep one
    if tokens[-2:] == ["", ""]:
        tokens.pop()
    # neither a mark, a name nor a string: a stray or a lone quote
    bad = [tok for tok in set(tokens) - _MARKS
           if not _starts_name(tok) and (tok[0] != '"' or tok == '"')]
    if bad:
        at = min(map(tokens.index, bad))
        raise ParseError("unterminated string" if tokens[at] == '"'
                         else f"stray character {tokens[at][0]!r}",
                         *_place(text, at))
    return tokens


def _place(text: str, index: int) -> tuple:
    """The line and column of token ``index`` of ``text``: the lexer
    keeps no positions, so this matches ``_TOKEN`` again up to it."""
    at = next(islice(_TOKEN.finditer(text), index, None)).start(1)
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
        self.tokens = _lex(text)
        self.pos = 0
        self.doc = Document()
        # the slots that hold a name's token index, per kind of term
        self.refs = {"process": [], "global type": []}
        # (component map, participant's token index) of every component
        self.parts = []

    def error(self, message: str, index: int, cls=ParseError) -> SourceError:
        """A ``cls`` error placed at token ``index``."""
        return cls(message, *_place(self.text, index))

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:  # the eof token, which ``next`` never moves past
            raise self.error("unexpected end of file", self.pos)
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        """Whether the next token is the mark or word ``value``.  A
        string keeps its quotes, so it never is."""
        return self.tokens[self.pos] == value

    def at_name(self, keywords=KEYWORDS) -> bool:
        """Whether the next token is a name: a word not in ``keywords``.
        Every token passed the lexer, so any but a mark, the eof token
        and a string is a word."""
        tok = self.tokens[self.pos]
        return tok not in keywords and tok not in _MARKS and tok[0] != '"'

    def take(self, value: str) -> bool:
        """Consumes the next token if it is ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expected(self, what: str):
        """Raises that ``what`` was expected where the next token is."""
        tok = self.next()  # at the end of the file, says so
        raise self.error(f"expected {what}, found {_shown(tok)}", self.pos - 1)

    def expect(self, value: str) -> None:
        if not self.take(value):
            self.expected(repr(value))

    def name(self, what="name", keywords=KEYWORDS) -> int:
        """Reads a name and returns its token index."""
        if not self.at_name(keywords):
            self.expected(f"a {what}")
        self.pos += 1
        return self.pos - 1

    def head(self, keyword: str, defs: dict) -> str:
        """Reads the name of a ``keyword`` definition that goes into
        ``defs``, once the keyword is read, and returns it."""
        at = self.name()
        name = self.tokens[at]
        if name in defs:
            raise self.error(f"duplicate {keyword} definition {name!r}", at)
        return name

    # ---- definitions

    def document(self) -> Document:
        doc = self.doc
        while self.tokens[self.pos]:
            if self.take("proc"):
                self.termdef("proc", "process", doc.procs)
            elif self.take("global"):
                self.termdef("global", "global type", doc.globals_)
            elif self.take("network"):
                self.netdef()
            elif self.take("queue"):
                self.queuedef()
            elif self.take("machine"):
                self.machinedef(self.pos - 1)
            else:
                self.expected("a definition")
        self.resolve(doc.procs, self.refs["process"])
        self.resolve(doc.globals_, self.refs["global type"])
        for comps, at in self.parts:
            part = self.tokens[at]
            if _unreadable(comps[part], part=part) is not None:
                raise self.error(f"{part!r} communicates with itself", at,
                                 SelfCommunication)
        for name, comps in doc.networks.items():  # each checked above
            doc.networks[name] = Network._of(
                {n: p for n, p in sorted(comps.items()) if p.kind != END}, {})
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
        tokens = self.tokens
        braces = []
        while True:
            at = None if self.take("end") else self.name(what)
            if at is None or not (self.at_name() if is_global
                                  else self.at("!") or self.at("?")):
                # a leaf: close the choices it completes, then go on
                # with the next branch of the innermost open one
                slots[key] = gend() if at is None else at
                if at is not None:
                    refs.append((slots, key))
                while braces and not self.take(","):
                    self.expect("}")
                    _, brace, twice = braces.pop()
                    if twice is not None:
                        raise self.error(
                            f"label {twice!r} appears twice in one choice",
                            brace, DuplicateLabelInChoice)
                if not braces:
                    return
                slots = braces[-1][0]
            else:
                names = ([tokens[at], self.next()] if is_global
                         else [tokens[at]])
                kind = OUT if self.take("!") else IN if self.take("?") else None
                if kind is None:
                    self.expected("'!' or '?'")
                if len(names) == 1:
                    # a process leaves out its own participant, the one
                    # that moves
                    names.insert(0 if kind == OUT else 1, None)
                elif names[0] == names[1]:
                    raise self.error(
                        f"participant {names[0]!r} talking to itself", at,
                        SelfCommunication)
                node = slots[key] = GNode(kind, *names)
                slots = node.branches
                if self.take("{"):
                    if self.at("}"):
                        raise self.error("a choice needs at least one branch",
                                         self.pos - 1, EmptyChoice)
                    braces.append([slots, self.pos - 1, None])
            key = tokens[self.name("label")]
            self.expect(";")
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
                out = self.next()
                if out[0] != '"':
                    raise self.error("expected a quoted word", self.pos - 1)
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
        return self.tokens[self.name("symbol", ())]

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
    """Appends the body of ``root``'s definition to ``out``.
    Below the root a node prints as its name if it has one and inline
    otherwise; ``stack`` holds what is still to be written, the next
    piece last."""
    stack = [root]
    at_def = True
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
            who = " ".join(filter(None, (node.sender, node.receiver)))
            out.append(f"{who}{'!' if node.kind == OUT else '?'}")
            labs = sorted(node.branches)
            if len(labs) != 1:
                out.append("{")
                stack.append("}")
            for i in range(len(labs) - 1, -1, -1):
                stack.append(node.branches[labs[i]])
                stack.append(f", {labs[i]}; " if i else f"{labs[i]}; ")


def _fmt_defs(roots, keyword) -> list:
    """The definitions for each ``(root, name)`` of ``roots``: the root
    under its name, and every other node that needs one under that name
    with the next suffix ``_1``, ``_2``, ... that is not a root's name.
    The roots' names are distinct and suffixes are digits, so no name
    is defined twice."""
    reserved = {base for _, base in roots}
    defs = []
    for root, base in roots:
        if (bad := _unreadable(root, keyword == "global")) is not None:
            raise ValueError(f"{bad} cannot be parsed back in a {keyword}")
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
