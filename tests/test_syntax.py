"""Surface syntax: lexing, parsing, resolution and printing."""

from __future__ import annotations

import random
import re
from operator import eq

import pytest
from hypothesis import given, settings, strategies as st

from mpst import syntax, terms
from mpst.syntax import (
    DuplicateLabelInChoice,
    EmptyChoice,
    ParseError,
    SelfCommunication,
    SourceError,
    UnboundName,
    format_gtype,
    format_machine,
    format_network,
    format_proc,
    format_queue,
    parse,
    _lex,
    _place,
)
from mpst.machines import QueueMachine
from mpst.terms import Msg, Network, Queue, bisimilar, gend, gout, pout, \
    reachable_nodes, _starts_name
from conftest import PROTOCOLS, load_protocol
from oracles import oracle_lex
from gen import PARTS, chain, chain_network, random_gnode, random_machine, \
    random_network, random_pnode, random_queue
from zoo import burst_choice, copy_loop, depth_example, eraser, growing, \
    hospital, mp, parity, stuck_reader, unread_branch


class TestProtocolFiles:
    def test_hospital(self):
        doc = load_protocol("hospital")
        h = hospital()
        assert bisimilar(doc.globals_["G"], h.g)
        assert bisimilar(doc.globals_["G1"], h.g1)
        assert bisimilar(doc.globals_["G2"], h.g2)
        assert bisimilar(doc.procs["P"], h.p)
        assert bisimilar(doc.procs["S"], h.s)
        assert doc.networks["N"] == h.net
        assert doc.queues["Empty"] == Queue()
        assert doc.queues["Pending"] == Queue.from_msgs([Msg("p", "pr", "s")])
        assert doc.queues["Backlog"] == Queue.from_msgs(
            [Msg("p", "nd", "s"), Msg("p", "pr", "s")])

    def test_mp(self):
        doc = load_protocol("mp")
        ex = mp()
        assert bisimilar(doc.globals_["G"], ex.g)
        assert doc.networks["N"] == ex.net

    def test_depth(self):
        doc = load_protocol("depth")
        ex = depth_example()
        assert bisimilar(doc.globals_["G"], ex.g)
        assert bisimilar(doc.globals_["Inner"], ex.inner)

    def test_stuck(self):
        doc = load_protocol("stuck")
        ex = stuck_reader()
        assert bisimilar(doc.globals_["G"], ex.g)
        assert doc.queues["Stray"] == ex.queue

    def test_unread(self):
        doc = load_protocol("unread")
        ex = unread_branch()
        assert bisimilar(doc.globals_["G"], ex.g)
        assert doc.queues["M"] == ex.queue

    def test_growing(self):
        assert load_protocol("growing").networks["N"] == growing().net

    def test_burst(self):
        doc = load_protocol("burst")
        ex = burst_choice()
        assert bisimilar(doc.globals_["G"], ex.g)
        assert doc.networks["N"] == ex.net

    def test_machines(self):
        doc = load_protocol("machines")
        assert doc.machines["Copy"] == copy_loop()
        assert doc.machines["Eraser"] == eraser()
        assert doc.machines["Parity"] == parity()


class TestParsing:
    def test_forward_reference(self):
        doc = parse("global A = B  global B = p q!l; A")
        expect = parse("global X = p q!l; X").globals_["X"]
        assert bisimilar(doc.globals_["A"], expect)
        assert doc.globals_["A"] is doc.globals_["B"]

    def test_inline_network_component(self):
        doc = parse("network N { p |> q!l; end, q |> p?l; end }")
        assert doc.networks["N"].players() == {"p", "q"}

    def test_named_network_component(self):
        doc = parse("proc W = q!l; W  network N { p |> W }")
        assert doc.networks["N"].get("p") is doc.procs["W"]

    def test_each_component_checked_once(self, monkeypatch):
        # the component loop checks each one, so building the network
        # checks nothing again
        calls, real = [], terms._unreadable

        def counted(root, *args, **kwargs):
            calls.append(root)
            return real(root, *args, **kwargs)

        monkeypatch.setattr(syntax, "_unreadable", counted)
        monkeypatch.setattr(terms, "_unreadable", counted)
        doc = parse("proc P = q!l; P  network N { q |> p?l; end, p |> P }"
                    "  network M { p |> P }")
        monkeypatch.undo()
        assert len(calls) == 3
        assert [name for name, _ in doc.networks["N"].items()] == ["p", "q"]
        assert doc.networks["M"] == Network({"p": doc.procs["P"]})

    def test_queue_literal(self):
        doc = parse("queue Q = [p->q:a, p->q:b, r->q:z]")
        assert doc.queues["Q"].labels("p", "q") == ("a", "b")
        assert doc.queues["Q"].labels("r", "q") == ("z",)

    def test_comments_and_whitespace(self):
        doc = parse("// leading\nglobal G = end // trailing\n// only\n")
        assert doc.globals_["G"].kind == "end"

    def test_end_is_a_term(self):
        assert parse("proc P = end").procs["P"].kind == "end"

    def test_process_prefix_names_the_partner(self):
        doc = parse("proc P = q!l; Q  proc Q = p?l; end")
        out, inp = doc.procs["P"], doc.procs["Q"]
        assert (out.kind, out.sender, out.receiver) == ("out", None, "q")
        assert (inp.kind, inp.sender, inp.receiver) == ("in", "p", None)


class TestParseErrors:
    def test_unbound_name(self):
        with pytest.raises(UnboundName, match="Nope"):
            parse("global G = p q!l; Nope")

    def test_unguarded_alias_cycle(self):
        with pytest.raises(ParseError, match="unguarded cycle"):
            parse("proc A = B  proc B = A")

    def test_self_alias(self):
        with pytest.raises(ParseError, match="unguarded cycle"):
            parse("proc A = A")

    def test_duplicate_definition(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("proc A = end  proc A = end")

    def test_empty_choice(self):
        with pytest.raises(EmptyChoice):
            parse("proc P = q!{}")

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelInChoice, match="'l'"):
            parse("proc P = q!{l; end, l; end}")

    def test_self_communication_global(self):
        with pytest.raises(SelfCommunication):
            parse("global G = p p!l; end")

    def test_self_communication_queue(self):
        with pytest.raises(SelfCommunication):
            parse("queue Q = [p->p:l]")

    def test_self_communication_network(self):
        with pytest.raises(SelfCommunication):
            parse("network N { p |> p?l; end }")

    def test_keyword_as_name(self):
        with pytest.raises(ParseError):
            parse("proc end = end")

    def test_unexpected_eof(self):
        with pytest.raises(ParseError, match="end of file"):
            parse("proc P =")

    def test_stray_character(self):
        with pytest.raises(ParseError, match="stray"):
            parse("proc P = q!l; end #")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse('machine M { states s; delta (s, a) -> (s, "a); }')

    def test_positions_are_reported(self):
        try:
            parse("global G = p q!l; end\nglobal H = p q!{a; end, a; end}")
        except DuplicateLabelInChoice as err:
            assert err.line == 2
            assert err.col == 16
        else:
            pytest.fail("expected a duplicate label error")

    @pytest.mark.parametrize("text,message,line,col", [
        ("network N { p |> end,\n  p |> end }",
         "participant 'p' listed twice", 2, 3),
        ("proc P = q!l; global G = end",
         "expected a process, found 'global'", 1, 15),
        ("global G = p q l; end", "expected '!' or '?', found 'l'", 1, 16),
        ("machine M {\n  states s; input a; queue_alphabet a $;"
         " bottom $; start s;\n  delta (s, a) -> (s, a); }",
         "expected a quoted word", 3, 23),
        ("machine M {\n  states s, t; }", "expected a symbol, found ','",
         2, 11),
        ("machine M {\n  states ; }", "empty symbol list", 2, 12),
        ("proc P = // c", "unexpected end of file", 1, 14),
        ('machine M {\n  states s; start "s"; }',
         'expected a symbol, found "s"', 2, 19),
        ('machine M {\n  bottom "$"; }', 'expected a symbol, found "$"',
         2, 10),
        ('machine M {\n  delta ("s", a) -> ("s", "a"); }',
         'expected a symbol, found "s"', 2, 10),
        ("machine M {\n  states s; start ;; }",
         "expected a symbol, found ';'", 2, 19),
        ('machine M { states s; start "s"; }',
         'expected a symbol, found "s"', 1, 29),
        ('proc P "=" end', "expected '=', found \"=\"", 1, 8),
        ('global G = p q "!" l; end', "expected '!' or '?', found \"!\"",
         1, 16),
        ('proc P = q "?" l; end', 'expected a definition, found "?"', 1, 12),
        ('global G = p q!{l; end "," m; end}', "expected '}', found \",\"",
         1, 24),
        ('global G = p q! "{" l; end, m; end}',
         'expected a label, found "{"', 1, 17),
        ('proc P = q!l; end\nproc Q = p?l; end\n'
         'network N { p |> P "," q |> Q }', "expected '}', found \",\"",
         3, 20),
        ('queue Q = [p->q:a "," p->q:b]', "expected ']', found \",\"", 1, 19),
        ('machine M { states s ";" }', 'expected a symbol, found ";"', 1, 22),
        # the lexer reads the whole text before the parser starts, so a
        # lexer error wins over an earlier parse error
        ("global G = ; #", "stray character '#'", 1, 14),
        ("global G = p q!l; H\n1x", "stray character '1'", 2, 1),
        ('global G = p q!{a; end, a; end} "', "unterminated string", 1, 33),
    ], ids=["participant-twice", "definer-as-term", "missing-mark",
            "unquoted-word", "non-symbol", "empty-symbols",
            "trailing-comment", "quoted-start", "quoted-bottom",
            "quoted-delta-state", "punct-start", "quoted-symbol",
            "quoted-punct", "quoted-global-mark", "quoted-process-mark",
            "quoted-choice-comma", "quoted-brace", "quoted-network-comma",
            "quoted-queue-comma", "quoted-semicolon", "stray-after-error",
            "stray-digit-after-error", "unterminated-after-error"])
    def test_parse_error_positions(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert type(err.value) is ParseError
        assert (err.value.message, err.value.line, err.value.col) == (
            message, line, col)

    # each error is placed at a token read before it is raised, a name
    # held until the file is resolved or a token the parser went past;
    # a comment and a "\r\n" come first, so placing is by line and column
    @pytest.mark.parametrize("text,cls,message,line,col", [
        ("global G = p q!l;\n   H", UnboundName, "undefined name 'H'", 5, 4),
        ("proc A = B\nproc B =\tA", ParseError, "unguarded cycle A = B = A",
         5, 10),
        ("global G =\tp q!{}", EmptyChoice,
         "a choice needs at least one branch", 4, 16),
        ("global G = p q!{a; end,\r\n a; end}", DuplicateLabelInChoice,
         "label 'a' appears twice in one choice", 4, 16),
        ("network N { p |> q!l; end,\n  q |> q!l; end }", SelfCommunication,
         "'q' communicates with itself", 5, 3),
        ("queue Q = [p->q:a,\n  r->r:b]", SelfCommunication,
         "message from 'r' to itself", 5, 3),
        ("global G = p q!l;\n  r r?l; end", SelfCommunication,
         "participant 'r' talking to itself", 5, 3),
        ("proc P = end\n proc P = end", ParseError,
         "duplicate proc definition 'P'", 5, 7),
        ("  machine M {\n  states s; }", ParseError,
         "machine without queue_alphabet", 4, 3),
        ("machine M { states s; input a; queue_alphabet a $;\n bottom $;"
         ' start s; delta (s, a) -> (s, "");\r\n delta (s, a) -> (s, "a"); }',
         ParseError, "duplicate delta row (s, a)", 6, 2),
        ("machine M {\n  states s; bogus s; }", ParseError,
         "unknown machine section 'bogus'", 5, 13),
        ("machine M { states s s; input a; queue_alphabet a $;\n bottom $;"
         " start s; }", ParseError, "state listed twice in s s", 4, 1),
    ], ids=["unbound", "unguarded-cycle", "empty-choice", "duplicate-label",
            "self-component", "self-message", "self-prefix",
            "duplicate-definition", "machine-without", "duplicate-delta",
            "unknown-section", "invalid-machine"])
    def test_held_token_error_positions(self, text, cls, message, line, col):
        with pytest.raises(SourceError) as err:
            parse("// a comment\r\nproc Z = end  // more\r\n\n" + text)
        assert type(err.value) is cls
        assert (err.value.message, err.value.line, err.value.col) == (
            message, line, col)

    def test_error_position_deep_in_a_long_text(self):
        text = "".join(f"proc P{i} = q!l; P{i + 1}\r\n" for i in range(1000))
        with pytest.raises(UnboundName) as err:
            parse(text + "proc P1000 = q!l;  X")
        assert (err.value.message, err.value.line, err.value.col) == (
            "undefined name 'X'", 1001, 20)

    def test_machine_must_be_total(self):
        with pytest.raises(ParseError, match="misses"):
            parse("machine M { states s; input a; queue_alphabet a $;"
                  ' bottom $; start s; delta (s, a) -> (s, ""); }')

    def test_machine_duplicate_delta(self):
        with pytest.raises(ParseError, match="duplicate delta"):
            parse("machine M { states s; input a; queue_alphabet a $;"
                  ' bottom $; start s; delta (s, a) -> (s, "");'
                  ' delta (s, a) -> (s, "a"); delta (s, $) -> (s, ""); }')

    def test_machine_repeated_state(self):
        with pytest.raises(ParseError, match="listed twice") as err:
            parse("machine M { states s s; input a; queue_alphabet a $;"
                  ' bottom $; start s; delta (s, a) -> (s, "");'
                  ' delta (s, $) -> (s, ""); }')
        assert (err.value.line, err.value.col) == (1, 1)

    def test_machine_missing_section(self):
        with pytest.raises(ParseError, match="without"):
            parse("machine M { states s; }")

    def test_prefix_forms_do_not_mix(self):
        # a process prefix names one participant, a global prefix two
        for sample in ["proc P = p q!l; end", "global G = q!l; end",
                       "network N { p |> r q!l; end }"]:
            with pytest.raises(SourceError):
                parse(sample)

    def test_errors_are_source_errors(self):
        for sample in ["proc P = q!{}", "global G = p p!l; end", "proc A = A"]:
            with pytest.raises(SourceError):
                parse(sample)


def _lexed(text):
    """``_lex`` of ``text`` as ``oracle_lex`` gives it: each token's
    kind and value told from its text, and its place from ``_place``;
    or the error's class, message and place."""
    try:
        tokens = _lex(text)
    except ParseError as err:
        return type(err), err.message, err.line, err.col
    kinds = [("eof", tok) if not tok
             else ("string", tok[1:-1]) if tok[0] == '"'
             else ("ident" if _starts_name(tok) else "punct", tok)
             for tok in tokens]
    return [(*kind, *_place(text, i)) for i, kind in enumerate(kinds)]


def _oracle_lexed(text):
    try:
        return [tuple(tok) for tok in oracle_lex(text)]
    except ParseError as err:
        return type(err), err.message, err.line, err.col


# letters, a letter (一) and numerals (², Ⅻ) outside ASCII, blanks,
# and a character of every kind of token, comment and stray
_LEX_ALPHABET = ["p", "é", "一", "²", "Ⅻ", "1", "_", "$", " ", "\t", "\r",
                 "\n", '"', "/", "-", "|", ">", "!", ";", "{", "#"]


class TestLexer:
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(_LEX_ALPHABET), max_size=30))
    def test_matches_the_character_loop(self, text):
        assert _lexed(text) == _oracle_lexed(text)

    @pytest.mark.parametrize("text,last", [
        ("p //", ("eof", "", 1, 5)),
        ('p "', (ParseError, "unterminated string", 1, 3)),
        ("-", (ParseError, "stray character '-'", 1, 1)),
        ("²x", (ParseError, "stray character '²'", 1, 1)),
        ("x²", ("eof", "", 1, 3)),
        ("\t\tp", ("eof", "", 1, 4)),
    ], ids=["comment-at-eof", "quote-at-eof", "lone-minus", "numeral-first",
            "numeral-after", "tabs"])
    def test_edge_cases(self, text, last):
        lexed = _lexed(text)
        assert lexed == _oracle_lexed(text)
        assert tuple(lexed[-1] if type(lexed) is list else lexed) == last


class TestPrinting:
    def test_one_walk_per_printed_root(self, monkeypatch):
        # validity, the nodes and their in-degrees come from one walk
        walks, real = [], terms.reachable_nodes

        def counted(root):
            walks.append(root)
            return real(root)

        h = hospital()
        monkeypatch.setattr(terms, "reachable_nodes", counted)
        monkeypatch.setattr(syntax, "reachable_nodes", counted)
        assert format_gtype(h.g).count("\n") == 1  # G_1 has a definition
        assert walks == [h.g]
        walks.clear()
        format_network(h.net)
        assert walks == [proc for _, proc in h.net.items()]

    def test_hospital_canonical_form(self):
        h = hospital()
        assert format_gtype(h.g, "G") == (
            "global G = p s!nd; p s?{nd; G_1, pr; G_1}\n"
            "global G_1 = s p!{ko; s p?ko; p s!pr; G, ok; s p?ok; G}")

    def test_queue_formatting(self):
        q = Queue.from_msgs([Msg("r", "z", "s"), Msg("p", "nd", "s")])
        assert format_queue(q, "Q") == "queue Q = [p->s:nd, r->s:z]"
        assert format_queue(Queue(), "E") == "queue E = []"

    def test_empty_network(self):
        text = format_network(Network(), "N")
        assert parse(text).networks["N"] == Network()

    def test_shared_node_printed_once(self):
        doc = parse("global G = p q!{a; H, b; H}  global H = q r!x; end")
        text = format_gtype(doc.globals_["G"], "G")
        assert text.count("q r!x") == 1

    def test_network_names_do_not_clash(self):
        # the component p needs a second definition, whose first-choice
        # name N_p_1 is the name of the component p_1
        doc = parse("proc A = q!{a; A, b; B}  proc B = q!{c; A, d; B}"
                    "  proc C = q?{x; end}  network N { p |> A, p_1 |> C }")
        text = format_network(doc.networks["N"], "N")
        assert text == (
            "proc N_p = q!{a; N_p, b; N_p_2}\n"
            "proc N_p_2 = q!{c; N_p, d; N_p_2}\n"
            "proc N_p_1 = q?x; end\n"
            "network N { p |> N_p, p_1 |> N_p_1 }")
        assert parse(text).networks["N"] == doc.networks["N"]

    def test_end_only(self):
        assert format_gtype(gend(), "G") == "global G = end"

    @pytest.mark.parametrize("bad", ["1x", "end", "proc", "q-r"])
    def test_names_parse_would_not_read_back(self, bad):
        net = Network({"p": pout("q", {"l": gend()})})
        queue = Queue.from_msgs([Msg("p", "l", "q")])
        printed = [
            lambda: format_gtype(gout("p", "q", {bad: gend()})),
            lambda: format_gtype(gout("p", bad, {"l": gend()})),
            lambda: format_gtype(gend(), bad),
            lambda: format_proc(pout("q", {bad: gend()})),
            lambda: format_proc(pout(bad, {"l": gend()})),
            lambda: format_proc(gend(), bad),
            lambda: format_network(Network({bad: pout("q", {"l": gend()})})),
            lambda: format_network(Network({"p": pout("q", {bad: gend()})})),
            lambda: format_network(net, bad),
            lambda: format_queue(Queue.from_msgs([Msg("p", bad, "q")])),
            lambda: format_queue(Queue.from_msgs([Msg(bad, "l", "q")])),
            lambda: format_queue(queue, bad),
            lambda: format_machine(copy_loop(), bad),
        ]
        for fmt in printed:
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                fmt()

    @pytest.mark.parametrize("fmt", [
        lambda: format_gtype(pout("q", {"l": gend()})),
        lambda: format_gtype(gout("p", "q", {"l": pout("q")})),
        lambda: format_proc(gout("p", "q", {"l": gend()})),
        lambda: format_proc(pout("q", {"l": gout("p", "q")})),
        lambda: format_network(Network({"r": gout("p", "q", {"l": gend()})})),
        lambda: format_gtype(gout("p", "q")),
        lambda: format_proc(pout("q")),
        lambda: format_network(Network({"p": pout("q")})),
    ], ids=["process-as-global", "process-below-global", "global-as-process",
            "global-below-process", "global-in-network", "empty-global",
            "empty-process", "empty-in-network"])
    def test_nodes_parse_would_not_read_back(self, fmt):
        # a global type names both participants, a process one, and a
        # choice has a branch
        with pytest.raises(ValueError, match="cannot be parsed back"):
            fmt()

    def test_machine_names(self):
        def machine(state):
            return QueueMachine((state,), ("a",), ("a", "$"), "$", state,
                                {(state, "a"): (state, ("a",)),
                                 (state, "$"): (state, ())})

        with pytest.raises(ValueError, match="'1s'"):
            format_machine(machine("1s"))
        # machine sections have no keywords
        for state in ("end", "proc"):
            m = machine(state)
            assert parse(format_machine(m)).machines["M"] == m


class TestRoundTrips:
    def test_random_gtypes(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_gnode(rng)
            text = format_gtype(g, "G")
            assert bisimilar(parse(text).globals_["G"], g), text

    def test_random_networks(self):
        rng = random.Random(43)
        for _ in range(150):
            net = random_network(rng)
            text = format_network(net, "N")
            assert parse(text).networks["N"] == net, text

    def test_every_network_that_builds_prints_back(self):
        # components of every kind, faulty ones too: global types,
        # processes that may name their own participant, and choices
        # emptied at random; what Network does not refuse round-trips
        rng = random.Random(97)
        kinds = [lambda p: random_pnode(rng, p, max_nodes=3),
                 lambda p: random_pnode(rng, None, max_nodes=3),
                 lambda p: random_gnode(rng, max_nodes=3)]
        built = refused = 0
        for _ in range(400):
            procs = {p: rng.choice(kinds)(p)
                     for p in rng.sample(PARTS, rng.randint(1, 3))}
            for proc in procs.values():
                if rng.random() < 0.2:
                    rng.choice(reachable_nodes(proc)).branches.clear()
            try:
                net = Network(procs)
            except ValueError as err:
                assert "cannot be parsed back" in str(err)
                refused += 1
                continue
            built += 1
            text = format_network(net, "N")
            assert parse(text).networks["N"] == net, text
        assert built > 50 and refused > 50

    def test_random_queues(self):
        rng = random.Random(47)
        for _ in range(150):
            q = random_queue(rng)
            text = format_queue(q, "Q")
            assert parse(text).queues["Q"] == q, text

    def test_random_machines(self):
        rng = random.Random(53)
        for _ in range(150):
            m = random_machine(rng)
            text = format_machine(m, "M")
            assert parse(text).machines["M"] == m, text

    def test_printing_is_canonical(self):
        # printing, parsing and printing again reproduces the text
        rng = random.Random(59)
        for _ in range(150):
            g = random_gnode(rng)
            text = format_gtype(g, "G")
            again = format_gtype(parse(text).globals_["G"], "G")
            assert text == again

    def test_machine_fixture_roundtrip(self):
        for machine in (copy_loop(), eraser(), parity()):
            assert parse(format_machine(machine, "M")).machines["M"] == machine


DEEP = 10**4


class TestDeepInputs:
    """Terms parse and print with loops, so depth has no limit."""

    def test_chain(self):
        text = "global G = " + "p q!l; p q?l; " * DEEP + "end"
        assert bisimilar(parse(text).globals_["G"], chain(DEEP))

    def test_nested_choices(self):
        text = "proc P = " + "q!{l; " * DEEP + "end" + "}" * DEEP
        assert len(reachable_nodes(parse(text).procs["P"])) == DEEP + 1

    def test_alias_chain(self):
        text = "".join(f"proc A{i} = A{i + 1}\n" for i in range(DEEP))
        procs = parse(text + f"proc A{DEEP} = q!l; A0").procs
        assert len({id(node) for node in procs.values()}) == 1

    def test_network_component(self):
        text = ("network N { p |> " + "q!l; " * DEEP + "end, q |> "
                + "p?l; " * DEEP + "end }")
        assert parse(text).networks["N"] == chain_network(DEEP)

    def test_printing_round_trips(self):
        g = chain(DEEP)
        assert bisimilar(parse(format_gtype(g)).globals_["G"], g)
        net = chain_network(DEEP)
        p = net.get("p")
        assert bisimilar(parse(format_proc(p)).procs["P"], p)
        assert parse(format_network(net)).networks["N"] == net


# every kind of token, a comment, a lone quote and stray characters
_PIECES = ["p", "q", "l", "A", "$", "s0", "proc", "global", "network",
           "queue", "machine", "end", "states", "input", "queue_alphabet",
           "bottom", "start", "delta", "=", "{", "}", "(", ")", ",", ";",
           "!", "?", "[", "]", ":", "->", "|>", "-", "|", '"', '"a $"',
           "//", "#"]


class TestFuzzing:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_PIECES),
                              st.sampled_from(["", " ", "\n"])),
                    max_size=40))
    def test_any_text_raises_only_source_errors(self, pieces):
        try:
            parse("".join(piece + gap for piece, gap in pieces))
        except SourceError:
            pass

    def test_every_prefix_of_the_protocols(self):
        # each cut reaches an end of file in some other state
        for path in sorted(PROTOCOLS.glob("*.mps")):
            text = path.read_text()
            for cut in range(len(text)):
                try:
                    parse(text[:cut])
                except SourceError:
                    pass

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_printing_round_trips(self, seed):
        rng = random.Random(seed)
        g = random_gnode(rng)
        p = random_pnode(rng, "p")
        net = random_network(rng)
        queue = random_queue(rng)
        machine = random_machine(rng)
        cases = [
            (g, format_gtype, lambda doc: doc.globals_["G"], bisimilar),
            (p, format_proc, lambda doc: doc.procs["P"], bisimilar),
            (net, format_network, lambda doc: doc.networks["N"], eq),
            (queue, format_queue, lambda doc: doc.queues["Q"], eq),
            (machine, format_machine, lambda doc: doc.machines["M"], eq),
        ]
        for value, fmt, pick, same in cases:
            text = fmt(value)
            back = pick(parse(text))
            assert same(back, value), text
            assert fmt(back) == text
