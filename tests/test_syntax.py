"""Surface syntax: lexing, parsing, resolution and printing."""

from __future__ import annotations

import random

import pytest

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
)
from mpst.terms import Msg, Network, Queue, bisimilar, gend, reachable_nodes
from conftest import load_protocol
from gen import random_gnode, random_machine, random_network, random_queue
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

    def test_machine_must_be_total(self):
        with pytest.raises(ParseError, match="misses"):
            parse("machine M { states s; input a; queue_alphabet a $;"
                  ' bottom $; start s; delta (s, a) -> (s, ""); }')

    def test_machine_duplicate_delta(self):
        with pytest.raises(ParseError, match="duplicate delta"):
            parse("machine M { states s; input a; queue_alphabet a $;"
                  ' bottom $; start s; delta (s, a) -> (s, "");'
                  ' delta (s, a) -> (s, "a"); delta (s, $) -> (s, ""); }')

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


class TestPrinting:
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

    def test_end_only(self):
        assert format_gtype(gend(), "G") == "global G = end"


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
