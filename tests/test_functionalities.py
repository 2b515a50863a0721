"""Ideal-functionality semantics tests."""

import pytest

from repro.crypto import Rng, signature
from repro.crypto.mac import MacKey
from repro.engine.messages import ABORT
from repro.functionalities import (
    CoinToss,
    FairSfe,
    GkShareGen,
    ObliviousTransfer,
    OtChoose,
    OtSend,
    PrivOutput,
    PrivSfeWithAbort,
    SealedValue,
    SfeRandomAbort,
    SfeWithAbort,
    ShareGenOutput,
    TwoPartyShareGen,
    decode_output,
    geometric_rounds,
    open_sealed,
    poly_domain_sharegen,
    poly_range_sharegen,
)
from repro.functionalities.base import AdversaryHandle, FunctionalityRegistry
from repro.functions import make_and, make_concat, make_swap


class ScriptedAdversary:
    """Answers functionality queries from a script, records notifications."""

    def __init__(self, ask=True, abort=False):
        self.ask = ask
        self.abort = abort
        self.notifications = []

    def on_functionality_query(self, fname, query, data):
        if query == "request-outputs?":
            return self.ask
        if query == "abort?":
            return self.abort
        return None

    def on_functionality_notify(self, fname, event, data):
        self.notifications.append((event, data))


def handle(corrupted=frozenset(), ask=True, abort=False):
    adv = ScriptedAdversary(ask, abort)
    return AdversaryHandle(adv, "F", set(corrupted)), adv


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionalityRegistry({"F_a": FairSfe(make_and())})
        assert "F_a" in registry
        assert registry.names() == ["F_a"]

    def test_duplicate_rejected(self):
        registry = FunctionalityRegistry()
        registry.register("F", FairSfe(make_and()))
        with pytest.raises(ValueError):
            registry.register("F", FairSfe(make_and()))

    def test_missing_lookup(self):
        with pytest.raises(KeyError):
            FunctionalityRegistry().get("nope")


class TestFairSfe:
    def test_honest_delivery(self):
        f = FairSfe(make_swap(8))
        h, _ = handle()
        out = f.invoke({0: 3, 1: 9}, h, Rng(1), 2)
        assert out == {0: 9, 1: 3}

    def test_adversary_abort_denies_everyone(self):
        f = FairSfe(make_swap(8))
        h, _ = handle(corrupted={0}, abort=True)
        out = f.invoke({0: 3, 1: 9}, h, Rng(1), 2)
        assert out[0] is ABORT and out[1] is ABORT

    def test_refused_participation_aborts(self):
        f = FairSfe(make_swap(8))
        h, _ = handle(corrupted={0})
        out = f.invoke({1: 9}, h, Rng(1), 2)
        assert out[1] is ABORT


class TestSfeWithAbort:
    def test_ask_then_abort(self):
        f = SfeWithAbort(make_swap(8))
        h, adv = handle(corrupted={0}, ask=True, abort=True)
        out = f.invoke({0: 3, 1: 9}, h, Rng(1), 2)
        assert out[0] == 9  # corrupted got its output
        assert out[1] is ABORT  # honest denied
        assert adv.notifications[0][0] == "corrupted-outputs"

    def test_no_ask_no_abort(self):
        f = SfeWithAbort(make_swap(8))
        h, adv = handle(corrupted={0}, ask=False, abort=False)
        out = f.invoke({0: 3, 1: 9}, h, Rng(1), 2)
        assert out == {0: 9, 1: 3}
        assert adv.notifications == []

    def test_input_substitution(self):
        f = SfeWithAbort(make_swap(8))
        h, _ = handle(corrupted={0})
        out = f.invoke({0: 77, 1: 9}, h, Rng(1), 2)
        assert out[1] == 77


class TestTwoPartyShareGen:
    def test_shares_reconstruct_output_vector(self):
        func = make_swap(8)
        f = TwoPartyShareGen(func)
        h, _ = handle()
        out = f.invoke({0: 3, 1: 9}, h, Rng(1), 2)
        assert isinstance(out[0], ShareGenOutput)
        from repro.crypto import reconstruct

        encoded = reconstruct(out[0].share, out[1].share.wire_message())
        assert decode_output(encoded) == (9, 3)
        assert out[0].first_receiver == out[1].first_receiver
        assert out[0].first_receiver in (0, 1)

    def test_first_receiver_uniform(self):
        func = make_and()
        counts = [0, 0]
        for k in range(400):
            f = TwoPartyShareGen(func)
            h, _ = handle()
            out = f.invoke({0: 1, 1: 1}, h, Rng(("fr", k)), 2)
            counts[out[0].first_receiver] += 1
        assert 150 <= counts[0] <= 250

    def test_abort_after_ask(self):
        f = TwoPartyShareGen(make_and())
        h, adv = handle(corrupted={1}, ask=True, abort=True)
        out = f.invoke({0: 1, 1: 1}, h, Rng(1), 2)
        assert isinstance(out[1], ShareGenOutput)
        assert out[0] is ABORT

    def test_non_two_party_rejected(self):
        with pytest.raises(ValueError):
            TwoPartyShareGen(make_concat(3, 4))


class TestPrivSfeWithAbort:
    def test_exactly_one_holder_with_valid_signature(self):
        func = make_concat(4, 8)
        f = PrivSfeWithAbort(func)
        h, _ = handle()
        inputs = {i: i + 1 for i in range(4)}
        out = f.invoke(inputs, h, Rng(1), 4)
        holders = [i for i in range(4) if out[i].holds_output]
        assert len(holders) == 1
        y, sigma = out[holders[0]].value
        assert y == (1, 2, 3, 4)
        assert signature.ver(y, sigma, out[0].verification_key)

    def test_signature_rejects_other_value(self):
        func = make_concat(3, 8)
        f = PrivSfeWithAbort(func)
        h, _ = handle()
        out = f.invoke({0: 1, 1: 2, 2: 3}, h, Rng(2), 3)
        holder = next(i for i in range(3) if out[i].holds_output)
        _, sigma = out[holder].value
        assert not signature.ver((9, 9, 9), sigma, out[0].verification_key)

    def test_holder_uniform(self):
        func = make_concat(3, 8)
        counts = [0, 0, 0]
        for k in range(600):
            f = PrivSfeWithAbort(func)
            h, _ = handle()
            out = f.invoke({0: 1, 1: 2, 2: 3}, h, Rng(("h", k)), 3)
            counts[next(i for i in range(3) if out[i].holds_output)] += 1
        assert all(140 <= c <= 260 for c in counts)

    def test_abort_denies_honest(self):
        func = make_concat(3, 8)
        f = PrivSfeWithAbort(func)
        h, _ = handle(corrupted={0}, ask=True, abort=True)
        out = f.invoke({0: 1, 1: 2, 2: 3}, h, Rng(3), 3)
        assert isinstance(out[0], PrivOutput)
        assert out[1] is ABORT and out[2] is ABORT


class TestGkShareGen:
    def test_parameters(self):
        sg = poly_domain_sharegen(make_and(), p=4)
        assert sg.alpha == pytest.approx(1 / 8)
        assert sg.rounds == geometric_rounds(sg.alpha)

    def test_range_variant_parameters(self):
        sg = poly_range_sharegen(make_and(), p=2)
        assert sg.alpha == pytest.approx(1 / 8)  # 1/(p^2 |Z|) = 1/(4*2)

    def test_streams_open_and_switch_at_i_star(self):
        func = make_and()
        sg = poly_domain_sharegen(func, p=2)
        h, _ = handle()
        out = sg.invoke({0: 1, 1: 1}, h, Rng(5), 2)
        i_star = sg.i_star
        assert 1 <= i_star <= sg.rounds
        # Open p1's stream from p2's outgoing tokens.
        p0, p1 = out[0], out[1]
        for j, token in enumerate(p1.outgoing_tokens):
            value = open_sealed(token, p0.incoming_pads[j], p0.mac_key, "a")
            if j >= i_star - 1:
                assert value == 1  # the real output of AND(1,1)
            else:
                assert value in (0, 1)

    def test_tampered_token_rejected(self):
        sg = poly_domain_sharegen(make_and(), p=2)
        h, _ = handle()
        out = sg.invoke({0: 1, 1: 1}, h, Rng(6), 2)
        token = out[1].outgoing_tokens[0]
        from dataclasses import replace

        bad = replace(token, ciphertext=token.ciphertext ^ 1)
        with pytest.raises(ValueError):
            open_sealed(bad, out[0].incoming_pads[0], out[0].mac_key, "a")

    @pytest.mark.parametrize(
        "sealed",
        [SealedValue(0, 5, None), SealedValue(0, 5, "x" * 16),
         SealedValue(0, 5.0, b"x" * 16)],
        ids=["none-tag", "str-tag", "float-ciphertext"],
    )
    def test_malformed_token_is_value_error(self, sealed):
        key = MacKey(b"k" * 16)
        with pytest.raises(ValueError):
            open_sealed(sealed, 0, key, "a")

    def test_wrong_stream_name_rejected(self):
        sg = poly_domain_sharegen(make_and(), p=2)
        h, _ = handle()
        out = sg.invoke({0: 1, 1: 1}, h, Rng(7), 2)
        token = out[1].outgoing_tokens[0]
        with pytest.raises(ValueError):
            open_sealed(token, out[0].incoming_pads[0], out[0].mac_key, "b")

    def test_i_star_geometric(self):
        hits = 0
        trials = 800
        for k in range(trials):
            sg = poly_domain_sharegen(make_and(), p=2)
            h, _ = handle()
            sg.invoke({0: 1, 1: 1}, h, Rng(("g", k)), 2)
            if sg.i_star == 1:
                hits += 1
        # Pr[i* = 1] = alpha = 1/4.
        assert 0.18 <= hits / trials <= 0.32

    def test_refusal_aborts(self):
        sg = poly_domain_sharegen(make_and(), p=2)
        h, _ = handle(corrupted={0})
        out = sg.invoke({1: 1}, h, Rng(8), 2)
        assert out[1] is ABORT

    def test_poly_domain_requires_domains(self):
        with pytest.raises(ValueError):
            poly_domain_sharegen(make_swap(16), p=2)

    def test_poly_range_requires_range(self):
        with pytest.raises(ValueError):
            poly_range_sharegen(make_swap(16), p=2)


class TestObliviousTransfer:
    def test_transfer(self):
        ot = ObliviousTransfer(0, 1)
        h, _ = handle()
        out = ot.invoke(
            {0: OtSend(("m0", "m1")), 1: OtChoose(1)}, h, Rng(1), 2
        )
        assert out[1] == "m1"
        assert out[0] == "ot-done"

    def test_missing_input_aborts(self):
        ot = ObliviousTransfer(0, 1)
        h, _ = handle()
        out = ot.invoke({0: OtSend(("a", "b"))}, h, Rng(1), 2)
        assert out[0] is ABORT and out[1] is ABORT

    def test_bad_choice_aborts(self):
        ot = ObliviousTransfer(0, 1)
        h, _ = handle()
        out = ot.invoke({0: OtSend(("a", "b")), 1: OtChoose(5)}, h, Rng(1), 2)
        assert out[1] is ABORT

    def test_corrupted_abort(self):
        ot = ObliviousTransfer(0, 1)
        h, _ = handle(corrupted={0}, abort=True)
        out = ot.invoke({0: OtSend(("a", "b")), 1: OtChoose(0)}, h, Rng(1), 2)
        assert out[1] is ABORT

    def test_same_party_rejected(self):
        with pytest.raises(ValueError):
            ObliviousTransfer(1, 1)


class TestCoinToss:
    def test_same_bit_to_all(self):
        ct = CoinToss()
        h, _ = handle()
        out = ct.invoke({0: "go", 1: "go"}, h, Rng(1), 2)
        assert out[0] == out[1] and out[0] in (0, 1)

    def test_adversary_sees_then_aborts(self):
        ct = CoinToss()
        h, adv = handle(corrupted={0}, abort=True)
        out = ct.invoke({0: "go", 1: "go"}, h, Rng(1), 2)
        assert out[1] is ABORT
        assert adv.notifications[0][0] == "coin"


class TestSfeRandomAbort:
    def test_honest_delivery(self):
        f = SfeRandomAbort(make_and())
        h, _ = handle()
        out = f.invoke({0: 1, 1: 1}, h, Rng(1), 2)
        assert out == {0: 1, 1: 1}

    def test_abort_randomizes_honest_output(self):
        func = make_and()
        seen = set()
        for k in range(200):
            f = SfeRandomAbort(func)
            h, _ = handle(corrupted={0}, ask=True, abort=True)
            out = f.invoke({0: 1, 1: 1}, h, Rng(("ra", k)), 2)
            assert out[0] == 1  # corrupted keeps the true output
            seen.add(out[1])
        # Honest output was replaced by f(X̂, 1) = X̂ — both values occur.
        assert seen == {0, 1}

    def test_non_two_party_rejected(self):
        with pytest.raises(ValueError):
            SfeRandomAbort(make_concat(3, 4))
