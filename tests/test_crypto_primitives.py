"""MAC, commitment, signature, and OTP tests."""

import collections
import copy
import enum
import hashlib
import hmac
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    Rng,
    blind,
    blind_vector,
    commit,
    gen,
    gen_mac_key,
    gen_pad,
    open_commitment,
    sign,
    tag,
    unblind,
    ver,
    verify,
)
from repro.crypto.commitment import Opening
from repro.crypto.mac import KEY_LENGTH, MacKey, TAG_LENGTH, _encode
from repro.crypto.signature import (
    VER_MEMO_SIZE,
    Signature,
    VerificationKey,
    _check_preimages,
)

#: Every message shape the library MACs and signs, nested.
_messages = st.recursive(
    st.binary(max_size=40) | st.integers() | st.text(max_size=20)
    | st.none(),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner),
    max_leaves=8,
)


class _Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


#: The shapes above plus the ``int`` subclasses the encoder must not
#: mistake for plain ints.
_encoder_messages = st.recursive(
    st.binary(max_size=40) | st.integers() | st.text(max_size=20)
    | st.none() | st.booleans() | st.sampled_from(_Colour),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


def _reference_encode(message) -> bytes:
    """The recursive encoder ``mac._encode`` must stay byte-identical to."""
    if isinstance(message, bytes):
        return b"B" + message
    if isinstance(message, int):
        return b"I" + str(message).encode()
    if isinstance(message, str):
        return b"S" + message.encode()
    if isinstance(message, tuple):
        parts = [b"T"]
        for m in message:
            encoded = _reference_encode(m)
            parts.append(len(encoded).to_bytes(4, "big"))
            parts.append(encoded)
        return b"".join(parts)
    if message is None:
        return b"N"
    raise TypeError(f"cannot MAC message of type {type(message).__name__}")


class TestMac:
    def setup_method(self):
        self.rng = Rng(b"mac")
        self.key = gen_mac_key(self.rng)

    def test_tag_verifies(self):
        t = tag(12345, self.key)
        assert verify(12345, t, self.key)

    def test_wrong_message_fails(self):
        t = tag(12345, self.key)
        assert not verify(12346, t, self.key)

    def test_wrong_key_fails(self):
        t = tag("hello", self.key)
        other = gen_mac_key(self.rng)
        assert not verify("hello", t, other)

    def test_tag_length(self):
        assert len(tag(b"x", self.key)) == TAG_LENGTH

    def test_message_types(self):
        for message in (b"bytes", 7, "str", (1, "two", b"3"), None, ()):
            assert verify(message, tag(message, self.key), self.key)

    def test_tuple_encoding_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert tag(("ab", "c"), self.key) != tag(("a", "bc"), self.key)

    def test_type_distinction(self):
        # The int 1 and the string "1" must tag differently.
        assert tag(1, self.key) != tag("1", self.key)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            tag(3.14, self.key)
        with pytest.raises(TypeError):
            tag(("token", 3.14), self.key)

    @given(_encoder_messages)
    @settings(max_examples=300)
    def test_encode_matches_recursive_reference(self, message):
        assert _encode(message) == _reference_encode(message)

    def test_encode_pins(self):
        assert _encode(True) == b"ITrue"
        assert _encode((True, None)) == _reference_encode((True, None))
        pair = collections.namedtuple("pair", "a b")(_Colour.RED, b"x")
        assert _encode(pair) == _reference_encode(pair)
        assert _encode(("a", 3, -1)) == (
            b"T" + b"\0\0\0\x02Sa" + b"\0\0\0\x02I3" + b"\0\0\0\x03I-1"
        )

    @pytest.mark.parametrize(
        "candidate", [None, "x" * TAG_LENGTH, 7], ids=["none", "str", "int"]
    )
    def test_verify_rejects_non_bytes_tag(self, candidate):
        assert verify("m", candidate, self.key) is False

    def test_verify_rejects_unencodable_message(self):
        assert verify(("m", 3.14), tag(("m", 3), self.key), self.key) is False

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError):
            MacKey(b"short")

    def test_key_length(self):
        assert len(self.key.material) == KEY_LENGTH

    @given(st.integers(0, 2**64))
    @settings(max_examples=40)
    def test_roundtrip_property(self, message):
        assert verify(message, tag(message, self.key), self.key)

    @given(st.binary(min_size=KEY_LENGTH, max_size=KEY_LENGTH), _messages)
    @settings(max_examples=80)
    def test_tag_matches_stdlib_hmac(self, material, message):
        key = MacKey(material)
        expected = hmac.new(material, _encode(message), hashlib.sha256)
        assert tag(message, key) == expected.digest()[:TAG_LENGTH]

    def test_cached_pads_are_not_part_of_the_key(self):
        tag(1, self.key)  # caches the pad states on the key
        fresh = MacKey(self.key.material)
        assert self.key == fresh and hash(self.key) == hash(fresh)
        assert repr(self.key) == repr(fresh)
        for copied in (pickle.loads(pickle.dumps(self.key)),
                       copy.deepcopy(self.key)):
            assert copied == self.key
            assert tag(("x", 2), copied) == tag(("x", 2), self.key)


class TestCommitment:
    def setup_method(self):
        self.rng = Rng(b"com")

    def test_commit_open(self):
        com, opening = commit("contract", self.rng)
        assert open_commitment(com, opening)

    def test_binding_to_message(self):
        com, opening = commit(10, self.rng)
        forged = Opening(opening.nonce, 11)
        assert not open_commitment(com, forged)

    def test_binding_to_nonce(self):
        com, opening = commit(10, self.rng)
        forged = Opening(b"\x00" * len(opening.nonce), 10)
        assert not open_commitment(com, forged)

    def test_hiding_fresh_nonces(self):
        com1, _ = commit(10, self.rng)
        com2, _ = commit(10, self.rng)
        assert com1.digest != com2.digest

    def test_malformed_opening(self):
        com, _ = commit(10, self.rng)
        assert not open_commitment(com, "not-an-opening")
        assert not open_commitment("not-a-commitment", Opening(b"x" * 16, 10))

    def test_unencodable_message_in_opening(self):
        com, _ = commit(10, self.rng)
        assert not open_commitment(com, Opening(b"x" * 16, 3.14))

    @given(st.binary(max_size=64))
    @settings(max_examples=40)
    def test_roundtrip_property(self, message):
        rng = Rng(b"prop")
        com, opening = commit(message, rng)
        assert open_commitment(com, opening)


class TestLamportSignatures:
    def setup_method(self):
        self.rng = Rng(b"sig")
        self.sk, self.vk = gen(self.rng)

    def test_sign_verify(self):
        assert ver("message", sign("message", self.sk), self.vk)

    def test_wrong_message_fails(self):
        assert not ver("other", sign("message", self.sk), self.vk)

    def test_wrong_key_fails(self):
        _, vk2 = gen(self.rng)
        assert not ver("message", sign("message", self.sk), vk2)

    def test_non_signature_rejected(self):
        assert not ver("m", "garbage", self.vk)
        assert not ver("m", None, self.vk)

    def test_truncated_signature_rejected(self):
        sig = sign("m", self.sk)
        assert not ver("m", Signature(sig.preimages[:100]), self.vk)

    def test_tampered_preimage_rejected(self):
        sig = sign("m", self.sk)
        tampered = (b"\x00" * 32,) + sig.preimages[1:]
        assert not ver("m", Signature(tampered), self.vk)

    @pytest.mark.parametrize("position", [0, 127, 255])
    def test_one_flipped_preimage_rejected(self, position):
        preimages = list(sign("m", self.sk).preimages)
        preimages[position] = bytes([preimages[position][0] ^ 1]) + (
            preimages[position][1:]
        )
        assert not ver("m", Signature(tuple(preimages)), self.vk)

    @pytest.mark.parametrize("seed", [0, 1, b"sig", "lamport"])
    def test_gen_matches_per_preimage_reference(self, seed):
        # Reference construction: x0 then x1 drawn one preimage at a time,
        # each public value the SHA-256 of its preimage.
        rng = Rng(seed)
        sk_pairs, vk_pairs = [], []
        for _ in range(256):
            x0, x1 = rng.randbytes(32), rng.randbytes(32)
            sk_pairs.append((x0, x1))
            vk_pairs.append(
                (hashlib.sha256(x0).digest(), hashlib.sha256(x1).digest())
            )
        drawn = Rng(seed)
        sk, vk = gen(drawn)
        assert sk.pairs == tuple(sk_pairs)
        assert vk.pairs == tuple(vk_pairs)
        # Both consumed the same stream prefix.
        assert drawn.randbytes(16) == rng.randbytes(16)

    def test_signs_tuples(self):
        y = (1, 2, 3)
        assert ver(y, sign(y, self.sk), self.vk)

    def test_unencodable_message(self):
        sig = sign("m", self.sk)
        assert not ver(3.14, sig, self.vk)

    def test_memo_never_accepts_a_near_miss(self):
        y = ("output", 1, b"y")
        sigma = sign(y, self.sk)
        assert ver(y, sigma, self.vk)  # now memoised
        flipped = list(sigma.preimages)
        flipped[17] = bytes([flipped[17][0] ^ 1]) + flipped[17][1:]
        assert not ver(y, Signature(tuple(flipped)), self.vk)
        assert not ver(y, sign(("output", 2, b"y"), self.sk), self.vk)
        _, other_vk = gen(self.rng)
        assert not ver(y, sigma, other_vk)
        assert ver(y, sigma, self.vk)

    def test_memo_keys_on_values_not_objects(self):
        y = "message"
        sigma = sign(y, self.sk)
        assert ver(y, sigma, self.vk)
        copies = pickle.loads(pickle.dumps((y, sigma, self.vk)))
        assert copies[1] is not sigma
        hits = _check_preimages.cache_info().hits
        assert ver(*copies)
        assert _check_preimages.cache_info().hits == hits + 1

    def test_unhashable_key_is_checked_directly(self):
        sigma = sign("m", self.sk)
        listed = VerificationKey(tuple(list(pair) for pair in self.vk.pairs))
        assert ver("m", sigma, listed)
        assert not ver("other", sigma, listed)

    def test_lying_preimages_are_never_looked_up(self):
        # A bytes subclass claiming equality with everything must not hit
        # the memo entry of the genuine signature it imitates.
        class Liar(bytes):
            def __eq__(self, other):
                return True

            def __hash__(self):
                return hash(self.imitates)

        sigma = sign("m", self.sk)
        assert ver("m", sigma, self.vk)
        liars = []
        for genuine in sigma.preimages:
            liar = Liar(b"\0" * 32)
            liar.imitates = genuine
            liars.append(liar)
        assert not ver("m", Signature(tuple(liars)), self.vk)

    def test_memo_bound_is_tiny(self):
        assert VER_MEMO_SIZE <= 8
        assert _check_preimages.cache_info().maxsize == VER_MEMO_SIZE

    def test_deepcopy_is_identity(self):
        # Immutable mixin: clones share the key objects.
        assert copy.deepcopy(self.vk) is self.vk
        assert copy.deepcopy(self.sk) is self.sk


class TestOtp:
    def test_blind_unblind(self):
        rng = Rng(b"otp")
        pad = gen_pad(16, rng)
        assert unblind(blind(1234, pad, 16), pad, 16) == 1234

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            blind(1 << 16, 0, 16)

    def test_pad_width_positive(self):
        with pytest.raises(ValueError):
            gen_pad(0, Rng(1))

    def test_blind_vector(self):
        rng = Rng(b"otp2")
        values = [1, 2, 3]
        pads = [gen_pad(8, rng) for _ in values]
        blinded = blind_vector(values, pads, 8)
        assert [unblind(c, k, 8) for c, k in zip(blinded, pads)] == values

    def test_blind_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            blind_vector([1, 2], [3], 8)

    def test_perfect_blinding(self):
        """Each ciphertext value is equally likely over a random pad."""
        from collections import Counter

        rng = Rng(b"otp3")
        counts = Counter(
            blind(5, gen_pad(3, rng), 3) for _ in range(4000)
        )
        assert set(counts) == set(range(8))
        assert all(350 <= c <= 650 for c in counts.values())
