"""The key search against its plain reference, and the seeded keys it
must keep giving.

``_miller_rabin`` rejects a round early when its base fails the strong
test mod ``g = gcd(n, P)``, the product of ``n``'s distinct prime
factors in (199, 2**14].  That must leave every verdict and every
``rng`` draw as the plain loop below has them, so that no seeded key
moves.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa


def reference_miller_rabin(n, rounds, rng):
    """The plain loop: one full-width ``pow`` a round."""
    if n < 2:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def agree(n, rounds, seed):
    """Whether the search and the reference give one verdict and leave
    the rng in one state."""
    ours, theirs = random.Random(seed), random.Random(seed)
    verdict = rsa._miller_rabin(n, rounds, ours)
    expected = reference_miller_rabin(n, rounds, theirs)
    return verdict == expected and ours.getstate() == theirs.getstate()


#: The e2e harness's identities: seed 20120118 + AS number, 1024 bits.
E2E_KEY_SEED = 20120118
E2E_ASNS = (1, 64512, 64513)

MEDIUM_PRIMES = rsa._medium_primes()

#: Strong pseudoprimes: 2047 to base 2; 3215031751 = 151 * 751 * 28351
#: to bases 2, 3, 5 and 7, with one factor in range, and a quarter of
#: all bases lie for it.
STRONG_PSEUDOPRIMES = (2047, 3215031751)

#: A Carmichael number, 331 * 991 * 164011: two factors in range and one
#: above, so ``g`` is composite and not ``n``.  About 28 % of bases pass
#: the strong test mod ``n``, and most of those fail it mod ``g`` under
#: ``g``'s own ``d`` and ``r``.
CARMICHAEL_TWO_IN_RANGE = 53799052231

medium_primes = st.sampled_from(MEDIUM_PRIMES)
candidates = st.one_of(
    medium_primes,
    st.tuples(medium_primes, medium_primes).map(math.prod),
    medium_primes.map(lambda p: p * p),
    st.tuples(medium_primes, st.integers(1 << 64, 1 << 512)).map(
        lambda pair: pair[0] * (pair[1] | 1)),
    st.sampled_from(STRONG_PSEUDOPRIMES + (CARMICHAEL_TWO_IN_RANGE,)),
)


class TestAgainstTheReference:
    def test_the_cases_have_the_divisor_they_claim(self):
        def g(n):
            return math.gcd(n, rsa._MEDIUM_PRODUCT)

        assert g(MEDIUM_PRIMES[0]) == MEDIUM_PRIMES[0]
        assert g(2047) == 1
        assert g(3215031751) == 751
        assert g(CARMICHAEL_TWO_IN_RANGE) == 331 * 991
        assert MEDIUM_PRIMES[0] == 211 and MEDIUM_PRIMES[-1] == 16381
        assert rsa._MEDIUM_PRODUCT == math.prod(MEDIUM_PRIMES)

    @given(n=candidates, rounds=st.integers(1, 40),
           seed=st.integers(0, 2**64))
    @example(n=211 * 211, rounds=40, seed=0)
    @example(n=211 * 16381, rounds=40, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_same_draws(self, n, rounds, seed):
        assert agree(n, rounds, seed)

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES
                             + (CARMICHAEL_TWO_IN_RANGE,))
    def test_liars_take_the_same_rounds(self, n):
        # A base that passes mod n passes mod every divisor: rejecting
        # on a pass, or testing mod g with g's own d and r, cuts such a
        # round short.  These seeds draw such bases for every n here.
        assert all(agree(n, 40, seed) for seed in range(64))

    def test_every_candidate_of_the_e2e_key_search(self, monkeypatch):
        search, strong_round = rsa._miller_rabin, rsa._strong_round
        seen = []
        full_width = []

        def checked(n, rounds, rng):
            theirs = random.Random()
            theirs.setstate(rng.getstate())
            expected = reference_miller_rabin(n, rounds, theirs)
            verdict = search(n, rounds, rng)
            seen.append((n, verdict))
            assert verdict == expected
            assert rng.getstate() == theirs.getstate()
            return verdict

        def counted(a, d, r, m):
            if m.bit_length() == 512:
                full_width.append(m)
            return strong_round(a, d, r, m)

        monkeypatch.setattr(rsa, "_miller_rabin", checked)
        monkeypatch.setattr(rsa, "_strong_round", counted)
        monkeypatch.setattr(rsa, "_seeded_cache", {})
        for asn in E2E_ASNS:
            rsa.generate_keypair(bits=1024, seed=E2E_KEY_SEED + asn)
        # 256 candidates, six of them primes; 114 composites have a
        # divisor in range, and 110 of those reject on it.  The plain
        # loop pays 490 full-width pows, of which the primes' 240 are
        # the floor.
        assert len(seen) == 256
        assert sum(verdict for _, verdict in seen) == 6
        assert sum(math.gcd(n, rsa._MEDIUM_PRODUCT) != 1
                   for n, _ in seen) == 114
        assert len(full_width) == 490 - 110


class TestTrialDivision:
    def test_up_to_199_the_answer_is_the_table(self):
        for n in range(-3, 200):
            assert rsa.is_probable_prime(n, random.Random(0)) == (
                n in rsa._SMALL_PRIMES)

    @given(n=st.integers(200, 1 << 80), seed=st.integers(0, 2**32))
    def test_a_small_factor_rejects_without_a_draw(self, n, seed):
        rng = random.Random(seed)
        state = rng.getstate()
        if any(n % p == 0 for p in rsa._SMALL_PRIMES):
            assert not rsa.is_probable_prime(n, rng)
            assert rng.getstate() == state


#: ``PublicKey.fingerprint()`` of each seeded key, as the plain search
#: gave it: the e2e identities, and a few of the 512-bit deployment
#: keys (SPIDeR: 4242 + AS, NetReview: 24242 + AS).
PINNED_FINGERPRINTS = {
    (1024, E2E_KEY_SEED + 1): "95b79221f2c9850a008b76759c8fd59518442688",
    (1024, E2E_KEY_SEED + 64512):
        "fb6d36505b9d74d7f2b68dc7fa6dd1e27f7198b0",
    (1024, E2E_KEY_SEED + 64513):
        "749ede45dcae75d10d49bce1643faebe18f853f7",
    (512, 4242 + 1): "9b91c449642b307047d337c396f0ec964f57a2f7",
    (512, 4242 + 2): "e4bc09b924e0ab559a4e0c74458e38d712903ee7",
    (512, 4242 + 5): "909323805a0dce9d1836426519c369b298714617",
    (512, 4242 + 7): "067fbac4b2e771f71bdfd98e6bc954fa0749081a",
    (512, 24242 + 1): "86acd73eb9f99f794ded37b0efc033003629eb94",
    (512, 24242 + 5): "2f9a71cce7bad09b84cde01d428d82b90f970011",
}


@pytest.mark.parametrize("bits,seed", sorted(PINNED_FINGERPRINTS))
def test_seeded_key_fingerprint_is_pinned(bits, seed, monkeypatch):
    # An empty memo, so the search itself runs.
    monkeypatch.setattr(rsa, "_seeded_cache", {})
    key = rsa.generate_keypair(bits=bits, seed=seed)
    assert key.public_key.fingerprint().hex() == \
        PINNED_FINGERPRINTS[(bits, seed)]
