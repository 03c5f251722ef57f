"""Tests for the crypto backend seam and the RLC batch kernels.

Two layers, each with its own contract:

* :mod:`repro.crypto.backend` — backend resolution (run context /
  explicit / auto) and the bit-identical equivalence of every backend on
  adversarial inputs (hypothesis-driven; the gmpy2 leg auto-skips when
  the accelerator is not installed);
* :mod:`repro.fastpath.batch` — combiner determinism and the soundness
  property the batch verifiers rest on: a single corrupted item in a
  batch of m is rejected, and the public ``verify_batch`` /
  ``verify_shares`` wrappers return exactly the per-item verdict lists.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.context import ENV_BACKEND, RunContext, use
from repro.crypto import backend
from repro.crypto.commitment import PedersenCommitment, PedersenParameters
from repro.crypto.group import SchnorrGroup
from repro.crypto.vss import FeldmanVSS, PedersenVSS
from repro.errors import InvalidParameterError
from repro.fastpath import (
    COMBINER_BITS,
    combiner_coefficients,
    feldman_batch_verify,
    pedersen_batch_verify,
    pedersen_vss_batch_verify,
)

needs_gmpy2 = pytest.mark.skipif(
    not backend.gmpy2_available(), reason="gmpy2 not installed"
)

odd_moduli = st.integers(min_value=3, max_value=1 << 80).map(lambda n: n | 1)
any_ints = st.integers(min_value=-(1 << 80), max_value=1 << 80)
exponents = st.integers(min_value=0, max_value=1 << 80)


# -- resolution ----------------------------------------------------------------------


class TestResolution:
    def test_python_always_available(self):
        assert "python" in backend.available_backends()
        assert backend.resolve_backend("python").name == "python"

    def test_auto_prefers_gmpy2_when_importable(self):
        expected = "gmpy2" if backend.gmpy2_available() else "python"
        assert backend.resolve_backend("auto").name == expected

    def test_none_consults_the_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "python")
        with use(RunContext.from_env()):
            assert backend.resolve_backend(None).name == "python"
            assert backend.active().name == "python"
        monkeypatch.delenv(ENV_BACKEND)
        with use(RunContext.from_env()):
            assert backend.resolve_backend(None).name in backend.available_backends()

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError):
            backend.resolve_backend("numba")

    def test_gmpy2_without_gmpy2_raises(self):
        if backend.gmpy2_available():
            pytest.skip("gmpy2 installed; the failure leg is unreachable")
        with pytest.raises(InvalidParameterError):
            backend.resolve_backend("gmpy2")

    def test_using_scopes_and_restores(self):
        before = backend.active().name
        with backend.using("python") as active:
            assert active.name == "python"
            assert backend.active() is active
        assert backend.active().name == before


# -- cross-backend equivalence -------------------------------------------------------


class TestPythonBackendEquivalence:
    @given(base=any_ints, exponent=exponents, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_powmod_matches_builtin(self, base, exponent, modulus):
        ours = backend.resolve_backend("python").powmod(base, exponent, modulus)
        assert int(ours) == pow(base, exponent, modulus)

    @given(value=any_ints, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_invert_matches_builtin(self, value, modulus):
        ref = backend.resolve_backend("python")
        try:
            expected = pow(value, -1, modulus)
        except ValueError:
            with pytest.raises(ValueError):
                ref.invert(value, modulus)
            return
        assert int(ref.invert(value, modulus)) == expected

    @given(value=any_ints)
    @settings(max_examples=60, deadline=None)
    def test_wrap_unwrap_round_trip(self, value):
        ref = backend.resolve_backend("python")
        assert ref.unwrap(ref.wrap(value)) == value


@needs_gmpy2
class TestGmpy2BackendEquivalence:
    @given(base=any_ints, exponent=exponents, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_powmod_bit_identical(self, base, exponent, modulus):
        fast = backend.resolve_backend("gmpy2")
        assert int(fast.powmod(base, exponent, modulus)) == pow(
            base, exponent, modulus
        )

    @given(value=any_ints, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_invert_bit_identical(self, value, modulus):
        fast = backend.resolve_backend("gmpy2")
        try:
            expected = pow(value, -1, modulus)
        except ValueError:
            with pytest.raises(ValueError):
                fast.invert(value, modulus)
            return
        assert int(fast.invert(value, modulus)) == expected

    @given(value=any_ints)
    @settings(max_examples=60, deadline=None)
    def test_wrap_unwrap_round_trip(self, value):
        fast = backend.resolve_backend("gmpy2")
        assert fast.unwrap(fast.wrap(value)) == value

    def test_mixed_arithmetic_is_exact(self):
        # The property that makes a mid-run backend switch safe: cached
        # mpz table rows compose with plain ints without value drift.
        fast = backend.resolve_backend("gmpy2")
        p = (1 << 61) - 1
        wrapped = fast.wrap(123456789)
        assert int(wrapped * 987654321 % p) == 123456789 * 987654321 % p

    def test_group_operations_identical_across_backends(self):
        group = SchnorrGroup.for_security(48)
        rng = random.Random(11)
        exps = [group.random_exponent(rng) for _ in range(8)]
        with backend.using("python"):
            want = [(group.power(e)).value for e in exps]
        with backend.using("gmpy2"):
            got = [(group.power(e)).value for e in exps]
        assert got == want


class TestMultiPowStrategies:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_product(self, data):
        # Covers both code paths: <= 4 bases (subset ladder) and > 4
        # bases (bucket method), on every available backend.
        modulus = data.draw(odd_moduli)
        count = data.draw(st.integers(min_value=0, max_value=12))
        bases = data.draw(
            st.lists(any_ints, min_size=count, max_size=count)
        )
        exps = data.draw(
            st.lists(exponents, min_size=count, max_size=count)
        )
        want = 1 % modulus
        for b, e in zip(bases, exps, strict=True):
            want = want * pow(b, e, modulus) % modulus
        for name in backend.available_backends():
            with backend.using(name):
                assert fastpath.multi_pow(modulus, bases, exps) == want

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            fastpath.multi_pow(101, [2, 3], [4])


# -- combiner + batch soundness ------------------------------------------------------


class TestCombiner:
    def test_deterministic_and_in_range(self):
        payload = [17, 23, 99, 2**64 + 5]
        first = combiner_coefficients(b"test", payload, 40)
        second = combiner_coefficients(b"test", payload, 40)
        assert first == second
        assert all(1 <= g <= 2**COMBINER_BITS for g in first)

    def test_binds_payload_and_domain(self):
        payload = [17, 23, 99]
        base = combiner_coefficients(b"test", payload, 8)
        assert combiner_coefficients(b"test", [17, 23, 100], 8) != base
        assert combiner_coefficients(b"other", payload, 8) != base

    def test_rng_override(self):
        reference = random.Random(7)
        want = [1 + reference.getrandbits(COMBINER_BITS) for _ in range(5)]
        assert combiner_coefficients(b"test", [1], 5, rng=random.Random(7)) == want


@pytest.fixture(scope="module")
def batch_setup():
    group = SchnorrGroup.for_security(48)
    params = PedersenParameters.generate(group)
    return group, params


class TestBatchSoundness:
    M = 16

    def test_pedersen_single_corruption_rejected(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(3)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(self.M)]
        commitments = [c.value for c, _ in pairs]
        values = [o.value % group.q for _, o in pairs]
        randomness = [o.randomness % group.q for _, o in pairs]
        assert pedersen_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, values, randomness,
        )
        for bad_index in range(self.M):
            corrupted = list(values)
            corrupted[bad_index] = (corrupted[bad_index] + 1) % group.q
            assert not pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value,
                commitments, corrupted, randomness,
            ), f"corruption at index {bad_index} slipped through"

    def test_feldman_single_corruption_rejected(self, batch_setup):
        group, _ = batch_setup
        rng = random.Random(5)
        vss = FeldmanVSS(group, threshold=3, parties=self.M)
        dealing = vss.deal(rng.randrange(group.q), rng)
        xs = list(range(1, self.M + 1))
        values = [
            group.normalize_exponent(dealing.shares[x].value.value) for x in xs
        ]
        commitments = [c.value for c in dealing.commitments]
        assert feldman_batch_verify(
            group.p, group.q, group.generator.value, commitments, xs, values
        )
        corrupted = list(values)
        corrupted[7] = (corrupted[7] + 1) % group.q
        assert not feldman_batch_verify(
            group.p, group.q, group.generator.value, commitments, xs, corrupted
        )

    def test_pedersen_vss_single_corruption_rejected(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(9)
        vss = PedersenVSS(params, threshold=3, parties=self.M)
        dealing = vss.deal(rng.randrange(group.q), rng)
        xs = list(range(1, self.M + 1))
        values = [
            group.normalize_exponent(dealing.shares[x].value.value) for x in xs
        ]
        blinds = [
            group.normalize_exponent(dealing.shares[x].blinding.value) for x in xs
        ]
        commitments = [c.value for c in dealing.commitments]
        assert pedersen_vss_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, xs, values, blinds,
        )
        corrupted = list(blinds)
        corrupted[0] = (corrupted[0] + 1) % group.q
        assert not pedersen_vss_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, xs, values, corrupted,
        )

    def test_soundness_over_random_combiners(self, batch_setup):
        # The RLC argument itself: for a fixed corrupted batch, a random
        # combiner accepts with probability ~2**-COMBINER_BITS — 200
        # independent draws must all reject.
        group, params = batch_setup
        rng = random.Random(13)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(8)]
        commitments = [c.value for c, _ in pairs]
        values = [o.value % group.q for _, o in pairs]
        randomness = [o.randomness % group.q for _, o in pairs]
        values[3] = (values[3] + 1) % group.q
        for trial in range(200):
            assert not pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value,
                commitments, values, randomness,
                rng=random.Random(trial),
            )

    def test_empty_batches_accept(self, batch_setup):
        group, params = batch_setup
        assert pedersen_batch_verify(
            group.p, group.q, params.g.value, params.h.value, [], [], []
        )
        assert feldman_batch_verify(
            group.p, group.q, group.generator.value, [], [], []
        )

    def test_length_mismatch_raises(self, batch_setup):
        group, params = batch_setup
        with pytest.raises(ValueError):
            pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value, [1], [1], []
            )


class TestBatchedVerdictEquivalence:
    """The public wrappers must agree with per-item loops, verdict by verdict."""

    def test_pedersen_verify_batch(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(21)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(12)]
        # Corrupt two openings and break a third with a non-integer value.
        pairs[2] = (pairs[2][0], type(pairs[2][1])(pairs[2][1].value + 1,
                                                  pairs[2][1].randomness))
        pairs[5] = (pairs[5][0], type(pairs[5][1])(pairs[5][1].value,
                                                   pairs[5][1].randomness + 3))
        pairs[9] = (pairs[9][0], type(pairs[9][1])("junk", pairs[9][1].randomness))
        want = [scheme.verify(c, o) for c, o in pairs]
        assert scheme.verify_batch(pairs) == want
        assert want.count(False) == 3

    def test_feldman_verify_shares(self, batch_setup):
        group, _ = batch_setup
        rng = random.Random(23)
        vss = FeldmanVSS(group, threshold=2, parties=10)
        dealing = vss.deal(rng.randrange(group.q), rng)
        shares = [dealing.shares[x] for x in range(1, 11)]
        bad = shares[4]
        shares[4] = type(bad)(x=bad.x, value=bad.value + bad.value.field.one())
        want = [vss.verify_share(dealing.commitments, s) for s in shares]
        assert vss.verify_shares(dealing.commitments, shares) == want
        assert want.count(False) == 1

    def test_pedersen_vss_verify_shares(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(27)
        vss = PedersenVSS(params, threshold=2, parties=10)
        dealing = vss.deal(rng.randrange(group.q), rng)
        shares = [dealing.shares[x] for x in range(1, 11)]
        bad = shares[7]
        shares[7] = type(bad)(
            x=bad.x, value=bad.value, blinding=bad.blinding + bad.blinding.field.one()
        )
        want = [vss.verify_share(dealing.commitments, s) for s in shares]
        assert vss.verify_shares(dealing.commitments, shares) == want
        assert want.count(False) == 1

    def test_disabled_fastpath_falls_back_to_per_item(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(29)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(6)]
        with fastpath.disabled():
            assert scheme.verify_batch(pairs) == [True] * 6
