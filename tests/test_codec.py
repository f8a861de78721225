"""Codebook construction, encoding, decoding, and Monte Carlo simulation."""

import hashlib
import json

import numpy as np
import pytest

from bcsl.codec_sim import (CodeConfig, batch_typical, build_codebook, encode,
                            message_size, simulate, typical, wilson_interval)
from bcsl.errors import (CapabilityError, ConfigError, EncodingError,
                         GenerationError, UsageError, ValidationError)
from bcsl.regions import AuxJoint

from conftest import (bsc, noiseless_identical_channel, product_channel,
                      uniform_binary_input_aux)


@pytest.fixture(scope="module")
def aux():
    return uniform_binary_input_aux()


@pytest.fixture(scope="module")
def bsc_third():
    m = bsc(1 / 3)
    return product_channel(m, m, m)


class TestCodeConfig:
    def test_message_size(self):
        assert message_size(4, 0.0) == 1
        assert message_size(4, 0.5) == 4
        assert message_size(10, 0.1) == 2

    def test_field_validation(self):
        with pytest.raises(ValidationError):
            CodeConfig(n=0)
        with pytest.raises(ValidationError):
            CodeConfig(n=4, eps=0.0)
        with pytest.raises(ValidationError):
            CodeConfig(n=4, r1e=-0.1)

    def test_pairing_condition_named(self, aux):
        cfg = CodeConfig(n=4, r1e=0.5, r1p=0.5, q2=0.5)
        with pytest.raises(ConfigError, match="r1e \\+ r1p \\+ r1dag"):
            cfg.validate_against(aux)

    def test_dict_roundtrip(self):
        cfg = CodeConfig(n=6, r1e=0.1, q2=0.2, eps=0.5, seed=3)
        assert CodeConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValidationError):
            CodeConfig.from_dict({"n": 4, "bogus": 1})


class TestTypicality:
    def test_exact_type_is_typical(self):
        pmf = np.array([0.5, 0.5])
        assert typical(np.array([2, 2]), 4, pmf, 0.1)

    def test_forbidden_symbol(self):
        pmf = np.array([1.0, 0.0])
        assert not typical(np.array([3, 1]), 4, pmf, 0.9)
        assert typical(np.array([4, 0]), 4, pmf, 0.1)

    def test_batch_matches_scalar(self, rng):
        pmf = np.array([0.3, 0.7])
        seqs = rng.integers(0, 2, size=(40, 8))
        got = batch_typical(seqs, 8, pmf, 0.4)
        for row, ok in zip(seqs, got):
            counts = np.bincount(row, minlength=2)
            assert ok == typical(counts, 8, pmf, 0.4)


class TestBuildCodebook:
    def test_trivial_all_zero_rates(self, aux):
        ch = noiseless_identical_channel(2)
        cfg = CodeConfig(n=2, eps=1.0)
        cb = build_codebook(cfg, aux, ch)
        assert cb.x.shape == (1, 1, 1, 1, 1, 1, 2)
        assert cb.pairing_failure_fraction == 0.0

    def test_codeword_cap(self, aux, bsc_third):
        cfg = CodeConfig(n=6, r1e=0.5, q2=0.5, eps=0.5)
        with pytest.raises(CapabilityError):
            build_codebook(cfg, aux, bsc_third, codeword_cap=1)

    def test_generation_cap(self, bsc_third):
        # X ~ (0.9, 0.1) at n=3 admits no strongly typical sequence at
        # eps = 0.01, so rejection sampling must give up with a clear error
        p = np.zeros((1, 2, 1, 2))
        p[0, 0, 0, 0] = 0.9
        p[0, 1, 0, 1] = 0.1
        skewed = AuxJoint(1, 2, 1, 2, p)
        cfg = CodeConfig(n=3, eps=0.01)
        with pytest.raises(GenerationError):
            build_codebook(cfg, skewed, bsc_third, retry_cap=50)

    def test_deterministic_in_seed(self, aux, bsc_third):
        cfg = CodeConfig(n=6, r1e=0.1, q2=0.2, eps=0.5, seed=7)
        a = build_codebook(cfg, aux, bsc_third)
        b = build_codebook(cfg, aux, bsc_third)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u2, b.u2)


def layered_aux() -> AuxJoint:
    """U1 uniform binary; U2 and U3 each carry U1 plus one fresh uniform bit
    (symbol j belongs to U1 = j mod 2), and X = b2 xor b3 flipped with
    probability 0.1."""
    p = np.zeros((2, 4, 4, 2))
    for u1, b2, b3, x in np.ndindex(2, 2, 2, 2):
        p[u1, u1 + 2 * b2, u1 + 2 * b3, x] = (0.9 if x == b2 ^ b3 else 0.1) / 8
    return AuxJoint(2, 4, 4, 2, p)


class TestProductBinOrder:
    """The vectorized walks against plain loops over the product bins."""

    @pytest.fixture(scope="class")
    def layered(self):
        m = np.array([[0.9, 0.0, 0.1], [0.0, 0.9, 0.1]])
        cfg = CodeConfig(n=8, r0=0.1, r1e=0.1, r1p=0.1, r1dag=0.1, q2=0.4,
                         q3=0.3, p3=0.1, p3dag=0.1, p1e=0.1, p1p=0.1,
                         eps=1.5, seed=2)
        return build_codebook(cfg, layered_aux(), product_channel(m, m, m))

    def test_sizes_and_unpaired_bins(self, layered):
        cb = layered
        assert min(cb.x.shape[:-1]) == 2
        assert 0 < cb.pairing_failure_fraction < 1

    def test_pairing_takes_first_typical_candidate(self, layered):
        cb, s, n = layered, layered.sizes, layered.cfg.n
        aux = cb.aux
        pmf = aux.joint_pmf().marginal(["U1", "U2", "U3"]).probs.ravel()
        for w0, w1, w1p, p3 in np.ndindex(cb.pair.shape[:-1]):
            want = (-1, -1)
            for w1dag, p3dag in np.ndindex(s["r1dag"], s["p3dag"]):
                q2 = (w1 * s["r1p"] + w1p) * s["r1dag"] + w1dag
                q3 = p3 * s["p3dag"] + p3dag
                idx = ((cb.u1[w0] * aux.m2 + cb.u2[w0, q2]) * aux.m3
                       + cb.u3[w0, q3])
                if typical(np.bincount(idx, minlength=pmf.size), n, pmf,
                           cb.cfg.eps):
                    want = (w1dag, p3dag)
                    break
            assert tuple(cb.pair[w0, w1, w1p, p3]) == want
            assert (cb.x[w0, w1, w1p, p3] >= 0).all() == (want[0] >= 0)

    def test_rx1_table_matches_loop(self, layered):
        cb, s = layered, layered.sizes
        m2, m3, nx = cb.aux.m2, cb.aux.m3, cb.aux.nx
        rows, labels = [], []
        for w0, w1, w1p, p3, p1, p1p in np.ndindex(cb.x.shape[:-1]):
            w1dag, p3dag = cb.pair[w0, w1, w1p, p3]
            if w1dag < 0:
                continue
            q2 = (w1 * s["r1p"] + w1p) * s["r1dag"] + w1dag
            q3 = p3 * s["p3dag"] + p3dag
            base = (cb.u1[w0] * m2 + cb.u2[w0, q2]) * m3 + cb.u3[w0, q3]
            rows.append(base * nx + cb.x[w0, w1, w1p, p3, p1, p1p])
            labels.append((w0, w1, p1 * s["p3"] + p3))
        got_rows, got_labels = cb.rx1_table
        assert np.array_equal(got_rows, np.array(rows))
        assert np.array_equal(got_labels, np.array(labels))


@pytest.fixture(scope="module")
def cb(aux, bsc_third):
    cfg = CodeConfig(n=6, r1e=0.1, r1p=0.2, q2=0.4, eps=0.5, seed=1)
    return build_codebook(cfg, aux, bsc_third)


class TestEncode:

    def test_deterministic_per_nonce(self, cb):
        a = encode(cb, 0, 0, 0, nonce=5)
        b = encode(cb, 0, 0, 0, nonce=5)
        assert np.array_equal(a, b)

    def test_out_of_range(self, cb):
        with pytest.raises(UsageError):
            encode(cb, 9, 0, 0)

    def test_randomization_uniform(self, cb):
        # the randomization index w1' over fresh nonces must be uniform:
        # chi-square over 10^4 encodings at the 1% level
        from scipy.stats import chisquare
        s = cb.sizes
        assert s["r1p"] >= 2
        rng_draws = []
        for nonce in range(10_000):
            r = np.random.default_rng([cb.cfg.seed, 1, nonce])
            rng_draws.append(int(r.integers(0, s["r1p"])))
        counts = np.bincount(rng_draws, minlength=s["r1p"])
        assert chisquare(counts).pvalue > 0.01

    def test_unpaired_bin_raises(self, cb):
        pair = cb.pair.copy()
        cb.pair[...] = -1
        try:
            with pytest.raises(EncodingError):
                encode(cb, 0, 0, 0, nonce=0)
        finally:
            cb.pair[...] = pair


class TestSimulate:
    def test_noiseless_zero_error(self, aux):
        ch = noiseless_identical_channel(2)
        cfg = CodeConfig(n=2, eps=1.0)
        rep = simulate(cfg, aux, ch, trials=200, seed=0)
        assert rep.rate(1) == 0.0
        assert rep.rate(2) == 0.0
        assert rep.rate(3) == 0.0
        assert rep.encode_failures == 0

    def test_report_shape(self, aux, bsc_third):
        cfg = CodeConfig(n=6, r1e=0.1, q2=0.2, eps=0.5, seed=2)
        rep = simulate(cfg, aux, bsc_third, trials=50, seed=3)
        d = rep.to_dict()
        for key in ("pe_y1", "pe_y2", "pe_y3", "pe_y1_ci95", "trials",
                    "pairing_failure_fraction"):
            assert key in d
        lo, hi = d["pe_y1_ci95"]
        assert lo <= d["pe_y1"] <= hi


class TestWilson:
    def test_contains_point_estimate(self):
        for k, m in ((0, 10), (5, 10), (10, 10), (3, 7)):
            lo, hi = wilson_interval(k, m)
            assert lo <= k / m <= hi
            assert 0.0 <= lo and hi <= 1.0

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


# --------------------------------------------------------------------------
# golden codebooks and Monte Carlo report: these digests were computed at
# the commit before inverse-CDF sampling replaced per-symbol
# `Generator.choice` calls, so they pin the generation and trial RNG
# streams


def _bec(a: float) -> np.ndarray:
    return np.array([[1 - a, 0.0, a], [0.0, 1 - a, a]])


def _golden_case(name: str, seed: int):
    """(config, aux, channel) of the codec benchmark's three inputs."""
    if name == "layered":
        return (CodeConfig(n=12, r0=0.1, r1e=0.1, r1p=0.1, r1dag=0.1,
                           q2=0.4, q3=0.3, p3=0.1, p3dag=0.1, p1e=0.1,
                           p1p=0.1, eps=3.0, seed=seed),
                layered_aux(),
                product_channel(_bec(0.1), _bec(0.2), _bec(0.4)))
    aux = uniform_binary_input_aux()
    if name == "bsc":
        m = bsc(1 / 3)
        return (CodeConfig(n=18, r1e=0.2, r1p=0.3, q2=0.6, eps=0.5,
                           seed=seed),
                aux, product_channel(m, m, m))
    return (CodeConfig(n=10, r1e=0.15, q2=0.3, eps=0.5, seed=seed), aux,
            product_channel(_bec(1 / 3), _bec(1 / 2), _bec(2 / 3)))


def _codebook_digest(cb) -> str:
    h = hashlib.sha256()
    for a in (cb.u1, cb.u2, cb.u3, cb.pair, cb.x):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


_CODEBOOK_GOLDEN = {
    ("layered", 0):
        "f8b964640bf986c9efea56e10f61ff539fc768fa5a7c57ed0f2ddd34ef4823e2",
    ("layered", 5):
        "e2386ce14fc4c881aeeadcd3c03f68f25f2b97ed6f4e66a1b1d9d7e1e173f07f",
    ("bsc", 2):
        "31f37d64dfa2d2f30d730aafd63b7ef910e17023b25681cabda45c9c87fd891d",
    ("mc", 3):
        "13cead6c359383c9214855f5ede5fb9d725d4eab4eba1d7a088eec3a5f478e95",
}
# the report of 300 trials on ("mc", 3) with trial seed 3, wall time removed
_SIM_GOLDEN = \
    "e1546ae45897260d7073cd1c40e3d3e323f26d2628263511ccc4b4701dd0db51"


@pytest.mark.parametrize("name,seed", sorted(_CODEBOOK_GOLDEN))
def test_codebook_golden(name, seed):
    cb = build_codebook(*_golden_case(name, seed))
    assert _codebook_digest(cb) == _CODEBOOK_GOLDEN[name, seed]


def test_simulate_golden():
    rep = simulate(*_golden_case("mc", 3), 300, 3).to_dict()
    del rep["wall_seconds"]
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _SIM_GOLDEN
