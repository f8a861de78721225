"""Codebook construction, encoding, decoding, and Monte Carlo simulation."""

import collections
import hashlib
import itertools
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bcsl import channel_core, codec_sim
from bcsl.channel_core import conditional_mi
from bcsl.codec_sim import (_STREAM_ENC, CodeConfig, Codebook,
                            batch_typical, build_codebook, decode_all, encode,
                            message_size, simulate, typical, wilson_interval)
from bcsl.errors import (CapabilityError, ConfigError, GenerationError,
                         UsageError, ValidationError)
from bcsl.fme import Ineq, is_constant_symbol, load_fixture
from bcsl.fme.derivations import _raw_system
from bcsl.regions import AuxJoint
from bcsl.streams import stream_draws

from conftest import (bsc, check_benchmark_key, noiseless_identical_channel,
                      perfbench_workloads, product_channel,
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

    @pytest.mark.parametrize("value", [-0.1, float("nan")])
    @pytest.mark.parametrize("name", ["r0", "r1e", "r1p", "r1dag", "q2", "q3",
                                      "p3", "p3dag", "p1e", "p1p"])
    def test_every_rate_field_validated(self, name, value):
        with pytest.raises(ValidationError, match=f"rate {name} "):
            CodeConfig(n=4, **{name: value})

    @pytest.mark.parametrize("name", ["n", "seed", "eps", "r0", "r1e", "r1p",
                                      "r1dag", "q2", "q3", "p3", "p3dag",
                                      "p1e", "p1p"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_numbers(self, name, value):
        # JSON's true and false load as Python bools, which are ints
        with pytest.raises(ValidationError):
            CodeConfig.from_dict({"n": 4, name: value})

    def test_pairing_condition_named(self, aux):
        cfg = CodeConfig(n=4, r1e=0.5, r1p=0.5, q2=0.5)
        with pytest.raises(ConfigError, match="pair_u2_capacity"):
            cfg.validate_against(aux)

    def test_dict_roundtrip(self):
        cfg = CodeConfig(n=6, r1e=0.1, q2=0.2, eps=0.5, seed=3)
        assert CodeConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValidationError):
            CodeConfig.from_dict({"n": 4, "bogus": 1})


def _paired_aux() -> AuxJoint:
    """U1 constant, X = U2 and U3 a noisy copy of U2, so that the pairing
    penalty I(U2;U3|U1) is positive and not dyadic."""
    p = np.zeros((1, 2, 2, 2))
    p[0, 0, :, 0] = (0.4, 0.1)
    p[0, 1, :, 1] = (0.15, 0.35)
    return AuxJoint(1, 2, 2, 2, p)


def _pairing_boundary(aux: AuxJoint) -> CodeConfig:
    """A config on which every pair_ row of the bin-pairing fixture holds
    with equality, up to rounding."""
    j = conditional_mi(aux.joint_pmf(), ["U2"], ["U3"], ["U1"])
    return CodeConfig(n=4, r1e=0.1, r1p=0.2, r1dag=j / 2, p3dag=j - j / 2,
                      p3=0.15, q2=0.3 + j / 2, q3=0.15 + (j - j / 2))


class TestBinPairing:
    """`validate_against` checks the rows of inner_bin_pairing.txt, the
    fixture the Theorem 1 derivation projects."""

    _STEP = 1e-6

    def test_rate_fields_are_the_raw_system_rates(self):
        rates = [s for s in _raw_system("inner").symbols()
                 if not is_constant_symbol(s)]
        assert sorted(codec_sim._RATE_FIELDS) == sorted(
            s.lower() for s in rates)

    def test_boundary_passes(self):
        aux = _paired_aux()
        _pairing_boundary(aux).validate_against(aux)

    @pytest.mark.parametrize("tag, field, sign", [
        ("pair_u2_capacity", "r1dag", 1), ("pair_u3_capacity", "p3dag", 1),
        ("pair_search_depth", "r1dag", -1)])
    def test_row_broken_alone_is_named(self, tag, field, sign):
        aux = _paired_aux()
        cfg = _pairing_boundary(aux)
        cfg = replace(cfg, **{field: getattr(cfg, field) + sign * self._STEP})
        with pytest.raises(ConfigError) as e:
            cfg.validate_against(aux)
        assert re.findall(r"pair_\w+", str(e.value)) == [tag]

    def test_product_row_is_named_with_the_rows_it_sums(self):
        # pair_product is the sum of the other three pair_ rows, so no
        # config breaks it alone; the error names every row broken
        rows = {r.tag: r for r in load_fixture("inner_bin_pairing.txt").rows}
        total = collections.Counter()
        for tag in ("pair_u2_capacity", "pair_u3_capacity",
                    "pair_search_depth"):
            total.update(dict(rows[tag].coeffs))
        assert Ineq.make(total, 0, "").coeffs == rows["pair_product"].coeffs
        aux = _paired_aux()
        cfg = _pairing_boundary(aux)
        cfg = replace(cfg, r1e=cfg.r1e + self._STEP)
        with pytest.raises(ConfigError) as e:
            cfg.validate_against(aux)
        assert re.findall(r"pair_\w+", str(e.value)) == [
            "pair_u2_capacity", "pair_product"]


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
    """The codec benchmark's layered auxiliary: U1 uniform binary; U2 and U3
    each carry U1 plus one fresh uniform bit, and X = b2 xor b3 flipped
    with probability 0.1."""
    return AuxJoint.from_dict(perfbench_workloads().layered_aux(0.1))


@pytest.fixture(scope="module")
def layered():
    """A codebook of every layer, some of whose product bins are unpaired."""
    m = np.array([[0.9, 0.0, 0.1], [0.0, 0.9, 0.1]])
    cfg = CodeConfig(n=8, r0=0.1, r1e=0.1, r1p=0.1, r1dag=0.1, q2=0.4,
                     q3=0.3, p3=0.1, p3dag=0.1, p1e=0.1, p1p=0.1,
                     eps=1.5, seed=2)
    return build_codebook(cfg, layered_aux(), product_channel(m, m, m))


class TestProductBinOrder:
    """The vectorized walks against plain loops over the product bins."""

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
        # a row's codeword depends on its message and nonce only
        msgs = np.zeros((3, 3), dtype=np.int64)
        a = encode(cb, msgs, np.array([5, 9, 5]))
        assert np.array_equal(a[0], a[2])
        assert np.array_equal(encode(cb, msgs[:1], np.array([5])), a[:1])
        assert np.array_equal(encode(cb, msgs, np.array([5, 9, 5])), a)

    def test_out_of_range(self, cb):
        for msg in [(9, 0, 0), (0, 9, 0), (0, 0, 9), (-1, 0, 0)]:
            with pytest.raises(UsageError):
                encode(cb, np.array([msg]), np.array([0]))

    def test_one_nonce_per_message(self, cb):
        with pytest.raises(UsageError):
            encode(cb, np.zeros((2, 3), dtype=np.int64), np.array([0]))

    def test_randomization_uniform(self, cb):
        # the randomization index w1' that encode reads over fresh nonces
        # must be uniform: chi-square over 10^4 encodings at the 1% level.
        # A twin codebook stores each codeword's w1' as its symbols.
        from scipy.stats import chisquare
        s = cb.sizes
        assert s["r1p"] >= 2
        labels = np.indices(cb.x.shape)[2]
        twin = Codebook(cb.cfg, cb.aux, cb.ch, cb.u1, cb.u2, cb.u3, cb.pair,
                        np.where(cb.x >= 0, labels, -1))
        nonces = np.arange(10_000)
        got = encode(twin, np.zeros((len(nonces), 3), dtype=np.int64),
                     nonces)[:, 0]
        assert (got >= 0).all()
        counts = np.bincount(got, minlength=s["r1p"])
        assert chisquare(counts).pvalue > 0.01

    def test_unpaired_bin_detected(self, layered):
        # every message of the layered codebook, with several nonces each:
        # a row is -1 throughout exactly where the drawn product bin is
        # unpaired, and the stored codeword elsewhere
        cb, s = layered, layered.sizes
        msgs = np.array(list(np.ndindex(s["r0"], s["r1e"], s["w2"])) * 8)
        nonces = np.arange(len(msgs))
        got = encode(cb, msgs, nonces)
        ints, _ = stream_draws((cb.cfg.seed, _STREAM_ENC), nonces,
                               (s["r1p"], s["p1p"]))
        (w1p, p1p), (w0, w1, w2) = ints.T, msgs.T
        p1, p3 = w2 // s["p3"], w2 % s["p3"]
        unpaired = cb.pair[w0, w1, w1p, p3, 0] < 0
        assert 0 < unpaired.sum() < len(msgs)
        assert (got[unpaired] == -1).all()
        assert (got[~unpaired] >= 0).all()
        assert np.array_equal(got, cb.x[w0, w1, w1p, p3, p1, p1p])


def _decode_one(cb, y1, y2, y3):
    """The decoding rules on one received block, one typicality scan per
    stage, as the simulator applied them trial by trial: receiver 1's
    (w0, w1, w2), receiver 2's (w0, w1) and receiver 3's w0, None for a
    declared error, and receiver 2's w1 None at a second-stage error."""
    def sole(labels):
        if len(labels) and (labels == labels[0]).all():
            return labels[0].tolist()
        return None

    def lead(ok, size):
        return np.nonzero(ok.reshape(size, -1))[0]

    s, n, eps = cb.sizes, cb.cfg.n, cb.cfg.eps
    ny1, ny2, ny3 = cb.ch.ny1, cb.ch.ny2, cb.ch.ny3
    p_rx1, p_u2y2, p_u1u2y2, p_u3y3 = cb.decoder_targets
    rows1, labels1 = cb.rx1_table
    hit1 = sole(labels1[batch_typical(rows1 * ny1 + y1, n, p_rx1, eps)])
    rx1 = None if hit1 is None else tuple(hit1)
    ok2 = batch_typical(cb.u2.reshape(-1, n) * ny2 + y2, n, p_u2y2, eps)
    w0 = sole(lead(ok2, s["r0"]))
    rx2 = None
    if w0 is not None:
        rows = (cb.u1[w0][None, :] * cb.aux.m2 + cb.u2[w0]) * ny2 + y2
        okb = batch_typical(rows, n, p_u1u2y2, eps)
        rx2 = (w0, sole(lead(okb, s["r1e"])))
    ok3 = batch_typical(cb.u3.reshape(-1, n) * ny3 + y3, n, p_u3y3, eps)
    return rx1, rx2, sole(lead(ok3, s["r0"]))


def _every_block(cb):
    """Every y_k^n of each receiver k, one per row: (T, n) blocks for
    receivers 1, 2, 3, the shorter lists repeated to the longest."""
    n, ch = cb.cfg.n, cb.ch
    seqs = [np.array(list(itertools.product(range(ny), repeat=n)))
            for ny in (ch.ny1, ch.ny2, ch.ny3)]
    t = max(map(len, seqs))
    return [np.resize(q, (t, n)) for q in seqs]


def _layered_small(seed: int = 0) -> Codebook:
    """A codebook with every layer: n = 6 on a BSC(0.1)^3 product, every
    message and bin rate 1/6 (two indices each), the bank rates their
    sums."""
    r = 1 / 6
    cfg = CodeConfig(n=6, r0=r, r1e=r, r1p=r, r1dag=r, q2=3 * r, q3=2 * r,
                     p3=r, p3dag=r, p1e=r, p1p=r, eps=1.0, seed=seed)
    m = bsc(0.1)
    return build_codebook(cfg, layered_aux(), product_channel(m, m, m))


class TestDecodeAll:
    """The block decoder against the one-block rules, on every output
    sequence of every receiver."""

    @pytest.fixture(scope="class", params=["mc4", "mc6", "layered"])
    def case(self, request):
        if request.param == "layered":
            return _layered_small()
        cfg, aux, ch = _golden_case("mc", 3)
        return build_codebook(replace(cfg, n=int(request.param[2:])), aux, ch)

    def test_matches_one_block_rules(self, case):
        cb = case
        blocks = _every_block(cb)
        rx1, rx2, rx3 = decode_all(cb, *blocks)
        for t, ys in enumerate(zip(*blocks)):
            want = _decode_one(cb, *ys)
            got = (None if rx1[t, 0] < 0 else tuple(rx1[t].tolist()),
                   None if rx2[t, 0] < 0 else
                   (int(rx2[t, 0]), None if rx2[t, 1] < 0 else int(rx2[t, 1])),
                   None if rx3[t] < 0 else int(rx3[t]))
            assert got == want, t
        # each stage both decodes and declares errors over the blocks;
        # receiver 1 decodes no block of the layered codebook at n = 6,
        # and receiver 2's second stage fails under a decoded cloud only
        # there
        layered = cb.aux.m1 > 1
        outcomes = {"rx1": set(rx1[:, 0] >= 0),
                    "rx2 cloud": set(rx2[:, 0] >= 0),
                    "rx2 message": set(rx2[rx2[:, 0] >= 0, 1] >= 0),
                    "rx3": set(rx3 >= 0)}
        for stage, seen in outcomes.items():
            if layered and stage == "rx1":
                assert seen == {False}
            elif not layered and stage == "rx2 message":
                assert seen == {True}
            else:
                assert seen == {False, True}, stage

    def test_empty_stack(self, cb):
        empty = np.zeros((0, cb.cfg.n), dtype=np.int64)
        rx1, rx2, rx3 = decode_all(cb, empty, empty, empty)
        assert rx1.shape == (0, 3) and rx2.shape == (0, 2)
        assert rx3.shape == (0,)

    @pytest.mark.parametrize("bad", [
        # a float block once reached np.bincount and raised TypeError
        lambda y: [y.astype(float), y, y],
        lambda y: [np.array([[0., 1., .5, 1., 0., 1.]]), y, y],
        lambda y: [y, y[:, :-1], y],
        lambda y: [y, y, np.vstack([y, y])],
        lambda y: [y[0], y[0], y[0]],
        lambda y: [y, y, y + 2],
        lambda y: [y, y - 1, y],
    ])
    def test_rejects_bad_blocks(self, cb, bad):
        y = np.zeros((1, cb.cfg.n), dtype=np.int64)
        with pytest.raises(UsageError):
            decode_all(cb, *bad(y))


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


def _report_text(rep) -> str:
    d = rep.to_dict()
    del d["wall_seconds"]
    return json.dumps(d, sort_keys=True)


def test_simulate_report_does_not_depend_on_trial_blocks(monkeypatch):
    # one trial per block, and blocks of 7 trials: 300 = 42 * 7 + 6
    case = _golden_case("mc", 3)
    want = simulate(*case, 300, 3)
    assert want.block_trials > 1
    per_trial = channel_core.ENUM_BLOCK_CELLS // want.block_trials
    for cells, block in ((1, 1), (7 * per_trial, 7)):
        monkeypatch.setattr(channel_core, "ENUM_BLOCK_CELLS", cells)
        got = simulate(*case, 300, 3)
        assert got.block_trials == block
        assert _report_text(got) == _report_text(want)


def test_simulate_memory_does_not_grow_with_trials():
    # one block of trials against fifteen: a simulator that kept every
    # block's arrays, about 150 KB a block here, would peak 2 MiB higher
    case = _golden_case("mc", 3)
    block = simulate(*case, 1, 3).block_trials
    peaks = []
    for trials in (block, 15 * block):
        tracemalloc.start()
        try:
            simulate(*case, trials, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2 ** 20, peaks


def test_codebook_from_its_arrays_decodes_alike():
    # the decoder targets derive from (aux, channel), so a codebook
    # assembled from another's arrays decodes every block as it does
    cb = build_codebook(*_golden_case("mc", 3))
    twin = Codebook(cb.cfg, cb.aux, cb.ch, cb.u1, cb.u2, cb.u3, cb.pair, cb.x)
    rng = np.random.default_rng(11)
    law = cb.ch.p.reshape(cb.ch.nx, -1)
    ny2, ny3 = cb.ch.ny2, cb.ch.ny3
    live = np.argwhere(cb.live)
    ys = np.array([[rng.choice(law.shape[1], p=law[x])
                    for x in cb.x[tuple(idx)]]
                   for idx in live[rng.choice(len(live), 24)]])
    blocks = (ys // (ny2 * ny3), ys // ny3 % ny2, ys % ny3)
    decoded = decode_all(cb, *blocks)
    for got, want in zip(decode_all(twin, *blocks), decoded):
        assert np.array_equal(got, want)
    # some block decodes at each receiver; receiver 2 counts when its
    # cloud stage does
    for rx, labels in zip(("rx1", "rx2", "rx3"), decoded):
        assert (labels.reshape(len(ys), -1)[:, 0] >= 0).any(), rx


@pytest.mark.parametrize("key", range(16))
def test_codec_agrees_with_benchmark_refs(key, tmp_path, capsys):
    # the three codec commands of every key of the codec benchmark agree
    # with the seed-commit reference by the benchmark's own rule
    check_benchmark_key("codec", key, tmp_path)
    capsys.readouterr()
