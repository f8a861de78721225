"""Probability containers and the mutual-information engine."""

import itertools

import numpy as np
import pytest

from bcsl.channel_core import (Channel3, JointPmf, _clamp, conditional_mi,
                               induced_joint, mi_entropy_groups,
                               mutual_information, tensor_entropy)
from bcsl.errors import UsageError, ValidationError
from bcsl.regions import AuxJoint, FactorBlocks

from conftest import cascade_channel, random_channel


# frozen oracle values (computed independently by hand / bc)
H_09_01 = 0.4689955935892812          # H(0.9, 0.1)
CAP_BSC_02 = 0.2780719051126377       # 1 - H(0.2, 0.8)


def brute_conditional_mi(j: JointPmf, a, b, c) -> float:
    """Independent recomputation of I(A;B|C) by direct summation."""
    pabc = j.marginal(list(a) + list(b) + list(c)).probs
    na, nb = len(a), len(b)
    axes_a = tuple(range(na))
    axes_b = tuple(range(na, na + nb))
    pc = pabc.sum(axis=axes_a + axes_b)
    pac = pabc.sum(axis=axes_b)
    pbc = pabc.sum(axis=axes_a)
    total = 0.0
    for idx in np.ndindex(*pabc.shape):
        p = pabc[idx]
        if p <= 0:
            continue
        ia = idx[:na]
        ib = idx[na:na + nb]
        ic = idx[na + nb:]
        denom = pac[ia + ic] * pbc[ib + ic]
        num = p * (pc[ic] if ic else 1.0)
        total += p * np.log2(num / denom)
    return total


def random_joint(rng, shape, names):
    p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return JointPmf(names, p)


class TestEntropy:
    def test_frozen_values(self):
        assert tensor_entropy(np.array([0.9, 0.1])) == pytest.approx(
            H_09_01, abs=1e-12)
        assert tensor_entropy(np.array([0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-12)
        assert tensor_entropy(np.array([1.0, 0.0])) == 0.0

    def test_uniform_maximizes(self, rng):
        for k in (2, 3, 5):
            p = rng.dirichlet(np.ones(k))
            assert tensor_entropy(p) <= np.log2(k) + 1e-12

    def test_bsc_capacity_frozen(self):
        ch = cascade_channel(0.2, 0.0, 0.0)
        j = induced_joint(ch, AuxJoint(1, 1, 1, 2,
                                       np.full((1, 1, 1, 2), 0.5)))
        assert mutual_information(j, ["X"], ["Y1"]) == pytest.approx(
            CAP_BSC_02, abs=1e-12)


class TestMutualInformation:
    def test_brute_force_agreement(self, rng):
        for _ in range(50):
            j = random_joint(rng, (2, 3, 2), ("A", "B", "C"))
            got = conditional_mi(j, ["A"], ["B"], ["C"])
            want = brute_conditional_mi(j, ["A"], ["B"], ["C"])
            assert got == pytest.approx(want, abs=1e-10)
            got0 = conditional_mi(j, ["A"], ["B"], [])
            want0 = brute_conditional_mi(j, ["A"], ["B"], [])
            assert got0 == pytest.approx(want0, abs=1e-10)

    def test_symmetry(self, rng):
        for _ in range(20):
            j = random_joint(rng, (2, 2, 2), ("A", "B", "C"))
            assert conditional_mi(j, ["A"], ["B"], ["C"]) == pytest.approx(
                conditional_mi(j, ["B"], ["A"], ["C"]), abs=1e-12)

    def test_chain_rule(self, rng):
        # I(A,B;D) = I(A;D) + I(B;D|A)
        for _ in range(20):
            j = random_joint(rng, (2, 2, 3), ("A", "B", "D"))
            lhs = mutual_information(j, ["A", "B"], ["D"])
            rhs = (mutual_information(j, ["A"], ["D"])
                   + conditional_mi(j, ["B"], ["D"], ["A"]))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_four_entropy_sum_bitwise(self, rng):
        # conditional_mi adds the signed groups of mi_entropy_groups in
        # order: bitwise the written-out H(AC) + H(BC) - H(ABC) - H(C),
        # signed zeros included; the joints with unit axes and point
        # masses have zero entropies
        point = np.zeros((2, 2, 2))
        point[1, 0, 1] = 1.0
        joints = [JointPmf(("A", "B", "C"), point)] + [
            random_joint(rng, shape, ("A", "B", "C"))
            for shape in [(2, 3, 2), (1, 2, 3), (2, 2, 1), (1, 1, 1)] * 10]
        for j in joints:
            h = j.group_entropy
            cases = [(["C"], h(["A", "C"]) + h(["B", "C"])
                      - h(["A", "B", "C"]) - h(["C"])),
                     ([], h(["A"]) + h(["B"]) - h(["A", "B"]))]
            for c, value in cases:
                want = _clamp(value, "conditional mutual information")
                assert repr(conditional_mi(j, ["A"], ["B"], c)) == repr(want)

    def test_entropy_groups_in_identity_order(self):
        assert mi_entropy_groups(["A"], ["B", "D"], ["C"]) == [
            (["A", "C"], 1), (["B", "D", "C"], 1),
            (["A", "B", "D", "C"], -1), (["C"], -1)]
        assert mi_entropy_groups(("A",), ("B",), ()) == [
            (["A"], 1), (["B"], 1), (["A", "B"], -1)]

    def test_nonnegativity(self, rng):
        for _ in range(20):
            j = random_joint(rng, (2, 2, 2), ("A", "B", "C"))
            assert conditional_mi(j, ["A"], ["B"], ["C"]) >= 0.0

    def test_data_processing(self, rng):
        # Markov A -> B -> C built by construction: I(A;C) <= I(A;B)
        for _ in range(20):
            pa = rng.dirichlet(np.ones(2))
            pba = rng.dirichlet(np.ones(3), size=2)
            pcb = rng.dirichlet(np.ones(2), size=3)
            p = np.einsum("a,ab,bc->abc", pa, pba, pcb)
            j = JointPmf(("A", "B", "C"), p)
            assert (mutual_information(j, ["A"], ["C"])
                    <= mutual_information(j, ["A"], ["B"]) + 1e-10)

    def test_group_overlap_rejected(self, rng):
        j = random_joint(rng, (2, 2), ("A", "B"))
        with pytest.raises(UsageError):
            mutual_information(j, ["A"], ["A"])
        for a, b, c in [([], ["B"], []), (["A"], ["B"], ["B"])]:
            with pytest.raises(UsageError):
                conditional_mi(j, a, b, c)


class TestChannel3:
    def test_validation(self):
        bad = np.full((2, 2, 2, 2), 1 / 8.0)
        bad[0, 0, 0, 0] += 0.01
        with pytest.raises(ValidationError):
            Channel3(2, 2, 2, 2, bad)
        with pytest.raises(ValidationError):
            Channel3(2, 2, 2, 2, -np.ones((2, 2, 2, 2)) / 8)

    def test_marginal_rows_sum(self, rng):
        ch = random_channel(rng, 3, 2, 2, 2)
        for r in (1, 2, 3):
            m = ch.marginal_to(r)
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_roundtrip_dict(self, rng):
        ch = random_channel(rng, 2, 2, 3, 2)
        ch2 = Channel3.from_dict(ch.to_dict())
        assert np.allclose(ch.p, ch2.p)


class TestInducedJoint:
    def test_matches_manual_product(self, rng):
        ch = random_channel(rng, 2, 2, 2, 2)
        aux = FactorBlocks.random(rng, 2, 2, 2, 2).to_aux()
        j = induced_joint(ch, aux)
        manual = np.einsum("abcx,xijk->abcxijk", aux.p, ch.p)
        assert np.allclose(j.probs, manual, atol=1e-15)

    def test_aux_marginal_preserved(self, rng):
        ch = random_channel(rng, 2, 2, 2, 2)
        aux = FactorBlocks.random(rng, 2, 3, 2, 2).to_aux()
        j = induced_joint(ch, aux)
        assert np.allclose(j.marginal(["U1", "U2", "U3", "X"]).probs, aux.p,
                           atol=1e-12)
