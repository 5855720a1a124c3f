"""Cyclic group arithmetic and automorphisms."""

import pytest

from groupcut import (
    Automorphism,
    CyclicGroup,
    GroupElement,
    NotAUnit,
    NotPrime,
    ZeroElement,
    automorphism_sending,
    is_prime,
    mod_inverse,
)


class TestPrimality:
    def test_small_primes(self):
        assert all(is_prime(q) for q in (2, 3, 5, 7, 11, 13, 101, 1009))

    def test_small_composites(self):
        assert not any(is_prime(q) for q in (0, 1, 4, 9, 15, 100, 1001))


class TestGroupElements:
    def test_element_normalizes_residue(self):
        g = CyclicGroup(5)
        assert g.element(-1).residue == 4
        assert g.element(12).residue == 2

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            CyclicGroup(1)


class TestModInverse:
    def test_inverse_property(self):
        for q in (5, 7, 9, 12):
            for a in range(1, q):
                try:
                    inv = mod_inverse(a, q)
                except NotAUnit:
                    continue
                assert a * inv % q == 1

    def test_non_unit_raises(self):
        with pytest.raises(NotAUnit):
            mod_inverse(6, 9)
        with pytest.raises(NotAUnit):
            mod_inverse(0, 7)


class TestAutomorphism:
    def test_permutation_is_bijective(self):
        phi = Automorphism(3, CyclicGroup(7))
        assert sorted(phi.as_permutation()) == list(range(7))

    def test_inverse_composes_to_identity(self):
        g = CyclicGroup(11)
        phi = Automorphism(7, g)
        inv = phi.inverse()
        for r in range(11):
            assert inv.apply(phi.apply(g.element(r))) == g.element(r)

    def test_apply_accepts_ints(self):
        phi = Automorphism(2, CyclicGroup(5))
        assert phi.apply(4).residue == 3

    def test_non_unit_multiplier_rejected(self):
        with pytest.raises(NotAUnit):
            Automorphism(3, CyclicGroup(9))

    def test_multiplier_range_enforced(self):
        with pytest.raises(ValueError):
            Automorphism(0, CyclicGroup(5))
        with pytest.raises(ValueError):
            Automorphism(5, CyclicGroup(5))


class TestAutomorphismSending:
    def test_maps_b_to_target(self):
        g = CyclicGroup(13)
        for b in range(1, 13):
            for target in (1, 5, 12):
                phi = automorphism_sending(g.element(b), g.element(target))
                assert phi.apply(b).residue == target

    def test_composite_order_refused(self):
        g = CyclicGroup(9)
        with pytest.raises(NotPrime):
            automorphism_sending(g.element(2), g.element(8))

    def test_zero_refused(self):
        g = CyclicGroup(7)
        with pytest.raises(ZeroElement):
            automorphism_sending(g.element(0), g.element(3))
        with pytest.raises(ZeroElement):
            automorphism_sending(g.element(3), g.element(0))
