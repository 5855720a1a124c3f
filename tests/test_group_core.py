"""Cyclic group arithmetic and the units that act as its automorphisms."""

import pytest

from groupcut import (
    CyclicGroup,
    GroupElement,
    NotAUnit,
    NotPrime,
    ZeroElement,
    automorphism_sending,
    compose,
    gom,
    gomory_decomposition,
    identity_fn,
    is_prime,
    minimize_volume,
    mod_inverse,
    rearrange_finite,
    require_prime,
    riemann_experiment,
    stirling_table,
)
from groupcut import group_core

# every prime-only entry, each at the composite order 9
PRIME_ONLY = {
    "compose": lambda: compose(gom(9, 8), 2),
    "rearrange_finite": lambda: rearrange_finite(gom(9, 8)),
    "minimize_volume": lambda: minimize_volume(9, 8),
    "gomory_decomposition": lambda: gomory_decomposition(gom(9, 8)),
    "riemann_experiment": lambda: riemann_experiment(identity_fn(), 9),
    "stirling_table": lambda: stirling_table([5, 9]),
    "automorphism_sending": lambda: automorphism_sending(
        CyclicGroup(9).element(2), CyclicGroup(9).element(8)
    ),
}


class TestPrimality:
    def test_small_primes(self):
        assert all(is_prime(q) for q in (2, 3, 5, 7, 11, 13, 101, 1009))

    def test_small_composites(self):
        assert not any(is_prime(q) for q in (0, 1, 4, 9, 15, 100, 1001))

    def test_require_prime(self):
        assert require_prime(7) is None
        with pytest.raises(NotPrime, match="^q=9 is not prime$"):
            require_prime(9)

    @pytest.mark.parametrize("entry", sorted(PRIME_ONLY))
    def test_each_prime_only_entry_refuses_through_one_test(self, monkeypatch, entry):
        asked, test = [], group_core.is_prime

        def recorded(q):
            asked.append(q)
            return test(q)

        monkeypatch.setattr(group_core, "is_prime", recorded)
        with pytest.raises(NotPrime, match="^q=9 is not prime$"):
            PRIME_ONLY[entry]()
        assert asked[-1] == 9


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


class TestAutomorphismSending:
    def test_maps_b_to_target(self):
        g = CyclicGroup(13)
        for b in range(1, 13):
            for target in (1, 5, 12):
                u = automorphism_sending(g.element(b), g.element(target))
                assert type(u) is int and 1 <= u < 13
                assert u * b % 13 == target

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
