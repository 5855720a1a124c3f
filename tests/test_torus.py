"""Piecewise linear functions on the circle: construction, exact minimality
certification through one-sided limits, sublevel machinery, rearrangement,
and the log-integral with its layer-cake cross-check."""

import math
from fractions import Fraction as F

import pytest

from groupcut import (
    DimensionCap,
    MODE_RHS,
    MODE_WRAP,
    NotMinimal,
    NotNondecreasing,
    OutOfRange,
    PwlTorusFunction,
    from_finite_function,
    gmi,
    gom,
    identity_fn,
    integral_ln,
    is_minimal_pwl,
    is_nondecreasing,
    layer_cake_check,
    lp_norm_torus,
    lp_power_torus,
    md2,
    md2_torus,
    rearrange_torus,
    scaled_gmi,
    subadditivity_slack,
    sublevel_measure,
    sublevel_profile,
    sublevel_set,
    tilde_fn,
)
from groupcut import torus
from groupcut.rationals import MAX_EXPONENT
from sumsets import interval_sumset, union_measure


class TestConstructors:
    def test_gmi_shape(self):
        fn = gmi(F(1, 2))
        assert fn.breakpoints == (F(0), F(1, 2))
        assert fn.pieces == ((F(2), F(0)), (F(-2), F(2)))
        assert fn.b == F(1, 2) and fn.mode == MODE_RHS

    def test_gmi_values(self):
        fn = gmi(F(1, 4))
        assert fn.value_at(F(1, 8)) == F(1, 2)
        assert fn.value_at(F(1, 4)) == 1
        assert fn.value_at(F(5, 8)) == F(1, 2)
        assert fn.value_at(0) == 0

    def test_gmi_peaks_at_b(self):
        for b in (F(1, 10), F(1, 3), F(2, 3), F(9, 10)):
            assert gmi(b).value_at(b) == 1

    def test_gmi_rejects_degenerate_rhs(self):
        with pytest.raises(OutOfRange):
            gmi(0)
        with pytest.raises(OutOfRange):
            gmi(1)

    def test_scaled_gmi_with_one_period_is_gmi(self):
        for b in (F(1, 4), F(1, 2), F(7, 10)):
            assert scaled_gmi(b, 1) == gmi(b)

    def test_scaled_gmi_repeats_the_profile(self):
        fn = scaled_gmi(F(1, 2), 2)
        assert len(fn.pieces) == 4
        assert fn.b == F(1, 4)
        assert fn.value_at(F(1, 8)) == F(1, 2)
        assert fn.value_at(F(1, 4)) == 1
        assert fn.value_at(F(5, 8)) == F(1, 2)
        assert fn.value_at(F(3, 4)) == 1

    def test_identity_is_wrap_mode(self):
        fn = identity_fn()
        assert fn.mode == MODE_WRAP and fn.b is None
        assert fn.value_at(F(3, 7)) == F(3, 7)

    def test_md2_torus_point_values(self):
        fn = md2_torus(F(1, 2))
        assert fn.value_at(0) == 0
        assert fn.value_at(F(1, 2)) == 1
        assert fn.value_at(F(1, 3)) == F(1, 2)
        assert fn.limits()[0] == (F(1, 2), F(0), F(1, 2))

    def test_from_finite_function_interpolates_nodes(self):
        pi = gom(5, 2)
        fn = from_finite_function(pi)
        assert fn.b == F(2, 5)
        for x in range(5):
            assert fn.value_at(F(x, 5)) == pi.values[x]

    def test_from_finite_gom_is_gmi(self):
        for q in (3, 5, 7):
            assert from_finite_function(gom(q, q - 1)) == gmi(F(q - 1, q))


class TestCanonicalForm:
    def test_collinear_breakpoint_dropped(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 2)),
            pieces=((F(1), F(0)), (F(1), F(0))),
            mode=MODE_WRAP,
        )
        assert fn == identity_fn()
        assert fn.breakpoints == (F(0),)

    def test_breakpoint_with_distinguished_value_kept(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 2)),
            pieces=((F(1), F(0)), (F(1), F(0))),
            point_values=(F(0), F(0)),
            mode=MODE_WRAP,
        )
        assert len(fn.breakpoints) == 2
        assert fn.value_at(F(1, 2)) == 0
        assert fn.right_limit_at(F(1, 2)) == F(1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(breakpoints=(F(1, 4),), pieces=((F(0), F(0)),)),
            dict(breakpoints=(F(0), F(1)), pieces=((F(0), F(0)),) * 2),
            dict(breakpoints=(F(0), F(1, 2), F(1, 4)), pieces=((F(0), F(0)),) * 3),
            dict(breakpoints=(F(0),), pieces=()),
            dict(breakpoints=(F(0),), pieces=((F(0), F(0)),), mode="diagonal"),
            dict(breakpoints=(F(0),), pieces=((F(0), F(0)),), mode=MODE_RHS),
            dict(breakpoints=(F(0),), pieces=((F(0), F(0)),), b=F(3, 2)),
            dict(
                breakpoints=(F(0),),
                pieces=((F(0), F(0)),),
                point_values=(F(0), F(0)),
                mode=MODE_WRAP,
            ),
        ],
    )
    def test_malformed_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PwlTorusFunction(**kwargs)

    def test_wrap_mode_discards_b(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(0)),), b=F(1, 2), mode=MODE_WRAP
        )
        assert fn.b is None


class TestLimits:
    def test_gmi_is_continuous(self):
        for left, value, right in gmi(F(1, 3)).limits():
            assert left == value == right

    def test_identity_jumps_at_origin(self):
        assert identity_fn().limits() == ((F(1), F(0), F(0)),)

    def test_one_sided_values_around_a_kept_breakpoint(self):
        fn = md2_torus(F(2, 3))
        assert fn.left_limit_at(F(2, 3)) == F(1, 2)
        assert fn.value_at(F(2, 3)) == 1
        assert fn.right_limit_at(F(2, 3)) == F(1, 2)

    def test_table_built_once_and_invisible_to_eq_hash_repr(self):
        fn, twin = md2_torus(F(2, 3)), md2_torus(F(2, 3))
        text, key = repr(fn), hash(fn)
        table = fn.limits()
        assert fn.limits() is table
        assert repr(fn) == text and hash(fn) == key
        assert fn == twin and hash(twin) == key
        assert twin.limits() == table


class TestSerialization:
    @pytest.mark.parametrize(
        "fn",
        [
            gmi(F(1, 3)),
            md2_torus(F(2, 7)),
            identity_fn(),
            scaled_gmi(F(1, 2), 3),
            from_finite_function(md2(7, 3)),
        ],
    )
    def test_json_round_trip_is_exact(self, fn):
        assert PwlTorusFunction.from_json(fn.to_json()) == fn

    def test_dict_shape(self):
        d = gmi(F(1, 2)).to_dict()
        assert d["b"] == "1/2" and d["mode"] == "rhs"
        assert d["breakpoints"] == ["0", "1/2"]
        assert d["pieces"][0] == {"slope": "2", "intercept": "0"}
        assert d["limits"][1] == {"left": "1", "at": "1", "right": "1"}

    def test_tampered_limits_rejected(self):
        d = md2_torus(F(1, 2)).to_dict()
        d["limits"][0]["left"] = "1/3"
        with pytest.raises(ValueError):
            PwlTorusFunction.from_dict(d)

    def test_redundant_breakpoint_loads_as_canonical(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 2)),
            pieces=((F(1), F(0)), (F(0), F(0))),
            mode=MODE_WRAP,
        )
        d = fn.to_dict()
        d["breakpoints"].insert(1, "1/4")
        d["pieces"].insert(1, d["pieces"][0])
        d["limits"].insert(1, {"left": "1/4", "at": "1/4", "right": "1/4"})
        loaded = PwlTorusFunction.from_dict(d)
        assert loaded == fn
        assert loaded.to_dict() == fn.to_dict()
        d["limits"][1]["right"] = "1/3"
        with pytest.raises(ValueError):
            PwlTorusFunction.from_dict(d)


class TestMonotonicity:
    def test_identity_is_nondecreasing(self):
        assert is_nondecreasing(identity_fn())

    def test_gmi_is_not(self):
        assert not is_nondecreasing(gmi(F(1, 2)))

    def test_md2_spike_is_not(self):
        assert not is_nondecreasing(md2_torus(F(1, 2)))

    def test_rearrangements_are(self):
        for fn in (gmi(F(1, 3)), md2_torus(F(1, 2)), scaled_gmi(F(1, 2), 2)):
            assert is_nondecreasing(rearrange_torus(fn))


class TestMinimality:
    @pytest.mark.parametrize(
        "fn",
        [
            gmi(F(1, 10)),
            gmi(F(1, 3)),
            gmi(F(1, 2)),
            gmi(F(9, 10)),
            identity_fn(),
            md2_torus(F(1, 4)),
            md2_torus(F(1, 2)),
            scaled_gmi(F(1, 2), 2),
            scaled_gmi(F(2, 3), 3),
        ],
    )
    def test_reference_functions_are_minimal(self, fn):
        verdict = is_minimal_pwl(fn)
        assert verdict.is_minimal, verdict.violations[:3]

    def test_interpolated_minimal_functions_stay_minimal(self, rng, make_minimal_pwl):
        for _ in range(5):
            assert is_minimal_pwl(make_minimal_pwl(rng)).is_minimal

    def test_broken_symmetry_is_reported(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(0)),), b=F(1, 2), mode=MODE_RHS
        )
        verdict = is_minimal_pwl(fn)
        assert not verdict.is_minimal
        assert {v.kind for v in verdict.violations} == {"symmetry"}

    def test_negative_dip_is_reported(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(-1, 4)),), mode=MODE_WRAP
        )
        kinds = {v.kind for v in is_minimal_pwl(fn).violations}
        assert "negativity" in kinds

    def test_nonzero_origin_is_reported(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(0), F(1, 2)),), mode=MODE_WRAP
        )
        kinds = {v.kind for v in is_minimal_pwl(fn).violations}
        assert "origin" in kinds

    def test_subadditivity_break_at_a_point_value(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 4), F(1, 2)),
            pieces=((F(0), F(1, 2)),) * 3,
            point_values=(F(0), F(1, 4), F(1)),
            b=F(1, 2),
            mode=MODE_RHS,
        )
        verdict = is_minimal_pwl(fn)
        kinds = {v.kind for v in verdict.violations}
        assert "subadditivity" in kinds
        witnesses = [
            v.witness for v in verdict.violations if v.kind == "subadditivity"
        ]
        assert (F(1, 4), F(1, 4)) in witnesses

    def test_slack_vanishes_on_tight_functions(self):
        for fn in (gmi(F(1, 2)), md2_torus(F(1, 3)), identity_fn()):
            best, witness = subadditivity_slack(fn)
            assert best == 0 and witness is not None

    def test_certifier_agrees_with_dense_sampling(self, rng, make_minimal_pwl):
        """The corner-grid scan is exhaustive for piecewise linear functions;
        random pointwise probes must never find what it missed."""
        denom = 420
        for _ in range(4):
            fn = make_minimal_pwl(rng)
            assert is_minimal_pwl(fn).is_minimal
            for _ in range(150):
                x = F(rng.randrange(denom), denom)
                y = F(rng.randrange(denom), denom)
                slack = fn.value_at(x) + fn.value_at(y) - fn.value_at(x + y)
                assert slack >= 0, (x, y)


def spikes(n):
    """n breakpoints j/n, each a point value of 1 on a floor of 1/2."""
    return PwlTorusFunction(
        breakpoints=tuple(F(j, n) for j in range(n)),
        pieces=((F(0), F(1, 2)),) * n,
        point_values=(F(1),) * n,
        mode=MODE_WRAP,
    )


class TestBreakpointCap:
    """A circle function above MAX_BREAKPOINTS is refused by an O(1) count,
    before the grid screen or the corner scan walks it."""

    def test_cap_plus_one_is_refused_before_any_walk(self, monkeypatch):
        fn = spikes(torus.MAX_BREAKPOINTS + 1)
        assert len(fn.breakpoints) == torus.MAX_BREAKPOINTS + 1

        def refuse(*args):
            raise AssertionError("the function was walked")

        monkeypatch.setattr(torus, "_walk_pieces", refuse)
        expected = f"{torus.MAX_BREAKPOINTS + 1} breakpoints exceed the corner-scan cap"
        for call in (is_minimal_pwl, subadditivity_slack, tilde_fn):
            with pytest.raises(DimensionCap, match=expected):
                call(fn)

    def test_the_cap_itself_is_admitted(self, monkeypatch):
        fn = scaled_gmi(F(2, 5), torus.MAX_BREAKPOINTS // 2)
        assert len(fn.breakpoints) == torus.MAX_BREAKPOINTS
        assert is_minimal_pwl(fn).is_minimal  # through the screen
        # the full scan at the cap is timed by the CI guard; here only the
        # admission is checked
        monkeypatch.setattr(torus, "_subadditivity_scan", lambda fn: (0, "w", []))
        assert subadditivity_slack(fn) == (0, "w")
        assert not is_minimal_pwl(spikes(torus.MAX_BREAKPOINTS)).is_minimal


class TestSublevel:
    def test_gmi_measure_is_the_level(self):
        for b in (F(1, 4), F(1, 2), F(5, 6)):
            fn = gmi(b)
            for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                assert sublevel_measure(fn, alpha) == alpha

    def test_point_values_carry_no_measure(self):
        fn = md2_torus(F(1, 2))
        assert sublevel_measure(fn, F(1, 4)) == 0
        assert sublevel_measure(fn, F(1, 2)) == 1

    def test_sublevel_set_of_gmi(self):
        assert sublevel_set(gmi(F(1, 2)), F(1, 2)) == (
            (F(0), F(1, 4)),
            (F(3, 4), F(1)),
        )

    def test_sublevel_set_records_degenerate_points(self):
        assert sublevel_set(md2_torus(F(1, 2)), F(0)) == ((F(0), F(0)),)

    # the interval sums that the sublevel growth properties are checked with
    # (tests/sumsets.py)
    def test_union_measure_merges_overlaps(self):
        intervals = [(F(0), F(1, 2)), (F(1, 4), F(3, 4)), (F(7, 8), F(1))]
        assert union_measure(intervals) == F(7, 8)

    def test_interval_sumset_translates(self):
        out = interval_sumset([(F(3, 4), F(1))], [(F(1, 2), F(5, 8))])
        assert out == ((F(1, 4), F(5, 8)),)

    def test_interval_sumset_splits_across_the_wrap(self):
        out = interval_sumset([(F(7, 8), F(1))], [(F(0), F(1, 4))])
        assert out == ((F(0), F(1, 4)), (F(7, 8), F(1)))

    def test_interval_sumset_saturates(self):
        assert interval_sumset([(F(0), F(1, 2))], [(F(0), F(1, 2))]) == (
            (F(0), F(1)),
        )

    def test_profile_of_gmi_is_the_diagonal(self):
        profile = sublevel_profile(gmi(F(1, 3)))
        assert profile.alphas == (F(0), F(1))
        assert profile.measure_at(F(1, 3)) == F(1, 3)
        assert profile.alpha_max == 1

    def test_profile_of_md2_jumps(self):
        profile = sublevel_profile(md2_torus(F(1, 2)))
        assert profile.alpha_max == F(1, 2)
        assert profile.measure_at(F(1, 4)) == 0
        assert profile.measure_at(F(1, 2)) == 1
        assert profile.measure_at(F(-1, 8)) == 0

    def test_profile_refuses_negative_functions(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(-1, 2)),), mode=MODE_WRAP
        )
        with pytest.raises(ValueError):
            sublevel_profile(fn)


class TestRearrangement:
    def test_gmi_rearranges_to_identity(self):
        for b in (F(1, 4), F(1, 2), F(9, 10)):
            assert rearrange_torus(gmi(b)) == identity_fn()

    def test_identity_is_a_fixed_point(self):
        assert rearrange_torus(identity_fn()) == identity_fn()

    def test_md2_rearranges_to_a_plateau(self):
        h = rearrange_torus(md2_torus(F(1, 3)))
        assert h.breakpoints == (F(0),)
        assert h.pieces == ((F(0), F(1, 2)),)
        assert h.value_at(0) == 0
        assert h.value_at(F(1, 2)) == F(1, 2)

    def test_left_continuity_away_from_origin(self, rng, make_minimal_pwl):
        h = rearrange_torus(make_minimal_pwl(rng))
        for i, x in enumerate(h.breakpoints):
            if i > 0:
                assert h.point_values[i] == h.left_limit_at(x)
        assert h.value_at(0) == 0

    def test_equimeasurability_is_exact(self, rng, make_minimal_pwl):
        for _ in range(3):
            fn = make_minimal_pwl(rng)
            h = rearrange_torus(fn)
            for _ in range(25):
                alpha = F(rng.randrange(0, 121), 120)
                assert sublevel_measure(h, alpha) == sublevel_measure(fn, alpha)

    def test_idempotence(self, rng, make_minimal_pwl):
        h = rearrange_torus(make_minimal_pwl(rng))
        assert rearrange_torus(h) == h

    def test_power_integrals_are_preserved_exactly(self, rng, make_minimal_pwl):
        fn = make_minimal_pwl(rng)
        h = rearrange_torus(fn)
        for p in (1, 2, 3):
            assert lp_power_torus(h, p) == lp_power_torus(fn, p)


def right_limit_fn(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Right-continuous version of a nondecreasing function; same pieces."""
    if not is_nondecreasing(fn):
        raise NotNondecreasing("right-continuous version needs a nondecreasing input")
    # the default point values are the right limits
    return PwlTorusFunction(fn.breakpoints, fn.pieces, b=fn.b, mode=fn.mode)


class TestRightLimitAndTilde:
    def test_right_limit_fn_keeps_continuous_functions(self):
        assert right_limit_fn(identity_fn()) == identity_fn()

    def test_right_limit_fn_lifts_the_origin(self):
        h = right_limit_fn(rearrange_torus(md2_torus(F(1, 2))))
        assert h.value_at(0) == F(1, 2)

    def test_right_limit_fn_needs_monotone_input(self):
        with pytest.raises(NotNondecreasing):
            right_limit_fn(gmi(F(1, 2)))

    def test_gmi_tilde_is_identity(self):
        for b in (F(1, 4), F(1, 2), F(3, 4)):
            assert tilde_fn(gmi(b)) == identity_fn()

    def test_identity_tilde_is_identity(self):
        assert tilde_fn(identity_fn()) == identity_fn()

    def test_md2_tilde_is_the_half_plateau(self):
        t = tilde_fn(md2_torus(F(1, 2)))
        assert t == rearrange_torus(md2_torus(F(1, 2)))

    def test_tilde_requires_minimality(self):
        skew = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(0)),), b=F(1, 2), mode=MODE_RHS
        )
        with pytest.raises(NotMinimal):
            tilde_fn(skew)

    def test_tilde_is_exactly_wrap_symmetric(self, rng, make_minimal_pwl):
        t = tilde_fn(make_minimal_pwl(rng))
        for _ in range(50):
            x = F(rng.randrange(1, 360), 360)
            assert t.value_at(x) + t.value_at(1 - x) == 1

    def test_tilde_is_minimal(self, rng, make_minimal_pwl):
        t = tilde_fn(make_minimal_pwl(rng))
        assert is_minimal_pwl(t).is_minimal

    def test_tilde_preserves_power_integrals_exactly(self, rng, make_minimal_pwl):
        fn = make_minimal_pwl(rng)
        t = tilde_fn(fn)
        for p in (1, 2):
            assert lp_power_torus(t, p) == lp_power_torus(fn, p)


class TestIntegralLn:
    def test_a_slope_above_every_float(self):
        # gmi's first piece rises with slope 10^310, which float() overflows
        assert abs(integral_ln(gmi(F(1, 10**310))) + 1.0) < 1e-12

    def test_a_slope_below_every_float(self, ramps_through):
        # the middle piece rises by 2 10^-400 over [1/4, 3/4): float() of its
        # slope is 0.0
        eps = F(1, 10**400)
        flat = ramps_through(F(1, 2) - eps, F(1, 2) + eps)
        constant = ramps_through(F(1, 2), F(1, 2))
        assert abs(integral_ln(flat) - integral_ln(constant)) < 1e-12

    def test_end_values_above_every_float(self, ramps_through):
        # ramps up to 10^400 and back to 1 around a plateau at 10^400; each
        # ramp from 0 or 1 integrates to 1/4 (ln 10^400 - 1) up to e^-921
        big = F(10**400)
        expected = 400 * math.log(10) - 0.5
        assert integral_ln(ramps_through(big, big)) == pytest.approx(expected, 1e-15)

    def test_end_values_whose_antiderivative_overflows(self):
        # a ramp 0 -> 10^307 -> 0 (slopes +-2 10^307): float() holds the end
        # value 10^307, but T(w) = w (ln w - 1) there is above every float
        big = F(10**307)
        ramp = PwlTorusFunction(
            (F(0), F(1, 2)), ((2 * big, F(0)), (-2 * big, 2 * big)), mode=MODE_WRAP
        )
        assert abs(integral_ln(ramp) - (307 * math.log(10) - 1)) < 1e-9

    def test_gmi_attains_minus_one(self):
        for b in (F(1, 10), F(1, 3), F(1, 2), F(9, 10)):
            assert abs(integral_ln(gmi(b)) + 1.0) < 1e-9

    def test_identity_attains_minus_one(self):
        assert abs(integral_ln(identity_fn()) + 1.0) < 1e-12

    def test_scaled_gmi_attains_minus_one(self):
        for k in (2, 3, 5):
            assert abs(integral_ln(scaled_gmi(F(1, 2), k)) + 1.0) < 1e-9

    def test_constant_half(self):
        assert integral_ln(md2_torus(F(1, 2))) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_zero_on_positive_measure_diverges(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 2)),
            pieces=((F(0), F(0)), (F(2), F(-1))),
            mode=MODE_WRAP,
        )
        assert integral_ln(fn) == float("-inf")

    def test_negative_functions_rejected(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(1), F(-1, 4)),), mode=MODE_WRAP
        )
        with pytest.raises(ValueError):
            integral_ln(fn)


class TestLayerCake:
    def test_slopes_no_float_holds(self, ramps_through):
        eps = F(1, 10**400)
        for fn in (gmi(F(1, 10**310)), ramps_through(F(1, 2) - eps, F(1, 2) + eps)):
            report = layer_cake_check(fn)
            assert report.lhs == -integral_ln(fn) and report.gap < 1e-12

    @pytest.mark.parametrize(
        "fn",
        [
            gmi(F(1, 2)),
            gmi(F(1, 3)),
            identity_fn(),
            md2_torus(F(1, 2)),
            scaled_gmi(F(1, 2), 2),
        ],
    )
    def test_gap_is_negligible(self, fn):
        report = layer_cake_check(fn)
        assert report.gap < 1e-10

    def test_identity_sides(self):
        report = layer_cake_check(identity_fn())
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(1.0, abs=1e-12)

    def test_random_minimal_functions(self, rng, make_minimal_pwl):
        for _ in range(3):
            assert layer_cake_check(make_minimal_pwl(rng)).gap < 1e-8

    def test_divergent_sides_agree(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0), F(1, 2)),
            pieces=((F(0), F(0)), (F(2), F(-1))),
            mode=MODE_WRAP,
        )
        report = layer_cake_check(fn)
        assert report.lhs == float("inf") and report.rhs == float("inf")
        assert report.gap == 0.0

    def test_values_above_one_rejected(self):
        fn = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(2), F(0)),), mode=MODE_WRAP
        )
        with pytest.raises(ValueError):
            layer_cake_check(fn)


class TestNorms:
    def test_plateau_norms(self):
        fn = md2_torus(F(2, 3))
        for p in (1, 2, 3, 7):
            assert lp_power_torus(fn, p) == F(1, 2) ** p
            assert lp_norm_torus(fn, p) == 0.5

    def test_gmi_powers(self):
        fn = gmi(F(1, 2))
        assert lp_power_torus(fn, 1) == F(1, 2)
        assert lp_power_torus(fn, 2) == F(1, 3)
        assert lp_norm_torus(fn, 2) == pytest.approx(math.sqrt(1 / 3), rel=1e-13)

    def test_gmi_mass_is_half_for_every_rhs(self):
        for b in (F(1, 10), F(1, 3), F(1, 2), F(4, 5)):
            assert lp_power_torus(gmi(b), 1) == F(1, 2)

    def test_identity_powers(self):
        fn = identity_fn()
        assert [lp_power_torus(fn, p) for p in (1, 2, 3)] == [
            F(1, 2),
            F(1, 3),
            F(1, 4),
        ]

    def test_random_minimal_mass_is_half(self, rng, make_minimal_pwl):
        for _ in range(5):
            assert lp_power_torus(make_minimal_pwl(rng), 1) == F(1, 2)

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            lp_power_torus(identity_fn(), 0)

    def test_the_cap_admits_its_own_exponent(self):
        p = MAX_EXPONENT
        assert lp_power_torus(identity_fn(), p) == F(1, p + 1)
        assert lp_norm_torus(md2_torus(F(1, 3)), p) == 0.5


def fail(*_args):
    raise AssertionError("arithmetic ran before the exponent check")


class TestExponentRefusal:
    """A bad exponent is refused before any arithmetic: with every
    arithmetic step patched to fail, the refusal must still come first."""

    @pytest.fixture(autouse=True)
    def no_arithmetic(self, monkeypatch):
        for name in ("_spans", "_assert_nonnegative", "nth_root_float"):
            monkeypatch.setattr(torus, name, fail)

    @pytest.mark.parametrize("call", [lp_power_torus, lp_norm_torus])
    @pytest.mark.parametrize(
        "p", [MAX_EXPONENT + 1, 100000, pytest.param(10**5000, id="5001-digits")]
    )
    def test_above_the_cap(self, call, p):
        with pytest.raises(DimensionCap, match="exceeds the exponent cap 1000"):
            call(gmi(F(1, 2)), p)

    @pytest.mark.parametrize("call", [lp_power_torus, lp_norm_torus])
    @pytest.mark.parametrize("p", [1.5, 2.0, True, False, F(2), "2", None])
    def test_not_an_int(self, call, p):
        with pytest.raises(TypeError, match="p must be an integer"):
            call(gmi(F(1, 2)), p)

    @pytest.mark.parametrize("call", [lp_power_torus, lp_norm_torus])
    def test_below_one(self, call):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            call(gmi(F(1, 2)), 0)
