"""Panel integrator, origin model and tail primitives."""

import math

import numpy as np
import pytest

from cfmoments.errors import DivergenceSuspectedError, DomainError, QuadratureError
from cfmoments.quadrature import (
    QuadratureSpec,
    adaptive_panel_integral,
    fixed_panel_nodes,
    geometric_breakpoints,
    origin_power_model,
    oscillatory_breakpoints,
    trig_tail_integral,
)


class TestSpec:
    def test_defaults_valid(self):
        s = QuadratureSpec()
        assert s.max_panels >= 16

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_panels=8)


class TestAdaptivePanels:
    def test_smooth(self):
        val, err, n, ok = adaptive_panel_integral(
            lambda x: np.exp(-x), np.array([0.0, 1.0, 10.0, 40.0]), 1e-12, 1e-15, 512
        )
        assert ok
        assert val == pytest.approx(1.0 - math.exp(-40.0), rel=1e-12)

    def test_oscillatory(self):
        bp = oscillatory_breakpoints(1e-8, 60.0, 10.0)
        val, err, n, ok = adaptive_panel_integral(
            lambda x: np.exp(-x) * np.sin(10.0 * x), bp, 1e-12, 1e-14, 4096
        )
        assert val == pytest.approx(10.0 / 101.0, rel=1e-10)

    def test_complex_integrand(self):
        val, err, n, ok = adaptive_panel_integral(
            lambda x: np.exp(1j * x) * np.exp(-x), np.array([0.0, 5.0, 60.0]),
            1e-12, 1e-15, 512,
        )
        assert val == pytest.approx((1 + 1j) / 2, rel=1e-11)

    def test_deterministic_order(self):
        f = lambda x: np.sin(7 * x) / (1 + x**2)
        a = adaptive_panel_integral(f, np.linspace(0, 30, 7), 1e-11, 1e-14, 2048)
        b = adaptive_panel_integral(f, np.linspace(0, 30, 7), 1e-11, 1e-14, 2048)
        assert a[0] == b[0]

    def test_fixed_nodes_weights_sum(self):
        bp = geometric_breakpoints(0.5, 8.0)
        pts, w = fixed_panel_nodes(bp)
        assert w.sum() == pytest.approx(7.5, rel=1e-13)


class TestOriginModel:
    def test_pure_power(self):
        om = origin_power_model(lambda r: 3.0 * r**2, 1e-3, 0.5)
        exact = 3.0 * 1e-3**1.5 / 1.5
        assert om.contribution == pytest.approx(exact, rel=1e-10)
        assert om.slope == pytest.approx(2.0, abs=1e-9)

    def test_corrected_power(self):
        om = origin_power_model(lambda r: r**2 * (1 - r / 2), 1e-3, 0.5)
        exact = 1e-3**1.5 / 1.5 - 0.5 * 1e-3**2.5 / 2.5
        assert abs(om.contribution - exact) < om.error + 1e-15

    def test_flat_zero(self):
        om = origin_power_model(lambda r: np.zeros_like(r), 1e-3, 0.5)
        assert om.contribution == 0.0 and om.error == 0.0

    def test_divergence_detection(self):
        with pytest.raises(DivergenceSuspectedError):
            origin_power_model(lambda r: r**1.0, 1e-3, 1.5)


class TestTrigTail:
    @pytest.mark.parametrize("y,alpha", [(0.5, 0.5), (3.0, 1.2), (12.0, 0.8), (50.0, 0.4)])
    def test_bridged_cosine(self, y, alpha):
        from scipy.integrate import quad

        got, err = trig_tail_integral(y, alpha, "cos")
        oracle, _ = quad(lambda u: u ** (-1 - alpha), y, np.inf, weight="cos", wvar=1.0)
        assert got == pytest.approx(oracle, abs=5e-10)

    def test_sine_variant(self):
        from scipy.integrate import quad

        got, err = trig_tail_integral(2.0, 1.5, "sin")
        oracle, _ = quad(lambda u: u ** (-2.5), 2.0, np.inf, weight="sin", wvar=1.0)
        assert got == pytest.approx(oracle, abs=5e-10)


class TestBreakpoints:
    def test_geometric_bounds(self):
        bp = geometric_breakpoints(1e-3, 8.0)
        assert bp[0] == pytest.approx(1e-3) and bp[-1] == pytest.approx(8.0)
        with pytest.raises(DomainError):
            geometric_breakpoints(1.0, 0.5)

    def test_oscillatory_cap(self):
        bp = oscillatory_breakpoints(1.0, 100.0, 5.0)
        widths = np.diff(bp)
        assert widths.max() <= 0.5 * 2 * math.pi / 5.0 + 1e-12

    @staticmethod
    def _loop_plan(a, b, freq, per_octave):
        """The planner as a loop over breakpoints, one width at a time."""
        cap = 0.5 * 2.0 * math.pi / freq
        grow = 2.0 ** (1.0 / per_octave) - 1.0
        pts = [a]
        x = a
        while x < b:
            x = min(b, x + max(min(x * grow, cap), 1e-300))
            pts.append(x)
            if len(pts) > 2_000_000:
                raise QuadratureError("oscillatory breakpoint plan exploded")
        return np.asarray(pts)

    def test_oscillatory_matches_loop(self):
        rng = np.random.default_rng(17)
        cases = [(2048.0, 4096.0, 6.0, 3), (1e-4, 8.0, 1.0, 3), (0.25, 1e3, 40.0, 1),
                 (3.0, 3.0 + 1e-9, 2.0, 2)]
        for _ in range(400):
            a = 10.0 ** rng.uniform(-6.0, 3.0)
            cases.append((a, a * 10.0 ** rng.uniform(1e-6, 2.5), 10.0 ** rng.uniform(-2.0, 1.0),
                          int(rng.integers(1, 7))))
        for a, b, freq, per_octave in cases:
            got = oscillatory_breakpoints(a, b, freq, per_octave=per_octave)
            assert np.array_equal(got, self._loop_plan(a, b, freq, per_octave))

    def test_oscillatory_plan_limit(self):
        # a cap of exactly 1 from a = 1000 on: every width is 1, so the plan
        # holds b - a + 1 points, and one past 2,000,000 is refused
        assert 0.5 * 2.0 * math.pi / math.pi == 1.0
        bp = oscillatory_breakpoints(1000.0, 1000.0 + 1_999_999, math.pi)
        assert bp.size == 2_000_000 and bp[-1] == 1000.0 + 1_999_999
        assert np.all(np.diff(bp) == 1.0)
        with pytest.raises(QuadratureError):
            oscillatory_breakpoints(1000.0, 1000.0 + 2_000_000, math.pi)
        with pytest.raises(QuadratureError):
            oscillatory_breakpoints(1.0, 2.0, 1e17)  # the widths vanish against x


class TestTrigTailArray:
    # lower limits on both sides of the bridge point y0 = 32, with exact
    # and one-ulp duplicates
    Y = np.concatenate([
        np.geomspace(1e-3, 200.0, 61),
        [5.0, 5.0, np.nextafter(5.0, 6.0), 31.999999, 32.0, 32.0000001, 40.0, 40.0],
    ])

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.5, 4.5])
    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    def test_array_matches_scalar_calls(self, kind, alpha):
        val, err = trig_tail_integral(self.Y, alpha, kind)
        scalar = [trig_tail_integral(float(y), alpha, kind) for y in self.Y]
        ref = np.array([v for v, _ in scalar])
        ref_err = np.array([e for _, e in scalar])
        # the cos and sin parts cross zero, so the gap is measured against
        # the larger of the value and the integrand's size at the limit.
        # Both forms sit at the rounding floor of their panel sums (a 30-digit
        # check puts both heads at y = 26.15, alpha = 0.3 within 9e-17 of the
        # truth), and there they differ by 1.007e-14 of the value
        scale = np.maximum(np.abs(ref), self.Y ** (-1.0 - alpha))
        assert np.all(np.abs(val - ref) <= 2e-14 * scale)
        # both bars hold the same series bound; the shared grid only moves
        # the panel estimates, which sit at rounding level
        assert np.all(np.abs(err - ref_err) <= 1e-12 * scale)

    def test_scalar_in_scalar_out(self):
        val, err = trig_tail_integral(3.0, 1.2)
        assert np.ndim(val) == 0 and np.iscomplexobj(val) and isinstance(err, float)
        cos, _ = trig_tail_integral(3.0, 1.2, "cos")
        assert np.ndim(cos) == 0 and cos == np.real(val)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(DomainError):
            trig_tail_integral(np.array([1.0, -1.0]), 0.5)


class TestAdaptivePanelsNearDuplicates:
    def test_one_ulp_panels_raise_no_warning(self):
        # the Kronrod residual of the panel one ulp above 5 rounds to zero
        # while its Gauss-Kronrod difference does not
        bp = [1.0, 5.0, np.nextafter(5.0, 6.0), 6.0]
        val, err, _, ok = adaptive_panel_integral(
            lambda u: u ** -1.5 * np.exp(1j * u), bp, 1e-13, 1e-16, 64
        )
        ref, _, _, _ = adaptive_panel_integral(
            lambda u: u ** -1.5 * np.exp(1j * u), [1.0, 5.0, 6.0], 1e-13, 1e-16, 64
        )
        assert ok and abs(val - ref) <= 1e-14 * abs(ref)


class TestPlaneWaveGrid:
    def test_matches_direct_sum(self):
        from cfmoments.quadrature import plane_wave_grid

        rng = np.random.default_rng(21)
        freqs = rng.uniform(-5.0, 5.0, 70)
        amps = rng.normal(size=70) + 1j * rng.normal(size=70)
        starts = rng.uniform(-300.0, 300.0, 40)
        offsets = rng.uniform(0.0, 3.0, 9)
        got = plane_wave_grid(freqs, amps, starts, np.exp(1j * np.outer(offsets, freqs)))
        x = offsets[:, None] + starts[None, :]
        ref = np.exp(1j * x[:, :, None] * freqs) @ amps
        assert got.shape == (9, 40)
        # both sides round each phase by up to eps |f| (|s| + |o|): the helper
        # in f s and f o, the reference in s + o and f (s + o); the
        # exponentials, products and the 70-term sum add a few ulp of |amps|
        eps = np.finfo(float).eps
        phase = np.abs(freqs) * (np.abs(starts)[None, :, None] + offsets[:, None, None])
        bound = eps * (np.abs(amps) * (2.0 * phase + 80.0)).sum(axis=-1)
        assert np.all(np.abs(got - ref) <= bound)


class TestChebyshevBlocks:
    # the one atom x = 1 with weight 1: exactly exp(-1j s) - 1, of type 1,
    # in blocks of width 8

    def test_blocks_built_once(self):
        from cfmoments.quadrature import ChebyshevBlocks

        seen = []

        def f(s):
            seen.append(s.size)
            return np.exp(-1j * s) - 1.0

        table = ChebyshevBlocks(f, [-1.0], [1.0])
        built = []
        build = table._build
        table._build = lambda blocks: (built.extend(blocks.tolist()), build(blocks))
        s = np.linspace(40.0, 200.0, 1000)
        first = table(s)
        # blocks 5..25 hold s in [40, 208), each built once from the atom
        assert sorted(built) == list(range(5, 26))
        assert np.array_equal(table(s), first)
        assert sorted(built) == list(range(5, 26))
        assert seen == []

    def test_direct_below_first_block(self):
        from cfmoments.quadrature import ChebyshevBlocks

        table = ChebyshevBlocks(lambda s: np.expm1(-1j * s), [-1.0], [1.0])  # width 8
        s = np.array([0.0, 1e-300, 1e-8, 0.5, 7.999])
        assert np.array_equal(table(s), np.expm1(-1j * s))

    def test_blocks_found_across_queries(self):
        from cfmoments.quadrature import ChebyshevBlocks

        seen = []

        def f(s):
            seen.append(s.size)
            return np.exp(-1j * s) - 1.0

        table = ChebyshevBlocks(f, [-1.0], [1.0])
        built = []
        build = table._build
        table._build = lambda blocks: (built.extend(blocks.tolist()), build(blocks))
        # windows over 160 blocks, queried in scrambled order, so the
        # coefficient store grows past its first capacity
        windows = [np.linspace(32.0 * j + 1.0, 32.0 * j + 31.0, 7)
                   for j in np.random.default_rng(3).permutation(np.arange(1, 41))]
        for w in windows:
            table(w)
        # window j lands in blocks 4j..4j+3, each built once
        assert sorted(built) == list(range(4, 164))
        assert table.blocks_built == 160
        s = np.concatenate(windows)
        got = table(s)
        assert sorted(built) == list(range(4, 164))
        assert seen == []
        assert np.max(np.abs(got - (np.exp(-1j * s) - 1.0))) <= 1e-13

    def test_build_batches_within_budget(self):
        from cfmoments.quadrature import ChebyshevBlocks

        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 10)
        x[0] = 1.0  # type 1: blocks of width 8
        w = np.full(10, 0.1)
        table = ChebyshevBlocks(None, -x, w)
        table._BUDGET = 30  # three blocks of ten atoms per batch
        batches = []
        build = table._build
        table._build = lambda blocks: (batches.append(blocks.size), build(blocks))
        s = np.linspace(8.0, 807.0, 2000)  # blocks 1..100
        got = table(s)
        # 2000 points allow 80 blocks per batch; the budget allows three
        assert batches == [3] * 33 + [1]
        assert table.blocks_built == 100
        ref = np.exp(-1j * np.outer(s, x)) @ w - 1.0
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_clenshaw_sum(self):
        from cfmoments.quadrature import ChebyshevBlocks

        table = ChebyshevBlocks(None, [-1.0], [1.0])
        # more points than one chunk, over blocks 1..1249, in scrambled order
        s = np.random.default_rng(9).uniform(8.0, 10000.0, 3 * table._CHUNK + 17)
        got = table(s)
        assert table.blocks_built == len(np.unique(np.floor(s / 8.0)))
        assert np.max(np.abs(got - (np.exp(-1j * s) - 1.0))) <= 1e-13

    def test_difference_of_two_sums(self):
        from cfmoments.quadrature import ChebyshevBlocks

        # one table of exp(-i s) - exp(-0.5 i s): the atoms of both, the
        # second's weight negated, so the sum of the amplitudes is zero
        table = ChebyshevBlocks(None, [-1.0, -0.5], [1.0, -1.0])
        s = np.linspace(8.0, 2000.0, 5000)
        ref = np.exp(-1j * s) - np.exp(-0.5j * s)
        assert np.max(np.abs(table(s) - ref)) <= 1e-13

    def test_rejects_nonpositive_type(self):
        from cfmoments.quadrature import ChebyshevBlocks

        for freqs in ([0.0], [0.0, -0.0], [float("nan")], [float("inf")]):
            with pytest.raises(DomainError):
                ChebyshevBlocks(np.exp, freqs, np.ones(len(freqs)))
