import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clipreg
from clipreg import measure
from clipreg.measure import (
    FunctionOracle,
    MeasureError,
    Quadrature,
    build_quadrature,
    inner,
    l2_norm_sq,
    oracle_from_values,
    sigma_l1,
)
from clipreg.netcore import DomainSpec
from conftest import const_oracle


def coord(i=0):
    return FunctionOracle(lambda X: X[:, i], f"w{i}")


class TestBuildQuadrature:
    def test_tensor_grid_normalized(self, dom1):
        q = build_quadrature(dom1, "tensor-grid", 16)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tensor_grid_second_moment(self, dom1):
        q = build_quadrature(dom1, "tensor-grid", 32)
        # analytic: int_{-1}^{1} w^2 dw / 2 = 1/3
        assert l2_norm_sq(q, coord()) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_low_discrepancy_deterministic(self):
        dom = DomainSpec(8, 1.0)
        a = build_quadrature(dom, "low-discrepancy", 2 ** 14, seed=7)
        b = build_quadrature(dom, "low-discrepancy", 2 ** 14, seed=7)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)

    def test_seeded_uniform_deterministic(self, dom2):
        a = build_quadrature(dom2, "seeded-uniform", 500, seed=1)
        b = build_quadrature(dom2, "seeded-uniform", 500, seed=1)
        assert np.array_equal(a.nodes, b.nodes)

    def test_tensor_grid_high_dim_rejected(self):
        with pytest.raises(MeasureError):
            build_quadrature(DomainSpec(8, 1.0), "tensor-grid", 4)

    def test_unknown_scheme_rejected(self, dom1):
        with pytest.raises(MeasureError):
            build_quadrature(dom1, "monte-carlo", 10)

    def test_nodes_inside_cube(self, dom2):
        for scheme in ("tensor-grid", "low-discrepancy", "seeded-uniform"):
            q = build_quadrature(dom2, scheme, 64, seed=2)
            assert np.max(np.abs(q.nodes)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n, scheme, size", [
        (1, "tensor-grid", 100_000),           # the size x size companion matrix
        (2, "tensor-grid", 30_000),            # 2 * 30000**2 node coordinates
        (2, "low-discrepancy", 2 ** 30),       # 2**31 node coordinates
        (2, "seeded-uniform", 2 ** 30),
        (1, "low-discrepancy", 2 ** 30 + 1),   # past the end of the Sobol sequence
    ])
    def test_oversized_rejected_before_allocating(self, monkeypatch, n, scheme, size):
        def allocate(*args, **kwargs):
            raise AssertionError("build_quadrature started allocating")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", allocate)
        monkeypatch.setattr(measure, "_sobol", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        with pytest.raises(MeasureError) as exc:
            build_quadrature(DomainSpec(n, 1.0), scheme, size)
        assert exc.value.param == "size"


class TestQuadrature:
    @pytest.mark.parametrize("nodes, weights", [
        ([[np.nan]], [1.0]),
        ([[0.0], [np.nan]], [0.5, 0.5]),
        ([[0.0]], [np.nan]),
        ([[0.0], [0.5]], [0.5, np.nan]),
        ([[1.5]], [1.0]),
        ([[0.0], [0.5]], [1.5, -0.5]),
        ([[0.0], [0.5]], [1.0, 0.0]),
        ([[0.0], [0.5]], [0.5, 0.6]),
        ([[0.0], [0.5]], [1.0]),
    ], ids=["nan-node", "nan-second-node", "nan-weight", "nan-second-weight", "node-outside",
            "negative-weight", "zero-weight", "sum-not-one", "one-weight-for-two-nodes"])
    def test_bad_input_rejected(self, nodes, weights):
        with pytest.raises(MeasureError):
            Quadrature(np.array(nodes), np.array(weights), "x", 0)


class TestSobol:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 40])
    def test_matches_scipy_bit_for_bit(self, n):
        from scipy.stats import qmc

        for size in (1, 2, 3, 5, 1000, 2048, 2 ** 14):
            for seed in (0, 3, 7, 12345):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # non power-of-two sizes
                    ref = 2 * qmc.Sobol(d=n, scramble=True, seed=seed).random(size) - 1
                got = build_quadrature(DomainSpec(n, 1.0), "low-discrepancy", size, seed).nodes
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got, ref), (size, seed)

    def test_cli_never_imports_scipy(self):
        src = str(Path(clipreg.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import clipreg.cli\n"
                "from clipreg.measure import build_quadrature\n"
                "from clipreg.netcore import DomainSpec\n"
                "build_quadrature(DomainSpec(2, 1.0), 'low-discrepancy', 2 ** 14, seed=3)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"


class TestInner:
    def test_probability_measure(self, quad1):
        assert inner(quad1, const_oracle(1), const_oracle(1)) == pytest.approx(1.0)

    def test_second_moment(self, quad1):
        assert inner(quad1, coord(), coord()) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_zero_annihilates(self, quad1):
        assert inner(quad1, coord(), const_oracle(0)) == 0.0

    def test_symmetric_exactly(self, quad2):
        rng = np.random.default_rng(4)
        a = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
        b = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
        assert inner(quad2, a, b) == inner(quad2, b, a)

    def test_cauchy_schwarz(self, quad2):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
            b = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
            assert inner(quad2, a, b) ** 2 <= l2_norm_sq(quad2, a) * l2_norm_sq(quad2, b) + 1e-12


class TestL2NormSq:
    def test_zero(self, quad1):
        assert l2_norm_sq(quad1, const_oracle(0)) == 0.0

    def test_one(self, quad1):
        assert l2_norm_sq(quad1, const_oracle(1)) == pytest.approx(1.0)

    def test_coordinate(self, dom1):
        q = build_quadrature(dom1, "tensor-grid", 32)
        assert l2_norm_sq(q, coord()) == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestSigmaL1:
    def test_identical(self, quad1):
        assert sigma_l1(quad1, coord(), coord()) == 0.0

    def test_constant_gap(self, quad1):
        assert sigma_l1(quad1, const_oracle(1), const_oracle(-1)) == pytest.approx(2.0)

    def test_coordinate_vs_zero(self, quad1):
        # analytic: int |w| dw / 2 = 1/2
        assert sigma_l1(quad1, coord(), const_oracle(0)) == pytest.approx(0.5, abs=1e-3)

    def test_triangle_inequality(self, quad2):
        rng = np.random.default_rng(17)
        for _ in range(25):
            f, g, h = (oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
                       for _ in range(3))
            assert sigma_l1(quad2, f, h) <= sigma_l1(quad2, f, g) + sigma_l1(quad2, g, h) + 1e-12

    def test_symmetric(self, quad2):
        rng = np.random.default_rng(18)
        f = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
        g = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
        assert sigma_l1(quad2, f, g) == sigma_l1(quad2, g, f)


class TestSchemeConvergence:
    def test_tensor_grid_smooth(self, dom1):
        q = build_quadrature(dom1, "tensor-grid", 64)
        f = FunctionOracle(lambda X: np.cos(X[:, 0]), "cos")
        assert inner(q, f, const_oracle(1)) == pytest.approx(np.sin(1.0), abs=1e-10)

    def test_low_discrepancy_lipschitz(self, dom2):
        q = build_quadrature(dom2, "low-discrepancy", 2 ** 14, seed=5)
        f = FunctionOracle(lambda X: np.abs(X[:, 0]) - 0.5, "lip")
        assert inner(q, f, const_oracle(1)) == pytest.approx(0.0, abs=1e-2)


class TestFunctionOracle:
    def test_values_cached(self, quad1):
        calls = []
        f = FunctionOracle(lambda X: (calls.append(1), np.zeros(len(X)))[1], "c")
        f.values(quad1)
        f.values(quad1)
        assert len(calls) == 1

    def test_value_backed_oracle_guards_quadrature(self, quad1, quad2):
        f = oracle_from_values(quad1, np.zeros(quad1.size))
        with pytest.raises(MeasureError):
            f.values(quad2)

    def test_value_backed_oracle_copies_the_values(self, quad1):
        # the oracle freezes its cached values; the caller's array stays its own
        v = np.zeros(quad1.size)
        f = oracle_from_values(quad1, v)
        assert not f.values(quad1).flags.writeable
        assert v.flags.writeable
        v[0] = 1.0
        assert f.values(quad1)[0] == 0.0
