import mpmath as mp
import pytest

from angelesco.errors import DomainError
from angelesco.mops import AngelescoSystem, MultiIndex, lebesgue_weights, reference_geometry
from angelesco.precision import PrecisionContext
from angelesco.szego import marginal_predict, ratio_report, ratio_report_csv, s_x0, szego_rho
from angelesco.szego_maps import phi_map, w_map

CTX = PrecisionContext(256)
G0 = reference_geometry()
W2 = lebesgue_weights()[1]
I2 = G0.interval(2)


def test_w_map_reference_value_and_branch():
    with CTX.workprec():
        v = w_map(mp.mpf(-2), *I2)
        assert abs(v + mp.sqrt(12)) < mp.mpf("1e-70")
        # upper boundary value is +i |w|
        vb = w_map(mp.mpf("1.5"), *I2, side=+1)
        assert vb.real == 0 and vb.imag > 0
        big = mp.mpf(10) ** 9
        assert abs(w_map(big, *I2) / big - 1) < mp.mpf("1e-8")


def test_phi_map_boundary_circle_and_expansion():
    with CTX.workprec():
        for x in ("1.1", "1.5", "1.9"):
            v = phi_map(mp.mpf(x), *I2, side=+1)
            assert abs(abs(v) - mp.mpf("0.25")) < mp.mpf("1e-60")
        z = mp.mpf(10) ** 7
        assert abs(phi_map(z, *I2) - z + mp.mpf("1.5")) < mp.mpf("1e-5")


def test_szego_constant_weight_closed_form():
    # for density 1 the function reduces to sqrt(phi / (pi h w))
    with CTX.workprec():
        for z in (mp.mpf(4), mp.mpf("-3.3"), mp.mpc(2, 2), mp.mpc("0.3", "1.1")):
            se = szego_rho(G0, 2, z, W2, CTX)
            h = mp.mpf("0.5")
            ref = mp.sqrt(phi_map(z, *I2) / (mp.pi * h * w_map(z, *I2)))
            assert abs(se.value - ref) < mp.mpf("1e-40")
        assert abs(se.at_infinity - mp.sqrt(2 / mp.pi)) < mp.mpf("1e-40")


def test_szego_boundary_identity():
    with CTX.workprec():
        for x in ("1.2", "1.37", "1.5", "1.68", "1.9"):
            xv = mp.mpf(x)
            sp = szego_rho(G0, 2, xv, W2, CTX, side=+1).value
            sm = szego_rho(G0, 2, xv, W2, CTX, side=-1).value
            rho_w = 2 * mp.pi * mp.sqrt((xv - 1) * (2 - xv))
            assert abs(sp * sm * rho_w - 1) < mp.mpf("1e-8")
    with pytest.raises(DomainError):
        szego_rho(G0, 2, mp.mpf("1.5"), W2, CTX)


def test_szego_real_positive_off_cut_and_conjugation():
    with CTX.workprec():
        v = szego_rho(G0, 2, mp.mpf("3.7"), W2, CTX).value
        assert abs(v.imag) < mp.mpf("1e-60") and v.real > 0
        z = mp.mpc("0.4", "0.9")
        a = szego_rho(G0, 2, z, W2, CTX).value
        b = szego_rho(G0, 2, mp.conj(z), W2, CTX).value
        assert abs(a - mp.conj(b)) < mp.mpf("1e-40")


def test_szego_quadrature_stability():
    from angelesco.mops import WeightSpec
    w = WeightSpec("exppoly", coeffs=("0.1", "0.2"), interval=2)
    with CTX.workprec():
        for z in (mp.mpf(3), mp.mpc(1, 1)):
            v1 = szego_rho(G0, 2, z, w, CTX, n_theta=200).value
            v2 = szego_rho(G0, 2, z, w, CTX, n_theta=400).value
            assert abs(v1 - v2) < mp.mpf("1e-10")


def test_s_x0_normalization_and_cut_identity():
    with CTX.workprec():
        big = mp.mpf(10) ** 10
        assert abs(s_x0(G0, big, G0.alpha1, CTX) - 1) < mp.mpf("1e-8")
        x, x0 = mp.mpf("1.5"), mp.mpf(-2)
        sp = s_x0(G0, x, x0, CTX, side=+1)
        phi0 = phi_map(x0, *I2)
        assert abs(abs(sp) ** 2 * (x - x0) + phi0) < mp.mpf("1e-10")
        z = mp.mpc("0.2", "0.8")
        assert abs(s_x0(G0, z, x0, CTX) - mp.conj(s_x0(G0, mp.conj(z), x0, CTX))) < mp.mpf("1e-40")
    with pytest.raises(DomainError):
        s_x0(G0, mp.mpf(4), mp.mpf("1.5"), CTX)


def test_predictor_monic_normalization():
    with CTX.workprec():
        n = MultiIndex(2, 5)
        z = mp.mpf(10) ** 6
        pred = marginal_predict(n, z, W2, G0, CTX)
        assert abs(pred / z ** n.norm - 1) < mp.mpf("1e-4")


def test_predictor_reduces_to_single_interval_formula():
    with CTX.workprec():
        n = MultiIndex(0, 6)
        z = mp.mpf(4)
        pred = marginal_predict(n, z, W2, G0, CTX)
        se = szego_rho(G0, 2, z, W2, CTX)
        ref = (se.value / se.at_infinity) * phi_map(z, *I2) ** 6
        assert abs(pred - ref) < mp.mpf("1e-40")


def test_ratio_report_improves_along_marginal_ray():
    system = AngelescoSystem(G0, lebesgue_weights(), PrecisionContext(512))
    rows = ratio_report(system, [(1, 10), (1, 20), (1, 40)], 4)
    errs = [r["abs_err"] for r in rows]
    assert errs[2] < errs[0]
    text = ratio_report_csv(rows)
    assert text.splitlines()[0] == "n1,n2,z_re,z_im,ratio_re,ratio_im,abs_err"
    assert len(text.splitlines()) == 4


def test_ratio_report_rows_equal_per_row_predictions():
    # the report computes the n-independent factors once; each row must still
    # equal P_n(z) / marginal_predict(n, z) bit for bit, at real and complex z
    system = AngelescoSystem(G0, lebesgue_weights(), CTX)
    for z in (4, mp.mpc("0.5", "1.5")):
        ns = [(1, 3), (2, 5), (0, 4)]
        rows = ratio_report(system, ns, z, n_theta=64)
        with CTX.workprec():
            zc = mp.mpc(z)
            for n, row in zip(ns, rows):
                pred = marginal_predict(MultiIndex(*n), zc, W2, G0, CTX, n_theta=64)
                ratio = system.p_value(n, zc) / pred
                assert (row["ratio_re"], row["ratio_im"]) == (ratio.real, ratio.imag)
                assert row["abs_err"] == abs(ratio - 1)
