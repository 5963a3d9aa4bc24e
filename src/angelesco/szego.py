"""Single-interval Szego machinery and the fully-marginal predictor.

The Szego function of an analytic positive density rho on [a, b] is built
from two pieces: a quadrature of the smooth part of log(rho |w_+|) against
the Cauchy kernel (after the substitution x = midpoint + halflength cos
theta, which absorbs the edge singularity exactly), and a closed form for
the log-sin part, exp(-(w/2pi) I) with I = -(pi/w) log(2 phi / w).
Boundary values use the Glauert principal value (the PV of the bare kernel
over the angle variable vanishes) plus the explicit half-residue.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError
from .mops import MultiIndex
from .szego_maps import phi_map, w_map


@dataclass(frozen=True)
class SzegoEval:
    interval: int
    value: mp.mpc
    at_infinity: mp.mpc


def _log_density(weight, x):
    """log(2 pi mu'(x) * halflength) split off the log-sin part upstream."""
    return mp.log(2 * mp.pi * weight.density(x))


def szego_rho(geometry, i, z, weight, ctx, n_theta=256, side=0):
    """Szego function of the density of measure i, holomorphic off its interval.

    Characterized by S_+ S_- rho w_+ = 1 on the open interval together with
    fourth-root blowup at the endpoints; all integrands are kept real by
    using the positivity of (rho w_+).
    """
    if weight.interval != i:
        raise ValueError("weight does not belong to interval i")
    with ctx.workprec():
        a, b = geometry.interval(i)
        half = (b - a) / 2
        mid = (b + a) / 2
        zc = mp.mpc(z)
        on_axis = zc.imag == 0
        near = abs(zc.imag) < (b - a) * mp.mpf("1e-3") and a < zc.real < b
        if on_axis and a <= zc.real <= b and side == 0:
            raise DomainError("on-cut evaluation needs a side flag")
        # midpoint rule in theta (Gauss-Chebyshev in x): the integrands are
        # smooth, even and 2 pi-periodic in theta, so it is spectrally accurate
        h = mp.pi / n_theta
        xs = [mid + half * mp.cos((k + mp.mpf(1) / 2) * h) for k in range(n_theta)]
        fs = [_log_density(weight, x) + mp.log(half) for x in xs]
        s_inf = mp.exp(-(h * mp.fsum(fs) - mp.pi * mp.log(2)) / (2 * mp.pi))
        if near or (on_axis and a < zc.real < b):
            x0 = zc.real
            use_side = side if side else (1 if zc.imag > 0 else -1)
            th0 = mp.acos((x0 - mid) / half)
            f0 = _log_density(weight, x0) + mp.log(half)
            # PV of the bare kernel over theta vanishes, so subtract f(th0);
            # the pole crosses below the contour, hence the minus half-residue
            pv = mp.fsum((f - f0) / (x0 - x) for f, x in zip(fs, xs)) * h
            J = pv - mp.mpc(0, use_side) * mp.pi * f0 / (half * mp.sin(th0))
            wv = w_map(x0, a, b, side=use_side)
            phv = phi_map(x0, a, b, side=use_side)
            I = -(mp.pi / wv) * mp.log(2 * phv / wv)
            return SzegoEval(i, mp.exp(-(wv / (2 * mp.pi)) * (J + I)), s_inf)
        J = mp.fsum(f / (zc - x) for f, x in zip(fs, xs)) * h
        wv = w_map(zc, a, b)
        phv = phi_map(zc, a, b)
        I = -(mp.pi / wv) * mp.log(2 * phv / wv)
        val = mp.exp(-(wv / (2 * mp.pi)) * (J + I))
        return SzegoEval(i, val, s_inf)


def s_x0(geometry, z, x0, ctx, side=0):
    """The closed-form Szego factor attached to a first-interval zero at x0.

    Normalized to 1 at infinity; on the second interval its boundary modulus
    satisfies |S_+-|^2 = -phi_2(x0) / (x - x0).
    """
    with ctx.workprec():
        a, b = geometry.interval(2)
        x0 = mp.mpf(x0)
        if a <= x0 <= b:
            raise DomainError("x0 must lie outside the second interval")
        zc = mp.mpc(z)
        if zc.imag == 0 and a <= zc.real <= b and side == 0:
            raise DomainError("on-cut evaluation needs a side flag")
        A02 = ((b - a) / 4) ** 2
        ph0 = phi_map(x0, a, b)
        ph = phi_map(zc.real if zc.imag == 0 else zc, a, b, side=side)
        expr = ((ph - ph0) / (ph0 * ph - A02)) * (ph0 * ph / (zc - x0))
        val = mp.sqrt(expr)
        # branch: the expression tends to 1 at infinity and stays off the
        # negative reals for the evaluation regions used here
        if mp.re(val) < 0:
            val = -val
        return val


def _marginal_factors(z, weight2, geometry, ctx, n_theta):
    """The n-independent factors of `marginal_predict` at z: the normalized
    Szego ratio S_rho2(z)/S_rho2(inf), S(z; alpha1), z - alpha1 and phi_2(z)."""
    a2, b2 = geometry.interval(2)
    zc = mp.mpc(z)
    if zc.imag == 0 and (a2 <= zc.real <= b2 or zc.real == geometry.alpha1):
        raise DomainError("evaluation point must avoid the second interval "
                          "and the collapsed first support")
    se = szego_rho(geometry, 2, z, weight2, ctx, n_theta=n_theta)
    return (se.value / se.at_infinity, s_x0(geometry, z, geometry.alpha1, ctx),
            zc - geometry.alpha1, phi_map(zc, a2, b2))


def _predict(factors, n):
    ratio, sfac, shift, phi2 = factors
    return ratio * sfac ** n.n1 * shift ** n.n1 * phi2 ** n.n2


def marginal_predict(n, z, weight2, geometry, ctx, n_theta=256):
    """Size prediction for the monic polynomial along a thin-first-component ray.

    (S_rho2(z)/S_rho2(inf)) * S(z; alpha1)^n1 * (z - alpha1)^n1 * phi_2(z)^n2,
    each factor normalized so the product behaves like z^|n| at infinity.
    """
    with ctx.workprec():
        return _predict(_marginal_factors(z, weight2, geometry, ctx, n_theta), n)


def ratio_report(system, n_list, z, n_theta=256):
    """|P_n(z)/prediction| rows for a list of multi-indices, with P_n(z)
    walked along the recurrence (``AngelescoSystem.p_value``). The
    prediction's n-independent factors are computed once per call."""
    rows = []
    ctx = system.ctx
    with ctx.workprec():
        zc = mp.mpc(z)
        factors = _marginal_factors(zc, system.weights[1], system.geometry, ctx, n_theta)
        for n in n_list:
            n = MultiIndex.of(n)
            ratio = system.p_value(n, zc) / _predict(factors, n)
            rows.append({
                "n1": n.n1,
                "n2": n.n2,
                "z_re": zc.real,
                "z_im": zc.imag,
                "ratio_re": ratio.real,
                "ratio_im": ratio.imag,
                "abs_err": abs(ratio - 1),
            })
    return rows


def ratio_report_csv(rows, digits=20):
    header = "n1,n2,z_re,z_im,ratio_re,ratio_im,abs_err"
    lines = [header]
    for r in rows:
        lines.append(",".join([str(r["n1"]), str(r["n2"])] +
                              [mp.nstr(r[k], digits) for k in
                               ("z_re", "z_im", "ratio_re", "ratio_im", "abs_err")]))
    return "\n".join(lines) + "\n"
