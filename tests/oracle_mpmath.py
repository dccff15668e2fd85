"""Recompute every constant in ``oracle_values.py`` with mpmath at 50 digits.

The formulas are written out from first principles here; nothing is
imported from the package, so the constants stay an independent check of
it.  Run ``python3 tests/oracle_mpmath.py`` to print each constant at 20
significant digits; ``test_oracle_values.py`` checks that every frozen
constant matches these values to the digits it states.

The leakage integral has a kink where the double-pass Lorentzian meets its
floor.  Outside the two kinks the integrand is the floor times the Cauchy
density, which integrates in closed form through the Cauchy CDF; between
them ``mp.quad`` integrates the smooth part, split at the filter centre.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50

T1_PS = mp.mpf(250)
PULSE_PS = mp.mpf(1000)
BIN_SEPARATION_NS = mp.mpf("1.5")
T2_NS = mp.mpf(6)
CAVITY_HWHM_UEV = mp.mpf("1.3")  # half of the 2.6 ueV incoherent line
SPLITTING_UEV = mp.mpf("19.1")
FWHM_UEV = mp.mpf(5)
FLOOR = mp.mpf("1e-3")


def coherent_fraction(theta):
    """C = 2 G^2 / (2 G^2 + W^2) with G = 1/T1 and W = theta / tau_p."""
    g2 = 2 / T1_PS ** 2
    return g2 / (g2 + (theta / PULSE_PS) ** 2)


def theta_for_pgen(p):
    return 2 * mp.asin(mp.sqrt(p))


def double_pass(e, centre):
    """Unit-peak double-pass Lorentzian (no floor)."""
    x = 2 * (e - centre) / FWHM_UEV
    return 1 / (1 + x * x) ** 2


def cauchy_pdf(e):
    return CAVITY_HWHM_UEV / (mp.pi * (e * e + CAVITY_HWHM_UEV ** 2))


def cauchy_cdf(e):
    return mp.mpf("0.5") + mp.atan(e / CAVITY_HWHM_UEV) / mp.pi


def incoherent_leak(centre):
    """Share of the incoherent line, Cauchy(0, 1.3 ueV), that passes the
    double-pass filter at ``centre`` with its 1e-3 floor."""
    half = FWHM_UEV / 2 * mp.sqrt(mp.sqrt(1 / FLOOR) - 1)  # L2 = floor here
    lo, hi = centre - half, centre + half
    tails = FLOOR * (cauchy_cdf(lo) + 1 - cauchy_cdf(hi))
    core = mp.quad(lambda e: cauchy_pdf(e) * double_pass(e, centre),
                   [lo, centre, hi])
    return tails + core


def filter_channel(own_theta, other_theta, own_detuning, other_detuning, centre):
    """(own-bin fraction, transmission) behind a filter at ``centre`` for a
    balanced two-bin source (p_early = p_late = 1/2) whose coherent photons
    sit at their laser's detuning and whose incoherent photons follow the
    cavity line."""
    leak = incoherent_leak(centre)

    def passed(theta, detuning):
        c = coherent_fraction(theta)
        line = max(double_pass(detuning, centre), FLOOR)
        return (c * line + (1 - c) * leak) / 2

    own = passed(own_theta, own_detuning)
    trans = own + passed(other_theta, other_detuning)
    return own / trans, trans


def values() -> dict[str, object]:
    """Every constant of ``oracle_values.py`` as an mpf (or a dict of them)."""
    dephasing = mp.e ** (-BIN_SEPARATION_NS / T2_NS)
    c_half, c_pi = coherent_fraction(mp.pi / 2), coherent_fraction(mp.pi)
    visibility = {p: dephasing * coherent_fraction(theta_for_pgen(mp.mpf(p)))
                  for p in ("0.1", "0.325", "0.5", "0.55", "0.775", "1.0")}
    p, g = mp.mpf("0.5"), mp.mpf("0.01")
    red, blue = -SPLITTING_UEV / 2, SPLITTING_UEV / 2
    red_frac, red_trans = filter_channel(mp.pi / 2, mp.pi, red, blue, red)
    blue_frac, blue_trans = filter_channel(mp.pi, mp.pi / 2, blue, red, blue)
    return {
        "DEPHASING": dephasing,
        "C_HALF_PI": c_half,
        "C_PI": c_pi,
        "EXPECTED_VISIBILITY": {float(k): v for k, v in visibility.items()},
        "IDEAL_COHERENCE": dephasing * mp.sqrt(c_half * c_pi) / 2,
        "LAMBDA_G2_001_P_HALF": p * (1 / mp.sqrt(1 - g) - 1),
        "L2_AT_HALF_WIDTH": double_pass(FWHM_UEV / 2, 0),
        "L2_AT_SPLIT": double_pass(SPLITTING_UEV / 2, 0),
        "L2_AT_FULL_SPLIT": double_pass(SPLITTING_UEV, 0),
        "INCOHERENT_LEAK": incoherent_leak(red),
        "RED_FILTER_EARLY_FRACTION": red_frac,
        "RED_FILTER_TRANSMISSION": red_trans,
        "BLUE_FILTER_LATE_FRACTION": blue_frac,
        "BLUE_FILTER_TRANSMISSION": blue_trans,
    }


if __name__ == "__main__":
    for name, value in values().items():
        if isinstance(value, dict):
            for key, v in value.items():
                print(f"{name}[{key}] = {mp.nstr(v, 20)}")
        else:
            print(f"{name} = {mp.nstr(value, 20)}")
