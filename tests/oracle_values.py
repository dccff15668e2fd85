"""Reference values computed independently of the package.

Every constant below was evaluated with mpmath at 50 decimal digits from
first-principles formulas (no package code imported), then frozen here so
the tests compare the implementation against an independent route:

    C(theta)            = 2 G^2 / (2 G^2 + W^2),  G = 1/250 /ps,
                          W = theta/1000 /ps
    theta2(p)           = 2 asin(sqrt(p))
    dephasing           = exp(-1500 ps / 6000 ps)
    visibility(p)       = dephasing * C(theta2(p))
    L2(e; c, w)         = (1 / (1 + (2 (e-c)/w)^2))^2
    leak                = integral of Cauchy(0, 1.3) * max(L2(e; -9.55, 5), 1e-3)
    lambda(p, g)        = p * (1/sqrt(1-g) - 1)

Recompute every constant with ``python3 tests/oracle_mpmath.py``;
``test_oracle_values.py`` checks each one against that script to the digits
stated here.
"""

# spin dephasing factor over one bin separation, exp(-1/4)
DEPHASING = 0.7788007830714049

# coherent fractions at the two standard pulse areas (T1 = 250 ps, tau = 1 ns)
C_HALF_PI = 0.9284134857428272
C_PI = 0.7642775817382079

# dephasing * C(theta2(p)) on the acceptance drive grid
EXPECTED_VISIBILITY = {
    0.1: 0.7688515158440033,
    0.325: 0.744553298761916,
    0.5: 0.7230491497105664,
    0.55: 0.7163008511091004,
    0.775: 0.6802477549321622,
    1.0: 0.5952199791416359,
}

# closed-form state at full drive (p_hole 1): |coh| = 0.5*dephasing*sqrt(C1*C2)
IDEAL_COHERENCE = 0.3280142145582646

# Poisson background rate giving g2(0) = 0.01 for a p = 1/2 photon source
LAMBDA_G2_001_P_HALF = 0.0025189076296060377

# double-pass Lorentzian transmission values (fwhm 5 ueV)
L2_AT_HALF_WIDTH = 0.25
L2_AT_SPLIT = 0.004113145428454615       # 9.55 ueV off center
L2_AT_FULL_SPLIT = 0.0002837081123610587  # 19.1 ueV off center

# incoherent-line leakage through the red recovery filter (Cauchy half-width
# 1.3 ueV, filter at -9.55 ueV, fwhm 5 ueV, floor 1e-3)
INCOHERENT_LEAK = 0.0235414292196

# predicted red-filter channel at full drive, p_hole 1, no stray light
RED_FILTER_EARLY_FRACTION = 0.993257755679
RED_FILTER_TRANSMISSION = 0.468206127404

# same for the blue channel; not a mirror image of red because the late-bin
# pulse area (pi) keeps a smaller coherent fraction than the early one (pi/2)
BLUE_FILTER_LATE_FRACTION = 0.996616357649
BLUE_FILTER_TRANSMISSION = 0.386220243354
