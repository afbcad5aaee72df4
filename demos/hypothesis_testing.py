"""Testing a location parameter when error means are ambiguous.

Observations are x_i = theta + y_i with error means anywhere in
[-kappa, kappa] and known variance.  The acceptance interval is calibrated
so the worst-case limiting coverage is 1 - alpha; this script shows how the
interval responds to ambiguity, traces the wrong-acceptance curve, picks the
optimal (one-sided) interval for a known alternative, and simulates
finite-sample size and power under adversarial drift policies.
"""

import numpy as np

from ambiclt import (
    SwitchRule,
    TestSpec,
    ThetaSet,
    calibrate_interval,
    coin_example,
    optimize_ab,
    size_power_simulation,
    test_decision,
    validate_measure_set,
    wrong_acceptance,
)
from ambiclt.measures import DiscreteMeasure, MeasureSet
from ambiclt.worst_case import builtin_policies

print("calibrated symmetric intervals at level alpha = 0.05:")
print(f"{'kappa':>7} {'b':>10} {'coverage':>10}")
for kappa in (0.0, 0.1, 0.2, 0.3):
    spec = TestSpec(kappa=kappa, sigma=1.0, alpha=0.05)
    a, b = calibrate_interval(spec)
    print(f"{kappa:7.2f} {b:10.6f} {wrong_acceptance(spec, a, b, 0.0):10.6f}")
print("(more ambiguity lets the worst case steer mass into the interval,")
print(" so the calibrated endpoints tighten)\n")

spec = TestSpec(kappa=0.3, sigma=0.9, alpha=0.05)
a, b = calibrate_interval(spec)
print(f"kappa=0.3 interval: [{a:.4f}, {b:.4f}]")
print("worst-case probability of wrongly accepting theta0 at offset xi:")
for xi in (0.0, 0.5, 1.0, 2.0, 3.0):
    print(f"  xi={xi:3.1f}: {wrong_acceptance(spec, a, b, xi):.6f}")

print("\ninterval selection against a known alternative xi = 1:")
spec1 = TestSpec(kappa=0.0, sigma=1.0, alpha=0.05)
a_sym, b_sym = calibrate_interval(spec1)
a_opt, b_opt, obj = optimize_ab(spec1, 1.0)
print(f"  symmetric choice [{a_sym:.3f}, {b_sym:.3f}]: wrong acceptance "
      f"{wrong_acceptance(spec1, a_sym, b_sym, 1.0):.6f}")
print(f"  optimal    [{a_opt:.3f}, {b_opt:.3f}]: wrong acceptance {obj:.6f}")
print("  (the optimum is the one-sided test (-inf, z_(1-alpha) - kappa], of")
print("   wrong acceptance Phi(z_(1-alpha) - xi) whatever kappa is)\n")

print("decision rule on the acceptance region [M_n - b, M_n - a]:")
for m_n, kind, theta in [(0.3, "point", ThetaSet.point(0.0)),
                         (2.5, "point", ThetaSet.point(0.0)),
                         (2.5, "interval", ThetaSet.closed_interval(0.0, 1.0))]:
    print(f"  M_n={m_n:4.1f}, theta set {kind:8s}: "
          f"{test_decision(m_n, a_sym, b_sym, theta)}")

print("\nfinite-sample size at n = 400 (unambiguous +-1 errors):")
errors = MeasureSet((DiscreteMeasure((1, -1), ("1/2", "1/2")),))
spec0 = TestSpec(kappa=0.0, sigma=1.0, alpha=0.05)
a0, b0 = calibrate_interval(spec0)
rate, stderr = size_power_simulation(errors, spec0, a0, b0, theta_true=0.0,
                                     n=400, paths=20_000, seed=2026)
print(f"  accept rate {rate:.4f} +-{stderr:.4f} (nominal 0.95; the sample-"
      "average term")
print("   inflates the finite-n spread, so the size runs slightly under)\n")

print("power at theta0 + xi, ambiguous coin errors, adversarial policies:")
L = coin_example("3/5", "3/10")
iv = validate_measure_set(L)
speck = TestSpec(kappa=0.3, sigma=0.9, alpha=0.05)
ak, bk = calibrate_interval(speck)
rule = SwitchRule((ak + bk) / 2.0, iv)
for xi in (0.0, 1.0, 2.0):
    rates = []
    for k, pol in enumerate(builtin_policies(L, rule)):
        r, _ = size_power_simulation(L, speck, ak, bk, theta_true=xi,
                                     n=400, paths=4_000, seed=50 + k, policy=pol)
        rates.append(r)
    limit = wrong_acceptance(speck, ak, bk, xi)
    print(f"  xi={xi:3.1f}: max accept rate over policies {max(rates):.4f}"
          f"  (limiting worst case {limit:.4f})")
