#!/usr/bin/env python3
"""Capacity and repair-bandwidth arithmetic.

Walks the two reference parameter sets and shows how the closed forms fit
together: per-helper bandwidth beta(d), total bandwidth gamma_mbr(d), the
storage capacity f_mbr, and the general capacity bound they both meet.
"""

from fractions import Fraction

from baercode.params import (
    CodeParams,
    capacity_upper_bound,
    err_resilient_bound,
    validate,
)


def show(code, title):
    print(f"== {title}")
    print(f"   n={code.n} k={code.k} D={list(code.d_set)} b={code.b} alpha={code.alpha}")
    print(f"   component blocks: z={code.z} of size lam={code.lam}, "
          f"reconstruction degree kappa={code.kappa}")
    print(f"   storage capacity f_mbr = {code.f_mbr} symbols")
    for d in code.d_set:
        print(f"   repair with d={d}: beta={code.beta_of(d)} symbols/helper, "
              f"gamma={code.gamma_of(d)} total")
    bound = capacity_upper_bound(code, {d: code.gamma_of(d) for d in code.d_set})
    print(f"   capacity bound evaluated at gamma_mbr: {bound} "
          f"({'tight' if bound == code.f_mbr else 'NOT tight?!'})")
    print()


def main():
    adversarial = validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=6))
    show(adversarial, "six nodes, one adversary, adaptive d in {4, 5}")

    plain = validate(CodeParams(n=5, k=2, d_set=(3, 4), b=0, alpha=12))
    show(plain, "five nodes, no adversary, adaptive d in {3, 4}")

    print("== how adversaries tax the classical bound")
    k, d, alpha = 3, 4, 6
    gamma = 12
    print(f"   k={k} d={d} alpha={alpha} gamma={gamma}")
    print(f"   no adversary : capacity <= {err_resilient_bound(k, d, 0, alpha, gamma)}")
    for b in (1,):
        print(f"   b={b} adversary: capacity <= {err_resilient_bound(k, d, b, alpha, gamma)}")
    print()

    print("== doubling gamma cannot push capacity past alpha*(k-2b)")
    doubled = {d: 2 * adversarial.gamma_of(d) for d in adversarial.d_set}
    print(f"   bound at 2*gamma_mbr: {capacity_upper_bound(adversarial, doubled)} "
          f"(alpha*(k-2b) = {adversarial.alpha * adversarial.kappa})")

    print()
    print("== inflating gamma by a non-integer factor still evaluates exactly")
    inflated = {d: Fraction(3, 2) * adversarial.gamma_of(d) for d in adversarial.d_set}
    print(f"   bound at 1.5*gamma_mbr: {capacity_upper_bound(adversarial, inflated)}")


if __name__ == "__main__":
    main()
