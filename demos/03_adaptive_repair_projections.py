#!/usr/bin/env python3
"""Adaptive repair via compressed projections (scheme 1).

The same stored shares support repair from d=4 helpers at 12 symbols total
or d=5 helpers at 10 symbols total; more helpers, less traffic.  The field
is certified up front by exhaustively checking every decode matrix, and a
lying helper is caught by test-group consistency.
"""

import random

from baercode import repair, repair1
from baercode.adversary import RANDOM, AdversaryPolicy, corrupt_repair_symbols
from baercode.encoder import build_data_matrix, encode_all
from baercode.params import CodeParams, validate


def main():
    code = validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=6))

    print("searching for the smallest certified prime (every Theta invertible):")
    search = repair1.find_field(code)
    for p in search.rejected:
        print(f"  GF({p}): rejected")
    print(f"  {search.report.summary()}")
    fld = search.field
    cfg = repair1.omega_build(code, fld)

    rng = random.Random(7)
    message = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(message, code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}

    f = 1
    print(f"\nnode {f} fails; its lost share is {list(shares[f].x)}")

    for d, helpers in ((4, (2, 3, 4, 5)), (5, (2, 3, 4, 5, 6))):
        print(f"\n-- repair with d={d} helpers {list(helpers)}")
        syms = {h: repair1.helper_repair_symbols(shares[h], f, d, cfg) for h in helpers}
        for h in helpers:
            print(f"   helper {h} sends {list(syms[h])}  ({len(syms[h])} symbols)")
        total = sum(len(v) for v in syms.values())
        print(f"   total traffic {total} = gamma_mbr({d}) = {code.gamma_of(d)}")
        got = repair1.testgroup_repair(syms, f, d, cfg)
        print(f"   rebuilt exactly: {got == shares[f].x}")

    print("\n-- same d=5 repair, but helper 3 replaces its symbols with noise")
    d, helpers = 5, (2, 3, 4, 5, 6)
    policy = AdversaryPolicy(controlled=(3,), strategy=RANDOM, seed=13)
    syms = {}
    for h in helpers:
        stored = policy.effective_share(shares[h], code, fld)
        vec = repair1.helper_repair_symbols(stored, f, d, cfg)
        syms[h] = corrupt_repair_symbols(policy, h, vec, fld)
    print(f"   helper 3 actually sent {list(syms[3])}")
    got = repair1.testgroup_repair(syms, f, d, cfg)
    print(f"   test-group decoding still rebuilt exactly: {got == shares[f].x}")

    print("\nwire record for helper 2 (scheme-1 repair format):")
    print(repair.format_records("1", 2, f, d, syms[2], code), end="")


if __name__ == "__main__":
    main()
