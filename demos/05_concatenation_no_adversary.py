#!/usr/bin/env python3
"""Adaptive repair by plain concatenation when nobody lies (b = 0).

Twenty source symbols become four independent component codes; a repair
spreads the per-component work over however many helpers showed up, through
a least-loaded bipartite assignment.  Total traffic is always alpha.
"""

import random

from baercode import repair
from baercode.adversary import AdversaryPolicy
from baercode.concat import assign_bipartite
from baercode.encoder import build_data_matrix, encode_all
from baercode.galois import Field
from baercode.params import CodeParams, validate


def main():
    code = validate(CodeParams(n=5, k=2, d_set=(3, 4), b=0, alpha=12))
    fld = Field(7)
    print(f"n={code.n} k={code.k} D={list(code.d_set)} alpha={code.alpha}: "
          f"{code.z} component codes of block size {code.lam}")

    rng = random.Random(31)
    message = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(message, code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}

    f = 5
    print(f"\nnode {f} fails")

    for helpers in ((1, 2, 3), (1, 2, 3, 4)):
        d = len(helpers)
        a = assign_bipartite(code.z, helpers, code.lam)
        print(f"\n-- d={d}: component -> helper assignment")
        for comp, nb in enumerate(a.neighbors, 1):
            print(f"   component {comp} served by helpers {list(nb)}")
        load = a.helper_load()
        print(f"   per-helper load: { {h: load[h] for h in sorted(load)} } "
              f"(alpha/d = {code.alpha // d})")
        sent, moved = repair.transmit("concat", {h: shares[h] for h in helpers}, f, d,
                                      AdversaryPolicy(), code, fld)
        print(f"   symbols moved: {moved} = alpha = {code.alpha}")
        got = repair.decode("concat", sent, f, d, code, fld)
        print(f"   rebuilt exactly: {got.x == shares[f].x}")

    print("\nconcatenation cannot defend against adversaries; for b > 0 use the")
    print("projection scheme (demo 03) or the iterative scheme (demo 04).")


if __name__ == "__main__":
    main()
