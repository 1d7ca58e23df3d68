#!/usr/bin/env python3
"""Merge-based repair over a small field (scheme 2).

With alpha=12 and d=5 the lost share is split into segments that helpers
merge pairwise through the overlap-add operator in a first round, then
project plainly in a second.  Every round symbol is linear in the helper's
share, so a helper sends one flat payload x_h @ C(h, f), its rounds end to
end, for one closed-form matrix C(h, f), and a subset of d-2b helpers gives
one square system for the lost share.  The prime search shows which small
fields solve every such system.
"""

import random

from baercode import adversary as adv
from baercode.encoder import build_data_matrix, encode_all
from baercode.params import CodeParams, schedule_scheme2, validate
from baercode.repair2 import (
    _stream_cols,
    find_field_scheme2,
    helper_stream,
    repair_estimate,
    testgroup_repair2,
)


def main():
    code = validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=12))
    search = find_field_scheme2(code)
    fld = search.field
    print(f"rejected primes {list(search.rejected)}; {search.report.summary()}")

    d = 5
    plan = schedule_scheme2(code, d)
    print(f"\nschedule for d={d}: segments of xi={plan.xi}, zeta={plan.zeta} segments")
    for it in plan.iterations:
        print(f"  iteration {it.j}: tau={it.tau} mu={it.mu} sigma={it.sigma} "
              f"-> {it.n_groups} groups of {it.group_size}: {list(it.groups)}")
    print(f"per-helper total: {sum(it.n_groups for it in plan.iterations)} symbols "
          f"(beta({d}) = {code.beta_of(d)})")

    rng = random.Random(99)
    message = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(message, code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}

    f, h = 6, 2
    cols = _stream_cols(plan, fld, h, f)
    flat = helper_stream(shares[h], plan, f, fld)
    assert flat == tuple(sum(x * c for x, c in zip(shares[h].x, col)) % fld.p for col in cols)
    symbols = iter(flat)                # the rounds are framing: one symbol per group
    rounds = [[next(symbols) for _ in range(it.n_groups)] for it in plan.iterations]
    print(f"\nnode {f} fails; helper {h} holds {list(shares[h].x)}")
    print(f"  C({h}, {f}) has {len(cols)} columns, one per (round, group)")
    print(f"  x_{h} @ C({h}, {f}) = {list(flat)}, sent as rounds {[list(r) for r in rounds]}")

    subset = (1, 2, 3)
    streams = {i: helper_stream(shares[i], plan, f, fld) for i in range(1, d + 1)}
    got = repair_estimate(streams, subset, f, plan, fld)
    assert got == shares[f].x
    print(f"\nhelper subset {list(subset)} solves its square system:")
    print(f"  rebuilt share {list(got)}, exact")

    # A consistent liar sends honest rounds computed from a fake share.
    policy = adv.AdversaryPolicy((4,), adv.LIAR, 7)
    sent = {i: helper_stream(policy.effective_share(shares[i], code, fld), plan, f, fld)
            for i in range(1, d + 1)}
    assert sent[4] != streams[4]
    got = testgroup_repair2(sent, f, plan, fld)
    assert got == shares[f].x
    print(f"\nd={d} helpers, helper 4 lying: the test-group scan still rebuilds {list(got)}, exact")


if __name__ == "__main__":
    main()
