#!/usr/bin/env python3
"""Encoding and error-resilient reconstruction, step by step.

Encodes a six-symbol message across six nodes, lets one node lie about its
content, and shows test-group decoding finding the consistent answer.
"""

import random

from baercode.adversary import LIAR, AdversaryPolicy, corrupt_storage
from baercode.encoder import build_data_matrix, encode_all, extract_message
from baercode.galois import Field
from baercode.params import CodeParams, validate
from baercode.reconstruct import reconstruct_estimate, testgroup_reconstruct


def main():
    code = validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=6))
    fld = Field(17)
    rng = random.Random(2026)
    message = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    print(f"message ({code.f_mbr} symbols over GF({fld.p})):", list(message))

    blocks = build_data_matrix(message, code, fld)
    print(f"\nmessage matrix: {code.z} symmetric diagonal blocks of size {code.lam}")
    for i, blk in enumerate(blocks, 1):
        print(f"  block {i}: {blk.tolist()}")
    assert extract_message(blocks, code) == message

    shares = encode_all(blocks, code, fld)
    print("\nper-node shares x = psi . M (evaluation point e = g^node):")
    for s in shares:
        print(f"  node {s.index} (e={fld.point(s.index):2d}): {list(s.x)}")

    print(f"\nany {code.kappa} honest share(s) already determine the message:")
    print("  from node 2 alone:", list(reconstruct_estimate([shares[1]], code, fld)))

    print("\nnow node 4 colludes with itself: stores shares of a fake message")
    policy = AdversaryPolicy(controlled=(4,), strategy=LIAR, seed=9)
    view = corrupt_storage(policy, {s.index: s for s in shares}, code, fld)
    print(f"  node 4 now serves: {list(view[4].x)}")

    access = [view[2], view[4], view[6]]
    print("\ncollector reads k=3 nodes {2, 4, 6} and scans test-groups of size k-b=2;")
    print("estimates inside each group must agree on the full message matrix:")
    got = testgroup_reconstruct(access, code, fld)
    print("  decoded:", list(got))
    print("  matches original:", got == message)


if __name__ == "__main__":
    main()
