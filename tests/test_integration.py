"""Cross-scheme integration at a parameter corner: k == d_min.

With k == d_min (and b == 0 here) the component blocks are fully dense
symmetric matrices: kappa == lam, so the L part of each block is empty.
Every pipeline must handle the zero-width region.
"""

import random
from itertools import combinations

from baercode import repair, repair1, repair2
from baercode.adversary import AdversaryPolicy
from baercode.encoder import build_data_matrix, encode_all, extract_message
from baercode.params import CodeParams, schedule_scheme2, validate
from baercode.reconstruct import testgroup_reconstruct as tg_reconstruct


CODE = validate(CodeParams(n=5, k=3, d_set=(3, 4), b=0, alpha=12))


def test_dense_block_shape():
    assert CODE.lam == CODE.kappa == 3
    assert CODE.z == 4
    # per block: 3*4/2 = 6 symbols, no rectangular part
    assert CODE.f_mbr == 24


def test_round_trip_and_reconstruction():
    fld = repair1.find_field(CODE).field
    rng = random.Random(51)
    msg = tuple(rng.randrange(fld.p) for _ in range(CODE.f_mbr))
    dm = build_data_matrix(msg, CODE, fld)
    assert all(blk.shape == (3, 3) for blk in dm.blocks)
    assert extract_message(dm) == msg
    shares = encode_all(dm, CODE, fld)
    for access in combinations(shares, 3):
        assert tg_reconstruct(list(access), CODE, fld) == msg


def test_all_three_repair_paths():
    fld = repair1.find_field(CODE).field
    cfg = repair1.omega_build(CODE, fld)
    rng = random.Random(52)
    msg = tuple(rng.randrange(fld.p) for _ in range(CODE.f_mbr))
    dm = build_data_matrix(msg, CODE, fld)
    shares = {s.index: s for s in encode_all(dm, CODE, fld)}
    f = 2
    helpers4 = (1, 3, 4, 5)

    syms = {h: repair1.helper_repair_symbols(shares[h], f, 4, cfg) for h in helpers4}
    assert repair1.testgroup_repair(syms, f, 4, cfg) == shares[f].x

    sent, _ = repair.transmit("concat", {h: shares[h] for h in helpers4}, f, 4,
                              AdversaryPolicy(), CODE, fld)
    assert repair.decode("concat", sent, f, 4, CODE, fld).x == shares[f].x

    fld2, report, _ = repair2.find_field_scheme2(CODE)
    assert report.ok
    msg2 = tuple(rng.randrange(fld2.p) for _ in range(CODE.f_mbr))
    shares2 = {
        s.index: s
        for s in encode_all(build_data_matrix(msg2, CODE, fld2), CODE, fld2)
    }
    for d in (3, 4):
        plan = schedule_scheme2(CODE, d)
        streams = {
            h: repair2.helper_stream(shares2[h], plan, f, fld2)
            for h in helpers4[:d]
        }
        assert repair2.testgroup_repair2(streams, f, plan, fld2) == shares2[f].x
