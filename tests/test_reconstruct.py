import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from baercode import adversary as adv
from baercode import encoder, reconstruct
from baercode.encoder import NodeShare, build_data_matrix, encode_all
from baercode.errors import BaerCodeError, NoConsistentGroupError, StructureViolationError
from baercode.galois import Field, Mat
from baercode.params import CodeParams, validate
from baercode.reconstruct import (
    pm_reconstruct_component,
    reconstruct_estimate,
    testgroup_reconstruct as tg_reconstruct,
)
from baercode.repair1 import group_decoder

from reference_scan import (
    MALFORMED,
    first_consistent,
    decoder_rows,
    reference_reconstruct,
    transpose,
    unit_message_node_block,
)

F17 = Field(17)


def garble(share, rng, p):
    return NodeShare(index=share.index, x=tuple(rng.randrange(p) for _ in share.x))


def test_component_recovery_single_row(ex3_code):
    # kappa=1, lam=2: y = [s1 + e*s2, s2] recovers [[s1, s2], [s2, 0]] by hand:
    # L is the right column, N the left minus Delta @ L^T.
    p, g = F17.p, F17.g
    s1, s2 = 9, 13
    e = pow(g, 1, p)
    y = ((s1 + e * s2) % p, s2)
    blk = pm_reconstruct_component([(e, y)], F17, lam=2, kappa=1)
    assert blk.tolist() == [[s1, s2], [s2, 0]]


def test_component_zero_segments(ex3_code):
    blk = pm_reconstruct_component([(3, (0, 0))], F17, lam=2, kappa=1)
    assert blk.tolist() == [[0, 0], [0, 0]]


def test_component_matches_built_blocks(ex3_code, ex1_code):
    rng = random.Random(31)
    for code, fld in ((ex3_code, F17), (ex1_code, Field(7))):
        msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
        blocks = build_data_matrix(msg, code, fld)
        shares = encode_all(blocks, code, fld)
        for subset in combinations(shares, code.kappa):
            for i in range(1, code.z + 1):
                segs = []
                for sh in subset:
                    e = fld.point(sh.index)
                    scale = pow(e, -(i - 1) * code.lam, fld.p)
                    seg = sh.x[(i - 1) * code.lam : i * code.lam]
                    segs.append((e, [v * scale % fld.p for v in seg]))
                got = pm_reconstruct_component(segs, fld, code.lam, code.kappa)
                assert got == blocks[i - 1]


def test_estimate_every_singleton_subset(ex3_code):
    rng = random.Random(12)
    msg = tuple(rng.randrange(17) for _ in range(6))
    shares = encode_all(build_data_matrix(msg, ex3_code, F17), ex3_code, F17)
    for access in combinations(shares, 3):
        for sub in combinations(access, ex3_code.kappa):
            assert reconstruct_estimate(list(sub), ex3_code, F17) == msg


def test_estimate_zero_cluster(ex3_code):
    shares = encode_all(build_data_matrix([0] * 6, ex3_code, F17), ex3_code, F17)
    assert reconstruct_estimate([shares[0]], ex3_code, F17) == (0,) * 6


def test_corrupted_estimate_differs(ex3_code):
    rng = random.Random(13)
    msg = tuple(rng.randrange(17) for _ in range(6))
    shares = encode_all(build_data_matrix(msg, ex3_code, F17), ex3_code, F17)
    bad = garble(shares[0], rng, 17)
    try:
        est = reconstruct_estimate([bad], ex3_code, F17)
        assert est != msg
    except StructureViolationError:
        pass   # malformed counts as non-matching at the verdict level


def test_testgroup_honest(ex3_code, ex1_code):
    rng = random.Random(14)
    for code, fld in ((ex3_code, F17), (ex1_code, Field(11))):
        msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
        shares = encode_all(build_data_matrix(msg, code, fld), code, fld)
        for access in combinations(shares, code.k):
            assert tg_reconstruct(list(access), code, fld) == msg


def test_testgroup_single_corruption_sweep(ex3_code):
    rng = random.Random(15)
    msg = tuple(rng.randrange(17) for _ in range(6))
    shares = encode_all(build_data_matrix(msg, ex3_code, F17), ex3_code, F17)
    for access in combinations(shares, 3):
        for victim in range(3):
            for _ in range(5):
                mutated = list(access)
                mutated[victim] = garble(access[victim], rng, 17)
                assert tg_reconstruct(mutated, ex3_code, F17) == msg


def test_two_colluders_void_the_guarantee(ex3_code):
    # b+1 = 2 nodes encode a common fake message; no guarantee is asserted,
    # only that the decoder does not crash in an uncontrolled way.
    rng = random.Random(16)
    msg = tuple(rng.randrange(17) for _ in range(6))
    fake = tuple(rng.randrange(17) for _ in range(6))
    shares = encode_all(build_data_matrix(msg, ex3_code, F17), ex3_code, F17)
    liars = encode_all(build_data_matrix(fake, ex3_code, F17), ex3_code, F17)
    access = [liars[0], liars[1], shares[2]]
    try:
        got = tg_reconstruct(access, ex3_code, F17)
        assert got in (msg, fake)
    except NoConsistentGroupError:
        pass


def test_malformed_sentinel_never_equal():
    assert MALFORMED != MALFORMED
    assert not (MALFORMED == ())
    assert MALFORMED != ()


def test_access_set_validation(ex3_code):
    rng = random.Random(17)
    msg = tuple(rng.randrange(17) for _ in range(6))
    shares = encode_all(build_data_matrix(msg, ex3_code, F17), ex3_code, F17)
    with pytest.raises(StructureViolationError):
        tg_reconstruct(shares[:2], ex3_code, F17)
    with pytest.raises(StructureViolationError):
        tg_reconstruct([shares[0], shares[0], shares[1]], ex3_code, F17)


@pytest.mark.parametrize("index", [0, 7])
def test_access_set_with_a_node_outside_1_to_n_is_refused(ex3_code, index):
    shares = encode_all(build_data_matrix([1] * 6, ex3_code, F17), ex3_code, F17)
    stray = NodeShare(index=index, x=shares[0].x)
    with pytest.raises(StructureViolationError, match="^access set references unknown nodes$"):
        tg_reconstruct([stray, shares[1], shares[2]], ex3_code, F17)


# -- malformed share lengths ------------------------------------------------

MID = validate(CodeParams(n=10, k=4, d_set=(6, 7), b=1, alpha=20))
F23 = Field(23)


def mid_access(seed):
    rng = random.Random(seed)
    msg = tuple(rng.randrange(23) for _ in range(MID.f_mbr))
    shares = encode_all(build_data_matrix(msg, MID, F23), MID, F23)
    return msg, rng.sample(shares, MID.k)


def resize(share, length):
    x = (share.x + share.x)[:length]
    return NodeShare(index=share.index, x=x)


@pytest.mark.parametrize("length", [19, 21, 0, 40])
def test_wrong_length_share_on_first_node_is_absorbed(length):
    for seed in range(4):
        msg, access = mid_access(seed)
        access.sort(key=lambda s: s.index)
        access[0] = resize(access[0], length)
        assert tg_reconstruct(access, MID, F23) == msg


def chunk_by_chunk_stripped(share, lam, field):
    """Each lam-symbol chunk scaled by the running power e^(-lam*i), as
    reconstruct._stripped computed it before its scales were cached."""
    p = field.p
    step = pow(field.point(share.index), -lam, p)
    out, scale = [], 1
    for off in range(0, len(share.x), lam):
        out.extend(v * scale % p for v in share.x[off : off + lam])
        scale = scale * step % p
    return out


@pytest.mark.parametrize("length", [0, 1, 19, 20])
def test_stripped_matches_chunk_by_chunk_scaling(length):
    for seed in range(3):
        _, access = mid_access(seed)
        for sh in access:
            share = NodeShare(index=sh.index, x=(sh.x * 3)[:length])
            assert (reconstruct._stripped(share, MID, F23)
                    == chunk_by_chunk_stripped(share, MID.lam, F23))


def test_overlong_share_is_a_lie_and_caches_no_long_scales(monkeypatch):
    """A liar's share of 100,020 symbols is not stripped: the message is
    unchanged and no stripping scales longer than alpha are built."""
    built, cached = [], reconstruct._scales

    def scales(*args):
        out = cached(*args)
        built.append(len(out))
        return out

    monkeypatch.setattr(reconstruct, "_scales", scales)
    for seed in range(3):
        msg, access = mid_access(seed)
        access[0] = NodeShare(index=access[0].index, x=access[0].x * 5001)
        assert tg_reconstruct(access, MID, F23) == msg
    assert built and max(built) == MID.alpha


def test_wrong_length_share_fails_its_estimates():
    msg, access = mid_access(5)
    with pytest.raises(StructureViolationError):
        reconstruct_estimate([resize(access[0], 19), access[1]], MID, F23)
    with pytest.raises(StructureViolationError):
        reconstruct_estimate([resize(access[0], 21), access[1]], MID, F23)


@pytest.mark.parametrize("shift", [23, -23])
def test_out_of_range_share_is_a_lie(shift):
    """A share holding a symbol outside range(p), though equal to the honest
    share mod p, is a lie: b of them are absorbed, b+1 are not."""
    for seed in range(3):
        msg, access = mid_access(seed)
        access.sort(key=lambda s: s.index)
        bad = [NodeShare(sh.index, (sh.x[0] + shift,) + sh.x[1:]) for sh in access]
        assert tg_reconstruct(bad[:1] + access[1:], MID, F23) == msg
        with pytest.raises(NoConsistentGroupError):
            tg_reconstruct(bad[:2] + access[2:], MID, F23)


def test_honest_decode_builds_one_group_decoder(monkeypatch):
    # An honest decode accepts the first group from its one stacked decoder,
    # built from k-b node blocks, with no per-subset estimate; the blocks are
    # built in closed form, with no data matrix.
    msg, access = mid_access(7)
    calls = []
    monkeypatch.setattr(reconstruct, "pm_reconstruct_component", lambda *a: calls.append(a))
    monkeypatch.setattr(reconstruct, "extract_message", lambda *a: calls.append(a))
    for mod in (encoder, reconstruct):
        monkeypatch.setattr(mod, "build_data_matrix", lambda *a: calls.append(a), raising=False)
    group_decoder.cache_clear()
    reconstruct._node_block.cache_clear()
    assert tg_reconstruct(access, MID, F23) == msg
    assert group_decoder.cache_info().misses == 1
    assert reconstruct._node_block.cache_info().misses == MID.k - MID.b
    assert calls == []


@pytest.mark.parametrize("liar, calls", [
    ("differs", [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
                 (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]),
    ("raises", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]),
])
def test_first_consistent_leaves_a_group_at_its_first_bad_estimate(liar, calls):
    # Key 1 lies and sits in the first group; each group is left at its first
    # estimate that is malformed or differs, and (2, 3, 4, 5) is accepted.
    made = []

    def estimate(subset):
        made.append(subset)
        if 1 not in subset:
            return "x"
        if liar == "raises":
            raise StructureViolationError("lie")
        return ("lie", subset)

    found = first_consistent([1, 2, 3, 4, 5], 4, 3, estimate, StructureViolationError)
    assert found == "x" and made == calls


def test_two_malformed_shares_exceed_b():
    msg, access = mid_access(6)
    access[0] = resize(access[0], 19)
    access[2] = resize(access[2], 21)
    with pytest.raises(NoConsistentGroupError):
        tg_reconstruct(access, MID, F23)


def test_component_rejects_partial_blocks():
    with pytest.raises(BaerCodeError,
                       match=re.escape("segments of 3 symbols, not a multiple of lam=2")):
        pm_reconstruct_component([(3, (1, 2, 3))], F17, lam=2, kappa=1)


# -- all z blocks at once against the per-block algorithm -------------------

def reference_component(segments, field, lam, kappa):
    """One lam x lam block the textbook way, with its own Phi inverse: the
    oracle for the side-by-side kernel."""
    psi = Mat.vandermonde(field, [e for e, _ in segments], lam)
    y = Mat(field, [list(seg) for _, seg in segments], cols=lam)
    phi = Mat(field, [row[:kappa] for row in psi.data], cols=kappa)
    delta = Mat(field, [row[kappa:] for row in psi.data], cols=lam - kappa)
    y_left = Mat(field, [row[:kappa] for row in y.data], cols=kappa)
    y_right = Mat(field, [row[kappa:] for row in y.data], cols=lam - kappa)
    phi_inv = phi.inv()
    ell = phi_inv @ y_right
    n_hat = phi_inv @ Mat(
        field,
        [[(a - c) % field.p for a, c in zip(lrow, rrow)]
         for lrow, rrow in zip(y_left.data, (delta @ transpose(ell)).data)],
        cols=kappa,
    )
    grid = [[0] * lam for _ in range(lam)]
    for r in range(kappa):
        grid[r][:kappa] = n_hat.data[r]
        grid[r][kappa:] = ell.data[r]
    for r in range(kappa, lam):
        for c in range(kappa):
            grid[r][c] = ell.data[c][r - kappa]
    return Mat(field, grid, cols=lam)


@given(st.data())
@settings(deadline=None)
def test_component_equals_per_block_reference(data):
    fld = Field(data.draw(st.sampled_from((5, 17, 23, 101))))
    lam = data.draw(st.integers(1, 6))
    kappa = data.draw(st.integers(1, min(lam, fld.p - 1)))
    z = data.draw(st.integers(1, 6))
    points = data.draw(st.lists(st.integers(1, fld.p - 1), min_size=kappa,
                                max_size=kappa, unique=True))
    ys = [data.draw(st.lists(st.integers(0, fld.p - 1), min_size=z * lam,
                             max_size=z * lam)) for _ in points]
    got = pm_reconstruct_component(list(zip(points, ys)), fld, lam, kappa)
    blocks = [
        reference_component([(e, y[i * lam:(i + 1) * lam]) for e, y in zip(points, ys)],
                            fld, lam, kappa)
        for i in range(z)
    ]
    want = [[v for blk in blocks for v in blk.data[r]] for r in range(lam)]
    assert got.shape == (lam, z * lam)
    assert got.tolist() == want


# -- the stacked group decoder against the per-subset scan --------------------

S2 = validate(CodeParams(n=10, k=4, d_set=(7, 8), b=1, alpha=60))
CODES = {
    "ex3": (validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=6)), F17, 40),
    "ex1": (validate(CodeParams(n=5, k=2, d_set=(3, 4), b=0, alpha=12)), Field(11), 40),
    "mid": (MID, F23, 30),
    "s2": (S2, Field(19), 20),
}


def outcome(decode, *args):
    try:
        return decode(*args)
    except NoConsistentGroupError:
        return NoConsistentGroupError


def reshaped(share, kind, p):
    """The share one symbol short, one long, or with its last symbol changed."""
    x = {"short": share.x[:-1], "long": share.x + (share.x[0],),
         "last": share.x[:-1] + ((share.x[-1] + 1) % p,)}[kind]
    return NodeShare(index=share.index, x=x)


@pytest.mark.parametrize("where", CODES)
def test_stacked_decoder_matches_the_reference_scan(where):
    code, fld, trials = CODES[where]
    rng = random.Random(where)
    seen = set()
    for t in range(trials):
        msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
        shares = {s.index: s for s in encode_all(build_data_matrix(msg, code, fld), code, fld)}
        access = rng.sample(range(1, code.n + 1), code.k)
        views = []
        for liars in (0, code.b, code.b + 1):
            bad = tuple(rng.sample(access, liars))
            for strategy in (adv.HONEST, adv.RANDOM, adv.LIAR):
                policy = adv.AdversaryPolicy(controlled=bad, strategy=strategy, seed=t)
                views.append([adv.corrupt_access(policy, h, shares[h], code, fld)
                              for h in access])
            for kind in ("short", "long", "last"):
                views.append([reshaped(shares[h], kind, fld.p) if h in bad else shares[h]
                              for h in access])
        for view in views:
            got = outcome(tg_reconstruct, view, code, fld)
            assert got == outcome(reference_reconstruct, view, code, fld)
            seen.add("message" if got == msg else got)
    assert seen >= {"message", NoConsistentGroupError}


@pytest.mark.parametrize("params, primes", [
    ((5, 2, (3, 4), 0, 12), (7, 11)),        # ex1
    ((6, 3, (4, 5), 1, 6), (7, 17)),         # ex3
    ((6, 3, (4, 5), 1, 12), (7, 19)),        # a12
    ((10, 4, (6, 7), 1, 20), (11, 23)),      # mid
    ((10, 4, (7, 8), 1, 60), (11, 19)),      # s2
    ((6, 4, (4, 5), 1, 6), (7, 13)),         # k = d_min: no L part
    ((5, 3, (3, 4), 1, 2), (7, 11)),         # lam = 1
], ids=("ex1", "ex3", "a12", "mid", "s2", "k-eq-dmin", "lam1"))
def test_node_block_matches_unit_message_encoding(params, primes):
    code = validate(CodeParams(*params))
    for p in primes:
        fld = Field(p)
        for h in range(1, code.n + 1):
            assert reconstruct._node_block(code, fld, h) == unit_message_node_block(code, fld, h)


@pytest.mark.parametrize("where", CODES)
def test_every_group_decoder_is_usable_and_over_the_field(where):
    code, fld, _ = CODES[where]
    f_block = code.f_mbr // code.z
    for group in combinations(range(1, code.n + 1), code.k - code.b):
        t, null = decoder_rows(
            group_decoder(reconstruct._node_block, (code, fld), group, code.b))
        assert len(t) == f_block
        assert len(null) == len(group) * code.lam - f_block
        assert all(0 <= v < fld.p for row in t + null for v in row)
