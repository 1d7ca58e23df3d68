import random
import re

import pytest

from baercode.encoder import (
    NodeShare,
    build_data_matrix,
    coeff_vector,
    encode_all,
    encode_node,
    extract_message,
    format_message,
    format_share,
    parse_message_text,
    parse_share,
)
from baercode.errors import BaerCodeError, StructureViolationError
from baercode.galois import Field, Mat
from baercode.params import CodeParams, validate


F17 = Field(17)
F101 = Field(101)


def full_matrix(blocks, field):
    """The dense alpha x alpha block-diagonal message matrix of the blocks."""
    lam = blocks[0].cols
    alpha = len(blocks) * lam
    grid = [[0] * alpha for _ in range(alpha)]
    for i, blk in enumerate(blocks):
        off = i * lam
        for r in range(lam):
            grid[off + r][off : off + lam] = blk.data[r]
    return Mat(field, grid, cols=alpha)


def test_block_layout_kappa2(ex1_code):
    # kappa=2, lam=3: first block holds s1..s5 as [[s1,s2,s4],[s2,s3,s5],[s4,s5,0]]
    s = list(range(1, 21))
    blocks = build_data_matrix(s, ex1_code, F101)
    assert blocks[0].tolist() == [[1, 2, 4], [2, 3, 5], [4, 5, 0]]
    assert blocks[3].tolist() == [[16, 17, 19], [17, 18, 20], [19, 20, 0]]


def test_block_layout_kappa1(ex3_code):
    s = [1, 2, 3, 4, 5, 6]
    blocks = build_data_matrix(s, ex3_code, F17)
    assert blocks[0].tolist() == [[1, 2], [2, 0]]
    assert blocks[2].tolist() == [[5, 6], [6, 0]]


def test_zero_message_zero_matrix(ex3_code):
    blocks = build_data_matrix([0] * 6, ex3_code, F17)
    assert full_matrix(blocks, F17).tolist() == [[0] * 6 for _ in range(6)]


def test_wrong_length_rejected(ex3_code):
    with pytest.raises(BaerCodeError, match="^message has 5 symbols, capacity is 6$"):
        build_data_matrix([1] * 5, ex3_code, F17)


def test_extract_round_trip(ex3_code, ex1_code):
    rng = random.Random(2)
    for code, fld in ((ex3_code, F17), (ex1_code, F101)):
        msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
        assert extract_message(build_data_matrix(msg, code, fld), code) == msg
    zero = build_data_matrix([0] * 6, ex3_code, F17)
    assert extract_message(zero, ex3_code) == (0,) * 6


def test_extract_structure_violations(ex3_code):
    bad_sym = (Mat(F17, [[1, 2], [3, 0]]),) * 3
    with pytest.raises(StructureViolationError):
        extract_message(bad_sym, ex3_code)
    bad_corner = (Mat(F17, [[1, 2], [2, 5]]),) * 3
    with pytest.raises(StructureViolationError):
        extract_message(bad_corner, ex3_code)


def test_extract_refuses_exactly_the_malformed_single_entry_changes(ex3_code):
    # Change each entry of block 2 alone: the block stays well formed (a
    # diagonal entry of N) or is refused with the one structure message.
    mid = validate(CodeParams(n=10, k=4, d_set=(6, 7), b=1, alpha=20))
    rng = random.Random(5)
    for code, fld in ((ex3_code, F17), (mid, Field(23))):
        blocks = build_data_matrix([rng.randrange(fld.p) for _ in range(code.f_mbr)], code, fld)
        lam, kappa = code.lam, code.kappa
        for r in range(lam):
            for c in range(lam):
                grid = [row[:] for row in blocks[1].data]
                grid[r][c] = (grid[r][c] + 1) % fld.p
                changed = (blocks[0], Mat(fld, grid), *blocks[2:])
                symmetric = all(grid[i][j] == grid[j][i] for i in range(lam) for j in range(lam))
                corner = all(grid[i][j] == 0 for i in range(kappa, lam) for j in range(kappa, lam))
                if symmetric and corner:
                    got = extract_message(changed, code)
                    assert [b.data for b in build_data_matrix(got, code, fld)] == [
                        b.data for b in changed]
                else:
                    with pytest.raises(StructureViolationError,
                                       match=r"^block 2 is not symmetric with a zero corner$"):
                        extract_message(changed, code)


def test_encode_node_matches_displayed_form(ex3_code):
    # x_1 = [(s1 + g s2), s2, (g^2 s3 + g^3 s4), g^2 s4, (g^4 s5 + g^5 s6), g^4 s6]
    p, g = F17.p, F17.g
    s = [3, 14, 7, 1, 0, 12]
    share = encode_node(build_data_matrix(s, ex3_code, F17), 1, ex3_code, F17)
    e = pow(g, 1, p)
    expected = (
        (s[0] + e * s[1]) % p,
        s[1] % p,
        (pow(e, 2, p) * s[2] + pow(e, 3, p) * s[3]) % p,
        pow(e, 2, p) * s[3] % p,
        (pow(e, 4, p) * s[4] + pow(e, 5, p) * s[5]) % p,
        pow(e, 4, p) * s[5] % p,
    )
    assert share.x == expected
    assert F17.point(share.index) == e


def test_encode_matches_dense_multiply_oracle(ex3_code, ex1_code):
    rng = random.Random(9)
    for code, fld in ((ex3_code, F17), (ex1_code, F101)):
        msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
        blocks = build_data_matrix(msg, code, fld)
        full = full_matrix(blocks, fld).tolist()
        for node in range(1, code.n + 1):
            psi = coeff_vector(fld, node, code.alpha)
            naive = tuple(
                sum(psi[r] * full[r][c] for r in range(code.alpha)) % fld.p
                for c in range(code.alpha)
            )
            assert encode_node(blocks, node, code, fld).x == naive


def test_zero_message_zero_share(ex3_code):
    blocks = build_data_matrix([0] * 6, ex3_code, F17)
    assert encode_node(blocks, 4, ex3_code, F17).x == (0,) * 6


def test_bad_node_index(ex3_code):
    blocks = build_data_matrix([1] * 6, ex3_code, F17)
    for bad in (0, 7, -1):
        with pytest.raises(BaerCodeError, match=re.escape(f"node index {bad} outside 1..6")):
            encode_node(blocks, bad, ex3_code, F17)


def test_projection_symmetry_invariant(ex3_code):
    # psi_l(i) M_i psi_m(i)^T is symmetric in (l, m) for every block
    rng = random.Random(4)
    msg = [rng.randrange(17) for _ in range(6)]
    for i, blk in enumerate(build_data_matrix(msg, ex3_code, F17), 1):
        for l in range(1, 7):
            for m in range(1, 7):
                a = coeff_vector(F17, l, 6)[2 * (i - 1) : 2 * i]
                b = coeff_vector(F17, m, 6)[2 * (i - 1) : 2 * i]
                lhs = sum(x * y for x, y in zip(blk.left_mul(a), b)) % 17
                rhs = sum(x * y for x, y in zip(blk.left_mul(b), a)) % 17
                assert lhs == rhs


def test_encoding_is_linear(ex3_code):
    rng = random.Random(6)
    s1 = [rng.randrange(17) for _ in range(6)]
    s2 = [rng.randrange(17) for _ in range(6)]
    s12 = [(a + b) % 17 for a, b in zip(s1, s2)]
    sh1 = encode_all(build_data_matrix(s1, ex3_code, F17), ex3_code, F17)
    sh2 = encode_all(build_data_matrix(s2, ex3_code, F17), ex3_code, F17)
    sh12 = encode_all(build_data_matrix(s12, ex3_code, F17), ex3_code, F17)
    for a, b, c in zip(sh1, sh2, sh12):
        assert tuple((x + y) % 17 for x, y in zip(a.x, b.x)) == c.x


def test_share_file_round_trip(ex3_code):
    rng = random.Random(8)
    msg = [rng.randrange(17) for _ in range(6)]
    share = encode_node(build_data_matrix(msg, ex3_code, F17), 5, ex3_code, F17)
    text = format_share(share, ex3_code, F17, "1")
    assert text.startswith("BAER1 p=17 n=6 k=3 b=1 alpha=6 D=4,5 node=5 scheme=1\n")
    assert text.endswith("\n") and "\r" not in text
    parsed = parse_share(text, ex3_code, F17)
    assert parsed == share
    # byte-exactness: formatting the parse reproduces the file
    assert format_share(parsed, ex3_code, F17, "1") == text


def test_share_file_rejections(ex3_code):
    with pytest.raises(BaerCodeError):
        parse_share("NOTASHARE\n1\n", ex3_code, F17)
    good = format_share(
        NodeShare(index=1, x=(1, 2, 3, 4, 5, 6)), ex3_code, F17, "2"
    )
    with pytest.raises(BaerCodeError):
        parse_share(good.replace("alpha=6", "alpha=x"), ex3_code, F17)   # header
    with pytest.raises(BaerCodeError):
        parse_share(good.replace("node=1", "node=7"), ex3_code, F17)     # node outside 1..n
    with pytest.raises(BaerCodeError, match=r"^malformed share header: 'scheme'$"):
        parse_share(good.replace(" scheme=2", ""), ex3_code, F17)
    # A body symbol outside the field or not a decimal makes the node's share
    # malformed, x = (), which the decoders absorb as a lie.
    for bad in ("\n99\n", "\n-1\n", "\none\n"):
        share = parse_share(good.replace("\n1\n", bad), ex3_code, F17)
        assert (share.index, share.x) == (1, ())


def test_wrong_length_share_body_is_the_node_share(ex3_code):
    # A malformed body is what the node stored: the decoders absorb it as a lie.
    good = format_share(
        NodeShare(index=1, x=(1, 2, 3, 4, 5, 6)), ex3_code, F17, "2"
    )
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    assert parse_share(truncated, ex3_code, F17).x == (1, 2, 3, 4, 5)
    assert parse_share(good + "7\n", ex3_code, F17).x == (1, 2, 3, 4, 5, 6, 7)


def test_message_file_never_pads(ex3_code):
    text = format_message([1, 2, 3, 4, 5, 6])
    assert parse_message_text(text, 6, 17) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(BaerCodeError, match="^message file has 3 symbols, capacity is 6$"):
        parse_message_text("1 2 3\n", 6, 17)
    with pytest.raises(BaerCodeError):
        parse_message_text("1 2 3 4 5 99\n", 6, 17)
