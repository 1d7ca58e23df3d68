"""Storage encoding: block-diagonal message matrix and per-node coded shares.

The source message (f_mbr symbols) fills z symmetric lam x lam blocks
M_1..M_z; each block is [[N, L], [L^T, 0]] with N symmetric kappa x kappa
and L of shape kappa x (lam-kappa).  Node ell stores x_ell = psi_ell @ M
where psi_ell = [1, e, e^2, ..., e^(alpha-1)] with e = g^ell, which splits
per block into x_ell(i) = psi_ell(i) @ M_i.

Fill order is canonical so that shares are reproducible byte for byte:
per block, the upper triangle of N row-major, then L row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadNodeIndexError,
    BaerCodeError,
    StructureViolationError,
    WrongMessageLengthError,
)
from .galois import Field, Mat
from .params import CodeParams, Derived, check_field

SHARE_MAGIC = "BAER1"


@dataclass(frozen=True)
class NodeShare:
    """One node's coded vector of alpha field elements.

    e is the node's evaluation point g**index; it is stored explicitly so
    decoders never re-derive identity from list position.
    """

    index: int
    e: int
    x: tuple[int, ...]

    def segment(self, i: int, seg_len: int) -> tuple[int, ...]:
        """1-based slice of length seg_len: entries (i-1)*seg_len .. i*seg_len - 1."""
        return self.x[(i - 1) * seg_len : i * seg_len]


@dataclass(frozen=True)
class DataMatrix:
    """The z diagonal blocks of the alpha x alpha message matrix."""

    blocks: tuple[Mat, ...]
    lam: int
    kappa: int

    @property
    def z(self) -> int:
        return len(self.blocks)

    @property
    def alpha(self) -> int:
        return self.z * self.lam

    def full(self, field: Field) -> Mat:
        """Assemble the dense alpha x alpha block-diagonal matrix."""
        a = self.alpha
        grid = [[0] * a for _ in range(a)]
        for i, blk in enumerate(self.blocks):
            off = i * self.lam
            for r in range(self.lam):
                row = blk.data[r]
                grid[off + r][off : off + self.lam] = row
        return Mat(field, grid, cols=a)


def coeff_vector(field: Field, node: int, alpha: int) -> tuple[int, ...]:
    """psi_node = [e^0, ..., e^(alpha-1)] with e = g^node."""
    p = field.p
    e = field.point(node)
    out, acc = [], 1
    for _ in range(alpha):
        out.append(acc)
        acc = acc * e % p
    return tuple(out)


def coeff_segment(field: Field, node: int, i: int, seg_len: int) -> tuple[int, ...]:
    """1-based segment i of psi_node: e^((i-1)*seg_len) * [1, e, ..., e^(seg_len-1)]."""
    p = field.p
    e = field.point(node)
    acc = pow(e, (i - 1) * seg_len, p)
    out = []
    for _ in range(seg_len):
        out.append(acc)
        acc = acc * e % p
    return tuple(out)


def build_data_matrix(message: Sequence[int], code: Derived, field: Field) -> DataMatrix:
    """Arrange f_mbr source symbols into the z symmetric blocks."""
    msg = [v % field.p for v in message]
    if len(msg) != code.f_mbr:
        raise WrongMessageLengthError(
            f"message has {len(msg)} symbols, capacity is {code.f_mbr}"
        )
    lam, kappa = code.lam, code.kappa
    blocks = []
    it = iter(msg)
    for _ in range(code.z):
        grid = [[0] * lam for _ in range(lam)]
        for r in range(kappa):
            for c in range(r, kappa):
                v = next(it)
                grid[r][c] = v
                grid[c][r] = v
        for r in range(kappa):
            for c in range(kappa, lam):
                v = next(it)
                grid[r][c] = v
                grid[c][r] = v
        blocks.append(Mat(field, grid, cols=lam))
    return DataMatrix(blocks=tuple(blocks), lam=lam, kappa=kappa)


def extract_message(dm: DataMatrix) -> tuple[int, ...]:
    """Invert the fill order; raises StructureViolationError on malformed blocks."""
    lam, kappa = dm.lam, dm.kappa
    out: list[int] = []
    for bi, blk in enumerate(dm.blocks, 1):
        if blk.shape != (lam, lam):
            raise StructureViolationError(f"block {bi} has shape {blk.shape}")
        for r in range(lam):
            for c in range(r + 1, lam):
                if blk.data[r][c] != blk.data[c][r]:
                    raise StructureViolationError(
                        f"block {bi} asymmetric at ({r},{c})"
                    )
        for r in range(kappa, lam):
            for c in range(kappa, lam):
                if blk.data[r][c] != 0:
                    raise StructureViolationError(
                        f"block {bi} has nonzero corner at ({r},{c})"
                    )
        for r in range(kappa):
            out.extend(blk.data[r][r:kappa])
        for r in range(kappa):
            out.extend(blk.data[r][kappa:lam])
    return tuple(out)


def encode_node(dm: DataMatrix, node: int, code: Derived, field: Field) -> NodeShare:
    """x_node(i) = psi_node(i) @ M_i for every block, concatenated."""
    if not 1 <= node <= code.n:
        raise BadNodeIndexError(f"node index {node} outside 1..{code.n}")
    x: list[int] = []
    for i, blk in enumerate(dm.blocks, 1):
        seg = coeff_segment(field, node, i, dm.lam)
        x.extend(blk.left_mul(seg))
    return NodeShare(index=node, e=field.point(node), x=tuple(x))


def encode_all(dm: DataMatrix, code: Derived, field: Field) -> list[NodeShare]:
    return [encode_node(dm, node, code, field) for node in range(1, code.n + 1)]


def encode_message(message: Sequence[int], code: Derived, field: Field) -> list[NodeShare]:
    """Convenience: field check, data matrix, all n shares."""
    check_field(code, field)
    dm = build_data_matrix(message, code, field)
    return encode_all(dm, code, field)


# -- share files -----------------------------------------------------------
#
# Header line:
#   BAER1 p=<p> n=<n> k=<k> b=<b> alpha=<alpha> D=<d1,...> node=<ell> scheme=<1|2|concat>
# followed by alpha decimal field elements, one per line (LF endings, no
# leading zeros).

def format_share(share: NodeShare, code: Derived, field: Field, scheme: str) -> str:
    if scheme not in ("1", "2", "concat"):
        raise BaerCodeError(f"scheme must be 1, 2 or concat, got {scheme!r}")
    d_list = ",".join(str(d) for d in code.d_set)
    header = (
        f"{SHARE_MAGIC} p={field.p} n={code.n} k={code.k} b={code.b} "
        f"alpha={code.alpha} D={d_list} node={share.index} scheme={scheme}"
    )
    return header + "\n" + "\n".join(str(v) for v in share.x) + "\n"


def parse_share(text: str, code: Derived, field: Field) -> tuple[NodeShare, str] | None:
    """Parse a share file of this (code, field); returns (share, scheme).

    Returns None when the header names other parameters or another p; the
    header is compared before any field arithmetic, so a forged p costs
    nothing.  The evaluation point is re-derived from the node index; share
    content never overrides node identity.  A body that is not alpha
    symbols long is returned as it is: the node stored a malformed share,
    which the decoders absorb as a lie.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith(SHARE_MAGIC + " "):
        raise BaerCodeError("not a share file (bad magic)")
    fields = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    try:
        params = CodeParams(
            n=int(fields["n"]), k=int(fields["k"]),
            d_set=tuple(int(x) for x in fields["D"].split(",")),
            b=int(fields["b"]), alpha=int(fields["alpha"]),
        )
        p = int(fields["p"])
        node = int(fields["node"])
        scheme = fields["scheme"]
    except (KeyError, ValueError) as exc:
        raise BaerCodeError(f"malformed share header: {exc}") from exc
    if params != code.params or p != field.p:
        return None
    body = [ln.strip() for ln in lines[1:] if ln.strip()]
    try:
        x = tuple(int(v) for v in body)
    except ValueError as exc:
        raise BaerCodeError(f"non-decimal share symbol: {exc}") from exc
    if any(not 0 <= v < p for v in x):
        raise BaerCodeError("share symbol outside field range")
    if not 1 <= node <= params.n:
        raise BadNodeIndexError(f"node index {node} outside 1..{params.n}")
    return NodeShare(index=node, e=field.point(node), x=x), scheme


def parse_message_text(text: str, expected_len: int, p: int) -> tuple[int, ...]:
    """Whitespace-separated decimals; refuses (never pads) wrong-length input."""
    toks = text.split()
    try:
        vals = tuple(int(t) for t in toks)
    except ValueError as exc:
        raise BaerCodeError(f"non-decimal message symbol: {exc}") from exc
    if len(vals) != expected_len:
        raise WrongMessageLengthError(
            f"message file has {len(vals)} symbols, capacity is {expected_len}"
        )
    if any(not 0 <= v < p for v in vals):
        raise BaerCodeError(f"message symbol outside GF({p})")
    return vals


def format_message(message: Iterable[int]) -> str:
    return "\n".join(str(v) for v in message) + "\n"
