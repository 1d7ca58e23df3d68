"""Storage encoding: block-diagonal message matrix and per-node coded shares.

The source message (f_mbr symbols) fills z symmetric lam x lam blocks
M_1..M_z, the diagonal of the alpha x alpha message matrix M, kept as the
tuple of blocks alone; each block is [[N, L], [L^T, 0]] with N symmetric
kappa x kappa and L of shape kappa x (lam-kappa).  Node ell stores
x_ell = psi_ell @ M where psi_ell = [1, e, e^2, ..., e^(alpha-1)] with
e = Field.point(ell) = g^ell, which splits per block into
x_ell(i) = psi_ell(i) @ M_i.  psi_ell is coeff_vector, the library's one
coefficient row, and psi_ell(i) its slice [(i-1)*lam : i*lam].  A share
holds its node index and x alone; whoever needs the point derives it from
the index.

The fill order, named by fill_order alone, is canonical so that shares are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BaerCodeError, StructureViolationError
from .galois import Field, Mat
from .params import CodeParams, Derived

SHARE_MAGIC = "BAER1"


@dataclass(frozen=True)
class NodeShare:
    """One node's coded vector of alpha field elements.  The node is named by
    its index, never by list position; its point is Field.point(index)."""

    index: int
    x: tuple[int, ...]


def coeff_vector(field: Field, node: int, length: int) -> tuple[int, ...]:
    """psi_node = [e^0, ..., e^(length-1)] with e = Field.point(node); its
    1-based segment i of lam entries, psi_node(i), is psi[(i-1)*lam : i*lam]."""
    return field.powers(field.point(node), length)


def fill_order(code: Derived) -> list[tuple[int, int]]:
    """(row, column) of each message symbol in a block, in fill order: the
    upper triangle of N row-major, then L row-major."""
    kappa = code.kappa
    return [(r, c) for r in range(kappa) for c in range(r, kappa)] + [
        (r, c) for r in range(kappa) for c in range(kappa, code.lam)]


def _block_grid(symbols: Iterable[int], code: Derived) -> list[list[int]]:
    """The lam x lam block of these symbols, placed in fill order and mirrored."""
    grid = [[0] * code.lam for _ in range(code.lam)]
    for (r, c), v in zip(fill_order(code), symbols):
        grid[r][c] = grid[c][r] = v
    return grid


def build_data_matrix(message: Sequence[int], code: Derived, field: Field) -> tuple[Mat, ...]:
    """Arrange f_mbr source symbols into the z symmetric blocks."""
    msg = [v % field.p for v in message]
    if len(msg) != code.f_mbr:
        raise BaerCodeError(f"message has {len(msg)} symbols, capacity is {code.f_mbr}")
    f_block = code.f_mbr // code.z
    return tuple(Mat(field, _block_grid(msg[off : off + f_block], code), cols=code.lam)
                 for off in range(0, code.f_mbr, f_block))


def extract_message(blocks: Sequence[Mat], code: Derived) -> tuple[int, ...]:
    """Invert the fill order.  A block is well formed exactly when it equals
    the block its own fill-order entries build; else StructureViolationError."""
    out: list[int] = []
    for bi, blk in enumerate(blocks, 1):
        if blk.shape != (code.lam, code.lam):
            raise StructureViolationError(f"block {bi} has shape {blk.shape}")
        symbols = [blk.data[r][c] for r, c in fill_order(code)]
        if _block_grid(symbols, code) != blk.data:
            raise StructureViolationError(f"block {bi} is not symmetric with a zero corner")
        out.extend(symbols)
    return tuple(out)


def encode_node(blocks: Sequence[Mat], node: int, code: Derived, field: Field) -> NodeShare:
    """x_node(i) = psi_node(i) @ M_i for every block, concatenated."""
    if not 1 <= node <= code.n:
        raise BaerCodeError(f"node index {node} outside 1..{code.n}")
    psi, lam = coeff_vector(field, node, code.alpha), code.lam
    x: list[int] = []
    for i, blk in enumerate(blocks):
        x.extend(blk.left_mul(psi[i * lam : (i + 1) * lam]))
    return NodeShare(index=node, x=tuple(x))


def encode_all(blocks: Sequence[Mat], code: Derived, field: Field) -> list[NodeShare]:
    return [encode_node(blocks, node, code, field) for node in range(1, code.n + 1)]


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


def parse_share(text: str, code: Derived, field: Field) -> NodeShare | None:
    """Parse a share file of this (code, field).

    Returns None when the header names other parameters or another p; the
    header is compared before any field arithmetic, so a forged p costs
    nothing.  The node is the header's index, and its evaluation point
    follows from that index alone; share content never overrides it.  A
    body that is not alpha symbols long is returned as it is, and one holding
    a symbol that is not a decimal in range(p) as x = (): the node stored a
    malformed share, which the decoders absorb as a lie.
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
        fields["scheme"]    # required in the header, though a share does not depend on it
    except (KeyError, ValueError) as exc:
        raise BaerCodeError(f"malformed share header: {exc}") from exc
    if params != code.params or p != field.p:
        return None
    body = [ln.strip() for ln in lines[1:] if ln.strip()]
    try:
        x = tuple(int(v) for v in body)
    except ValueError:
        x = ()
    if not all(0 <= v < p for v in x):
        x = ()
    if not 1 <= node <= params.n:
        raise BaerCodeError(f"node index {node} outside 1..{params.n}")
    return NodeShare(index=node, x=x)


def parse_message_text(text: str, expected_len: int, p: int) -> tuple[int, ...]:
    """Whitespace-separated decimals; refuses (never pads) wrong-length input."""
    toks = text.split()
    try:
        vals = tuple(int(t) for t in toks)
    except ValueError as exc:
        raise BaerCodeError(f"non-decimal message symbol: {exc}") from exc
    if len(vals) != expected_len:
        raise BaerCodeError(f"message file has {len(vals)} symbols, capacity is {expected_len}")
    if any(not 0 <= v < p for v in vals):
        raise BaerCodeError(f"message symbol outside GF({p})")
    return vals


def format_message(message: Iterable[int]) -> str:
    return "\n".join(str(v) for v in message) + "\n"
