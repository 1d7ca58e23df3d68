"""Deterministic storage-cluster simulation with bandwidth metering.

A Cluster holds the ground-truth message, the live shares, the scheme in
force (1, 2 or concat) and the current adversary policy.  Scenario scripts
are ordered events:

    fail 3
    repair 3 d=4 helpers=lowest
    corrupt random nodes=2 seed=42
    reconstruct 1,2,5

Every repair runs through the driver the CLI uses (repair.transmit, then
repair.decode), is metered and compared against the minimum total bandwidth
gamma_mbr(d) = alpha*d/(d-2b); every post-repair share is compared to the
encoder's ground truth, so error propagation is impossible to miss.  An
event outside the model (a repair or reconstruction with no consistent
test-group) is logged as a failed row and the scenario goes on; a node
whose repair failed stays failed.
Wall-clock time is reported per event but never asserted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from . import adversary as adv
from . import repair
from .encoder import NodeShare, build_data_matrix, encode_all, encode_node
from .errors import (
    BaerCodeError,
    NoConsistentGroupError,
    NodeAlreadyFailedError,
    NotEnoughHelpersError,
    RepairOfLiveNodeError,
)
from .galois import Field
from .params import Derived, check_field
from .reconstruct import testgroup_reconstruct

SCHEMES = ("1", "2", "concat")


@dataclass(frozen=True)
class Event:
    kind: str                      # fail | repair | reconstruct | corrupt
    node: int | None = None
    d: int | None = None
    helper_policy: str = "lowest"  # lowest | random | exclude:<list>
    nodes: tuple[int, ...] = ()
    strategy: str = adv.HONEST
    seed: int = 0

    def detail(self) -> str:
        if self.kind == "fail":
            return f"node={self.node}"
        if self.kind == "repair":
            return f"node={self.node} d={self.d} helpers={self.helper_policy}"
        if self.kind == "reconstruct":
            return "nodes=" + ",".join(str(x) for x in self.nodes)
        return f"{self.strategy} nodes={','.join(str(x) for x in self.nodes)} seed={self.seed}"


@dataclass
class ReportRow:
    index: int
    kind: str
    detail: str
    symbols: int
    gamma_expect: int | None
    success: bool
    wall_ms: float


@dataclass
class Report:
    scheme: str
    p: int
    code: Derived
    rows: list[ReportRow] = dc_field(default_factory=list)

    @property
    def total_symbols(self) -> int:
        return sum(r.symbols for r in self.rows)

    @property
    def all_ok(self) -> bool:
        return all(r.success for r in self.rows)

    def render(self) -> str:
        code = self.code
        head = (
            f"# cluster: scheme={self.scheme} n={code.n} k={code.k} "
            f"D={','.join(str(d) for d in code.d_set)} b={code.b} "
            f"alpha={code.alpha} p={self.p}"
        )
        lines = [head]
        lines.append(f"{'#':>4}  {'event':<12} {'detail':<40} {'symbols':>7}  {'gamma':>5}  {'ok':<4} {'wall_ms':>8}")
        for r in self.rows:
            gamma = str(r.gamma_expect) if r.gamma_expect is not None else "-"
            lines.append(
                f"{r.index:>4}  {r.kind:<12} {r.detail:<40} {r.symbols:>7}  "
                f"{gamma:>5}  {'ok' if r.success else 'FAIL':<4} {r.wall_ms:>8.2f}"
            )
        repairs = sum(1 for r in self.rows if r.kind == "repair")
        recons = sum(1 for r in self.rows if r.kind == "reconstruct")
        fails = sum(1 for r in self.rows if not r.success)
        lines.append(
            f"totals: events={len(self.rows)} symbols={self.total_symbols} "
            f"repairs={repairs} reconstructs={recons} failures={fails}"
        )
        return "\n".join(lines) + "\n"


class Cluster:
    """Live cluster state; mutate only through run_event."""

    def __init__(self, code: Derived, message: Sequence[int], scheme: str, fld: Field):
        if scheme not in SCHEMES:
            raise BaerCodeError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        check_field(code, fld)
        repair.check(scheme, code, fld)
        self.code = code
        self.field = fld
        self.scheme = scheme
        self.message = tuple(v % fld.p for v in message)
        dm = build_data_matrix(self.message, code, fld)
        self._dm = dm
        self.shares: dict[int, NodeShare | None] = {
            s.index: s for s in encode_all(dm, code, fld)
        }
        self.policy = adv.AdversaryPolicy()
        self.log: list[ReportRow] = []

    # -- helpers -----------------------------------------------------

    def live_nodes(self) -> list[int]:
        return sorted(n for n, s in self.shares.items() if s is not None)

    def ground_truth(self, node: int) -> NodeShare:
        return encode_node(self._dm, node, self.code, self.field)

    def _choose_helpers(self, f: int, d: int, policy: str, rng: random.Random) -> list[int]:
        banned = _banned(policy)
        candidates = [n for n in self.live_nodes() if n != f and n not in banned]
        if len(candidates) < d:
            raise NotEnoughHelpersError(
                f"{len(candidates)} candidate helpers for d={d} repair of node {f}"
            )
        if policy == "random":
            return sorted(rng.sample(candidates, d))
        return candidates[:d]   # lowest-index (and exclude:) policy

    # -- event engine -------------------------------------------------

    def run_event(self, event: Event, rng: random.Random | None = None) -> ReportRow:
        rng = rng or random.Random(0)
        t0 = time.perf_counter()
        symbols = 0
        gamma_expect = None
        success = True
        code = self.code

        if event.kind == "fail":
            if event.node not in self.shares:
                raise BaerCodeError(f"unknown node {event.node}")
            if self.shares[event.node] is None:
                raise NodeAlreadyFailedError(f"node {event.node} already failed")
            self.shares[event.node] = None

        elif event.kind == "repair":
            f, d = event.node, event.d
            if f not in self.shares:
                raise BaerCodeError(f"unknown node {f}")
            if self.shares[f] is not None:
                raise RepairOfLiveNodeError(f"node {f} is live; fail it first")
            if d not in code.d_set:
                raise BaerCodeError(f"repair d={d} not in D={code.d_set}")
            helpers = self._choose_helpers(f, d, event.helper_policy, rng)
            sent, symbols = repair.transmit(self.scheme, {h: self.shares[h] for h in helpers},
                                            f, d, self.policy, code, self.field)
            gamma_expect = code.gamma_of(d)
            try:
                repaired = repair.decode(self.scheme, sent, f, d, code, self.field)
            except NoConsistentGroupError:
                success = False             # outside the model; node f stays failed
            else:
                success = repaired.x == self.ground_truth(f).x and symbols == gamma_expect
                self.shares[f] = repaired
            event = Event(kind="repair", node=f, d=d,
                          helper_policy=",".join(str(h) for h in helpers))

        elif event.kind == "reconstruct":
            nodes = event.nodes
            if len(nodes) != code.k:
                raise BaerCodeError(f"reconstruct needs exactly k={code.k} nodes")
            shares = []
            for n in nodes:
                sh = self.shares.get(n)
                if sh is None:
                    raise BaerCodeError(f"node {n} is failed or unknown")
                shares.append(adv.corrupt_access(self.policy, n, sh, code, self.field))
            symbols = code.k * code.alpha
            try:
                success = testgroup_reconstruct(shares, code, self.field) == self.message
            except NoConsistentGroupError:
                success = False

        elif event.kind == "corrupt":
            self.policy = adv.AdversaryPolicy(
                controlled=event.nodes, strategy=event.strategy, seed=event.seed
            )

        else:
            raise BaerCodeError(f"unknown event kind {event.kind!r}")

        row = ReportRow(
            index=len(self.log) + 1, kind=event.kind, detail=event.detail(),
            symbols=symbols, gamma_expect=gamma_expect, success=success,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        self.log.append(row)
        return row


def init_cluster(code: Derived, message: Sequence[int], scheme: str, fld: Field) -> Cluster:
    return Cluster(code, message, scheme, fld)


def run_scenario(cluster: Cluster, script: Sequence[Event], seed: int = 0) -> Report:
    rng = random.Random(f"scenario:{seed}")
    report = Report(scheme=cluster.scheme, p=cluster.field.p, code=cluster.code)
    for event in script:
        report.rows.append(cluster.run_event(event, rng))
    return report


# -- scenario files ---------------------------------------------------------

def parse_scenario(text: str) -> list[Event]:
    """One event per line; blank lines and #-comments ignored."""
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0].lower()
        try:
            if kind == "fail":
                events.append(Event(kind="fail", node=int(toks[1])))
            elif kind == "repair":
                opts = _opts(toks[2:])
                policy = opts.get("helpers", "lowest")
                _banned(policy)             # an unknown policy or bad list fails here
                events.append(Event(
                    kind="repair", node=int(toks[1]), d=int(opts["d"]), helper_policy=policy,
                ))
            elif kind == "reconstruct":
                events.append(Event(kind="reconstruct", nodes=parse_int_list(toks[1])))
            elif kind == "corrupt":
                strategy = {"random": adv.RANDOM, "liar": adv.LIAR,
                            "consistent_liar": adv.LIAR, "honest": adv.HONEST}[toks[1]]
                opts = _opts(toks[2:])
                events.append(Event(
                    kind="corrupt", strategy=strategy, nodes=parse_int_list(opts.get("nodes", "")),
                    seed=int(opts.get("seed", 0)),
                ))
            else:
                raise KeyError(kind)
        except (KeyError, ValueError, IndexError, BaerCodeError) as exc:
            raise BaerCodeError(f"scenario line {lineno}: cannot parse {raw!r} ({exc})") from exc
    return events


def parse_int_list(text: str) -> tuple[int, ...]:
    """The integers of a comma list such as "1,2,5"; empty items are skipped."""
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise BaerCodeError(f"not a comma list of integers: {text!r}") from None


def _banned(policy: str) -> set[int]:
    """Nodes a helper policy (lowest | random | exclude:<list>) leaves out."""
    kind, colon, rest = policy.partition(":")
    if (kind, colon) not in (("lowest", ""), ("random", ""), ("exclude", ":")):
        raise BaerCodeError(f"unknown helper policy {policy!r}")
    return set(parse_int_list(rest))


def _opts(tokens: Sequence[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        out[key.lower()] = val
    return out
