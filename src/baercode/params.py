"""Parameter validation and every closed-form quantity of the code family.

A code is configured by (n, k, D, b, alpha): n storage nodes, reconstruction
from any k nodes, repair of one node from any d in D helpers, resilience to
up to b adversarial nodes, alpha symbols stored per node.  Validity requires

    2b < k <= d_1 <= ... <= d_delta <= n-1
    alpha = lcm(d_1 - 2b, ..., d_delta - 2b) * a   for an integer a >= 1.

At the minimum-bandwidth point the total repair traffic is
gamma_mbr(d) = alpha*d/(d-2b) and the storage capacity is f_mbr (see below);
both are exact integers for valid parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import BaerCodeError, DivisibilityViolationError
from .galois import Field


@dataclass(frozen=True)
class CodeParams:
    """Raw parameter tuple.  d_set is normalized to a sorted tuple."""

    n: int
    k: int
    d_set: tuple[int, ...]
    b: int
    alpha: int

    def __post_init__(self):
        object.__setattr__(self, "d_set", tuple(sorted(set(self.d_set))))


@dataclass(frozen=True)
class Derived:
    """Validated parameters plus every derived quantity downstream code consumes;
    the per-d ones, beta_of and gamma_of, are computed where they are read."""

    params: CodeParams
    lam: int                      # d_min - 2b: block size of one component code
    kappa: int                    # k - 2b: reconstruction degree of one component
    z: int                        # alpha / lam: number of component codes
    d_min: int
    f_mbr: int                    # storage capacity in symbols

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def d_set(self) -> tuple[int, ...]:
        return self.params.d_set

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def alpha(self) -> int:
        return self.params.alpha

    def beta_of(self, d: int) -> int:
        """Per-helper repair symbols alpha/(d-2b) for d in D."""
        if d not in self.d_set:
            raise BaerCodeError(f"d={d} not in D={self.d_set}")
        return self.alpha // (d - 2 * self.b)

    def gamma_of(self, d: int) -> int:
        """Total repair symbols gamma_mbr(d) = d*beta(d) for d in D."""
        return d * self.beta_of(d)


def _check_int(name: str, v, minimum: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise BaerCodeError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return v


def validate(params: CodeParams) -> Derived:
    """Check the parameter constraints and populate the derived quantities."""
    n = _check_int("n", params.n, 2)
    k = _check_int("k", params.k, 1)
    b = _check_int("b", params.b, 0)
    alpha = _check_int("alpha", params.alpha, 1)
    if not params.d_set:
        raise BaerCodeError("D must be non-empty")
    for d in params.d_set:
        _check_int("d", d, 1)
    d_min = params.d_set[0]
    d_max = params.d_set[-1]
    if not (2 * b < k <= d_min):
        raise BaerCodeError(f"need 2b < k <= d_min, got b={b}, k={k}, d_min={d_min}")
    if d_max > n - 1:
        raise BaerCodeError(f"d={d_max} exceeds n-1={n - 1}; helpers must be surviving nodes")
    base = math.lcm(*(d - 2 * b for d in params.d_set))
    if alpha % base != 0:
        raise BaerCodeError(f"alpha={alpha} is not a multiple of lcm(d-2b for d in D)={base}")

    lam = d_min - 2 * b
    kappa = k - 2 * b
    z = alpha // lam
    # Capacity, summed in exact integer arithmetic: z * sum_{j=0}^{kappa-1} (lam - j).
    f = z * (kappa * lam - kappa * (kappa - 1) // 2)
    product_form = Fraction(alpha, lam) * kappa * (Fraction(2 * d_min - 2 * b - k + 1, 2))
    assert Fraction(f) == product_form, "sum and product capacity forms disagree"
    return Derived(params=params, lam=lam, kappa=kappa, z=z, d_min=d_min, f_mbr=f)


def capacity_upper_bound(code: Derived, gamma: Mapping[int, int | Fraction]) -> Fraction:
    """Capacity bound sum_{j=0}^{k-2b-1} min(alpha, min_d (d-2b-j) * gamma(d)/d)."""
    for d in code.d_set:
        if d not in gamma:
            raise BaerCodeError(f"gamma map missing d={d}")
    total = Fraction(0)
    for j in range(code.kappa):
        inner = min(
            Fraction(d - 2 * code.b - j) * Fraction(gamma[d]) / d for d in code.d_set
        )
        total += min(Fraction(code.alpha), inner)
    return total


def classical_bound(k: int, d: int, alpha: int, gamma: int | Fraction) -> Fraction:
    """Capacity bound for a conventional regenerating code (no adversaries)."""
    return err_resilient_bound(k, d, 0, alpha, gamma)


def err_resilient_bound(k: int, d: int, b: int, alpha: int, gamma: int | Fraction) -> Fraction:
    """Capacity bound with up to b adversarial nodes: the sum runs i = 2b .. min(k, d)-1."""
    _check_int("k", k, 1)
    _check_int("d", d, 1)
    _check_int("b", b, 0)
    _check_int("alpha", alpha, 1)
    if gamma < 0:
        raise BaerCodeError("gamma must be non-negative")
    total = Fraction(0)
    for i in range(2 * b, min(k, d)):
        total += min(Fraction(alpha), Fraction(d - i) * Fraction(gamma) / d)
    return total


@dataclass(frozen=True)
class IterationPlan:
    """One decoder iteration: groups of active segments and their division facts."""

    j: int                 # 1-based iteration index
    tau: int               # active entries per active segment entering this iteration
    mu: int                # (d-2b) div tau
    sigma: int             # (d-2b) mod tau; 0 marks the final iteration
    m: int                 # merged-vector length xi + sigma (meaningful when sigma > 0)
    group_size: int        # mu+1 segments per group when sigma > 0, else mu
    n_groups: int
    groups: tuple[tuple[int, ...], ...]   # 1-based segment indices, ascending per group


@dataclass(frozen=True)
class ScheduleII:
    """Full iterative-repair plan for one helper count d (small-field scheme)."""

    code: Derived
    d: int
    xi: int                # segment length floor((d-2b)/lam)*lam
    zeta: int              # alpha / xi: number of segments
    iterations: tuple[IterationPlan, ...]


@lru_cache(maxsize=256)
def schedule_scheme2(code: Derived, d: int) -> ScheduleII:
    """Compute (and cache) the iteration plan for helper count d.

    Grouping takes the active segments in ascending index order, chunked
    left to right.  After an iteration with sigma > 0 only the last segment
    of each group stays active; an iteration with sigma == 0 finishes the
    plan.  At every iteration the active-segment count must be divisible by
    the group size, otherwise this d is unusable at this alpha.
    """
    if d not in code.d_set:
        raise BaerCodeError(f"d={d} not in D={code.d_set}")
    span = d - 2 * code.b
    xi = (span // code.lam) * code.lam
    if code.alpha % xi != 0:
        raise DivisibilityViolationError(
            f"alpha={code.alpha} not divisible by segment length xi={xi} for d={d}"
        )
    zeta = code.alpha // xi
    active = list(range(1, zeta + 1))
    iterations = []
    tau = xi
    j = 1
    while True:
        mu, sigma = divmod(span, tau)
        size = mu + 1 if sigma > 0 else mu
        if len(active) % size != 0:
            raise DivisibilityViolationError(
                f"d={d}: iteration {j} needs groups of {size} segments "
                f"but {len(active)} segments are active (alpha={code.alpha})"
            )
        groups = tuple(
            tuple(active[i : i + size]) for i in range(0, len(active), size)
        )
        iterations.append(
            IterationPlan(
                j=j, tau=tau, mu=mu, sigma=sigma, m=xi + sigma,
                group_size=size, n_groups=len(groups), groups=groups,
            )
        )
        if sigma == 0:
            break
        active = [g[-1] for g in groups]
        tau -= sigma
        j += 1
    plan = ScheduleII(
        code=code, d=d, xi=xi, zeta=zeta, iterations=tuple(iterations)
    )
    # Bandwidth identities: one symbol per group per helper, and every
    # iteration pins down exactly (d-2b) entries per group.
    assert sum(it.n_groups for it in plan.iterations) == code.beta_of(d)
    assert sum(it.n_groups * span for it in plan.iterations) == code.alpha
    return plan


def check_field(code: Derived, field: Field) -> None:
    """The field must supply n distinct nonzero evaluation points: p-1 >= n."""
    if field.p - 1 < code.n:
        raise BaerCodeError(
            f"GF({field.p}) has only {field.p - 1} nonzero points, need n={code.n}"
        )


# -- flat key-value parameter files ---------------------------------------

# Every p, read or searched, is below this: there is_prime is a proof and
# Field(p) builds fast.
P_LIMIT = 2**64


def parse_params_text(text: str) -> tuple[CodeParams, int | None]:
    """Parse `key=value` lines with keys n,k,b,alpha,D (comma separated) and
    optionally p, below P_LIMIT.  Blank lines and #-comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BaerCodeError(f"params line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().lower()] = val.strip()
    missing = {"n", "k", "b", "alpha", "d"} - set(values)
    if missing:
        raise BaerCodeError(f"params file missing keys: {', '.join(sorted(missing))}")
    try:
        d_set = tuple(int(x) for x in values["d"].split(",") if x.strip())
        params = CodeParams(
            n=int(values["n"]), k=int(values["k"]), d_set=d_set,
            b=int(values["b"]), alpha=int(values["alpha"]),
        )
        p = int(values["p"]) if "p" in values else None
    except ValueError as exc:
        raise BaerCodeError(f"params file: {exc}") from exc
    if p is not None and p >= P_LIMIT:
        raise BaerCodeError(f"params file: p={p} is not below 2**64")
    return params, p


def format_params_text(params: CodeParams, p: int | None = None) -> str:
    lines = [
        f"n={params.n}",
        f"k={params.k}",
        f"b={params.b}",
        f"alpha={params.alpha}",
        "D=" + ",".join(str(d) for d in params.d_set),
    ]
    if p is not None:
        lines.append(f"p={p}")
    return "\n".join(lines) + "\n"
