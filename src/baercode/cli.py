"""Command-line front end.

Subcommands: bounds, find-field, encode, repair, reconstruct, simulate,
selftest.  Exit codes: 0 ok, 2 validation error, 3 decode failure (no
consistent test-group), 4 configuration uncertified.  `repair` runs the
same driver as the simulator (repair.transmit, repair.decode) and alone
writes the helpers' payloads out as wire records.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import adversary as adv
from . import concat, repair, repair1, repair2, simnet
from .encoder import (
    format_message,
    format_share,
    parse_message_text,
    parse_share,
    encode_message,
)
from .errors import (
    BaerCodeError,
    NoConsistentGroupError,
    OmegaRankDeficientError,
)
from .galois import Field
from .params import (
    capacity_upper_bound,
    check_field,
    classical_bound,
    err_resilient_bound,
    format_params_text,
    parse_params_text,
    schedule_scheme2,
    validate,
)
from .reconstruct import testgroup_reconstruct

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DECODE = 3
EXIT_UNCERTIFIED = 4


def _load_params(path: str, need_p: bool = True):
    params, p = parse_params_text(Path(path).read_text())
    code = validate(params)
    fld = None
    if p is not None:
        fld = Field(p)
        check_field(code, fld)
    elif need_p:
        raise BaerCodeError(f"params file {path} has no field modulus p")
    return code, fld


def _policy(args) -> adv.AdversaryPolicy:
    strategy = {"honest": adv.HONEST, "random": adv.RANDOM, "liar": adv.LIAR}[args.adversary]
    controlled = simnet.parse_int_list(args.controlled or "")
    return adv.AdversaryPolicy(controlled=controlled, strategy=strategy, seed=args.seed)


def _read_shares(paths, code, fld):
    shares = {}
    for path in paths:
        parsed = parse_share(Path(path).read_text(), code, fld)
        if parsed is None:
            raise BaerCodeError(f"{path}: share parameters disagree with --params")
        shares[parsed[0].index] = parsed[0]
    return shares


# -- subcommands ------------------------------------------------------------

def cmd_bounds(args) -> int:
    code, _ = _load_params(args.params, need_p=False)
    gamma = dict(code.gamma)
    print(f"n={code.n} k={code.k} D={list(code.d_set)} b={code.b} alpha={code.alpha}")
    print(f"capacity f_mbr = {code.f_mbr} symbols")
    print(f"{'d':>4} {'beta(d)':>8} {'gamma_mbr(d)':>13}")
    for d in code.d_set:
        print(f"{d:>4} {code.beta_of(d):>8} {code.gamma_of(d):>13}")
    bound = capacity_upper_bound(code, gamma)
    print(f"adaptive capacity bound at gamma_mbr: {bound}")
    d_min = code.d_min
    print(
        f"classical bound (k={code.k}, d={d_min}, gamma={gamma[d_min]}): "
        f"{classical_bound(code.k, d_min, code.alpha, gamma[d_min])}"
    )
    print(
        f"error-resilient bound (b={code.b}): "
        f"{err_resilient_bound(code.k, d_min, code.b, code.alpha, gamma[d_min])}"
    )
    return EXIT_OK


def cmd_find_field(args) -> int:
    code, _ = _load_params(args.params, need_p=False)
    if args.scheme == "concat":
        if code.b != 0:
            print("concat scheme requires b = 0")
            return EXIT_UNCERTIFIED
        # only needs n distinct nonzero points: every prime >= n+1 serves
        search = repair1.search_field(code, lambda fld: False, lambda p: None, "usable", args.start)
        print(f"GF({search.field.p}): {code.n} distinct nonzero evaluation points available")
    else:
        find = repair1.find_field if args.scheme == "1" else repair2.find_field_scheme2
        search = find(code, start=args.start)
        print(search.report.summary())
    if search.rejected:
        print("rejected primes:", ", ".join(str(p) for p in search.rejected))
    print(f"p={search.field.p}")
    if args.out:
        Path(args.out).write_text(format_params_text(code.params, search.field.p))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_encode(args) -> int:
    code, fld = _load_params(args.params)
    if args.scheme == "concat":
        concat.require_b0(code)
    message = parse_message_text(Path(args.message).read_text(), code.f_mbr, fld.p)
    shares = encode_message(message, code, fld)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for share in shares:
        path = out / f"node{share.index:02d}.share"
        path.write_text(format_share(share, code, fld, args.scheme))
    print(f"wrote {len(shares)} share files to {out}")
    return EXIT_OK


def cmd_repair(args) -> int:
    code, fld = _load_params(args.params)
    f, d = args.failed, args.d
    if d not in code.d_set:
        raise BaerCodeError(f"--d {d} not in D={code.d_set}")
    shares = _read_shares(args.shares, code, fld)
    if f in shares:
        del shares[f]
    if args.helpers:
        helpers = sorted(simnet.parse_int_list(args.helpers))
    else:
        helpers = sorted(shares)[:d]
    if len(helpers) != d or any(h not in shares for h in helpers):
        raise BaerCodeError(f"need share files for exactly d={d} helpers {helpers}")
    policy = _policy(args)
    sent, moved = repair.transmit(args.scheme, {h: shares[h] for h in helpers}, f, d,
                                  policy, code, fld)
    share = repair.decode(args.scheme, sent, f, d, code, fld)
    text = format_share(share, code, fld, args.scheme)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.records:
        rec_dir = Path(args.records)
        rec_dir.mkdir(parents=True, exist_ok=True)
        if args.scheme != "concat":         # concat helpers send no wire records
            for h, payload in sent.items():
                (rec_dir / f"repair_h{h:02d}.rec").write_text(
                    repair.format_records(args.scheme, h, f, d, payload))
    print(
        f"bandwidth: d={d} per_helper={code.beta_of(d)} total={moved} "
        f"(gamma_mbr={code.gamma_of(d)})"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    code, fld = _load_params(args.params)
    shares = _read_shares(args.shares, code, fld)
    if args.nodes:
        nodes = list(simnet.parse_int_list(args.nodes))
    else:
        nodes = sorted(shares)[: code.k]
    if len(nodes) != code.k or any(n not in shares for n in nodes):
        raise BaerCodeError(f"need share files for exactly k={code.k} nodes {nodes}")
    policy = _policy(args)
    access = [adv.corrupt_access(policy, n, shares[n], code, fld) for n in nodes]
    message = testgroup_reconstruct(access, code, fld)
    text = format_message(message)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {code.f_mbr} symbols to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    code, fld = _load_params(args.params)
    script = simnet.parse_scenario(Path(args.scenario).read_text())
    if args.message:
        message = parse_message_text(Path(args.message).read_text(), code.f_mbr, fld.p)
    else:
        rng = random.Random(f"simulate-message:{args.seed}")
        message = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    cluster = simnet.init_cluster(code, message, args.scheme, fld)
    report = simnet.run_scenario(cluster, script, seed=args.seed)
    text = report.render()
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if report.all_ok else EXIT_DECODE


def cmd_selftest(args) -> int:
    code, fld = _load_params(args.params)
    ok = True
    if fld.p - 1 == code.n:
        print(
            f"note: p-1 == n boundary: GF({fld.p}) has exactly n={code.n} distinct "
            f"nonzero evaluation points; every nonzero element is in use"
        )
    if args.scheme == "1":
        report = repair1.verify_theta_all(code, fld)
        print(report.summary())
        ok = report.ok
    elif args.scheme == "2":
        try:
            for d in code.d_set:
                plan = schedule_scheme2(code, d)
                iters = " ".join(
                    f"(tau={it.tau},mu={it.mu},sigma={it.sigma},groups={it.n_groups})"
                    for it in plan.iterations
                )
                print(f"d={d}: xi={plan.xi} zeta={plan.zeta} schedule {iters}")
            print(f"GF({fld.p}): schedules valid for all d in D")
        except BaerCodeError as exc:
            print(f"schedule validation failed: {exc}")
            ok = False
        if ok:
            sysrep = repair2.verify_systems_all(code, fld)
            print(f"info: {sysrep.summary()}")
    else:
        if code.b != 0:
            print("concat scheme requires b = 0")
            ok = False
        else:
            print(f"GF({fld.p}): concat certified (b=0, alpha divisible by every d)")
    print("certified" if ok else "NOT certified")
    return EXIT_OK if ok else EXIT_UNCERTIFIED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="baercode",
        description="Bandwidth-adaptive, error-resilient exact-repair storage codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scheme=True):
        p.add_argument("--params", required=True, help="flat key=value parameter file")
        if scheme:
            p.add_argument("--scheme", choices=["1", "2", "concat"], default="1")

    p = sub.add_parser("bounds", help="capacity and repair-bandwidth table")
    common(p, scheme=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("find-field", help="search the smallest certified prime field")
    common(p)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--out", help="write params file with the found p")
    p.set_defaults(func=cmd_find_field)

    p = sub.add_parser("encode", help="encode a message file into n share files")
    common(p)
    p.add_argument("--message", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("repair", help="rebuild a failed node from helper shares")
    common(p)
    p.add_argument("--failed", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--helpers", help="comma list of helper indices (default: first d)")
    p.add_argument("--adversary", choices=["honest", "random", "liar"], default="honest")
    p.add_argument("--controlled", help="comma list of adversary-controlled nodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the repaired share here (default: stdout)")
    p.add_argument("--records", help="directory for per-helper wire records")
    p.add_argument("shares", nargs="+", help="helper share files")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("reconstruct", help="decode the message from k shares")
    common(p, scheme=False)
    p.add_argument("--nodes", help="comma list of k node indices (default: first k)")
    p.add_argument("--adversary", choices=["honest", "random", "liar"], default="honest")
    p.add_argument("--controlled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the message here (default: stdout)")
    p.add_argument("shares", nargs="+")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", help="run a scenario script against a fresh cluster")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--message", help="message file (default: seeded random)")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="certify the configuration for a scheme")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoConsistentGroupError as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except OmegaRankDeficientError as exc:
        print(f"configuration uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (BaerCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
