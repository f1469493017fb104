"""Command line front end: generate sequences, certify, report escapes.

Exit codes: 0 success (certified), 1 a certification returned Failed,
2 invalid configuration (the error object is printed as JSON on stderr).
Payload bodies are deterministic; run metadata stays in the header.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import __version__, serialize
from ._intmath import primes_below
from .certify import certify_qc, check_generation, escape_report
from .circle import phi
from .errors import QcdenseError, ValidationError
from .groups import Torus
from .nonabelian import builtin_group, certify_qc_with_finite_factor
from .sequences import from_members, profinite_sequence, solenoid_sequence, torus_sequence
from .serialize import (
    certificate_to_json,
    escape_report_to_json,
    superseq_to_json,
)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        if not text.startswith("below:"):
            return tuple(int(p) for p in text.split(","))
        limit = int(text.split(":", 1)[1])
    except ValueError as exc:
        raise ValidationError(f"cannot parse prime list {text!r}") from exc
    return tuple(primes_below(limit))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcdense")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", choices=["torus", "profinite", "solenoid"], default="torus")
        p.add_argument("--N", type=int, default=None, help="arc member count")
        p.add_argument("--primes", type=str, default=None, help="comma list or below:LIMIT")
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        p.add_argument("--m-cap", dest="m_cap", type=int, default=None)
        p.add_argument("--out", type=str, default=None)

    gen = sub.add_parser("gen", help="emit a super-sequence truncation as JSON")
    add_common(gen)

    cert = sub.add_parser("certify", help="produce a per-character witness certificate")
    add_common(cert)
    cert.add_argument("--bound", type=int, required=True)
    cert.add_argument("--mode", choices=["qc", "generation"], default="qc")
    cert.add_argument("--finite-factor", dest="finite_factor", type=str, default=None)
    cert.add_argument("--singleton", type=str, default=None, help="certify {phi(a/b)} on the torus")

    rep = sub.add_parser("report", help="escape counts for a profinite truncation level")
    add_common(rep)
    rep.add_argument("--wn", type=int, required=True, help="level n of the subgroup W_n")

    return parser


# the family options each sequence reads; giving any other is an error
_FAMILY_FLAGS = {"N": "--N", "primes": "--primes", "n_max": "--n-max", "m_cap": "--m-cap"}
_FAMILY_USES = {
    "singleton": (),
    "torus": ("N",),
    "profinite": ("primes", "n_max", "m_cap"),
    "solenoid": ("N", "primes", "n_max", "m_cap"),
}


def _reject_unused(args, family: str) -> None:
    unused = [
        flag
        for dest, flag in _FAMILY_FLAGS.items()
        if dest not in _FAMILY_USES[family] and getattr(args, dest) is not None
    ]
    if unused:
        raise ValidationError(f"{family} sequences do not use {', '.join(unused)}")


def _build_sequence(args):
    if args.command == "certify" and args.singleton is not None:
        if args.group != "torus":
            raise ValidationError("--singleton applies to the torus only")
        _reject_unused(args, "singleton")
        return from_members(Torus(), [phi(args.singleton)], name="singleton")
    group = args.group
    _reject_unused(args, group)
    if group == "torus":
        if args.N is None:
            raise ValidationError("torus sequences need --N")
        return torus_sequence(args.N)
    if args.primes is None:
        raise ValidationError(f"{group} sequences need --primes")
    primes = _parse_primes(args.primes)
    if args.n_max is None:
        raise ValidationError(f"{group} sequences need --n-max")
    if group == "profinite":
        return profinite_sequence(primes, args.n_max, args.m_cap)
    if args.N is None:
        raise ValidationError("solenoid sequences need --N")
    return solenoid_sequence(primes, args.n_max, args.N, args.m_cap)


def _emit(args, payload: dict, header_extra: dict) -> None:
    header = {"tool": "qcdense", "version": __version__, "command": args.command}
    header.update(header_extra)
    stream = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with stream as fh:
        # looked up on the module, so the write stays in cli.main's own time
        # (bench/README.md's cli.self_s)
        serialize.dump_indented({"header": header, "payload": payload}, fh)
        fh.write("\n")


def _run(args) -> int:
    if args.command == "gen":
        seq = _build_sequence(args)
        _emit(args, superseq_to_json(seq), {})
        return 0

    if args.command == "certify":
        if args.bound < 1:
            raise ValidationError("--bound must be at least 1")
        if args.finite_factor is not None and args.mode != "qc":
            raise ValidationError("--finite-factor supports --mode qc only")
        seq = _build_sequence(args)
        if args.finite_factor is not None:
            F = builtin_group(args.finite_factor)
            cert = certify_qc_with_finite_factor(seq, F, args.bound)
        elif args.mode == "generation":
            cert = check_generation(seq, seq.group, args.bound)
        else:
            cert = certify_qc(seq, seq.group, args.bound)
        _emit(args, certificate_to_json(cert), {"mode": cert.mode})
        return 0 if cert.certified else 1

    # report
    if args.wn < 0:
        raise ValidationError("--wn must be a natural number")
    seq = _build_sequence(args)
    rep = escape_report(seq, args.wn)
    _emit(args, escape_report_to_json(rep), {})
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except QcdenseError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
