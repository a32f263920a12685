"""Command-line front end.

Subcommands cover the library surface: iterate index tables, mean
indices, parity invariants, iteration horizons, jump-certificate search
and verification, certificate scaling, Morse count tables, and the full
three-curve impossibility pipeline.  All persisted artifacts are JSON
with rationals as "p/q" strings; output is deterministic.

Exit codes: 0 computed, 1 error (usage errors and malformed input
included), 2 contradiction certified (anosov).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import serialize
from .anosov import (AdmissibilityError, GeodesicSystem, PipelineConfig,
                     run_pipeline)
from .exact import PrecisionInsufficient
from .iteration import (IndexGerm, IndexProfile, Unbounded, gamma_invariant,
                        index_at, germ_mbar, mbar, mean_index)
from .jump import (NotFound, ScaleMismatch, build_problem, check_certificate,
                   scale, search, verify_jump, verify_rounding)
from .morse import TruncationUnsound, betti, morse_numbers_up_to
from .serialize import SchemaError


def parse_system(path: str) -> tuple[IndexGerm, ...]:
    """Load and fully validate a system file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return serialize.system_from_dict(doc)


def _germ(germs: Sequence[IndexGerm], name: Optional[str]) -> IndexGerm:
    if name is None:
        if len(germs) == 1:
            return germs[0]
        raise SchemaError("--curve is required for multi-curve systems")
    for g in germs:
        if g.name == name:
            return g
    raise SchemaError(f"no curve named {name!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _tolerance(text: str) -> Fraction:
    f = _fraction(text)
    if not 0 < f < Fraction(1, 2):
        raise argparse.ArgumentTypeError("tolerances must lie in (0, 1/2)")
    return f


def _emit(payload: Dict[str, object], fmt: str, table_rows: List[str],
          output: Optional[str]) -> None:
    if fmt == "json":
        text = serialize.dumps(payload)
    else:
        text = "\n".join(table_rows) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error: 2 is reserved for a
    certified contradiction."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: each parse gets a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="geoindex",
        description="Certified index iteration and jump certificates for "
                    "symplectic path germs")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, curve=False, cert=False, jump_flags=False):
        p.add_argument("--system", required=True, help="system JSON file")
        p.add_argument("--format", choices=("table", "json"),
                       default="table")
        p.add_argument("--output", help="write to this path instead of stdout")
        if curve:
            p.add_argument("--curve", help="curve name")
        if cert:
            p.add_argument("--certificate", required=True,
                           help="certificate JSON file")
        if jump_flags:
            p.add_argument("--delta", type=_tolerance,
                           default=Fraction(1, 64))
            p.add_argument("--epsilon", type=_tolerance, default=None)
            p.add_argument("--n-min", type=int, default=1)
            p.add_argument("--n-max", type=int, default=10_000_000)
            p.add_argument("--m0", type=int, default=1,
                           help="require N to be a multiple of this")
            p.add_argument("--mbar", type=int, default=None,
                           help="verification horizon override")

    p = sub.add_parser("index", help="iterate index/nullity table")
    common(p, curve=True)
    p.add_argument("--m-max", type=int, default=12)

    common(sub.add_parser("mean-index", help="mean index per curve"))
    common(sub.add_parser("gamma", help="parity invariant per curve"))
    common(sub.add_parser("mbar", help="iteration horizon of the system"))

    p = sub.add_parser("jump-search", help="search a verified certificate")
    common(p, jump_flags=True)

    p = sub.add_parser("verify-jump", help="re-verify a certificate")
    common(p, cert=True)
    p.add_argument("--mbar", type=int, default=None)

    p = sub.add_parser("scale-jump", help="scale a certificate by p")
    common(p, cert=True)
    p.add_argument("--p-hat", type=int, required=True)
    p.add_argument("--mbar", type=int, default=None)

    p = sub.add_parser("morse", help="Morse counts against Betti numbers")
    common(p, cert=True)
    p.add_argument("--mbar", type=int, default=None)

    p = sub.add_parser("anosov", help="three-curve impossibility pipeline")
    common(p, jump_flags=True)
    p.add_argument("--p-hat", type=int, default=4)

    return top


def _horizon(germs, override: Optional[int]) -> int:
    if override is not None:
        if override < 1:
            raise SchemaError("--mbar must be positive")
        return override
    try:
        return mbar(germs)
    except Unbounded as exc:
        raise SchemaError(
            f"{exc}; pass --mbar explicitly for mixed-sign systems")


def _cmd_index(args) -> int:
    germs = parse_system(args.system)
    germ = _germ(germs, args.curve)
    profile = IndexProfile(germ, args.m_max)
    rows = profile.rows()
    payload = {"curve": germ.name,
               "rows": [{"m": m, "index": i, "nullity": nu}
                        for m, i, nu in rows]}
    table = [f"{'m':>4} {'index':>7} {'nullity':>8}"]
    table += [f"{m:>4} {i:>7} {nu:>8}" for m, i, nu in rows]
    _emit(payload, args.format, table, args.output)
    return 0


def _cmd_mean_index(args) -> int:
    germs = parse_system(args.system)
    payload = {"curves": [{"name": g.name,
                           "mean_index": serialize.number_to_str(mean_index(g))}
                          for g in germs]}
    table = [f"{g.name}: {serialize.number_to_str(mean_index(g))}"
             for g in germs]
    _emit(payload, args.format, table, args.output)
    return 0


def _cmd_gamma(args) -> int:
    germs = parse_system(args.system)
    rows = []
    for g in germs:
        gam = gamma_invariant(g.i1, index_at(g, 2))
        rows.append((g.name, str(gam)))
    payload = {"curves": [{"name": n, "gamma": v} for n, v in rows]}
    _emit(payload, args.format, [f"{n}: {v}" for n, v in rows], args.output)
    return 0


def _cmd_mbar(args) -> int:
    germs = parse_system(args.system)
    per = {g.name: germ_mbar(g) for g in germs}
    payload = {"per_curve": per, "m_bar": max(per.values())}
    table = [f"{n}: {v}" for n, v in per.items()]
    table.append(f"system: {max(per.values())}")
    _emit(payload, args.format, table, args.output)
    return 0


def _cmd_jump_search(args) -> int:
    germs = parse_system(args.system)
    problem = build_problem(germs, args.delta, args.epsilon, args.m0)
    horizon = _horizon(germs, args.mbar)
    cert = search(problem, args.n_min, args.n_max, m_bar=horizon)
    payload = serialize.certificate_to_dict(cert)
    table = [f"N = {cert.N}", f"M = {cert.M}", f"chi = {list(cert.chi)}"]
    table += [f"{name}: m = {m}, Delta = {d}, rho = {r}"
              for name, m, d, r in
              zip(cert.names, cert.m, cert.Delta, cert.rho)]
    _emit(payload, args.format, table, args.output)
    return 0


def _load_certificate(args):
    """Certificate, problem and horizon of a certificate subcommand; the
    certificate must fit the system."""
    germs = parse_system(args.system)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = serialize.certificate_from_dict(json.load(fh))
    problem = build_problem(germs, cert.delta, cert.epsilon, cert.M0)
    check_certificate(problem, cert)
    return cert, problem, _horizon(germs, args.mbar)


def _cmd_verify_jump(args) -> int:
    cert, problem, horizon = _load_certificate(args)
    rounding = verify_rounding(problem, cert)
    identities = verify_jump(problem, cert, horizon)
    ok = rounding.ok and identities.ok
    payload = {
        "ok": ok,
        "rounding": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                     for c in rounding.clauses],
        "identities": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                       for c in identities.clauses if not c.ok],
    }
    table = [f"rounding: {'ok' if rounding.ok else 'FAIL'}",
             f"identities (m <= {horizon}): "
             f"{'ok' if identities.ok else 'FAIL'}"]
    _emit(payload, args.format, table, args.output)
    return 0 if ok else 1


def _cmd_scale_jump(args) -> int:
    cert, problem, horizon = _load_certificate(args)
    scaled = scale(problem, cert, args.p_hat, horizon)
    payload = serialize.scaled_to_dict(scaled)
    table = [f"N_hat = {scaled.N_hat}",
             f"m_hat = {list(scaled.m_hat)}",
             f"chi_hat = {list(scaled.chi_hat)}",
             f"Delta_hat = {list(scaled.Delta_hat)}"]
    table += [f"{name}: {'ok' if ok else 'FAIL'}"
              for name, ok in scaled.checks]
    _emit(payload, args.format, table, args.output)
    return 0


def _cmd_morse(args) -> int:
    cert, problem, horizon = _load_certificate(args)
    counts = morse_numbers_up_to(problem.germs, problem, cert, 2 * cert.N,
                                 horizon)
    rows = [(q, counts.counts.get(q, 0), betti(q))
            for q in range(0, 2 * cert.N + 1)]
    payload = {"N": cert.N,
               "rows": [{"q": q, "M": m, "b": b} for q, m, b in rows]}
    table = [f"{'q':>4} {'M_q':>6} {'b_q':>6}"]
    table += [f"{q:>4} {m:>6} {b:>6}" for q, m, b in rows]
    _emit(payload, args.format, table, args.output)
    return 0


def _cmd_anosov(args) -> int:
    germs = parse_system(args.system)
    config = PipelineConfig(
        delta=args.delta,
        epsilon=args.epsilon if args.epsilon is not None else args.delta,
        p_hat=args.p_hat, n_min=max(2, args.n_min), n_max=args.n_max,
        M0=args.m0, mbar_override=args.mbar)
    report = run_pipeline(GeodesicSystem(tuple(germs)), config)
    payload = report.to_dict()
    table = [f"{s.name}: {s.verdict}" for s in report.stages]
    table.append(f"final: {report.final}")
    _emit(payload, args.format, table, args.output)
    return 2 if report.final.startswith("CONTRADICTION") else 0


_COMMANDS = {
    "index": _cmd_index,
    "mean-index": _cmd_mean_index,
    "gamma": _cmd_gamma,
    "mbar": _cmd_mbar,
    "jump-search": _cmd_jump_search,
    "verify-jump": _cmd_verify_jump,
    "scale-jump": _cmd_scale_jump,
    "morse": _cmd_morse,
    "anosov": _cmd_anosov,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotFound, Unbounded, AdmissibilityError, ScaleMismatch,
            PrecisionInsufficient, TruncationUnsound) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
