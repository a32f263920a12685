"""Impossibility pipeline for three-geodesic configurations on S^3.

Input: germ data for exactly three curves on a bumpy 3-sphere, every
index positive.  The topological facts (local-homology dimensions,
loop-space Betti numbers, Morse inequalities) are treated as axioms
that any configuration realized by an actual metric must satisfy; the
index side is computed unconditionally from the germ data.  A stage
whose Morse-forced constraint fails arithmetically therefore certifies
that no bumpy metric with everywhere-nonzero index realizes the data,
and the report says which constraint broke, with every number needed
to replay the violation.

Stage chain:

  admissibility     three germs on S^3, bumpy, i >= 1, positive mean, growth
  parity-screen     an even-index curve must exist, and two-odd-one-even
                    dies on a degree-2N count (at most one contributor
                    against Betti number 2)
  iteration-horizon the finite horizon beyond which indices grew by 4
  jump-search       a fully verified certificate at tolerances /p
  rounding-check,   the certificate's rounding and jump identities,
  jump-identities   checked again on the problem it was found for
  index-window      iterates below/above 2m_k stay under/over 2N -+ i(c)
  forced-top        both even curves must top out exactly at 2N
  gamma-window      the signed sum 2*sum m_k*gamma_k is squeezed into
                    [2N-2, 2N-1] by the alternating Morse inequalities
  scaling           the certificate scales by p (p_hat, 4 by default)
                    with chi, Delta frozen
  scaled-window     the index window holds at the scaled certificate
  mod4-clash        the scaled squeeze demands p*S in [2pN-2, 2pN-1],
                    which no admissible S can satisfy when p >= 3

The run stops at the first stage that does not pass, and that stage's
verdict names the final: CONTRADICTION(<stage>) for a broken
constraint, INCONCLUSIVE(outside-assumption) for a system outside the
three-curve pattern the pipeline certifies, and
INCONCLUSIVE(verification-error) where a check of the pipeline's own
numbers fails; INCONCLUSIVE(no-stage-failed) when every stage passes.
Every contradiction verdict carries a replayable witness.  `replay`
trusts no number in a report: it runs the chain again on the echoed
system, under the settings the report pins, and requires the same
report.  Each verdict is derived in one place, its stage function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .iteration import (IndexGerm, _index, _kernel, bott_positive,
                        gamma_invariant, germ_mbar, index_at, is_bumpy, mbar,
                        mean_index)
from .jump import (CertificateMismatch, JumpCertificate, ScaledCertificate,
                   build_problem, scale, search, verify_jump, verify_rounding)
from .morse import betti, parity_counts
from . import serialize
from .serialize import _int


class AdmissibilityError(ValueError):
    """The germ system violates a hard hypothesis of the pipeline."""


@dataclass(frozen=True)
class GeodesicSystem:
    germs: Tuple[IndexGerm, ...]

    @staticmethod
    def of(*germs: IndexGerm) -> "GeodesicSystem":
        return GeodesicSystem(tuple(germs))


@dataclass(frozen=True)
class PipelineConfig:
    delta: Fraction = Fraction(1, 64)
    epsilon: Fraction = Fraction(1, 64)
    p_hat: int = 4
    n_min: int = 2
    n_max: int = 10_000_000
    M0: int = 1
    mbar_override: Optional[int] = None

    def __post_init__(self):
        if self.p_hat < 1:
            raise ValueError("p_hat must be positive")
        if self.mbar_override is not None and self.mbar_override < 1:
            raise ValueError("--mbar must be positive")


@dataclass
class StageRecord:
    name: str
    verdict: str              # pass | contradiction | inconclusive | error
    witness: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "verdict": self.verdict,
                "witness": self.witness}


@dataclass
class ImpossibilityReport:
    system: Dict[str, object]
    stages: List[StageRecord]
    final: str

    def to_dict(self) -> Dict[str, object]:
        return {"system": self.system,
                "stages": [s.to_dict() for s in self.stages],
                "final": self.final}


# -- individual stages ---------------------------------------------------


def admissibility(system: GeodesicSystem) -> Dict[str, object]:
    """Hard hypotheses: S^3, bumpy, index >= 1, positive mean, growth."""
    notes: Dict[str, object] = {}
    for germ in system.germs:
        if germ.n != 3:
            raise AdmissibilityError(
                f"germ {germ.name!r} is on a manifold of dimension "
                f"{germ.n}; the pipeline holds for S^3 only")
        if not is_bumpy(germ):
            raise AdmissibilityError(f"germ {germ.name!r} is not bumpy")
        if germ.i1 < 1:
            raise AdmissibilityError(
                f"germ {germ.name!r} has index {germ.i1} < 1")
        mean = mean_index(germ)
        if not mean.gt(0):
            raise AdmissibilityError(
                f"germ {germ.name!r} has nonpositive mean index")
        if not bott_positive(germ):
            raise AdmissibilityError(
                f"germ {germ.name!r} fails index positivity under iteration")
        notes[germ.name] = {"i1": germ.i1,
                            "mean_index": mean.describe(),
                            "bumpy": True}
    return notes


def screen_parities(system: GeodesicSystem,
                    config: PipelineConfig) -> StageRecord:
    """Classify the index parity pattern; kill the impossible ones.

    With no even-index curve at all, even degrees get no local homology
    and the degree-2 Betti number is already unreachable.  With exactly
    one even curve, a certificate for that curve confines every even
    contribution to a single degree-2N slot against a Betti number of 2.
    """
    germs = system.germs
    odd = [g for g in germs if g.i1 % 2 == 1]
    even = [g for g in germs if g.i1 % 2 == 0]
    base: Dict[str, object] = {"indices": [g.i1 for g in germs]}

    if len(germs) != 3:
        return StageRecord("parity-screen", "inconclusive",
                           {**base, "reason": "outside-assumption",
                            "detail": f"{len(germs)} curves, pipeline "
                                      f"certifies exactly 3"})
    if len(even) == 0:
        # parity alone: every even degree has zero count, b_2 = 1
        return StageRecord("parity-screen", "contradiction",
                           {**base, "argument": "all-odd",
                            "degree": 2, "M": 0, "betti": betti(2)})
    if len(even) == 1:
        g3 = even[0]
        problem = build_problem([g3], config.delta, config.epsilon,
                                config.M0)
        m_bar = germ_mbar(g3)
        cert = search(problem, config.n_min, config.n_max, m_bar=m_bar)
        window = verify_index_window([g3], cert, m_bar)
        top = index_at(g3, 2 * cert.m[0])
        m_2n = 1 if top == 2 * cert.N else 0
        return StageRecord("parity-screen",
                           "contradiction" if window.ok else "error",
                           {**base, "argument": "two-odd-one-even",
                            "even_curve": g3.name, "N": cert.N,
                            "m": cert.m[0], "window_ok": window.ok,
                            "top_index": top,
                            "M_2N_bound": m_2n, "betti_2N": 2})
    if len(even) == 2:
        if odd[0].i1 == 1:
            return StageRecord("parity-screen", "pass",
                               {**base, "pattern": "(1, even, even)"})
        return StageRecord("parity-screen", "inconclusive",
                           {**base, "reason": "outside-assumption",
                            "detail": "odd curve has index >= 3; the "
                                      "three-curve argument needs index 1"})
    return StageRecord("parity-screen", "inconclusive",
                       {**base, "reason": "outside-assumption",
                        "detail": "no odd-index curve"})


@dataclass
class WindowReport:
    ok: bool
    failures: List[Dict[str, object]] = field(default_factory=list)
    side_conditions: Dict[str, object] = field(default_factory=dict)


def verify_index_window(germs: Sequence[IndexGerm], cert: JumpCertificate,
                        m_bar: int) -> WindowReport:
    """Window inequalities around the 2m_k-th iterate.

    Below: i(c^j) <= 2N - i(c) for every 1 <= j < 2m_k.  The deviation
    bound i(c^j) <= j*mean + C - S+ settles every j with
    j*mean.hi + C - S+ <= 2N - i(c); the remaining j, a count that does
    not grow with m_k, are checked by direct evaluation.

    Above: i(c^{2m_k + m}) >= 2N + i(c), checked directly for
    m <= m_bar; beyond that the superadditivity defect of
    the ceiling (each term in [-1, 0]) gives

        i(c^{2m_k+m}) >= i(c^m) + 2N + 2*Delta_k - 2*C_k,

    which suffices once i(c^m) >= i(c) + 4 (the horizon property) and
    C_k - Delta_k <= 2; both are checked and recorded, the latter being
    automatic for 4-dimensional block data.

    The germs must be the certificate's curves, in its order
    (CertificateMismatch otherwise), and every curve needs rho = 1 and a
    mean with a positive upper end, as in every admissible system
    (ValueError otherwise); both are checked before any iterate is
    evaluated.
    """
    names = tuple(g.name for g in germs)
    if names != cert.names:
        raise CertificateMismatch(f"certificate does not fit the system: "
                                  f"curve names {cert.names}, want {names}")
    for k, germ in enumerate(germs):
        if cert.rho[k] != 1 or _kernel(germ).mean[1] <= 0:
            raise ValueError(f"index window of curve {germ.name!r} needs "
                             f"rho = 1 and a positive mean index")
    report = WindowReport(ok=True)
    for k, germ in enumerate(germs):
        m_k = cert.m[k]
        two_n = 2 * cert.N
        below = two_n - germ.i1
        kernel = _kernel(germ)
        c_val = kernel.c
        _, H, d, _ = kernel.mean
        settled = (below - c_val + kernel.s_plus) * d // H
        for j in range(max(1, settled + 1), 2 * m_k):
            val = _index(kernel, j)
            if val > below:
                report.ok = False
                report.failures.append(
                    {"curve": germ.name, "side": "below", "iterate": j,
                     "index": val, "bound": below})
        for m in range(1, m_bar + 1):
            val = _index(kernel, 2 * m_k + m)
            if val < two_n + germ.i1:
                report.ok = False
                report.failures.append(
                    {"curve": germ.name, "side": "above", "m": m,
                     "index": val, "bound": two_n + germ.i1})
        horizon_ok = germ_mbar(germ) <= m_bar
        tail_ok = c_val - cert.Delta[k] <= 2
        report.side_conditions[germ.name] = {
            "C": c_val, "Delta": cert.Delta[k],
            "horizon_covers_germ": horizon_ok,
            "tail_slack_ok": tail_ok,
        }
        if not (horizon_ok and tail_ok):
            report.ok = False
    return report


def forced_top_indices(system: GeodesicSystem, cert: JumpCertificate
                       ) -> StageRecord:
    """Both even-index curves must top out exactly at 2N.

    Anything else leaves the degree-2N count at most 1 against a Betti
    number of 2, so a mismatch is a contradiction witness.
    """
    two_n = 2 * cert.N
    tops: Dict[str, int] = {}
    contributors = 0
    mismatch: List[str] = []
    for k, germ in enumerate(system.germs):
        top = index_at(germ, 2 * cert.m[k])
        tops[germ.name] = top
        if germ.i1 % 2 == 0:
            if top == two_n:
                contributors += 1
            else:
                mismatch.append(germ.name)
    witness = {"tops": tops, "two_N": two_n,
               "M_2N_bound": contributors, "betti_2N": 2,
               "mismatched": mismatch}
    return StageRecord("forced-top", "contradiction" if mismatch else "pass",
                       witness)


def sandwich(system: GeodesicSystem, cert: JumpCertificate
             ) -> Tuple[Fraction, Tuple[int, int], StageRecord]:
    """Squeeze the signed iterate sum between the Morse bounds.

    S = sum_k 2 m_k gamma_k must satisfy

        S - e(2N)  + o(2N)  >= 2N - 1      (even-degree squeeze)
        S - e(2N-1)+ o(2N-1) <= 2N - 3     (odd-degree squeeze)

    with e/o the parity counts of top indices beyond the degree cut.
    Both are consequences of the Morse inequalities for any realizable
    configuration, so a numeric failure is a contradiction.
    """
    germs = system.germs
    n2 = 2 * cert.N
    s_val = Fraction(0)
    gammas: Dict[str, str] = {}
    for k, germ in enumerate(germs):
        g = gamma_invariant(germ.i1, index_at(germ, 2))
        gammas[germ.name] = str(g)
        s_val += 2 * cert.m[k] * g
    if (2 * s_val).denominator != 1:
        raise ArithmeticError("gamma sum must be a half-integer")
    e_hi, o_hi = parity_counts(germs, cert, n2)
    e_lo, o_lo = parity_counts(germs, cert, n2 - 1)
    lower = n2 - 1 + e_hi - o_hi
    upper = n2 - 3 + e_lo - o_lo
    ok_low = s_val >= lower
    ok_high = s_val <= upper
    witness = {
        "S": str(s_val), "gammas": gammas, "N": cert.N,
        "m": list(cert.m),
        "counts": {"e_2N": e_hi, "o_2N": o_hi,
                   "e_2N_minus_1": e_lo, "o_2N_minus_1": o_lo},
        "window": [str(lower), str(upper)],
        "even_squeeze_ok": ok_low, "odd_squeeze_ok": ok_high,
    }
    verdict = "pass" if (ok_low and ok_high) else "contradiction"
    return s_val, (lower, upper), StageRecord("gamma-window", verdict, witness)


def mod4_window_certificate(N: int, gammas: Sequence[Fraction],
                            p_hat: int = 4) -> Dict[str, object]:
    """Arithmetic certificate that the squeeze scaled by p = p_hat is
    unsatisfiable.

    The gamma vector fixes the lattice of possible values of
    S = sum 2 m_k gamma_k (integers; even integers when every |gamma|
    is 1).  No lattice point of the base window [2N-2, 2N-1] has p*S
    inside [2pN-2, 2pN-1], and no multiple of p lies there at all; the
    latter holds for every p >= 3 and for no p <= 2.  The key
    ``multiples_of_4_in_scaled_window`` keeps its name at every p.
    """
    half = any(abs(g) == Fraction(1, 2) for g in gammas)
    step = 1 if half else 2
    base_lo, base_hi = 2 * N - 2, 2 * N - 1
    candidates = [s for s in range(base_lo, base_hi + 1) if s % step == 0]
    scaled_window = (2 * p_hat * N - 2, 2 * p_hat * N - 1)
    offenders = [s for s in candidates
                 if scaled_window[0] <= p_hat * s <= scaled_window[1]]
    multiples = [x for x in range(scaled_window[0], scaled_window[1] + 1)
                 if x % p_hat == 0]
    return {
        "lattice_step": step,
        "base_window": [base_lo, base_hi],
        "base_candidates": candidates,
        "scaled_window": list(scaled_window),
        "candidates_hitting_scaled_window": offenders,
        "multiples_of_4_in_scaled_window": multiples,
        "excluded": not offenders and not multiples,
    }


def mod4_contradiction(system: GeodesicSystem, base_cert: JumpCertificate,
                       scaled: ScaledCertificate,
                       s_base: Fraction) -> StageRecord:
    """Final clash: the scaled squeeze cannot hold for any admissible S."""
    p = scaled.p_hat
    gammas = [gamma_invariant(g.i1, index_at(g, 2)) for g in system.germs]
    s_hat = sum((2 * m * g for m, g in zip(scaled.m_hat, gammas)),
                Fraction(0))
    cert_dict = mod4_window_certificate(base_cert.N, gammas, p)
    lo, hi = cert_dict["scaled_window"]
    witness = {
        "S": str(s_base), "S_hat": str(s_hat),
        "S_hat_equals_p_S": s_hat == p * s_base,
        "p_hat": p,
        "scaled_window": [lo, hi],
        "S_hat_inside_scaled_window": bool(lo <= s_hat <= hi),
        "window_certificate": cert_dict,
    }
    # the scaled squeeze demands S_hat in [2pN-2, 2pN-1]; arithmetic
    # forbids it
    if cert_dict["excluded"] and not (lo <= s_hat <= hi):
        return StageRecord("mod4-clash", "contradiction", witness)
    return StageRecord("mod4-clash", "pass", witness)


# a report's final, by the verdict of its last stage
_FINAL = {"pass": "INCONCLUSIVE(no-stage-failed)",
          "contradiction": "CONTRADICTION({})",
          "inconclusive": "INCONCLUSIVE(outside-assumption)",
          "error": "INCONCLUSIVE(verification-error)"}


def run_pipeline(system: GeodesicSystem,
                 config: Optional[PipelineConfig] = None
                 ) -> ImpossibilityReport:
    """Run the stage chain up to the first stage that does not pass;
    that stage's verdict names the final (INCONCLUSIVE(no-stage-failed)
    when every stage passes).  The system decided is its echo read back;
    where a curve reads back as no germ (a declared-irrational D
    eigenvalue, whose block writes no flag, echoed as a rational that
    straddles 1, say), AdmissibilityError names the curve."""
    config = config or PipelineConfig()
    echo = serialize.system_to_dict(system.germs)
    if not serialize._echoes_exactly(system.germs):
        # decide on the system the report names, not a narrower one
        try:
            system = GeodesicSystem(serialize.system_from_dict(echo))
        except ValueError as exc:
            for curve in echo["curves"]:  # the curve that fails alone
                try:
                    serialize.system_from_dict({**echo, "curves": [curve]})
                except ValueError:
                    raise AdmissibilityError(
                        f"curve {curve['name']!r} reads back from its echo "
                        f"as no germ (the D schema writes no irrational "
                        f"flag): {exc}") from None
            raise
    stages: List[StageRecord] = []
    for stage in _chain(system, config):
        stages.append(stage)
        if stage.verdict != "pass":
            break
    return ImpossibilityReport(echo, stages,
                               _FINAL[stage.verdict].format(stage.name))


def _chain(system: GeodesicSystem,
           config: PipelineConfig) -> Iterator[StageRecord]:
    """The stage records in chain order, each formed only when the one
    before it has been read."""
    if len(system.germs) != 3:
        yield screen_parities(system, config)
        return
    yield StageRecord("admissibility", "pass", admissibility(system))
    yield screen_parities(system, config)

    m_bar = (mbar(system.germs) if config.mbar_override is None
             else config.mbar_override)
    yield StageRecord("iteration-horizon", "pass", {"m_bar": m_bar})

    problem = build_problem(system.germs,
                            config.delta / config.p_hat,
                            config.epsilon / config.p_hat,
                            config.M0)
    cert = search(problem, config.n_min, config.n_max, m_bar=m_bar)
    yield StageRecord("jump-search", "pass",
                      serialize.certificate_to_dict(cert))

    ok = verify_rounding(problem, cert).ok
    yield StageRecord("rounding-check", "pass" if ok else "error", {"ok": ok})
    ok = verify_jump(problem, cert, m_bar).ok
    yield StageRecord("jump-identities", "pass" if ok else "error",
                      {"ok": ok, "m_bar": m_bar})

    window = verify_index_window(system.germs, cert, m_bar)
    yield StageRecord("index-window", "pass" if window.ok else "error",
                      {"ok": window.ok, "failures": window.failures,
                       "side_conditions": window.side_conditions})
    yield forced_top_indices(system, cert)
    s_base, _, squeeze = sandwich(system, cert)
    yield squeeze

    scaled = scale(problem, cert, config.p_hat, m_bar)
    yield StageRecord("scaling", "pass", serialize.scaled_to_dict(scaled))
    scaled_cert = scaled.certificate
    scaled_window = verify_index_window(system.germs, scaled_cert, m_bar)
    yield StageRecord(
        "scaled-window", "pass" if scaled_window.ok else "error",
        {"window_ok": scaled_window.ok,
         "forced_top": forced_top_indices(system, scaled_cert).witness,
         "squeeze": sandwich(system, scaled_cert)[2].witness})
    yield mod4_contradiction(system, cert, scaled, s_base)


# -- replay ---------------------------------------------------------------


def replay(report: ImpossibilityReport) -> bool:
    """Run the stage chain again on the report's echoed system.

    The rerun uses the settings the report pins: N, M0 and the divided
    tolerances of its jump-search certificate (so n_min = n_max = N),
    p_hat of its scaling stage (1 without one: the stages before scaling
    read only delta/p and eps/p) and m_bar of its iteration-horizon
    stage, passed as the override.  A parity-screen report records no
    tolerances, so it reruns at the PipelineConfig defaults on [N, N].
    True means the rerun ends in a contradiction and its to_dict()
    equals the report's, so every number the report cites comes from
    the stage that cites it.  A report that cannot be read or rerun
    gives False; replay never raises.
    """
    try:
        pinned = {s.name: s.witness for s in report.stages}
        if "jump-search" in pinned:
            cert = serialize.certificate_from_dict(pinned["jump-search"])
            p_hat = (_int(pinned["scaling"]["p_hat"], "p_hat")
                     if "scaling" in pinned else 1)
            config = PipelineConfig(
                delta=cert.delta * p_hat, epsilon=cert.epsilon * p_hat,
                p_hat=p_hat, n_min=cert.N, n_max=cert.N, M0=cert.M0,
                mbar_override=_int(pinned["iteration-horizon"]["m_bar"],
                                   "m_bar"))
        else:
            screen = pinned["parity-screen"]
            # an all-odd screen searches no N
            n = _int(screen["N"], "N") if "N" in screen else 2
            config = PipelineConfig(n_min=n, n_max=n)
        germs = serialize.system_from_dict(report.system)
        rerun = run_pipeline(GeodesicSystem(germs), config)
        return (rerun.final.startswith("CONTRADICTION(")
                and rerun.to_dict() == report.to_dict())
    # the library raises ValueError, ArithmeticError, RuntimeError and
    # AssertionError subclasses; a report of the wrong shape, the others
    except (ValueError, ArithmeticError, RuntimeError, AssertionError,
            LookupError, TypeError):
        return False
