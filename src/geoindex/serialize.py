"""Lossless dict/JSON forms for systems, certificates, and reports.

Rationals travel as "p/q" strings, decimal intervals as "digits~k" with
an irrationality flag, written from a value's ends alone: a decimal at
radius 10**-k is written as itself, and any other interval widened to a
literal that contains it.

``dumps`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2) + "\n"`` with one recursive function, where the json module's
indenting encoder builds closures on every call.  It takes what a
document holds: dict with str keys, list, tuple, str, int, bool and
None, each of exactly that type; anything else, a float included, is a
TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (_DECIMAL, CertifiedReal, PrecisionBudget, _digits,
                    _row, _Row, default_budget)
from .iteration import IndexGerm
from .jump import JumpCertificate, ScaledCertificate
from .normal_forms import (BasicBlock, D, KIND_NONTRIVIAL, KIND_TRIVIAL,
                           N1, N2, R)


def number_to_str(x: CertifiedReal) -> str:
    """x as "p/q" if exact, else as a "digits~k" literal read from its
    ends: x itself where it is one, else x widened."""
    if x.exact:
        return str(x.lo)
    lo, hi, d, _ = row = _row(x)
    literal = _literal(row)
    if literal:
        return literal
    # widen to k = j - 1, j the least j with 10**-j < (hi - lo)/d, the
    # width (10**j > d/(hi - lo) holds at e + 1, fails at e - 1); up to
    # 390, and at least 1: a width above 1/10 may overhang that literal
    e = max(0, len(str(d)) - len(str(hi - lo)))
    j = e if (hi - lo) * 10 ** e > d else e + 1
    k = min(390, max(1, j - 1))
    scaled = round(Fraction(lo + hi, 2 * d) * 10 ** k)
    if j < 2 and not ((scaled - 1) * d <= 10 * lo
                      and 10 * hi <= (scaled + 1) * d):
        raise ValueError(f"no literal at radius 1/10 contains {x.describe()}")
    return f"{_scaled_to_decimal(scaled, k)}~{k}"


def _literal(row: _Row) -> Optional[str]:
    """The literal "c~k" that is the row [lo/d, hi/d] itself, if any: radius
    10**-k, centre c at the fewest digits, at least k, that write it."""
    lo, hi, d, _ = row
    w = hi - lo  # the radius w/(2d) is 10**-k iff 2d = w * 10**k
    q, r = divmod(2 * d, w)
    k = len(str(q)) - 1
    if r or not k or q != 10 ** k:
        return None
    # the centre times 10**(k + j) is (lo + hi) * 10**j / w: an integer
    # at j = max(a, b) < w.bit_length() if w / gcd(lo + hi, w) is
    # 2**a * 5**b, at no j otherwise
    for j in range(w.bit_length()):
        c, r = divmod((lo + hi) * 10 ** j, w)
        if not r:
            return f"{_scaled_to_decimal(c, k + j)}~{k}"
    return None


def _echoes_exactly(germs: Sequence[IndexGerm]) -> bool:
    """Whether system_to_dict writes each number of germs as itself; a
    D block writes no flag, so it loses a declared-irrational one."""
    pairs = ((b.lam, b.lam.irrational) if isinstance(b, D) else (b.t, False)
             for g in germs for b in g.blocks if not isinstance(b, N1))
    return all(x.exact or not lost and _literal(_row(x)) for x, lost in pairs)


def _scaled_to_decimal(scaled: int, k: int) -> str:
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{s[:-k]}.{s[-k:]}" if k else f"{sign}{s}"


def block_to_dict(block: BasicBlock) -> Dict[str, object]:
    if isinstance(block, N1):
        return {"type": "N1", "eigenvalue": block.eigenvalue,
                "b": block.b_class}
    if isinstance(block, D):
        return {"type": "D", "lambda": number_to_str(block.lam)}
    if isinstance(block, R):
        d: Dict[str, object] = {"type": "R",
                                "theta_over_pi": number_to_str(block.t)}
        if block.t.irrational:
            d["irrational"] = True
        return d
    if isinstance(block, N2):
        d = {"type": "N2", "theta_over_pi": number_to_str(block.t),
             "kind": KIND_NONTRIVIAL if block.nontrivial else KIND_TRIVIAL}
        if block.t.irrational:
            d["irrational"] = True
        return d
    raise TypeError(f"not a block: {block!r}")


_BLOCK_FIELDS = {
    "N1": ("type", "eigenvalue", "b"),
    "D": ("type", "lambda"),
    "R": ("type", "theta_over_pi"),
    "N2": ("type", "theta_over_pi", "kind"),
}


class SchemaError(ValueError):
    """A system or certificate document violates the expected schema."""


def _fields(d: object, fields: Tuple[str, ...], what: str,
            optional: Tuple[str, ...] = ()) -> None:
    """Require an object with these keys, and perhaps the optional ones."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be an object")
    unknown = set(d) - set(fields) - set(optional)
    if unknown:
        raise SchemaError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [k for k in fields if k not in d]
    if missing:
        raise SchemaError(f"{what} is missing {missing}")


def block_from_dict(d: Dict[str, object],
                    budget: PrecisionBudget | None = None) -> BasicBlock:
    kind = d.get("type") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _BLOCK_FIELDS:
        raise SchemaError(f"block must be an object with a known type, "
                          f"got {d!r}")
    _fields(d, _BLOCK_FIELDS[kind], f"{kind} block",
            optional=("irrational",) if kind in ("R", "N2") else ())
    if kind == "N1":
        return N1(_int(d["eigenvalue"], "eigenvalue"), str(d["b"]))
    if kind == "D":
        return D(CertifiedReal.parse(str(d["lambda"]), budget=budget))
    irr = d.get("irrational", False)
    if not isinstance(irr, bool):
        raise SchemaError(f"'irrational' must be true or false, got {irr!r}")
    t = CertifiedReal.parse(str(d["theta_over_pi"]), irrational=irr,
                            budget=budget)
    if kind == "R":
        return R(t)
    k = d.get("kind")
    if k not in (KIND_TRIVIAL, KIND_NONTRIVIAL):
        raise SchemaError(f"N2 kind must be trivial/nontrivial, got {k!r}")
    return N2(t, nontrivial=(k == KIND_NONTRIVIAL))


def germ_to_dict(germ: IndexGerm) -> Dict[str, object]:
    return {"name": germ.name, "initial_index": germ.i1,
            "blocks": [block_to_dict(b) for b in germ.blocks]}


def germ_from_dict(d: Dict[str, object], n: int = 3,
                   budget: PrecisionBudget | None = None) -> IndexGerm:
    _fields(d, ("name", "initial_index", "blocks"), "curve")
    name, blocks = d["name"], d["blocks"]
    if not isinstance(name, str):
        raise SchemaError(f"curve 'name' must be a string, got {name!r}")
    if not isinstance(blocks, list):
        raise SchemaError(f"curve 'blocks' must be a list, got {blocks!r}")
    return IndexGerm(name, _int(d["initial_index"], "initial_index"),
                     tuple(block_from_dict(b, budget) for b in blocks), n=n)


def system_to_dict(germs: Sequence[IndexGerm]) -> Dict[str, object]:
    """The system document; it names the digit budget its literals need
    where that is more than the built-in one, so it parses back."""
    n = germs[0].n if germs else 3
    curves = [germ_to_dict(g) for g in germs]
    d: Dict[str, object] = {"manifold": {"dim": n}, "curves": curves}
    literals = (_DECIMAL.fullmatch(b[k]) for c in curves for b in c["blocks"]
                for k in ("lambda", "theta_over_pi") if k in b)
    digits = max((_digits(m) for m in literals if m and m[4]), default=0)
    if digits > PrecisionBudget().max_digits:
        d["precision"] = {"max_digits": digits}
    return d


def system_from_dict(d: Dict[str, object]) -> Tuple[IndexGerm, ...]:
    _fields(d, ("curves",), "system", optional=("manifold", "precision"))
    manifold = d.get("manifold", {})
    _fields(manifold, (), "manifold", optional=("dim",))
    n = _int(manifold.get("dim", 3), "dim")
    precision = d.get("precision", {})
    _fields(precision, (), "precision",
            optional=("max_digits", "refine_step"))
    if precision:
        try:
            settings = {k: _int(v, k) for k, v in precision.items()}
            settings.pop("refine_step", None)  # read by nothing: ignored
            budget = PrecisionBudget(**settings)
        except ValueError as exc:
            raise SchemaError(f"bad precision settings: {exc}") from exc
    else:
        budget = default_budget()
    curves = d["curves"]
    if not isinstance(curves, list) or not curves:
        raise SchemaError("system needs a non-empty 'curves' list")
    germs = tuple(germ_from_dict(c, n=n, budget=budget) for c in curves)
    names = [g.name for g in germs]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate curve names: {names}")
    return germs


def certificate_to_dict(cert: JumpCertificate) -> Dict[str, object]:
    return {
        "N": cert.N, "M": cert.M, "M0": cert.M0,
        "delta": str(cert.delta), "epsilon": str(cert.epsilon),
        "chi": list(cert.chi),
        "curves": [{"name": name, "m": m, "Delta": d, "rho": r}
                   for name, m, d, r in
                   zip(cert.names, cert.m, cert.Delta, cert.rho)],
    }


def certificate_from_dict(d: Dict[str, object]) -> JumpCertificate:
    _fields(d, ("N", "M", "M0", "delta", "epsilon", "chi", "curves"),
            "certificate")
    curves, chi = d["curves"], d["chi"]
    if not (isinstance(curves, list) and isinstance(chi, list)):
        raise SchemaError("certificate 'curves' and 'chi' must be lists")
    for c in curves:
        _fields(c, ("name", "m", "Delta", "rho"), "certificate curve")
    return JumpCertificate(
        N=_int(d["N"], "N"),
        m=tuple(_int(c["m"], "m") for c in curves),
        chi=tuple(_int(x, "chi") for x in chi),
        Delta=tuple(_int(c["Delta"], "Delta") for c in curves),
        rho=tuple(_int(c["rho"], "rho") for c in curves),
        delta=_rational(d["delta"], "delta"),
        epsilon=_rational(d["epsilon"], "epsilon"),
        M=_int(d["M"], "M"), M0=_int(d["M0"], "M0"),
        names=tuple(str(c["name"]) for c in curves))


def _int(x: object, key: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{key!r} must be an integer, got {x!r}")
    return x


def _rational(x: object, key: str) -> Fraction:
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"certificate {key!r} must be a rational string "
                      f"\"p/q\", got {x!r}")


def scaled_to_dict(sc: ScaledCertificate) -> Dict[str, object]:
    return {
        "base": certificate_to_dict(sc.base),
        "p_hat": sc.p_hat, "N_hat": sc.N_hat,
        "m_hat": list(sc.m_hat), "chi_hat": list(sc.chi_hat),
        "Delta_hat": list(sc.Delta_hat),
        "checks": [{"name": n, "ok": ok} for n, ok in sc.checks],
    }


def dumps(obj: Dict[str, object]) -> str:
    out: List[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(v: object, out: List[str], nl: str) -> None:
    """Append the JSON of v to out; nl is the newline and indent of the
    line v starts on."""
    t = type(v)
    if t is str:
        out.append(_string(v))
    elif t is int:
        out.append(str(v))
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _string(k) + ": ")
            _emit(v[k], out, inner)
            sep = "," + inner
        out.append(nl + "}" if v else "{}")
    elif t is list or t is tuple:
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _emit(x, out, inner)
            sep = "," + inner
        out.append(nl + "]" if v else "[]")
    elif v is None or t is bool:
        out.append("null" if v is None else "true" if v else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON "
                        f"serializable")
