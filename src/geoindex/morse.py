"""Topological bookkeeping for the free loop space of the 3-sphere.

The homology side of the machinery is a short list of hard facts, used
as axioms about any configuration that a genuine metric could realize:

  * Betti numbers of the quotiented free-loop-space pair of S^3:
    b_2 = 1, b_q = 2 for even q >= 4, and 0 otherwise (Poincare series
    t^2 + 2t^4 + 2t^6 + ...).
  * A nondegenerate iterate contributes a single rational line to local
    homology, in degree i(c^m), and only when i(c^m) - i(c) is even.
  * Morse inequalities relate the resulting counts M_q to b_q.

Morse counts are only computable relative to a jump certificate: the
window inequalities around 2m_k justify truncating the iteration sum at
m <= 2m_k for degrees <= 2N, which is why ``morse_numbers_up_to``
insists on re-verifying the certificate before counting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .iteration import (IndexGerm, _index, _kernel, _nullity, gamma_invariant,
                        index_at, is_bumpy, nullity_at)
from .jump import JumpCertificate, JumpProblem, verify_jump


class DegenerateIterate(ValueError):
    """Local homology of a degenerate iterate is outside this model."""


class TruncationUnsound(RuntimeError):
    """Morse counts requested without a verified window certificate."""


def betti(q: int) -> int:
    """Betti number of the loop-space pair of S^3 in degree q."""
    if q < 0:
        raise ValueError("degree must be non-negative")
    if q == 2:
        return 1
    if q >= 4 and q % 2 == 0:
        return 2
    return 0


def betti_alternating(top: int) -> int:
    """sum_{i=1}^{top} (-1)^i b_i, evaluated in closed form.

    Equals 2N - 1 at top = 2N and 2N - 3 at top = 2N - 1.
    """
    if top < 1:
        return 0
    last_even = top if top % 2 == 0 else top - 1
    if last_even < 2:
        return 0
    return 1 + 2 * (last_even // 2 - 1)


def critical_dim(germ: IndexGerm, m: int, q: int) -> int:
    """Local homology rank of the m-th iterate in degree q: 0 or 1.

    The dimension rule is a geodesic fact; germ data that is not bumpy
    gets a warning (and a hard failure on any degenerate iterate, where
    the rule simply does not apply).
    """
    if not is_bumpy(germ):
        warnings.warn(
            f"germ {germ.name!r} is not bumpy; local-homology ranks "
            f"are only meaningful at its nondegenerate iterates",
            stacklevel=2)
    if nullity_at(germ, m) > 0:
        raise DegenerateIterate(
            f"iterate {m} of {germ.name!r} is degenerate")
    im = index_at(germ, m)
    if q == im and (im - germ.i1) % 2 == 0:
        return 1
    return 0


@dataclass(frozen=True)
class MorseCounts:
    truncation: int
    counts: Dict[int, int]

    def __getitem__(self, q: int) -> int:
        if q > self.truncation:
            raise KeyError(f"degree {q} beyond truncation {self.truncation}")
        return self.counts.get(q, 0)


def morse_numbers_up_to(germs: Sequence[IndexGerm], problem: JumpProblem,
                        cert: JumpCertificate, q_max: int,
                        m_bar: int) -> MorseCounts:
    """Truncated Morse counts M_q for q <= q_max <= 2N.

    Degrees up to 2N receive contributions only from iterates m <= 2m_k
    once the window inequalities hold, so the count re-verifies the jump
    identities and the window before trusting the truncation.
    """
    if q_max > 2 * cert.N:
        raise ValueError("truncation is only sound up to 2N")
    if any(r != 1 for r in cert.rho) or any(g.i1 < 1 for g in germs):
        raise TruncationUnsound(
            "Morse counts need geodesic semantics: positive indices and "
            "positive mean drift for every curve")
    if not verify_jump(problem, cert, m_bar).ok:
        raise TruncationUnsound("jump identities do not verify")
    from .anosov import verify_index_window  # local: avoids a cycle
    window = verify_index_window(germs, cert, m_bar)
    if not window.ok:
        raise TruncationUnsound("window inequalities do not verify")
    counts: Dict[int, int] = {}
    for k, germ in enumerate(germs):
        kernel = _kernel(germ)
        for m in range(1, 2 * cert.m[k] + 1):
            im = _index(kernel, m)
            if 0 <= im <= q_max and (im - germ.i1) % 2 == 0:
                if _nullity(kernel, m) > 0:
                    raise DegenerateIterate(
                        f"iterate {m} of {germ.name!r} is degenerate")
                counts[im] = counts.get(im, 0) + 1
    return MorseCounts(q_max, counts)


def alternating_sums(counts: MorseCounts, top: int) -> int:
    """sum_{i=1}^{top} (-1)^i M_i over the truncated counts."""
    if top > counts.truncation:
        raise ValueError("alternating sum beyond the truncation")
    return sum((-1) ** i * counts.counts.get(i, 0) for i in range(1, top + 1))


def morse_inequality_verdicts(counts: MorseCounts, top: int) -> Dict[str, bool]:
    """The two Morse inequalities, checked degree by degree up to top."""
    pointwise = all(counts.counts.get(q, 0) >= betti(q)
                    for q in range(0, top + 1))
    alternating = True
    for q in range(0, top + 1):
        m_sum = sum((-1) ** (q - i) * counts.counts.get(i, 0)
                    for i in range(0, q + 1))
        b_sum = sum((-1) ** (q - i) * betti(i) for i in range(0, q + 1))
        if m_sum < b_sum:
            alternating = False
            break
    return {"pointwise": pointwise, "alternating": alternating}


def euler_block_identity(germ: IndexGerm, m_k: int) -> Tuple[int, Fraction]:
    """Signed local-homology sum over m <= 2m_k vs 2*m_k*gamma.

    The left side is a brute-force enumeration; the right side is the
    closed form through the parity invariant.  They agree on every
    nondegenerate germ, which is the regression anchor for the gamma
    conventions.
    """
    lhs = 0
    for m in range(1, 2 * m_k + 1):
        im = index_at(germ, m)
        lhs += (-1) ** im * critical_dim(germ, m, im)
    gamma = gamma_invariant(germ.i1, index_at(germ, 2))
    return lhs, 2 * m_k * gamma


def parity_counts(germs: Sequence[IndexGerm], cert: JumpCertificate,
                  n: int) -> Tuple[int, int]:
    """(even, odd) counts of curves whose top iterate index exceeds n.

    A curve enters the even count when i(c^{2m}) > n with both i(c^{2m})
    and i(c) even, the odd count when both are odd.
    """
    n_e = n_o = 0
    for k, germ in enumerate(germs):
        top = index_at(germ, 2 * cert.m[k])
        if top <= n:
            continue
        if top % 2 == 0 and germ.i1 % 2 == 0:
            n_e += 1
        elif top % 2 == 1 and germ.i1 % 2 == 1:
            n_o += 1
    return n_e, n_o
