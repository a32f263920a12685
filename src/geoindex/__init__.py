"""Certified index iteration and jump certificates for symplectic germs."""

from .exact import (CertifiedReal, PrecisionBudget, PrecisionInsufficient,
                    ceil_int, default_budget, floor_int, frac_part,
                    near_vertex, phi, sqrt_interval)
from .normal_forms import (BasicBlock, D, N1, N2, R, SplittingPair,
                           UnresolvedSpectrum, big_C, classify_2x2,
                           elliptic_height, nullity_contribution,
                           splitting_at, splitting_sum)
from .iteration import (IndexGerm, IndexProfile, Unbounded, deviation_bounds,
                        gamma_invariant, germ_mbar, index_at, is_bumpy, mbar,
                        mean_index, nullity_at)
from .jump import (CertificateMismatch, IdentityViolation, JumpCertificate,
                   JumpProblem, NotFound, ScaleMismatch, ScaledCertificate,
                   ZeroMeanIndex, build_problem, check_certificate,
                   delta_invariance, scale, search, verify_jump,
                   verify_rounding)
from .morse import (DegenerateIterate, MorseCounts, TruncationUnsound,
                    alternating_sums, betti, betti_alternating, critical_dim,
                    euler_block_identity, morse_numbers_up_to, parity_counts)
from .anosov import (AdmissibilityError, GeodesicSystem, ImpossibilityReport,
                     PipelineConfig, forced_top_indices, mod4_contradiction,
                     mod4_window_certificate, replay, run_pipeline, sandwich,
                     screen_parities, verify_index_window)

__version__ = "0.1.0"
