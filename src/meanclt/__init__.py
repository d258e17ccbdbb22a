"""meanclt: an executable laboratory for mean central limit theorems.

Simulates stationary example processes, computes exact Wasserstein-1
distances to their Gaussian limits, evaluates explicit convergence-rate
bounds through closed-form transfer operators, and verifies the supporting
covariance and mixing inequalities by independent oracles.
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, DegenerateVarianceError, DivergenceError,
                     DomainError, MeancltError, PrecisionError, PreconditionError,
                     ResourceError, SchemaError)
from .numerics import (DEFAULT_TOLERANCE, RandomStream, Tolerance,
                       gauss_cdf, gauss_cdf_antideriv, gauss_pdf, gauss_quantile,
                       integrate_interval, integrate_unit, phi_deriv_l1, substream)
from .fourier import FourierFn, ProductResult, constant_fn, cosine, lebesgue_inner, product, sine
from .processes import (CircleWalk, DoublingMap, FiniteChain, IIDLaw, LongRunVariance,
                        PathEnsemble, ProcessSpec, SplitReal, iid_gaussian,
                        iid_rademacher, is_martingale, long_run_variance,
                        process_from_dict, resolvent_tail, sample_states, simulate,
                        sqrt2_minus_one, transfer)
from .wasserstein import (EmpiricalSample, FinitePmf, ks_pmf_gauss, ks_sample_gauss,
                          sample_from_csv, w1_pmf_gauss, w1_sample_gauss, w1_sample_sample)
from .coefficients import (AlphaSeq, CovarianceBoundReport, JointPmf, KernelDecaySum,
                           MixingIntegralReport, QuantileSeq, alpha_exact, alpha_inverse,
                           alpha_tabulation, covariance_bound_check, dispersion_check,
                           frac_part_sum, kernel_decay_sum, mixing_integral,
                           monotone_difference_bound_check, quantile_from_sample,
                           theta_coeff, weighted_tail_integral)
from .bounds import (BoundReport, CorrectionReport, MomentSummary, RateFit,
                     ThreeMomentDist, cubic_moment_sum, martingale_d1_bound, moments,
                     nonadapted_correction, projective_d1_bound, projective_drift_norms,
                     rate_fit, second_moment_norms, three_moment_distribution,
                     variance_drift_norms, variance_l32_norm, zolotarev_bound)
from .harness import (AppendixReport, DiagnosisReport, ExperimentConfig, RunManifest,
                      check_appendix, diagnose_conditions, merge_reports, preset_config,
                      render_csv, run)
