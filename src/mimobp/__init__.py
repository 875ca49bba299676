"""Pairwise-graph belief-propagation MIMO detection library.

Detectors over the linear model y = H x + n:

* exact references: lattice-enumeration posterior marginals, joint ML, LMMSE;
* discrete BP over the observation factor graph, the fully-connected
  pairwise graph and the ring;
* an order-2 channel-shortening forward/backward detector;
* Gaussian message passing whose means converge to the LMMSE estimates,
  with closed-form fixed points and contraction diagnostics;
* a vectorised Monte Carlo BER/convergence simulator and CLI.
"""

from .channel import (ChannelInstance, Constellation, TransmitRecord,
                      draw_channel, get_constellation, qam16, qpsk, transmit, trial_rng)
from .discrete_bp import (BeliefState, BpConfig, bp1_factor_graph,
                          bp2_fully_connected, bp3_ring, hard_decide, soft_output)
from .errors import CapacityError, ConfigError, ContractionError, MimobpError, NumericalError
from .exact import LmmseResult, llr_from_marginals, lmmse, map_marginals, ml_hard
from .gaussian_bp import (AffineOp, ConvergenceTrace, GbpConfig, GbpTrace,
                          RingAffineOps, RingFixedPoint, affine_ops,
                          convergence_metric, fixed_point, gbp2g, gbp3g)
from .linalg import ComplexGaussian1D, cn_logpdf, cn_pdf
from .pairwise import (PairwiseGraph, PairwiseLink, Topology, build_graph,
                       build_link, translate_kernel, translate_log_table)
from .polydiag import BiDiagonalized, bidiagonalize, forward_backward_detect
from .sim import BerRecord, SimConfig, load_config, run_converge, run_detect, run_iterstudy, run_simulate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
