"""Cluster-expansion machinery for marked Gibbs point processes."""

from .model import (Box, FiniteConfiguration, MarkSpace, MarkedPoint, ModelSpec,
                    PositionSpace, canonicalize, restrict)
from .potential import (PairPotential, build_model, check_integrability,
                        conditional_energy, energy, interaction, model_from_dict,
                        spot_check_stability)
from .starcalc import ConfigFunctional, d_shift, star_exp, star_log, star_mul, unit
from .combinat import enumerate_connected_graphs, enumerate_trees
from .lpintegrate import (IntegralEstimate, QuadratureScheme, lp_integral,
                          marked_point_nodes, philox_rng)
from .cluster import (ExpansionReport, UrsellTable, convergence_radius,
                      correlation_truncated, kbar,
                      log_partition_truncated, partition_direct_truncated,
                      tail_bound, tree_bound_q, tree_bound_q_multi,
                      tree_bound_recursive, ursell_direct, ursell_table)
from .gibbsmc import (BoundaryCondition, ChainStats, SampleStream, SamplerConfig,
                      dlr_check, mcmc_run, poisson_sample, rejection_sample_batch,
                      specification_weight)

__version__ = "0.1.0"
