"""Graph-query laboratory: edge estimation, edge sampling, and
connectivity testing against a simulated set-vs-set edge oracle, with
exact query and adaptivity-round accounting."""

from .graph import (Graph, VertexSet, components, exact_connected,
                    exact_components, exact_neighborhood_size, gen_family,
                    gen_gnp, load_edge_list, dump_edge_list)
from .oracle import BisOracle, QueryLedger, QueryPlan
from .params import Constants, FAST, PAPER
from .nbr_size import NsParams, plan_ns, decode_ns, estimate_ns
from .element_recovery import (NeighborRecovery, SerOutcome, plan_ser,
                               decode_ser, answer_plan,
                               uniform_neighbor_of_set)
from .degree_est import (DegreeTable, NeighborTable, estimate_degrees,
                         estimate_degrees_with_neighbors,
                         predict_sketch_queries)
from .edge_estimator import (LevelSchedule, AnalysisOracle,
                             build_schedule, draw_levels, coarse_estimate,
                             refine, estimate_edges, run_pipeline)
from .edge_sampler import SampleBatch, SamplerOutput, sample_edges_batch
from .connectivity import (SuperGraph, SupernodeOracle, contract,
                           is_connected, round1_neighbor_sampling)

__version__ = "0.1.0"
