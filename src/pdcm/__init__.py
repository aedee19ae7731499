"""Partially directed configuration-model graphs and their distortion metrics.

Pipeline: draw degree triples (degrees), pair the stubs uniformly
(matching), erase what a simple graph cannot keep (simplify), then
measure what the erasures did (metrics, components, saveprob).  ingest
brings external edge lists into the same representation; experiment and
cli wire everything into reproducible runs.
"""

from .components import ComponentSummary, strongly_connected_components
from .degrees import (
    DegreeSequence,
    JointDegreeDistribution,
    load_degree_file,
    sample_sequence,
    scale_free_sf,
)
from .experiment import ExperimentConfig, run_cell, run_experiment
from .ingest import (
    IngestStats,
    ingest_path,
    parse_edge_list,
    read_pdgraph,
    to_partially_directed,
    write_pdgraph,
)
from .matching import MultiGraph, match_stubs
from .metrics import (
    DegreeCensus,
    degree_census,
    proportion_directed,
    total_variation,
)
from .rng import derive_seed, make_generator, replicate_seed, splitmix64
from .saveprob import (
    exact_save_probability,
    monte_carlo_save_frequency,
    parse_save_spec,
)
from .simplify import ErasureReport, SimpleGraph, simplify

__version__ = "0.1.0"
