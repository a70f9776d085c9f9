"""feww: frequent elements with witnesses over edge streams.

Single-pass algorithms that report a high-degree A-vertex of a bipartite
edge stream together with a certificate of at least ceil(d/alpha) of its
neighbour edges, for insertion-only and insertion-deletion streams, plus
star detection in general graphs, adversarial instance generators, and a
seeded experiment harness with an exact verification oracle.
"""

from .core import (
    ExactGraph,
    Neighbourhood,
    Sign,
    StreamUpdate,
    parse_stream,
    replay,
    verify_witness,
    write_stream,
)
from .insertion_deletion import (
    InsDelConfig,
    run_insertion_deletion,
    validate_sampling_lemma,
)
from .insertion_only import InsertionOnlyConfig, run_insertion_only
from .l0 import L0Sketch, SamplerBank
from .reservoir import DegResSampler, coin
from .stars import Mode, StarConfig, run_star_detection, semi_streaming_preset

__all__ = [
    "DegResSampler",
    "ExactGraph",
    "InsDelConfig",
    "InsertionOnlyConfig",
    "L0Sketch",
    "Mode",
    "Neighbourhood",
    "SamplerBank",
    "Sign",
    "StarConfig",
    "StreamUpdate",
    "coin",
    "parse_stream",
    "replay",
    "run_insertion_deletion",
    "run_insertion_only",
    "run_star_detection",
    "semi_streaming_preset",
    "validate_sampling_lemma",
    "verify_witness",
    "write_stream",
]

__version__ = "0.1.0"
