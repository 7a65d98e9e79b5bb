"""Active learning of deterministic real-time one-counter automata.

The package combines an L*-style observation table with counter-value
queries, a SAT-backed minimal separating DFA miner, and exact
equivalence checks that return length-lex-minimal counterexamples.
"""

from .automata import (Configuration, Dfa, Droca, RunTrace, doubled,
                       doubled_alphabet, pretty_encoded, sgn, validate)
from .colouring import encode_size_n
from .equivalence import (ACCEPT_MISMATCH, COUNTER_DESYNC, Counterexample,
                          Verdict, check_sync_equiv, voca_check_equiv)
from .errors import (EquivalenceTimeout, GenerationFailure, InvalidInput,
                     LearnTimeout, ParseError, SampleConflict, SolverError,
                     SolverTimeout, WorkbenchError)
from .generate import GenConfig, derive_seed, generate_droca, reachable_count, splitmix64
from .io import load, load_file, store, store_file
from .learning import LearnConfig, SimulatedTeacher, Stats, construct_droca, learn
from .minsepdfa import Apta, SampleSet, build_apta, build_samples, find_min_sep_dfa
from .sat import AtMostOne, CnfInstance, external_path, sat_solve
from .table import ActionsVector, ObservationTable

__all__ = [name for name in dir() if not name.startswith("_")]
