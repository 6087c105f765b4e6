"""Compositional query/answer embeddings over dependency-derived trees.

Pipeline: CoNLL-U sentences convert to field-labelled semantic trees,
paths sampled from the trees train query/answer word vectors plus one
linear map (and a learned inverse) per field, and composed query vectors
execute structured queries by ranking answer vectors.  A brute-force
set-theoretic oracle backs the property tests.
"""

from .errors import DcsvecError
from .logic import Database, DbTuple, denotation_of_tree, path_denotation, project, restrict_by_child
from .model import ModelParams, compose_query, init_params, load_model, nearest_answers, normalize, path_score, save_model
from .trees import ARG, COMP, SUBJ, UNKNOWN_FIELD, DcsTree, Edge, TreePath, Word, enumerate_paths
# the function train() is not re-exported, so `dcsvec.train` stays the module
from .train import TrainConfig, TrainStats, regularizer_grads, step
from .ud import UdSentence, UdToken, parse_conllu, ud_to_dcs
from .vocab import PathSample, Vocabulary, build_vocab, sample_paths

__version__ = "0.1.0"
