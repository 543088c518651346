"""Corpus-driven probability heuristics for pruning enumerative program synthesis.

The toolkit derives instruction and solution probabilities from a corpus
of program units, turns per-size minimum probabilities into search-space
thresholds, measures the pruned spaces exactly, cross-validates threshold
generalization, and demonstrates threshold pruning inside a small
generate-and-test synthesizer.
"""

from .corpus import (
    Corpus,
    CorpusFormatError,
    ProgramUnit,
    SizeSpec,
    generate_zipf_corpus,
    load_corpus,
    parse_size_spec,
    ranked_instruction_id,
    save_corpus,
)
from .probability import (
    GLOBAL_SCOPE,
    LOG10_SLACK,
    ProbabilityTable,
    Scope,
    build_scopes,
    derive_thresholds,
    global_instruction_probs,
    solution_probability,
    subset_instruction_probs,
    table_from_counts,
)
from .spacecount import (
    SpaceMeasurement,
    count_admissible,
    measure,
)
from .subsets import (
    InstructionSubset,
    SubsetFamily,
    cluster_subsets,
    load_family,
    save_family,
)
from .synth import (
    DSL_ALPHABET,
    Fault,
    SearchReport,
    TestCase,
    TestCaseSpec,
    evaluate,
    random_program_corpus,
    synthesize,
)
from .xval import ValidationResult, validate

__version__ = "0.1.0"
