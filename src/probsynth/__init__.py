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
    ThresholdTable,
    build_scopes,
    derive_thresholds,
    global_instruction_probs,
    solution_probability,
    subset_instruction_probs,
    subset_scope,
    table_from_counts,
)
from .spacecount import (
    SpaceMeasurement,
    baseline_size,
    brute_force_count,
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
    stack_effect,
    synthesize,
    well_formed,
)
from .xval import ValidationResult, validate

__version__ = "0.1.0"
