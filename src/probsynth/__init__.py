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
    ProbabilityRange,
    ProbabilityTable,
    Scope,
    ThresholdTable,
    build_scopes,
    derive_thresholds,
    global_instruction_probs,
    probability_range,
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
    covering_subsets,
    load_family,
    save_family,
)
from .synth import (
    DSL_ALPHABET,
    Fault,
    SearchReport,
    TestCase,
    TestCaseSpec,
    cases_from_program,
    evaluate,
    random_program_corpus,
    satisfies,
    stack_effect,
    synthesize,
    well_formed,
)
from .xval import ValidationResult, split_corpus, validate

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusFormatError",
    "DSL_ALPHABET",
    "Fault",
    "GLOBAL_SCOPE",
    "InstructionSubset",
    "LOG10_SLACK",
    "ProbabilityRange",
    "ProbabilityTable",
    "ProgramUnit",
    "Scope",
    "SearchReport",
    "SizeSpec",
    "SpaceMeasurement",
    "SubsetFamily",
    "TestCase",
    "TestCaseSpec",
    "ThresholdTable",
    "ValidationResult",
    "baseline_size",
    "brute_force_count",
    "build_scopes",
    "cases_from_program",
    "cluster_subsets",
    "count_admissible",
    "covering_subsets",
    "derive_thresholds",
    "evaluate",
    "generate_zipf_corpus",
    "global_instruction_probs",
    "load_corpus",
    "load_family",
    "measure",
    "parse_size_spec",
    "probability_range",
    "random_program_corpus",
    "ranked_instruction_id",
    "satisfies",
    "save_corpus",
    "save_family",
    "solution_probability",
    "split_corpus",
    "stack_effect",
    "subset_instruction_probs",
    "subset_scope",
    "synthesize",
    "table_from_counts",
    "validate",
    "well_formed",
]
