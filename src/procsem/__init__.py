"""Process-tree semantics toolkit and benchmark factory.

Play out process trees into their execution-sequence languages, derive
directly-follows graphs, footprints and eventually-follows relations, build
five semantics-aware benchmark datasets from a tree corpus, render prompts
and fine-tuning pairs, and score predictions with macro F1 or
footprint-based fitness.
"""

from .core import (
    Activity,
    ArityError,
    Dfg,
    EmptyLabelError,
    EventLog,
    EventuallyFollowsSet,
    Footprint,
    Leaf,
    OpKind,
    Operator,
    ProcessModel,
    ProcessTree,
    Relation,
    Silent,
    Trace,
    leaf,
    loop,
    normalize_label,
    par,
    seq,
    tau,
    xor,
)
from .evaluation import (
    MatchingMode,
    RecordScore,
    ScoreReport,
    expected_random_footprint_fitness,
    footprint_fitness,
    footprint_to_dfg,
    macro_f1,
    parse_binary_label,
    random_classification_baseline,
    random_footprint,
    random_footprint_predictions,
    score_dataset,
    score_sdfd,
    score_sptd,
)
from .fileio import (
    FileFormatError,
    read_corpus,
    read_dataset,
    read_predictions,
    read_split,
    write_corpus,
    write_dataset,
    write_ft_examples,
    write_icl_prompts,
    write_predictions,
    write_sequences,
    write_split,
)
from .promptgen import (
    FtExample,
    PoolExhaustedError,
    PromptBundle,
    PromptTemplates,
    answer_text,
    default_shots,
    load_templates,
    render_ft,
    render_icl,
)
from .semantics import (
    DEFAULT_MAX_SEQUENCES,
    LanguageTooLargeError,
    dfg_of_log,
    dfg_of_model,
    eventually_follows,
    footprint,
    footprint_of_model,
    language,
    playout,
)
from .synth import synth_corpus
from .taskgen import (
    AdmittedModel,
    CorpusEntry,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    Prediction,
    Rejection,
    RejectionReason,
    Split,
    SplitAssignment,
    Task,
    TaskRecord,
    ValidationReport,
    gen_asad,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    gen_tsad,
    generate_task,
    split_corpus,
    validate_corpus,
)
from .tree_dsl import (
    EdgeParse,
    EdgeSyntaxError,
    TreeSyntaxError,
    parse_dfg_edges,
    parse_tree,
    render_dfg_edges,
    render_tree,
)

__version__ = "0.1.0"
