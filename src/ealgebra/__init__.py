"""Execution engine and run verifier for evolving algebras.

States are first-order structures; a program is a transition rule whose
update set is fired against the current state, atomically and
simultaneously.  The package covers deterministic rules, import of fresh
elements from the reserve, nondeterministic choice, parallel variable
declarations, duplication, sequential and distributed runs, and
verification of partially ordered runs.
"""

from .errors import (
    BudgetError,
    CertificateError,
    ContractViolation,
    DeclarationError,
    DuplicateError,
    EalgebraError,
    EvaluationError,
    IllegalUpdateError,
    ModeError,
    OracleError,
    ParseError,
    ScheduleError,
    StateValidityError,
    UpdateTypeError,
    VocabularyError,
)
from .evaluator import (
    Footprint,
    ReserveAllocator,
    eval_guard,
    eval_term,
    normalize_guarded,
    nupdates,
    updates,
)
from .state import (
    FALSE,
    TRUE,
    UNDEF,
    Element,
    Location,
    State,
    StaticMirror,
    Update,
    UpdateFamily,
    UpdateSet,
    boolean,
    format_element,
)
from .stateio import format_state, load_state, parse_element, parse_state
from .syntax import (
    DistributedSpec,
    Program,
    desugar,
    format_rule,
    free_vars,
    bound_vars,
    is_perspicuous,
    make_perspicuous,
)
from .vocabulary import (
    BASIC_LOGIC_NAMES,
    FunctionName,
    Vocabulary,
    fun_of,
    make_vocabulary,
)
from .parser import (
    format_program,
    parse_guard_text,
    parse_program,
    parse_program_file,
    parse_rule_text,
    parse_term_text,
)
from .runner import (
    FixedChooser,
    Oracle,
    ReachReport,
    RunTrace,
    ScriptedOracle,
    SeededChooser,
    StepRecord,
    UndefOracle,
    enumerate_reachable,
    prepare_rule,
    render_trace,
    replay_record,
    run,
    step,
)
from .distributed import (
    Agent,
    LinearizationReport,
    PartialRun,
    Verdict,
    agent_move,
    agents_of,
    check_partial_run,
    corollary1_holds,
    corollary2_agrees,
    generate_partial_run,
    linearizations,
    sequential_run,
    validate_spec_state,
)
from .certificate import format_certificate, load_certificate, parse_certificate

__version__ = "0.1.0"
