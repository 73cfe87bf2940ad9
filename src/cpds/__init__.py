"""Reachability analysis for collapsible pushdown systems.

Single-stack systems get an exact backward saturation (pre*); multi-stack
systems are decided under the ordered, phase-bounded and scope-bounded run
restrictions, each returning either a verdict or a regular representation
of every configuration that can reach a target control.  A bounded
explicit-state oracle provides ground truth for differential testing.
"""

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CpdsError,
    LanguageQueryFailure,
    NotNormalized,
    NotRoundPartitionable,
    NotSupported,
    OrderMismatch,
    ParseError,
    PreconditionViolation,
    UndefinedOperation,
    UndefinedTop,
    UnknownControl,
    VertexBudgetExceeded,
)
from .stacks import (
    BOTTOM,
    apply_op,
    apply_op_rounded,
    bottom,
    collapse,
    compose,
    copy,
    decode,
    encode,
    encode_full,
    erase_rounds,
    mk_char,
    mk_stack,
    noop,
    pop,
    push,
    rew,
    tag_rounds,
    top,
    top1,
    tree_size,
)
from .automata import (
    LongForm,
    StackAutomaton,
    State,
    accept_all_automaton,
    exact_stack_automaton,
    intersect,
    union,
)
from .systems import (
    Configuration,
    Cpds,
    ExtRule,
    Mcpds,
    Rule,
    Run,
    add_clearing_rules,
    ecpds_step,
    initial_configuration,
    minimal_phases,
    normalize_ordered,
    partition_rounds,
    step,
    validate_ordered,
    validate_phase,
    validate_scope,
)
from .saturation import (
    SaturationStats,
    auxsat_consuming,
    auxsat_generating,
    exp_tower,
    non_alternating_top,
    prestar,
    satstep,
)
from .extended import (
    FiniteLanguage,
    TransitionAutomaton,
    prestar_extended,
)
from .ordered import (
    CpdaLang,
    LeftCpda,
    build_langcheckcpds,
    build_leftcpda,
    build_rightcpds,
    ordered_global,
    ordered_reachability,
)
from .phases import build_pbcpds, phase_global, phase_reachability
from .scopes import (
    envmove,
    initial_vertices,
    predecessor,
    reachability_graph_dot,
    saturate_layer,
    sbmax,
    scope_global,
    scope_reachability,
    shift,
)
from .regular import RegTuple, RegularConfigSet
from .oracle import (
    ExploreBounds,
    OracleVerdict,
    RandomProfile,
    control_reachability_oracle,
    enumerate_stacks,
    explore,
    gen_random_system,
    prestar_oracle,
)

__version__ = "0.1.0"
