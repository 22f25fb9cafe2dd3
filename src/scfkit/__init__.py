"""Choose-one voting with abstentions: rules, axiom checkers, and exhaustive
search over the space of anonymous social choice functions."""

__version__ = "0.1.0"

from .core import (
    CandidatePermutation,
    Outcome,
    Profile,
    ProfileParseError,
    Tally,
    VoterPermutation,
    apply_candidate_permutation,
    apply_to_outcome,
    apply_voter_permutation,
    ballot_counts,
    canonicalize,
    enumerate_profiles,
    format_profile,
    parse_profile,
    profile_count,
    remove_voter,
    tally,
)
from .rules import (
    RULES,
    IncompleteTableError,
    Rule,
    TabledFunction,
    TableParseError,
    constant_zero,
    lexicographic_first,
    majority_rule,
    unanimity_consent,
)
from .axioms import (
    AXIOM_IDS,
    CHECK_MAX_COST,
    CHECKERS,
    PR_TIE_MODES,
    AxiomReport,
    CheckInfeasibleError,
    Witness,
    check_anonymity,
    check_axioms,
    check_cost,
    check_duel_property,
    check_no_tied_winner,
    check_neutrality,
    check_pareto,
    check_positive_responsiveness,
    check_rs,
    reduce_profile,
    replay_witness,
)
from .search import (
    SEARCH_AXIOMS,
    IndependenceVerdict,
    NeutralOrbit,
    SearchInfeasibleError,
    SearchResult,
    SearchSpec,
    TheoremVerdict,
    classify_profile,
    enumerate_functions,
    enumerate_neutral_functions,
    is_all_abstention,
    is_dominating_tie,
    is_leader_profile,
    neutral_orbits,
    verify_independence,
    verify_theorem,
)

__all__ = [
    "__version__",
    # core
    "Outcome", "Profile", "Tally", "CandidatePermutation", "VoterPermutation",
    "ProfileParseError", "ballot_counts", "tally", "apply_voter_permutation",
    "apply_candidate_permutation", "apply_to_outcome", "remove_voter",
    "canonicalize", "enumerate_profiles", "profile_count", "parse_profile",
    "format_profile",
    # rules
    "Rule", "TabledFunction", "IncompleteTableError", "TableParseError",
    "majority_rule", "unanimity_consent", "lexicographic_first",
    "constant_zero", "RULES",
    # axioms
    "AXIOM_IDS", "PR_TIE_MODES", "Witness", "AxiomReport", "reduce_profile",
    "check_axioms", "check_anonymity", "check_neutrality", "check_duel_property",
    "check_pareto", "check_rs", "check_positive_responsiveness",
    "check_no_tied_winner", "replay_witness", "CHECKERS", "CHECK_MAX_COST",
    "CheckInfeasibleError", "check_cost",
    # search
    "SEARCH_AXIOMS", "SearchSpec", "SearchResult", "SearchInfeasibleError",
    "NeutralOrbit", "enumerate_functions", "neutral_orbits",
    "enumerate_neutral_functions", "is_all_abstention", "is_leader_profile",
    "is_dominating_tie", "classify_profile", "TheoremVerdict",
    "verify_theorem", "IndependenceVerdict", "verify_independence",
]
