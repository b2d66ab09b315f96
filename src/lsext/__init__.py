"""lsext: raise the minimum distance of linear codes over small GF(q).

Given an [n,k,d]_q code's generator matrix, search for l extra columns that
add at least s nonzero letters to every minimum-weight codeword.  When the
second-smallest weight is at least d+s, appending them yields a verified
[n+l,k,>=d+s]_q code.  The search is a covering problem on a 0/1 matrix
pairing minimum-weight codewords with candidate columns; puncturing the other
way around and a chain mode that climbs distances step by step round it out.
"""

from .code import LinearCode, weight
from .errors import (
    ConsistencyError,
    DegenerateCodeError,
    EnumerationCapExceeded,
    InfeasibleSolutionError,
    LsextError,
    ParseError,
    RankDeficientError,
    VerificationError,
)
from .extension import (
    CoverageMatrix,
    CoverSystem,
    ExtensionSolution,
    apply_extension,
    cover_system,
    coverage_matrix,
    format_matrix,
    is_good_extension,
    projective_filter,
    solutions_for,
    verify_extension,
)
from .field import GF, canonical_count, canonical_representatives, enumeration_cap, gf
from .geometry import (
    code_points,
    incidence_matrix,
    geometric_extension_criterion,
)
from .pipeline import (
    ChainPolicy,
    ChainReport,
    StepRecord,
    StopReason,
    chain_search,
    extend_once,
    parse_code,
    remove_columns,
    serialize_code,
    special_puncture,
    zero_coverage_system,
)
from .solver import (
    SolveOutcome,
    SolverConfig,
    SolveStatus,
    solve,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
)

__version__ = "0.1.0"
