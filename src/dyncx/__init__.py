"""Dynamic-problem algorithms, prover/verifier protocols, and reductions.

Modules:
  framework     update streams, proofs, transcripts, provers, probe meters
  dnf           dynamic DNF evaluation, its verifier, first-DNF machinery
  equiv         all-white / independent-set / orthogonal-vector reformulations
  fdt           shallow decision trees and the completeness harness
  reductions    graph-problem reductions and the SAT driver
  forest        Euler-tour dynamic forest
  connectivity  connectivity and edge-connectivity protocols
  oracles       brute-force reference solvers
  cli           command-line front end
"""

from .framework import (
    BOTTOM,
    BudgetExceeded,
    DyncxError,
    EmptyProofSpace,
    OUTPUTS,
    OracleDesync,
    ParseError,
    ProbeMeter,
    ProofOutOfSpace,
    ProofTranscript,
    UndecodableUpdate,
    UpdateStream,
    VerifierOutput,
    constant_prover,
    fuzz_soundness,
    random_prover,
    replay,
    reward_maximizing_prover,
    run_protocol,
)
from .dnf import (
    Clause,
    ClauseCounters,
    DnfInstance,
    DnfVerifier,
    FirstDnfInstance,
    NaiveAlgorithm,
    augment_with_search_vars,
    clause,
    eval_bruteforce,
    first_dnf_query,
    first_satisfied_bruteforce,
    honest_dnf_prover,
    parse_dnf,
)
from .equiv import (
    AllWhiteCounters,
    AllWhiteInstance,
    HypergraphInstance,
    SparseOvInstance,
    aw_bruteforce,
    aw_to_indep,
    aw_to_ov,
    dnf_to_aw,
    indep_bruteforce,
    indep_to_dnf,
    ov_bruteforce,
    ov_to_aw,
    parse_aw,
)
from .fdt import (
    DecisionTree,
    End,
    FdtInstance,
    FdtOracle,
    Read,
    Write,
    compile_dnf_verifier_to_trees,
    completeness_harness,
    execute_tree,
    fdt_answer,
    fdt_to_fdnf,
    fdt_update,
)
from .forest import DynamicForest, NotTreeEdge
from .connectivity import (
    ConnVerifier,
    DynamicGraph,
    KconnVerifier,
    SpanningForestProtocol,
    honest_conn_prover,
    mincut_bruteforce,
    mincut_oracle_prover,
    parse_graph,
)
from .reductions import (
    CnfInstance,
    REDUCTIONS,
    check_reduction,
    parse_dimacs,
    sat_via_allwhite,
)

__version__ = "0.1.0"
