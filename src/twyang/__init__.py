"""twyang: exact R/K-matrices, modules and Drinfeld-polynomial classification
for twisted Yangians of types B, C and D."""

from .exact import (
    Poly,
    RatFunc,
    TruncSeries,
    factor_shifted_square,
    frac,
    poly,
    rf,
    series_expand,
)
from .rkmat import (
    PairType,
    Report,
    all_supported_pairs,
    check_p_identity,
    check_reflection,
    check_symmetry,
    check_twisted_reflection,
    check_unitarity,
    check_yang_baxter,
    g_matrix,
    k_one_param,
    p_scalar,
    pair,
    r_matrix,
    verify_k_matrix,
    verify_r_matrix,
)
from .tensors import IndexSet, LabeledMatrix, op_P, op_Q, theta
from .liealg import (
    LieModule,
    gl1_module,
    gl2_module,
    so2_char,
    so3_module,
    so4_module,
    sp2_module,
    sp2_on_so3,
)
from .reps import (
    OlshanskiiModule,
    TwistedModule,
    XModule,
    bridge_so3,
    bridge_so4,
    bridge_sp2,
    check_embedding_brackets,
    eval_so3,
    eval_so4,
    eval_sp2,
    extract_x_weights,
    highest_weight_extract,
    olshanskii_eval,
    onedim_module,
    restrict_v_j,
    restrict_v_plus,
    sklyanin_det2,
    tensor_twisted,
    unitary_scalar,
    vector_eval_x,
    verify_olshanskii,
    verify_twisted,
    verify_x,
)
from .classify import (
    Certificate,
    TildeTuple,
    Verdict,
    WeightTuple,
    check_mr,
    check_nontrivial,
    classify,
    construct_from_cert,
    extend_lambda,
    mu_factorize_b0,
    solve_P,
    solve_P_gamma,
    tilde,
    untilde,
    xgn_fd_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
