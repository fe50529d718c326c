"""Frontend type checking on the paper models and on error cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frontend.parser import parse_model
from repro.core.frontend.symbols import analyze_model
from repro.core.frontend.typecheck import type_of_value, typecheck_model
from repro.core.types import (
    INT,
    MAT_REAL,
    REAL,
    VEC_REAL,
    MatTy,
    VecTy,
    parse_type,
)
from repro.errors import TypeCheckError
from repro.eval import models
from repro.runtime.vectors import RaggedArray


def gmm_hyper_types():
    return {
        "K": INT,
        "N": INT,
        "mu_0": VEC_REAL,
        "Sigma_0": MAT_REAL,
        "pis": VEC_REAL,
        "Sigma": MAT_REAL,
    }


def test_type_of_value():
    assert type_of_value(3) == INT
    assert type_of_value(3.5) == REAL
    assert type_of_value(np.zeros(4)) == VEC_REAL
    assert type_of_value(np.zeros((2, 2))) == MAT_REAL
    assert type_of_value(np.zeros(3, dtype=np.int64)) == VecTy(INT)
    assert type_of_value(np.zeros((2, 3, 3))) == VecTy(MAT_REAL)
    assert type_of_value(RaggedArray.from_rows([[1.0, 2.0], [3.0]])) == VecTy(VEC_REAL)


def test_gmm_types():
    m = parse_model(models.GMM)
    tys = typecheck_model(m, gmm_hyper_types())
    assert tys["mu"] == VecTy(VEC_REAL)
    assert tys["z"] == VecTy(INT)
    assert tys["x"] == VecTy(VEC_REAL)


def test_hlr_types():
    m = parse_model(models.HLR)
    tys = typecheck_model(
        m, {"N": INT, "D": INT, "lam": REAL, "x": MAT_REAL}
    )
    assert tys["sigma2"] == REAL
    assert tys["theta"] == VEC_REAL
    assert tys["y"] == VecTy(INT)


def test_lda_types_with_ragged_bounds():
    m = parse_model(models.LDA)
    tys = typecheck_model(
        m,
        {
            "K": INT,
            "D": INT,
            "V": INT,
            "N": VecTy(INT),
            "alpha": VEC_REAL,
            "beta": VEC_REAL,
        },
    )
    assert tys["theta"] == VecTy(VEC_REAL)
    assert tys["z"] == VecTy(VecTy(INT))


def test_hgmm_types():
    m = parse_model(models.HGMM)
    tys = typecheck_model(
        m,
        {
            "K": INT,
            "N": INT,
            "alpha": VEC_REAL,
            "mu_0": VEC_REAL,
            "Sigma_0": MAT_REAL,
            "nu": REAL,
            "Psi": MAT_REAL,
        },
    )
    assert tys["Sigma"] == VecTy(MAT_REAL)
    assert tys["pi"] == VEC_REAL


def test_int_promotes_to_real_in_dist_args():
    m = parse_model("(N) => { param mu ~ Normal(0, 1) ; }")
    tys = typecheck_model(m, {"N": INT})
    assert tys["mu"] == REAL


def test_wrong_dist_arg_type_rejected():
    m = parse_model("(v) => { param mu ~ Normal(v, 1.0) ; }")
    with pytest.raises(TypeCheckError, match="argument mean"):
        typecheck_model(m, {"v": VEC_REAL})


def test_noninteger_bound_rejected():
    m = parse_model(
        "(N) => { param mu[k] ~ Normal(0.0, 1.0) for k <- 0 until N ; }"
    )
    with pytest.raises(TypeCheckError, match="expected Int"):
        typecheck_model(m, {"N": REAL})


def test_missing_hyper_type_rejected():
    m = parse_model(models.NORMAL_NORMAL)
    with pytest.raises(TypeCheckError, match="missing types"):
        typecheck_model(m, {"N": INT})


def test_indexing_noncompound_rejected():
    m = parse_model("(s) => { param mu ~ Normal(s[0], 1.0) ; }")
    with pytest.raises(TypeCheckError, match="cannot index"):
        typecheck_model(m, {"s": REAL})


def test_parse_type_helper():
    assert parse_type("Vec Vec Real") == VecTy(VEC_REAL)
    assert parse_type("Mat Real") == MAT_REAL
    with pytest.raises(TypeCheckError):
        parse_type("Mat Vec Real")  # matrices of vectors are rejected


def test_analyze_model_symbol_table():
    m = parse_model(models.GMM)
    mi = analyze_model(m, gmm_hyper_types())
    assert mi.param_names() == ("mu", "z")
    assert mi.data_names() == ("x",)
    assert mi.info("z").is_discrete and not mi.info("mu").is_discrete
    assert mi.info("z").dist_name == "Categorical"
    assert mi.info("mu").support == "real_vec"
    with pytest.raises(TypeCheckError):
        mi.info("nonexistent")
