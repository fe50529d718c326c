"""Fused value+gradient codegen: one pass, same numbers as the pair.

``gen_ll_grad`` shares the forward let-bindings between the likelihood
accumulation and the adjoint statements and accumulates into
preallocated workspace buffers.  These tests pin the contract: the fused
declaration returns *bitwise* the same log density and gradients as the
separate ``gen_block_ll``/``gen_grad`` pair, agrees with finite
differences, zeroes its workspaces on entry (so reuse across calls is
safe), and fails exactly when ``gen_grad`` would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.density.conditionals import blocked_factors
from repro.core.density.lower import lower_and_factorize
from repro.core.exprs import Var
from repro.core.frontend.parser import parse_model
from repro.core.lowpp.ad import gen_grad, gen_ll_grad
from repro.core.lowpp.gen_ll import gen_block_ll
from repro.core.lowpp.interp import run_decl
from repro.core.lowpp.ir import SAssign, walk_stmts
from repro.errors import CodegenError
from repro.runtime.rng import Rng
from repro.runtime.vectors import RaggedArray

from tests.lowpp.conftest import make_setup
from tests.lowpp.test_ad import numeric_grad
from tests.telemetry.test_explain import RAGGED_ELEMENTS


def _adjoint_workspaces(targets, env):
    return {f"_adj_{t}": np.zeros_like(np.asarray(env[t], dtype=np.float64))
            for t in targets}


def run_fused(model_name, targets, env):
    fd, info = make_setup(model_name)
    blk = blocked_factors(fd, targets)
    decl, specs = gen_ll_grad(blk, fd.lets)
    assert decl.name == "ll_grad_" + "_".join(targets)
    assert [s.name for s in specs] == [f"_adj_{t}" for t in targets]
    assert [s.like for s in specs] == list(targets)
    vals = run_decl(decl, env, Rng(0), workspaces=_adjoint_workspaces(targets, env))
    return fd, blk, vals[0], vals[1:]


def check_fused_block(model_name, targets, env, rtol=1e-4):
    fd, blk, ll, grads = run_fused(model_name, targets, env)

    # Bitwise agreement with the separate pair the GPU target compiles.
    (ll_sep,) = run_decl(gen_block_ll(blk, fd.lets), env, Rng(0))
    grads_sep = run_decl(gen_grad(blk, fd.lets), env, Rng(0))
    assert float(ll) == float(ll_sep)
    for t, g, gs in zip(targets, grads, grads_sep):
        if isinstance(g, RaggedArray):
            g, gs = g.flat, gs.flat
        np.testing.assert_array_equal(
            np.asarray(g), np.asarray(gs),
            err_msg=f"fused vs separate gradient mismatch for {t}",
        )

    # Agreement with finite differences of the generated log density.
    ll_decl = gen_block_ll(blk, fd.lets)
    for t, g in zip(targets, grads):
        if isinstance(np.asarray(env[t]), np.ndarray) and isinstance(
            env[t], RaggedArray
        ):
            continue  # finite differencing a ragged target is out of scope
        expected = numeric_grad(ll_decl, env, t, Rng(0))
        np.testing.assert_allclose(
            np.asarray(g, dtype=np.float64), expected, rtol=rtol, atol=1e-6,
            err_msg=f"fused gradient vs finite differences mismatch for {t}",
        )


def test_hlr_fused_block(hlr_env):
    # Scalar + vector targets sharing forward lets (sigmoid, dotp).
    check_fused_block("hlr", ("sigma2", "b", "theta"), hlr_env)


def test_hlr_single_target(hlr_env):
    check_fused_block("hlr", ("theta",), hlr_env)


def test_gmm_gathered_indices(gmm_env):
    # Adjoints scatter through the mixture assignment z[n].
    check_fused_block("gmm", ("mu",), gmm_env)


def test_exp_normal_scalar_accumulation():
    rng = np.random.default_rng(3)
    env = {"N": 6, "lam": 1.0, "v": 0.8, "y": rng.normal(size=6)}
    check_fused_block("exp_normal", ("v",), env)


def _lda_env():
    rng = np.random.default_rng(2)
    K, D, V = 3, 2, 5
    n_words = np.array([4, 3])
    return {
        "K": K,
        "D": D,
        "V": V,
        "N": n_words,
        "alpha": np.ones(K),
        "beta": np.ones(V),
        "theta": rng.dirichlet(np.ones(K), size=D),
        "phi": rng.dirichlet(np.ones(V), size=K),
        "z": RaggedArray.from_rows([rng.integers(0, K, size=n) for n in n_words]),
        "w": RaggedArray.from_rows([rng.integers(0, V, size=n) for n in n_words]),
    }


def test_lda_ragged_block():
    # Ragged data/assignment arrays flow through both the likelihood and
    # the adjoint loops; the dense theta gradient must match the pair.
    env = _lda_env()
    fd, blk, ll, grads = run_fused("lda", ("theta",), env)
    grads_sep = run_decl(gen_grad(blk, fd.lets), env, Rng(0))
    (ll_sep,) = run_decl(gen_block_ll(blk, fd.lets), env, Rng(0))
    assert float(ll) == float(ll_sep)
    np.testing.assert_array_equal(np.asarray(grads[0]), np.asarray(grads_sep[0]))


def test_workspaces_zeroed_per_call(hlr_env):
    # The adjoint buffers are zeroed in place on entry: garbage left from
    # a previous call must not leak into the result.
    fd, info = make_setup("hlr")
    blk = blocked_factors(fd, ("theta",))
    decl, _ = gen_ll_grad(blk, fd.lets)
    ws = _adjoint_workspaces(("theta",), hlr_env)
    ll0, g0 = run_decl(decl, hlr_env, Rng(0), workspaces=ws)
    g0 = np.array(g0, copy=True)
    ws["_adj_theta"].fill(123.0)
    ll1, g1 = run_decl(decl, hlr_env, Rng(0), workspaces=ws)
    assert float(ll0) == float(ll1)
    np.testing.assert_array_equal(g0, np.asarray(g1))


def test_return_order_is_ll_then_targets(hlr_env):
    fd, info = make_setup("hlr")
    blk = blocked_factors(fd, ("b", "sigma2"))
    decl, specs = gen_ll_grad(blk, fd.lets)
    assert [str(r) for r in decl.ret] == ["ll", "_adj_b", "_adj_sigma2"]
    assert [s.like for s in specs] == ["b", "sigma2"]


def test_rejects_gradient_through_discrete_index():
    # Same gating as gen_grad: the compiler falls back to the separate
    # pair exactly when the adjoint pass is unsupported.
    from repro.core.density.conditionals import BlockConditional
    from repro.core.density.ir import Factor
    from repro.core.exprs import Index, Var

    f = Factor(
        gens=(),
        guards=(),
        dist="Normal",
        args=(Index(Var("t"), Var("t2")), Var("v")),
        at=Var("y"),
        source="y",
    )
    blk = BlockConditional(targets=("t2",), factors=(f,))
    with pytest.raises(CodegenError, match="index"):
        gen_ll_grad(blk)


def test_rows_read_one_element_at_a_time_are_not_bound():
    # ``t[d]`` and ``y[d]`` occur only as the rows of ``t[d][j]`` and
    # ``y[d][j]``: the element reads are bound, the rows are not, so the
    # (d, j) nest reads each element from the flat buffer instead of
    # gathering a whole row per lane.
    fd = lower_and_factorize(parse_model(RAGGED_ELEMENTS))
    decl, _ = gen_ll_grad(blocked_factors(fd, ("t",)), fd.lets)
    bound = [
        s.rhs
        for s in walk_stmts(decl.body)
        if isinstance(s, SAssign) and s.lhs.name.startswith("_fwd")
    ]
    d, j = Var("d"), Var("j")
    assert Var("t")[d] not in bound and Var("y")[d] not in bound
    assert Var("t")[d][j] in bound and Var("y")[d][j] in bound
