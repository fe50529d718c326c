"""Batched element-parallel drivers (PR 3).

Covers: acceptance-decision equivalence between the batched and scalar
MH paths under a controlled random stream, per-lane density agreement
between ``batch_cond_ll_*`` and the scalar ``cond_ll_*``, stat-schema
and label parity, and the fallback matrix (vector elements, user
proposals, ``batch=off``, ragged gathers the vectoriser declines).
"""

from __future__ import annotations

import numpy as np

from repro.core.backend.cpu import emit_function
from repro.core.backend.drivers import (
    ESliceDriver,
    MHDriver,
    SliceDriver,
    VectorizedESliceDriver,
    VectorizedMHDriver,
    VectorizedSliceDriver,
)
from repro.core.backend.emitter import SourceBuilder
from repro.core.compiler import compile_model
from repro.core.exprs import Call, Gen, IntLit, RealLit, Var
from repro.core.lowpp.ir import (
    AssignOp,
    LDecl,
    LoopKind,
    LValue,
    SAssign,
    SIf,
    SLoop,
)
from repro.core.lowmm.ir import lower_decl
from repro.runtime.rng import Rng
from repro.runtime.vectors import RaggedArray

NORMAL_ELEMENTS = """
(N, v0, v) => {
  param mu[n] ~ Normal(0.0, v0) for n <- 0 until N ;
  data y[n] ~ Normal(mu[n], v) for n <- 0 until N ;
}
"""

RAGGED_ELEMENTS = """
(D, L, v0, v) => {
  param t[d][j] ~ Normal(0.0, v0) for d <- 0 until D, j <- 0 until L[d] ;
  data y[d][j] ~ Normal(t[d][j], v) for d <- 0 until D, j <- 0 until L[d] ;
}
"""

# The data factor gathers ``t`` through ``c[d][0]`` -- a ragged read the
# vectoriser declines (not the flat pair layout), so the compiler must
# reject the batched declaration and keep the scalar driver.
RAGGED_GATHER = """
(D, K, L, pi, v0, v) => {
  param t[k] ~ Normal(0.0, v0) for k <- 0 until K ;
  data c[d][j] ~ Categorical(pi) for d <- 0 until D, j <- 0 until L[d] ;
  data y[d] ~ Normal(t[c[d][0]], v) for d <- 0 until D ;
}
"""

GMM = """
(K, N, mu0, Sigma0, pis, Sigma) => {
  param mu[k] ~ MvNormal(mu0, Sigma0) for k <- 0 until K ;
  param z[n] ~ Categorical(pis) for n <- 0 until N ;
  data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
}
"""


def nn_inputs(n=8, seed=0):
    rng = np.random.default_rng(seed)
    hypers = {"N": n, "v0": 4.0, "v": 1.0}
    data = {"y": rng.normal(loc=1.0, size=n)}
    return hypers, data


def ragged_inputs(d=5, seed=0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 5, size=d)
    hypers = {"D": d, "L": lengths, "v0": 4.0, "v": 1.0}
    data = {"y": RaggedArray.from_rows([rng.normal(size=k) for k in lengths])}
    return hypers, data


def gmm_inputs(k=2, n=6, seed=0):
    rng = np.random.default_rng(seed)
    hypers = {
        "K": k,
        "N": n,
        "mu0": np.zeros(2),
        "Sigma0": np.eye(2) * 4.0,
        "pis": np.ones(k) / k,
        "Sigma": np.eye(2) * 0.5,
    }
    data = {"x": rng.normal(size=(n, 2))}
    return hypers, data


def only_update(sampler):
    assert len(sampler.updates) == 1
    return sampler.updates[0]


# ----------------------------------------------------------------------
# Driver selection and fallback matrix.
# ----------------------------------------------------------------------


def test_batched_drivers_selected_for_element_schedules():
    hypers, data = nn_inputs()
    for sched, cls in [
        ("MH mu", VectorizedMHDriver),
        ("Slice mu", VectorizedSliceDriver),
        ("ESlice mu", VectorizedESliceDriver),
    ]:
        upd = only_update(compile_model(NORMAL_ELEMENTS, hypers, data, schedule=sched))
        assert type(upd) is cls
        assert upd.is_batched


def test_batched_driver_selected_for_ragged_pair_model():
    hypers, data = ragged_inputs()
    upd = only_update(compile_model(RAGGED_ELEMENTS, hypers, data, schedule="MH t"))
    assert type(upd) is VectorizedMHDriver


def test_schedule_batch_off_falls_back():
    hypers, data = nn_inputs()
    for sched, cls in [
        ("MH[batch=off] mu", MHDriver),
        ("Slice[batch=off] mu", SliceDriver),
        ("ESlice[batch=off] mu", ESliceDriver),
    ]:
        upd = only_update(compile_model(NORMAL_ELEMENTS, hypers, data, schedule=sched))
        assert type(upd) is cls


def test_user_proposal_mh_falls_back():
    hypers, data = nn_inputs()

    def prop(value, rng):
        return value + 0.3 * rng.standard_normal(), 0.0

    upd = only_update(
        compile_model(
            NORMAL_ELEMENTS,
            hypers,
            data,
            schedule="MH[proposal=user] mu",
            proposals={"mu": prop},
        )
    )
    assert type(upd) is MHDriver


def test_vector_element_mh_falls_back_but_eslice_batches():
    # MvNormal mu: event-shaped elements -- random-walk MH stays scalar,
    # elliptical slice supports event lanes and stays batched.
    hypers, data = gmm_inputs()
    mh = compile_model(GMM, hypers, data, schedule="MH mu (*) Gibbs z")
    slices = compile_model(GMM, hypers, data, schedule="ESlice mu (*) Gibbs z")
    assert type(mh.updates[0]) is MHDriver
    assert type(slices.updates[0]) is VectorizedESliceDriver


def test_ragged_gather_model_falls_back_to_scalar():
    # Statically eligible (single lane occurrence per factor) but the
    # generated scatter gathers ``c[d][0]`` out of a ragged array, which
    # the vectoriser declines -- the compiler must keep the scalar path.
    rng = np.random.default_rng(3)
    d, k = 12, 3
    lengths = rng.integers(1, 4, size=d)
    hypers = {"D": d, "K": k, "L": lengths, "pi": np.ones(k) / k, "v0": 4.0, "v": 1.0}
    data = {
        "c": RaggedArray.from_rows([rng.integers(0, k, size=m) for m in lengths]),
        "y": rng.normal(size=d),
    }
    sampler = compile_model(RAGGED_GATHER, hypers, data, schedule="MH t")
    upd = only_update(sampler)
    assert type(upd) is MHDriver
    # ... and the scalar path still samples.
    state = sampler.init_state(Rng(0))
    r = Rng(1)
    for _ in range(20):
        sampler.step(state, r)
    assert np.all(np.isfinite(state["t"]))


def _nest_decl(name, params, body):
    nest = SLoop(
        LoopKind.ATM_PAR,
        Gen("i", IntLit(0), Var("N")),
        (SLoop(LoopKind.ATM_PAR, Gen("j", IntLit(0), Var("M")), body),),
    )
    return lower_decl(
        LDecl(name=name, params=params, body=(nest,), ret=(Var("out"),))
    )


def _fallbacks(low) -> int:
    """How many parallel loops of ``low`` emit as Python loops."""
    return emit_function(SourceBuilder(), low, frozenset())


def test_emit_fallback_count_gates_batching():
    # The compiler wires a batched driver only when its conditional
    # emits with no Python-loop fallback.  A guarded reduction into a
    # cell fixed per row still declines: the loop summed each row's
    # selected lanes compacted, which nest mode cannot reproduce bitwise.
    guarded_row_sum = SIf(
        Call("==", (Var("flag")[Var("i")][Var("j")], IntLit(1))),
        (SAssign(LValue("out", (Var("i"),)), AssignOp.INC, RealLit(1.0)),),
    )
    bad = _nest_decl("probe_bad", ("M", "N", "flag", "out"), (guarded_row_sum,))
    assert _fallbacks(bad) > 0

    flat = SLoop(
        LoopKind.PAR,
        Gen("i", IntLit(0), Var("N")),
        (SAssign(LValue("out", (Var("i"),)), AssignOp.SET, RealLit(1.0)),),
    )
    good = LDecl(
        name="probe_good", params=("N", "out"), body=(flat,), ret=(Var("out"),)
    )
    assert _fallbacks(lower_decl(good)) == 0
    # A rectangular nest runs whole on the flattened batch.
    out_store = SAssign(
        LValue("out", (Var("i"), Var("j"))), AssignOp.SET, RealLit(1.0)
    )
    assert _fallbacks(
        _nest_decl("probe_nest", ("M", "N", "out"), (out_store,))
    ) == 0


# ----------------------------------------------------------------------
# Per-lane density agreement.
# ----------------------------------------------------------------------


def _lane_densities_match(source, hypers, data, schedule, lanes):
    sampler = compile_model(source, hypers, data, schedule=schedule)
    upd = only_update(sampler)
    assert upd.is_batched
    state = sampler.init_state(Rng(7))
    env = dict(sampler.base_env)
    env.update(state)
    rng = Rng(8)
    batched = upd._lane_ll_fn(env, sampler.workspaces, rng)(upd._lane_values(env))
    assert batched.shape == (lanes,)
    for lane, idx in enumerate(upd._element_list()):
        upd._bind_idx(env, idx)
        (scalar,) = upd._ll_fn(env, sampler.workspaces, rng)
        assert np.isclose(batched[lane], float(scalar)), (idx, lane)


def test_batched_density_matches_scalar_dense():
    hypers, data = nn_inputs(n=8)
    _lane_densities_match(NORMAL_ELEMENTS, hypers, data, "MH mu", lanes=8)


def test_batched_density_matches_scalar_ragged():
    hypers, data = ragged_inputs(d=5)
    lanes = int(np.sum(hypers["L"]))
    _lane_densities_match(RAGGED_ELEMENTS, hypers, data, "MH t", lanes=lanes)


def test_batched_likelihood_matches_scalar_for_gathered_lanes():
    # GMM ESlice mu: guarded likelihood terms scatter into the lane the
    # categorical assignment selects.
    hypers, data = gmm_inputs()
    sampler = compile_model(GMM, hypers, data, schedule="ESlice mu (*) Gibbs z")
    upd = sampler.updates[0]
    assert type(upd) is VectorizedESliceDriver
    state = sampler.init_state(Rng(11))
    env = dict(sampler.base_env)
    env.update(state)
    rng = Rng(12)
    batched = upd._lane_ll_fn(env, sampler.workspaces, rng)(upd._lane_values(env))
    for lane, idx in enumerate(upd._element_list()):
        upd._bind_idx(env, idx)
        (scalar,) = upd._ll_fn(env, sampler.workspaces, rng)
        assert np.isclose(batched[lane], float(scalar)), idx


# ----------------------------------------------------------------------
# Acceptance-decision equivalence under a controlled random stream.
# ----------------------------------------------------------------------


class _ScriptedGen:
    """Deterministic generator stand-in: proposal noise comes from a
    fixed stream consumed in lane order, acceptance uniforms are a
    constant (so the scalar path's lazy uniform draw -- skipped for
    sure-accept elements -- cannot desynchronise the comparison)."""

    def __init__(self, normals, u=0.5):
        self._normals = list(normals)
        self._pos = 0
        self._u = u

    def standard_normal(self, size=None):
        if size is None or size == ():
            v = self._normals[self._pos]
            self._pos += 1
            return np.float64(v)
        n = int(np.prod(size))
        out = np.asarray(self._normals[self._pos : self._pos + n], dtype=np.float64)
        self._pos += n
        return out.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return self._u * (high - low) + low
        return np.full(size, self._u * (high - low) + low)


class _ScriptedRng:
    def __init__(self, normals, u=0.5):
        self.generator = _ScriptedGen(normals, u=u)


def test_mh_accept_decisions_match_scalar():
    n = 12
    hypers, data = nn_inputs(n=n, seed=4)
    batched = compile_model(NORMAL_ELEMENTS, hypers, data, schedule="MH mu")
    scalar = compile_model(
        NORMAL_ELEMENTS, hypers, data, schedule="MH[batch=off] mu"
    )
    assert only_update(batched).is_batched
    assert not only_update(scalar).is_batched

    noise = np.random.default_rng(99).normal(size=(5, n))
    for u in (0.15, 0.5, 0.95):
        mu0 = np.linspace(-2.0, 2.0, n)
        state_b = {"mu": mu0.copy()}
        state_s = {"mu": mu0.copy()}
        for sweep in range(noise.shape[0]):
            batched.step(state_b, _ScriptedRng(noise[sweep], u=u))
            scalar.step(state_s, _ScriptedRng(noise[sweep], u=u))
            np.testing.assert_allclose(
                state_b["mu"], state_s["mu"], rtol=1e-12, atol=1e-12,
                err_msg=f"sweep {sweep}, u={u}",
            )
        ub, us = only_update(batched), only_update(scalar)
        assert ub.stats.proposed == us.stats.proposed
        assert ub.stats.accepted == us.stats.accepted
        # Reset between uniform levels so counts stay comparable.
        ub.stats.accepted = ub.stats.proposed = 0
        us.stats.accepted = us.stats.proposed = 0


# ----------------------------------------------------------------------
# Stat schema, labels, and acceptance-rate parity.
# ----------------------------------------------------------------------


def test_stat_schema_and_label_parity():
    hypers, data = nn_inputs()
    for method in ("MH", "Slice", "ESlice"):
        b = only_update(
            compile_model(NORMAL_ELEMENTS, hypers, data, schedule=f"{method} mu")
        )
        s = only_update(
            compile_model(
                NORMAL_ELEMENTS, hypers, data, schedule=f"{method}[batch=off] mu"
            )
        )
        assert b.is_batched and not s.is_batched, method
        assert b.stat_fields() == s.stat_fields(), method
        assert b.label == s.label, method


def test_sweep_records_lane_aggregated():
    n = 10
    hypers, data = nn_inputs(n=n)
    batched = compile_model(NORMAL_ELEMENTS, hypers, data, schedule="MH mu")
    scalar = compile_model(
        NORMAL_ELEMENTS, hypers, data, schedule="MH[batch=off] mu"
    )
    res_b = batched.sample(60, seed=5, collect_stats=True)
    res_s = scalar.sample(60, seed=5, collect_stats=True)
    assert res_b.stats.update_labels == res_s.stats.update_labels == ("MH mu",)
    cols_b = res_b.stats["MH mu"]
    cols_s = res_s.stats["MH mu"]
    assert tuple(cols_b) == tuple(cols_s)
    assert res_b.stats.fields("MH mu") == res_s.stats.fields("MH mu")
    # One record per sweep, counting all lanes, on both paths.
    assert np.all(cols_b["n_proposed"] == n)
    assert np.all(cols_s["n_proposed"] == n)
    rate_b = float(np.mean(cols_b["accept_rate"]))
    rate_s = float(np.mean(cols_s["accept_rate"]))
    assert abs(rate_b - rate_s) < 0.12, (rate_b, rate_s)


def test_batched_posterior_matches_conjugate_mean():
    n = 40
    rng = np.random.default_rng(2)
    y = rng.normal(loc=1.5, size=n)
    hypers = {"N": n, "v0": 4.0, "v": 1.0}
    data = {"y": y}
    post_mean = y * (hypers["v0"] / (hypers["v0"] + hypers["v"]))
    for sched in ("MH mu", "Slice mu", "ESlice mu"):
        sampler = compile_model(NORMAL_ELEMENTS, hypers, data, schedule=sched)
        assert only_update(sampler).is_batched
        res = sampler.sample(1500, burn_in=300, seed=3)
        err = np.max(np.abs(res.samples["mu"].mean(axis=0) - post_mean))
        assert err < 0.35, (sched, err)
