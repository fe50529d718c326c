"""CPU backend: generated NumPy code differentially tested against the
Low++ interpreter and analytic oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import vops
from repro.core.backend.cpu import compile_cpu_module
from repro.core.compiler import compile_model
from repro.core.density.conditionals import blocked_factors, conditional
from repro.core.density.interp import log_joint
from repro.core.kernel.conjugacy import detect_conjugacy, detect_enumeration
from repro.core.lowmm.ir import lower_decl
from repro.core.lowmm.size_inference import allocate
from repro.core.lowpp.ad import gen_grad
from repro.core.lowpp.gen_gibbs import gen_gibbs_conjugate, gen_gibbs_enumeration
from repro.core.lowpp.gen_ll import gen_block_ll, gen_cond_ll, gen_model_ll
from repro.core.lowpp.interp import run_decl
from repro.runtime.rng import Rng
from repro.runtime.vectors import RaggedArray

from tests.lowpp.conftest import make_setup
from tests.lowpp.test_gen_gibbs import gmm_gibbs_env
from tests.telemetry.test_explain import RAGGED_ELEMENTS, ragged_inputs


def compile_one(decl, workspaces=(), writes=(), ragged=frozenset(), vectorize=True):
    low = lower_decl(decl, workspaces=tuple(w.name for w in workspaces), writes=writes)
    mod = compile_cpu_module([low], ragged_names=ragged, vectorize=vectorize)
    return mod


def lda_env(seed=0):
    rng = np.random.default_rng(seed)
    K, D, V = 3, 4, 6
    N = np.array([5, 3, 6, 2])
    return {
        "K": K,
        "D": D,
        "V": V,
        "N": N,
        "alpha": np.full(K, 0.5),
        "beta": np.full(V, 0.5),
        "theta": rng.dirichlet(np.full(K, 1.0), size=D),
        "phi": rng.dirichlet(np.full(V, 1.0), size=K),
        "z": RaggedArray.from_rows([rng.integers(0, K, size=n) for n in N]),
        "w": RaggedArray.from_rows([rng.integers(0, V, size=n) for n in N]),
    }


# ----------------------------------------------------------------------
# Log-likelihood functions.
# ----------------------------------------------------------------------


def test_model_ll_gmm_matches_oracle(gmm_env_fixture=None):
    fd, info = make_setup("gmm")
    decl = gen_model_ll(fd)
    mod = compile_one(decl)
    env = gmm_gibbs_env()
    (got,) = mod.fn("model_ll")(env, {}, Rng(0))
    assert float(got) == pytest.approx(log_joint(fd, env), rel=1e-10)


def test_model_ll_is_vectorized():
    fd, info = make_setup("gmm")
    mod = compile_one(gen_model_ll(fd))
    # No Python-level loop over the data should survive vectorisation.
    assert "for v_n in range" not in mod.source
    assert "np.arange" in mod.source


def test_model_ll_fallback_matches_vectorized():
    fd, info = make_setup("gmm")
    env = gmm_gibbs_env()
    vec = compile_one(gen_model_ll(fd))
    loop = compile_one(gen_model_ll(fd), vectorize=False)
    assert "for v_n in range" in loop.source
    (a,) = vec.fn("model_ll")(env, {}, Rng(0))
    (b,) = loop.fn("model_ll")(env, {}, Rng(0))
    assert float(a) == pytest.approx(float(b), rel=1e-10)


def test_model_ll_lda_ragged_pair(gmm_env_fixture=None):
    fd, info = make_setup("lda")
    decl = gen_model_ll(fd)
    mod = compile_one(decl, ragged=frozenset({"z", "w"}))
    env = lda_env()
    (got,) = mod.fn("model_ll")(env, {}, Rng(0))
    assert float(got) == pytest.approx(log_joint(fd, env), rel=1e-10)
    assert "_vops.pair_flat" in mod.source


def test_cond_ll_guarded_matches_interp():
    fd, info = make_setup("gmm")
    cond = conditional(fd, "mu", info)
    decl = gen_cond_ll(cond, fd.lets)
    mod = compile_one(decl)
    env = dict(gmm_gibbs_env(), k=1)
    env["mu"] = np.array([[0.5, -0.5], [1.0, 2.0]])
    (got,) = mod.fn(decl.name)(env, {}, Rng(0))
    (expected,) = run_decl(decl, env, Rng(0))
    assert float(got) == pytest.approx(float(expected), rel=1e-10)


def test_block_ll_hlr_matches_interp(hlr_env=None):
    fd, info = make_setup("hlr")
    rng = np.random.default_rng(5)
    env = {
        "N": 40,
        "D": 7,
        "lam": 1.0,
        "x": rng.normal(size=(40, 7)),
        "sigma2": 1.1,
        "b": -0.2,
        "theta": rng.normal(size=7),
        "y": rng.integers(0, 2, size=40),
    }
    blk = blocked_factors(fd, ("sigma2", "b", "theta"))
    decl = gen_block_ll(blk, fd.lets)
    mod = compile_one(decl)
    (got,) = mod.fn(decl.name)(env, {}, Rng(0))
    (expected,) = run_decl(decl, env, Rng(0))
    assert float(got) == pytest.approx(float(expected), rel=1e-10)


# ----------------------------------------------------------------------
# Gradients: compiled vs. interpreted (deterministic, exact).
# ----------------------------------------------------------------------


def test_grad_hlr_compiled_matches_interp():
    fd, info = make_setup("hlr")
    rng = np.random.default_rng(6)
    env = {
        "N": 25,
        "D": 4,
        "lam": 1.0,
        "x": rng.normal(size=(25, 4)),
        "sigma2": 0.9,
        "b": 0.3,
        "theta": rng.normal(size=4),
        "y": rng.integers(0, 2, size=25),
    }
    blk = blocked_factors(fd, ("sigma2", "b", "theta"))
    decl = gen_grad(blk, fd.lets)
    mod = compile_one(decl)
    got = mod.fn(decl.name)(env, {}, Rng(0))
    expected = run_decl(decl, env, Rng(0))
    for g, e in zip(got, expected):
        np.testing.assert_allclose(np.asarray(g), np.asarray(e), rtol=1e-10)


def test_grad_gmm_mu_scatter_compiled_matches_interp():
    fd, info = make_setup("gmm")
    env = gmm_gibbs_env()
    env["mu"] = np.array([[0.1, 0.2], [-0.3, 0.4]])
    blk = blocked_factors(fd, ("mu",))
    decl = gen_grad(blk, fd.lets)
    mod = compile_one(decl)
    (got,) = mod.fn(decl.name)(env, {}, Rng(0))
    (expected,) = run_decl(decl, env, Rng(0))
    np.testing.assert_allclose(got, expected, rtol=1e-10)


# ----------------------------------------------------------------------
# Gibbs updates.
# ----------------------------------------------------------------------


def test_gibbs_mu_statistics_match_manual():
    fd, info = make_setup("gmm")
    match = detect_conjugacy(conditional(fd, "mu", info))
    code = gen_gibbs_conjugate(match, fd.lets)
    mod = compile_one(code.decl, workspaces=code.workspaces, writes=("mu",))
    env = gmm_gibbs_env()
    ws = allocate(code.workspaces, env)
    mod.fn(code.decl.name)(env, ws, Rng(0))
    counts = np.bincount(env["z"], minlength=2).astype(float)
    np.testing.assert_allclose(ws["ws_mu_cnt"], counts)
    sums = np.stack([env["x"][env["z"] == k].sum(axis=0) for k in range(2)])
    np.testing.assert_allclose(ws["ws_mu_sum"], sums, rtol=1e-12)


def test_gibbs_mu_compiled_posterior_moments():
    fd, info = make_setup("gmm")
    match = detect_conjugacy(conditional(fd, "mu", info))
    code = gen_gibbs_conjugate(match, fd.lets)
    mod = compile_one(code.decl, workspaces=code.workspaces, writes=("mu",))
    base = gmm_gibbs_env()
    ws = allocate(code.workspaces, base)
    draws = []
    for i in range(400):
        env = dict(base, mu=base["mu"].copy())
        mod.fn(code.decl.name)(env, ws, Rng(i))
        draws.append(env["mu"].copy())
    means = np.stack(draws).mean(axis=0)
    emp0 = base["x"][base["z"] == 0].mean(axis=0)
    emp1 = base["x"][base["z"] == 1].mean(axis=0)
    np.testing.assert_allclose(means[0], emp0, atol=0.05)
    np.testing.assert_allclose(means[1], emp1, atol=0.05)


def test_gibbs_z_enumeration_compiled_frequencies():
    fd, info = make_setup("gmm")
    cond = conditional(fd, "z", info)
    enum = detect_enumeration(cond, info.info("z").dist_name)
    code = gen_gibbs_enumeration(enum, fd.lets)
    mod = compile_one(code.decl, workspaces=code.workspaces, writes=("z",))
    base = gmm_gibbs_env()
    base["mu"] = np.array([[-2.0, -2.0], [2.0, 2.0]])
    ws = allocate(code.workspaces, base)

    from scipy.stats import multivariate_normal as mvn

    logits = np.array(
        [np.log(0.5) + mvn(base["mu"][k], base["Sigma"]).logpdf(base["x"][0]) for k in range(2)]
    )
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()

    hits = []
    for i in range(1500):
        env = dict(base, z=base["z"].copy())
        mod.fn(code.decl.name)(env, ws, Rng(i))
        hits.append(env["z"][0])
    freq = np.bincount(hits, minlength=2) / len(hits)
    np.testing.assert_allclose(freq, probs, atol=0.035)


def test_gibbs_lda_theta_counts():
    fd, info = make_setup("lda")
    match = detect_conjugacy(conditional(fd, "theta", info))
    code = gen_gibbs_conjugate(match, fd.lets)
    mod = compile_one(
        code.decl,
        workspaces=code.workspaces,
        writes=("theta",),
        ragged=frozenset({"z", "w"}),
    )
    env = lda_env()
    ws = allocate(code.workspaces, env)
    mod.fn(code.decl.name)(env, ws, Rng(0))
    # Counts: per-document topic histogram.
    z = env["z"]
    expected = np.stack(
        [np.bincount(z.row(d), minlength=env["K"]) for d in range(env["D"])]
    ).astype(float)
    np.testing.assert_allclose(ws["ws_theta_cnt"], expected)
    np.testing.assert_allclose(env["theta"].sum(axis=1), 1.0, atol=1e-9)


def test_gibbs_lda_phi_guard_inverted_counts():
    fd, info = make_setup("lda")
    match = detect_conjugacy(conditional(fd, "phi", info))
    code = gen_gibbs_conjugate(match, fd.lets)
    mod = compile_one(
        code.decl,
        workspaces=code.workspaces,
        writes=("phi",),
        ragged=frozenset({"z", "w"}),
    )
    env = lda_env()
    ws = allocate(code.workspaces, env)
    mod.fn(code.decl.name)(env, ws, Rng(0))
    z, w = env["z"].flat, env["w"].flat
    expected = np.zeros((env["K"], env["V"]))
    np.add.at(expected, (z, w), 1.0)
    np.testing.assert_allclose(ws["ws_phi_cnt"], expected)


def test_gibbs_lda_z_enumeration_runs_and_is_valid():
    fd, info = make_setup("lda")
    cond = conditional(fd, "z", info)
    enum = detect_enumeration(cond, info.info("z").dist_name)
    code = gen_gibbs_enumeration(enum, fd.lets)
    mod = compile_one(
        code.decl,
        workspaces=code.workspaces,
        writes=("z",),
        ragged=frozenset({"z", "w", "ws_z_logits"}),
    )
    env = lda_env()
    ws = allocate(code.workspaces, env)
    mod.fn(code.decl.name)(env, ws, Rng(0))
    assert env["z"].flat.min() >= 0
    assert env["z"].flat.max() < env["K"]


def test_scalar_state_write_back():
    fd, info = make_setup("beta_bernoulli")
    match = detect_conjugacy(conditional(fd, "p", info))
    code = gen_gibbs_conjugate(match, fd.lets)
    mod = compile_one(code.decl, workspaces=code.workspaces, writes=("p",))
    y = np.array([1, 1, 1, 0])
    env = {"N": 4, "a": 1.0, "b": 1.0, "p": 0.5, "y": y}
    ws = allocate(code.workspaces, env)
    mod.fn(code.decl.name)(env, ws, Rng(0))
    assert env["p"] != 0.5
    assert 0.0 < env["p"] < 1.0


def test_compiled_module_exposes_source():
    fd, info = make_setup("gmm")
    mod = compile_one(gen_model_ll(fd))
    assert "def model_ll(env, ws, rng):" in mod.source
    assert mod.target == "cpu"


# ----------------------------------------------------------------------
# Rectangular loop nests (grouped means: N groups of J observations).
# ----------------------------------------------------------------------

GROUPED_MEANS = """
(N, J, v0, v) => {
  param mu[n] ~ Normal(0.0, v0)
    for n <- 0 until N ;
  data y[n][j] ~ Normal(mu[n], v)
    for n <- 0 until N, j <- 0 until J ;
}
"""


def grouped_means_inputs(n=30, j=4, seed=0, v=0.7):
    y = np.random.default_rng(seed).normal(size=(n, j))
    return {"N": n, "J": j, "v0": 25.0, "v": v}, {"y": y}


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("cols", [4, 20, 200])
def test_grouped_gibbs_statistics_are_row_sums(cols, layout):
    hypers, data = grouped_means_inputs(j=cols, seed=cols)
    y = data["y"]
    if layout == "F":
        data["y"] = np.asfortranarray(y)
    elif layout == "transposed":
        data["y"] = np.ascontiguousarray(y.T).T
    sampler = compile_model(GROUPED_MEANS, hypers, data, schedule="Gibbs mu")
    env = dict(sampler.base_env)
    env.update(sampler.init_state(Rng(0)))
    sampler.module.fn("gibbs_mu")(env, sampler.workspaces, Rng(1))
    v = hypers["v"]
    # Each group's statistic is the NumPy sum of its own row, as a loop
    # over the groups computed it, whatever the memory order of ``y``
    # (an axis-1 sum over a Fortran-ordered array adds in another order).
    expected = np.sum(y / v, axis=1)
    assert np.array_equal(expected, [np.sum(row / v) for row in y])
    assert np.array_equal(sampler.workspaces["ws_mu_mean"], expected)
    assert np.array_equal(
        sampler.workspaces["ws_mu_prec"], np.full(hypers["N"], cols * (1.0 / v))
    )


def test_grouped_means_results_do_not_depend_on_the_block_size(monkeypatch):
    # Blocks of two rows split every rectangular nest into 15: the draws,
    # the replicated data (one random draw per element) and the log joint
    # stay bitwise the same.
    hypers, data = grouped_means_inputs(n=30, j=20)

    def run():
        sampler = compile_model(GROUPED_MEANS, hypers, data, schedule="Gibbs mu")
        draws = sampler.sample(num_samples=5, seed=3).array("mu")
        state = sampler.init_state(Rng(0))
        replicated = sampler.posterior_predictive(state, Rng(1))["y"]
        return draws, replicated, sampler.log_joint(state)

    whole = run()
    monkeypatch.setattr(vops, "NEST_BLOCK", 40)
    for a, b in zip(whole, run()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "source,inputs,schedule,decls",
    [
        (GROUPED_MEANS, grouped_means_inputs, "Gibbs mu",
         ("gibbs_mu", "forward_data", "model_ll")),
        (RAGGED_ELEMENTS, ragged_inputs, "HMC[steps=10, step_size=0.2] t",
         ("ll_grad_t",)),
    ],
    ids=["rectangular", "ragged-fused-gradient"],
)
def test_loop_nests_vectorize_whole(source, inputs, schedule, decls):
    sampler = compile_model(source, *inputs(), schedule=schedule)
    choices = {
        e["subject"]: e["choice"]
        for e in sampler.explain_json()
        if e["decision"] == "emit.vectorize"
    }
    for name in decls:
        assert choices[name] == "vectorized", name
        fn_source = sampler.source.split(f"def {name}(")[1].split("\ndef ")[0]
        # No Python loop over a model index (a rectangular nest's loop
        # over blocks of rows runs a handful of times).
        assert "for v_" not in fn_source, name
