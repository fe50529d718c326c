"""The compiler decision ledger: coverage, fallback reasons, cache replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import compile_model
from repro.core.options import CompileOptions
from repro.eval import models
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


def nn_inputs(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return {"N": n, "v0": 4.0, "v": 1.0}, {"y": rng.normal(loc=1.0, size=n)}


def ragged_inputs(d=4, seed=0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 5, size=d)
    hypers = {"D": d, "L": lengths, "v0": 4.0, "v": 1.0}
    data = {"y": RaggedArray.from_rows([rng.normal(size=k) for k in lengths])}
    return hypers, data


def gmm_inputs(k=2, n=30, seed=0):
    rng = np.random.default_rng(seed)
    true_mu = np.array([[-3.0, 0.0], [3.0, 0.0]])
    z = rng.integers(0, k, size=n)
    x = true_mu[z] + rng.normal(0, 0.4, size=(n, 2))
    hypers = {
        "K": k,
        "N": n,
        "mu_0": np.zeros(2),
        "Sigma_0": np.eye(2) * 16.0,
        "pis": np.full(k, 1.0 / k),
        "Sigma": np.eye(2) * 0.16,
    }
    return hypers, {"x": x}


def entries(sampler, decision=None, subject=None):
    out = []
    for e in sampler.explain_json():
        if decision is not None and e["decision"] != decision:
            continue
        if subject is not None and e["subject"] != subject:
            continue
        out.append(e)
    return out


# -- coverage: every decl and every update appears -------------------------


def test_every_decl_has_an_emit_entry_and_every_update_a_kernel_entry():
    hypers, data = gmm_inputs()
    sampler = compile_model(models.GMM, hypers, data)
    emit_subjects = {e["subject"] for e in entries(sampler, "emit.vectorize")}
    assert emit_subjects == set(sampler.op_count_exprs)
    kernel_subjects = {e["subject"] for e in entries(sampler, "kernel.update")}
    # One kernel.update entry per scheduled model variable.
    assert {"mu", "z"} <= kernel_subjects
    # Exactly one compile.cache entry, appended at assembly time.
    assert len(entries(sampler, "compile.cache")) == 1
    # Every entry is human-readable: non-empty choice and reason.
    for e in sampler.explain_json():
        assert e["choice"] and e["reason"], e


def test_explain_renders_with_provenance_origins():
    hypers, data = gmm_inputs()
    sampler = compile_model(models.GMM, hypers, data)
    text = sampler.explain()
    assert "compiler decision ledger" in text
    # The origin suffix maps a decision back to the model statement that
    # caused it, with its source line.
    assert "<- mu (line" in text
    assert "emit.vectorize" in text and "kernel.update" in text


# -- the fallback matrix: each gate names itself in the reason -------------


def test_batch_off_schedule_gate_is_explained():
    hypers, data = nn_inputs()
    sampler = compile_model(
        NORMAL_ELEMENTS, hypers, data, schedule="MH[batch=off] mu"
    )
    (e,) = entries(sampler, "batch.elements")
    assert e["choice"] == "scalar"
    assert "batch=off" in e["reason"]


def test_user_proposal_gate_is_explained():
    hypers, data = nn_inputs()

    def prop(value, rng):
        return value + rng.standard_normal(np.shape(value)), 0.0

    sampler = compile_model(
        NORMAL_ELEMENTS, hypers, data, schedule="MH mu",
        proposals={"mu": prop},
    )
    (e,) = entries(sampler, "batch.elements")
    assert e["choice"] == "scalar"
    assert "user proposal" in e["reason"]


def test_gradient_form_is_explained_per_target():
    hypers, data = gmm_inputs()
    sched = "HMC[steps=3, step_size=0.05] mu (*) Gibbs z"
    fused = compile_model(models.GMM, hypers, data, schedule=sched)
    (e,) = entries(fused, "gradient.fusion")
    assert e["choice"] == "fused"
    assert "ll_grad_mu" in e["reason"]
    gpu = compile_model(
        models.GMM, hypers, data, schedule=sched,
        options=CompileOptions(target="gpu"),
    )
    (e,) = entries(gpu, "gradient.fusion")
    assert e["choice"] == "pair"
    assert "GPU" in e["reason"]


# -- cache replay ----------------------------------------------------------


def test_cache_hit_replays_codegen_decisions():
    hypers, data = gmm_inputs(seed=123)  # unique data -> fresh cache key
    first = compile_model(models.GMM, hypers, data)
    second = compile_model(models.GMM, hypers, data)
    (miss,) = entries(first, "compile.cache")
    (hit,) = entries(second, "compile.cache")
    assert miss["choice"] == "miss" and hit["choice"] == "hit"
    # All codegen-time entries are replayed verbatim from the cache.
    strip = lambda es: [e for e in es if e["decision"] != "compile.cache"]
    assert strip(second.explain_json()) == strip(first.explain_json())
    # Per-sampler clones stay independent: the hit entry did not leak
    # into the first sampler's ledger.
    assert entries(first, "compile.cache")[0]["choice"] == "miss"


def test_ledger_json_is_serialisable():
    import json

    hypers, data = gmm_inputs()
    sampler = compile_model(models.GMM, hypers, data)
    payload = json.dumps(sampler.explain_json())
    assert "kernel.update" in payload
