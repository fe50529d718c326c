"""Differential property test: vectorised codegen vs. the interpreter.

Hypothesis generates small Low++ programs from the shapes the update
generators actually emit (parallel loops over data with gathers,
guards, scalar reductions, and scatter increments); the compiled
vectorised module must agree with the reference interpreter exactly.
Two-level nests, rectangular and ragged, must also run whole on the
flattened batch, and a rectangular nest must give bitwise the results
of a Python loop over its rows around the vectorised inner loop.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.backend import vops
from repro.core.backend.cpu import compile_cpu_module, emit_cpu_source
from repro.core.exprs import (
    Call,
    DistOp,
    DistOpKind,
    Gen,
    IntLit,
    RealLit,
    Var,
)
from repro.core.lowmm.ir import lower_decl
from repro.core.lowpp.interp import run_decl_scope
from repro.core.lowpp.ir import (
    AssignOp,
    LDecl,
    LoopKind,
    LValue,
    SAssign,
    SIf,
    SLoop,
)
from repro.runtime.rng import Rng
from repro.runtime.vectors import RaggedArray

#: Scalar expressions over the loop variable n and the environment
#: arrays: y[n] (floats), idx[n] (ints in [0, K)), plus constants.
def body_exprs():
    leaves = hst.one_of(
        hst.just(Var("y")[Var("n")]),
        hst.just(Var("c")),
        hst.floats(-2, 2, allow_nan=False).map(RealLit),
        hst.just(Var("w")[Var("idx")[Var("n")]]),
    )

    def extend(inner):
        return hst.one_of(
            hst.tuples(hst.sampled_from(["+", "-", "*"]), inner, inner).map(
                lambda t: Call(t[0], (t[1], t[2]))
            ),
            inner.map(lambda e: Call("sigmoid", (e,))),
            inner.map(
                lambda e: DistOp(
                    "Normal", (e, RealLit(2.0)), DistOpKind.LL, value=Var("y")[Var("n")]
                )
            ),
        )

    return hst.recursive(leaves, extend, max_leaves=8)


def statements():
    e = body_exprs()
    plain_acc = e.map(lambda rhs: SAssign(LValue("acc"), AssignOp.INC, rhs))
    scatter = e.map(
        lambda rhs: SAssign(
            LValue("buckets", (Var("idx")[Var("n")],)), AssignOp.INC, rhs
        )
    )
    store = e.map(
        lambda rhs: SAssign(LValue("out", (Var("n"),)), AssignOp.SET, rhs)
    )
    guarded = hst.tuples(hst.integers(0, 2), hst.one_of(plain_acc, scatter)).map(
        lambda t: SIf(Call("==", (Var("idx")[Var("n")], IntLit(t[0]))), (t[1],))
    )
    return hst.one_of(plain_acc, scatter, store, guarded)


programs = hst.lists(statements(), min_size=1, max_size=4)


@given(programs, hst.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_vectorized_matches_interpreter(stmts, seed):
    rng_data = np.random.default_rng(seed)
    n, k = 7, 3
    env = {
        "N": n,
        "c": 0.7,
        "y": rng_data.normal(size=n),
        "w": rng_data.normal(size=k),
        "idx": rng_data.integers(0, k, size=n),
    }
    body = (
        SAssign(LValue("acc"), AssignOp.SET, RealLit(0.0)),
        SLoop(LoopKind.ATM_PAR, Gen("n", IntLit(0), Var("N")), tuple(stmts)),
    )
    decl = LDecl(
        name="prog",
        params=tuple(sorted(set(env))),
        body=body,
        ret=(Var("acc"),),
    )

    # Reference: the interpreter; buckets/out allocated fresh each run.
    def fresh():
        return {"buckets": np.zeros(k), "out": np.zeros(n)}

    ws_i = fresh()
    (expected,), _ = run_decl_scope(decl, env, Rng(0), workspaces=ws_i)

    mod = compile_cpu_module([lower_decl(decl, workspaces=("buckets", "out"))])
    assert "np.arange" in mod.source  # the loop really vectorised
    ws_v = fresh()
    (got,) = mod.fn("prog")(dict(env), ws_v, Rng(0))

    np.testing.assert_allclose(float(got), float(expected), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(ws_v["buckets"], ws_i["buckets"], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(ws_v["out"], ws_i["out"], rtol=1e-10, atol=1e-12)


@given(programs)
@settings(max_examples=20, deadline=None)
def test_fallback_matches_vectorized(stmts):
    rng_data = np.random.default_rng(1)
    n, k = 5, 3
    env = {
        "N": n,
        "c": -0.3,
        "y": rng_data.normal(size=n),
        "w": rng_data.normal(size=k),
        "idx": rng_data.integers(0, k, size=n),
    }
    body = (
        SAssign(LValue("acc"), AssignOp.SET, RealLit(0.0)),
        SLoop(LoopKind.ATM_PAR, Gen("n", IntLit(0), Var("N")), tuple(stmts)),
    )
    decl = LDecl(name="prog", params=tuple(sorted(set(env))), body=body, ret=(Var("acc"),))
    low = lower_decl(decl, workspaces=("buckets", "out"))
    vec = compile_cpu_module([low], vectorize=True)
    plain = compile_cpu_module([low], vectorize=False)
    ws_a = {"buckets": np.zeros(k), "out": np.zeros(n)}
    ws_b = {"buckets": np.zeros(k), "out": np.zeros(n)}
    (a,) = vec.fn("prog")(dict(env), ws_a, Rng(0))
    (b,) = plain.fn("prog")(dict(env), ws_b, Rng(0))
    np.testing.assert_allclose(float(a), float(b), rtol=1e-10)
    np.testing.assert_allclose(ws_a["buckets"], ws_b["buckets"], rtol=1e-10)


# ----------------------------------------------------------------------
# Two-level nests: n over rows, j over the row's elements.
# ----------------------------------------------------------------------

ELEM = Var("y2")[Var("n")][Var("j")]
LANE_KEY = Var("idx2")[Var("n")][Var("j")]
ROW_KEY = Var("idx")[Var("n")]


def nest_exprs():
    leaves = hst.one_of(
        hst.just(ELEM),
        hst.just(Var("y")[Var("n")]),
        hst.just(Var("c")),
        hst.floats(-2, 2, allow_nan=False).map(RealLit),
        hst.just(Var("w")[ROW_KEY]),
        hst.just(Var("w")[LANE_KEY]),
    )

    def extend(inner):
        return hst.one_of(
            hst.tuples(hst.sampled_from(["+", "-", "*"]), inner, inner).map(
                lambda t: Call(t[0], (t[1], t[2]))
            ),
            inner.map(lambda e: Call("sigmoid", (e,))),
            inner.map(
                lambda e: DistOp(
                    "Normal", (e, RealLit(2.0)), DistOpKind.LL, value=ELEM
                )
            ),
        )

    return hst.recursive(leaves, extend, max_leaves=6)


def _inc(target, *indices):
    return lambda rhs: SAssign(LValue(target, indices), AssignOp.INC, rhs)


#: Reductions into a cell fixed within a row: the ones nest mode sums
#: row by row.  ``cells`` is keyed per element.
ROW_REDUCTIONS = ("acc", "rowacc", "buckets")


def nest_statements():
    e = nest_exprs()
    kinds = {
        "acc": e.map(_inc("acc")),
        "rowacc": e.map(_inc("rowacc", Var("n"))),
        "buckets": e.map(_inc("buckets", ROW_KEY)),
        "cells": e.map(_inc("cells", LANE_KEY)),
        "store": e.map(
            lambda rhs: SAssign(
                LValue("out2", (Var("n"), Var("j"))), AssignOp.SET, rhs
            )
        ),
    }
    plain = hst.sampled_from(sorted(kinds)).flatmap(
        lambda k: kinds[k].map(lambda s: (k, s))
    )
    guarded = hst.tuples(
        hst.sampled_from([ROW_KEY, LANE_KEY]), hst.integers(0, 2), plain
    ).map(
        lambda t: (
            "guarded " + t[2][0],
            SIf(Call("==", (t[0], IntLit(t[1]))), (t[2][1],)),
        )
    )
    return hst.one_of(plain, guarded)


nest_programs = hst.lists(nest_statements(), min_size=1, max_size=4)


def _nest_decl(stmts, inner_hi, outer_kind=LoopKind.ATM_PAR):
    body = (
        SAssign(LValue("acc"), AssignOp.SET, RealLit(0.0)),
        SLoop(
            outer_kind,
            Gen("n", IntLit(0), Var("N")),
            (SLoop(LoopKind.ATM_PAR, Gen("j", IntLit(0), inner_hi), tuple(stmts)),),
        ),
    )
    params = ("J", "L", "N", "c", "idx", "idx2", "w", "y", "y2")
    return LDecl(name="prog", params=params, body=body, ret=(Var("acc"),))


NEST_WS = ("buckets", "cells", "out2", "rowacc")


def _nest_env(rng, n, k, rows):
    """Hypers plus per-element arrays built from ``rows`` (one list of
    lengths); dense arrays when every row has the same length."""
    lengths = np.asarray(rows)
    dense = bool(np.all(lengths == lengths[0]))

    def per_elem(make):
        parts = [make(m) for m in lengths]
        return np.stack(parts) if dense else RaggedArray.from_rows(parts)

    env = {
        "N": n,
        "J": int(lengths[0]),
        "L": lengths,
        "c": 0.7,
        "y": rng.normal(size=n),
        "w": rng.normal(size=k),
        "idx": rng.integers(0, k, size=n),
        "y2": per_elem(lambda m: rng.normal(size=m)),
        "idx2": per_elem(lambda m: rng.integers(0, k, size=m)),
    }

    def fresh():
        out2 = (
            np.zeros((n, int(lengths[0])))
            if dense
            else RaggedArray.full(lengths, 0.0)
        )
        return {
            "buckets": np.zeros(k),
            "cells": np.zeros(k),
            "rowacc": np.zeros(n),
            "out2": out2,
        }

    return env, fresh


@contextmanager
def _nest_block(lanes):
    """Run rectangular nests in blocks of ``lanes`` lanes."""
    saved = vops.NEST_BLOCK
    vops.NEST_BLOCK = lanes
    try:
        yield
    finally:
        vops.NEST_BLOCK = saved


def _flat(x):
    return np.asarray(x.flat if isinstance(x, RaggedArray) else x)


def _run(decl, env, fresh):
    low = lower_decl(decl, workspaces=NEST_WS)
    counts: dict = {}
    source = emit_cpu_source([low], fallback_counts=counts)
    mod = compile_cpu_module([low])
    ws = fresh()
    (acc,) = mod.fn("prog")(dict(env), ws, Rng(0))
    return acc, ws, counts["prog"], source


def _assert_matches_interpreter(decl, env, fresh, acc, ws):
    ws_i = fresh()
    (expected,), _ = run_decl_scope(decl, env, Rng(0), workspaces=ws_i)
    np.testing.assert_allclose(float(acc), float(expected), rtol=1e-10, atol=1e-12)
    for name in NEST_WS:
        np.testing.assert_allclose(
            _flat(ws[name]), _flat(ws_i[name]), rtol=1e-10, atol=1e-12
        )


@given(nest_programs, hst.integers(1, 20), hst.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_rectangular_nest_matches_row_loop_bitwise(labelled, cols, seed):
    kinds = [k for k, _ in labelled]
    stmts = [s for _, s in labelled]
    env, fresh = _nest_env(np.random.default_rng(seed), 5, 3, [cols] * 5)
    decl = _nest_decl(stmts, Var("J"))
    acc, ws, fallbacks, source = _run(decl, env, fresh)
    _assert_matches_interpreter(decl, env, fresh, acc, ws)

    # The row loop stays for a guarded reduction into a row's cell, and
    # for a target incremented by two statements (the loop interleaves
    # their updates row by row).
    targets = [k.split()[-1] for k in kinds if k.split()[-1] != "store"]
    declines = len(set(targets)) < len(targets) or any(
        k in {"guarded " + r for r in ROW_REDUCTIONS} for k in kinds
    )
    assert fallbacks == int(declines)
    assert ("for v_n in range" in source) == declines

    # A sequential outer loop around the vectorised inner loop is the
    # row-by-row form nest mode replaces: the same bits, every time, and
    # whatever the number of rows per block.
    rows_acc, rows_ws, _, _ = _run(
        _nest_decl(stmts, Var("J"), LoopKind.SEQ), env, fresh
    )
    with _nest_block(cols * 2):
        block_acc, block_ws, _, _ = _run(decl, env, fresh)
    for got, got_ws in ((acc, ws), (block_acc, block_ws)):
        assert np.array_equal(np.asarray(got), np.asarray(rows_acc))
        for name in NEST_WS:
            assert np.array_equal(got_ws[name], rows_ws[name]), name


@given(nest_programs, hst.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_ragged_nest_matches_interpreter(labelled, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 12, size=5)
    rows[0] = 9 if rows[0] == rows[1] else rows[0]  # keep the rows ragged
    env, fresh = _nest_env(rng, 5, 3, rows)
    decl = _nest_decl([s for _, s in labelled], Var("L")[Var("n")])
    acc, ws, fallbacks, source = _run(decl, env, fresh)
    _assert_matches_interpreter(decl, env, fresh, acc, ws)
    assert fallbacks == 0
    assert "for v_n in range" not in source
