"""Low++ well-formedness checking."""

from __future__ import annotations

import pytest

from repro.core.exprs import (
    Call,
    DistOp,
    DistOpKind,
    Gen,
    IntLit,
    RealLit,
    Var,
)
from repro.core.lowpp.ir import (
    AssignOp,
    LDecl,
    LoopKind,
    LValue,
    SAssign,
    SLoop,
    SMultiAssign,
)
from repro.core.lowpp.verify import verify_decl
from repro.errors import CodegenError

from tests.lowpp.conftest import make_setup


def test_generated_decls_all_verify():
    # Every declaration the real code generators produce must pass.
    from repro.core.density.conditionals import blocked_factors, conditional
    from repro.core.kernel.conjugacy import detect_conjugacy, detect_enumeration
    from repro.core.lowpp.ad import gen_grad
    from repro.core.lowpp.gen_gibbs import gen_gibbs_conjugate, gen_gibbs_enumeration
    from repro.core.lowpp.gen_init import gen_init
    from repro.core.lowpp.gen_ll import gen_block_ll, gen_cond_ll, gen_model_ll

    for name in ("gmm", "hgmm", "lda", "hlr"):
        fd, info = make_setup(name)
        verify_decl(gen_model_ll(fd))
        verify_decl(gen_init(info, fd))
        for p in info.param_names():
            cond = conditional(fd, p, info)
            verify_decl(gen_cond_ll(cond, fd.lets))
            m = detect_conjugacy(cond)
            if m is not None:
                code = gen_gibbs_conjugate(m, fd.lets)
                verify_decl(code.decl)
            elif info.info(p).is_discrete:
                e = detect_enumeration(cond, info.info(p).dist_name)
                if e is not None:
                    verify_decl(gen_gibbs_enumeration(e, fd.lets).decl)
        cont = tuple(
            p for p in info.param_names() if not info.info(p).is_discrete
        )
        if cont:
            blk = blocked_factors(fd, cont)
            try:
                verify_decl(gen_grad(blk, fd.lets))
            except CodegenError as err:
                # Some blocks legitimately have no gradient (InvWishart);
                # only "unavailable gradient" is acceptable here.
                assert "unavailable" in str(err)


def test_unbound_read_rejected():
    decl = LDecl("f", params=(), body=(SAssign(LValue("a"), AssignOp.SET, Var("ghost")),))
    with pytest.raises(CodegenError, match="unbound variable 'ghost'"):
        verify_decl(decl)


def test_unbound_indexed_store_rejected():
    decl = LDecl(
        "f",
        params=(),
        body=(SAssign(LValue("buf", (IntLit(0),)), AssignOp.SET, RealLit(1.0)),),
    )
    with pytest.raises(CodegenError, match="unbound buffer 'buf'"):
        verify_decl(decl)


def test_increment_before_set_rejected():
    decl = LDecl("f", params=(), body=(SAssign(LValue("acc"), AssignOp.INC, RealLit(1.0)),))
    with pytest.raises(CodegenError, match="unbound buffer 'acc'"):
        verify_decl(decl)


def test_loop_binder_shadowing_rejected():
    decl = LDecl(
        "f",
        params=("n",),
        body=(
            SLoop(LoopKind.PAR, Gen("n", IntLit(0), IntLit(3)), ()),
        ),
    )
    with pytest.raises(CodegenError, match="shadows"):
        verify_decl(decl)


def test_loop_binder_out_of_scope_after_loop():
    decl = LDecl(
        "f",
        params=("N",),
        body=(
            SLoop(LoopKind.PAR, Gen("i", IntLit(0), Var("N")), ()),
            SAssign(LValue("a"), AssignOp.SET, Var("i")),
        ),
    )
    with pytest.raises(CodegenError, match="unbound variable 'i'"):
        verify_decl(decl)


def test_dist_arity_checked():
    decl = LDecl(
        "f",
        params=(),
        body=(
            SAssign(
                LValue("a"),
                AssignOp.SET,
                DistOp("Normal", (RealLit(0.0),), DistOpKind.SAMP),
            ),
        ),
    )
    with pytest.raises(CodegenError, match="takes 2 arguments"):
        verify_decl(decl)


def test_grad_index_range_checked():
    decl = LDecl(
        "f",
        params=(),
        body=(
            SAssign(
                LValue("a"),
                AssignOp.SET,
                DistOp(
                    "Normal",
                    (RealLit(0.0), RealLit(1.0)),
                    DistOpKind.GRAD,
                    value=RealLit(0.5),
                    grad_index=7,
                ),
            ),
        ),
    )
    with pytest.raises(CodegenError, match="out of range"):
        verify_decl(decl)


def test_samp_with_value_rejected():
    decl = LDecl(
        "f",
        params=(),
        body=(
            SAssign(
                LValue("a"),
                AssignOp.SET,
                DistOp(
                    "Normal",
                    (RealLit(0.0), RealLit(1.0)),
                    DistOpKind.SAMP,
                    value=RealLit(0.0),
                ),
            ),
        ),
    )
    with pytest.raises(CodegenError, match="no evaluation point"):
        verify_decl(decl)


def test_ll_without_value_rejected():
    decl = LDecl(
        "f",
        params=(),
        body=(
            SAssign(
                LValue("a"),
                AssignOp.SET,
                DistOp("Normal", (RealLit(0.0), RealLit(1.0)), DistOpKind.LL),
            ),
        ),
    )
    with pytest.raises(CodegenError, match="needs an evaluation point"):
        verify_decl(decl)


def test_multiassign_binds_targets():
    decl = LDecl(
        "f",
        params=("p",),
        body=(
            SMultiAssign(
                (LValue("a"), LValue("b")),
                Call("lib.normal_normal_post", (Var("p"), Var("p"), Var("p"), Var("p"))),
            ),
            SAssign(LValue("c"), AssignOp.SET, Call("+", (Var("a"), Var("b")))),
        ),
        ret=(Var("c"),),
    )
    verify_decl(decl)  # no error
