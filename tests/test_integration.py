"""Bridges between the affine quasi-fixed machinery and the matrix dynamics."""

import math

from oracles import mat_frobenius
from quasifix.dynamics import enumerate_quasi_fixed
from quasifix.freegroup import FreeEndo
from quasifix.gf import field_create
from quasifix.matrep import (
    Mat2,
    MatTuple,
    ProjPoint,
    pgl_dynamics_step,
    phi_lift_polynomials,
    pi_w,
)


def test_quasi_fixed_matrix_tuples_are_periodic_points():
    # a witness of the symbolic lifted map satisfies lift(h) = Frobenius^m(h),
    # so iterating l = s/gcd(m, s) times returns to h, exactly on matrices
    # and hence projectively
    phi = FreeEndo.parse(["aa"], 1)
    pmap = phi_lift_polynomials(phi, 2)
    assert pmap.nvars == 4
    found_invertible = 0
    for witness in enumerate_quasi_fixed(pmap, 2):
        s, m = witness.field_degree, witness.m
        field = witness.point[0].field
        mat = Mat2.from_entries(field, witness.point)
        t = MatTuple((mat,))
        # exact matrix-level return after l steps
        l = s // math.gcd(m, s)
        cur = t
        for _ in range(l):
            cur = MatTuple(pi_w(w, cur) for w in phi.images)
        assert cur == t
        if mat.det().is_zero():
            continue
        found_invertible += 1
        h = ProjPoint(MatTuple((mat.normalized(),)))
        cur_p = h
        for _ in range(l):
            cur_p = pgl_dynamics_step(phi, cur_p)
        assert cur_p == h
    assert found_invertible > 0


def test_symbolic_witness_identity_matches_matrix_frobenius():
    phi = FreeEndo.parse(["aa"], 1)
    pmap = phi_lift_polynomials(phi, 2)
    for witness in enumerate_quasi_fixed(pmap, 2):
        field = witness.point[0].field
        mat = Mat2.from_entries(field, witness.point)
        lifted = pi_w(phi.images[0], MatTuple((mat,)))
        assert lifted == mat_frobenius(mat, witness.m)
