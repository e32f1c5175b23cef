import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlm.nn_core import (
    OptimizerState,
    derive_seed,
    fan_bound,
    finite_diff_grad,
    init_uniform,
    make_optimizer,
    nesterov_step,
    rng_for,
    sgd_step,
)


# --- seeded RNG -------------------------------------------------------------

def test_rng_for_is_deterministic():
    a = rng_for(7, "widget", 3).uniform(size=5)
    b = rng_for(7, "widget", 3).uniform(size=5)
    assert np.array_equal(a, b)


def test_rng_for_distinct_tags_give_distinct_streams():
    a = rng_for(7, "widget", 3).uniform(size=5)
    b = rng_for(7, "widget", 4).uniform(size=5)
    c = rng_for(7, "gadget", 3).uniform(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_rng_tags_accept_negative_ints():
    # Sentinel values like -1 are masked into the entropy word, not rejected.
    a = rng_for(3, -1, -1).uniform()
    b = rng_for(3, -1, -1).uniform()
    assert a == b
    assert rng_for(3, -1).uniform() != rng_for(3, 1).uniform()


def test_rng_rejects_unknown_tag_types():
    with pytest.raises(TypeError):
        rng_for(1, 3.5)


# --- initialization ---------------------------------------------------------

def test_init_uniform_deterministic():
    a = init_uniform((2, 3), seed=11)
    b = init_uniform((2, 3), seed=11)
    assert np.array_equal(a, b)
    assert a.shape == (2, 3)


def test_init_uniform_respects_bound():
    s = fan_bound((40, 60))
    a = init_uniform((40, 60), seed=1)
    assert np.abs(a).max() <= s


def test_init_uniform_mean_near_zero():
    # mean of n iid U(-s, s) draws has std s/sqrt(3n); stay within 3 sigma
    n = 100_000
    a = init_uniform((n,), seed=5, dtype=np.float64)
    s = fan_bound((n,))
    assert abs(a.mean()) < 3 * s / np.sqrt(3 * n)


def test_init_uniform_f32_matches_f64_draws():
    a32 = init_uniform((6, 7), seed=9, dtype=np.float32)
    a64 = init_uniform((6, 7), seed=9, dtype=np.float64)
    assert np.array_equal(a32, a64.astype(np.float32))


def test_init_uniform_bad_shape():
    with pytest.raises(ValueError):
        init_uniform((0, 3), seed=1)
    with pytest.raises(ValueError):
        init_uniform((2, 2, 2), seed=1)


# --- optimizer steps --------------------------------------------------------

def test_sgd_step_arithmetic():
    out = sgd_step(np.array([1.0, 2.0]), np.array([0.5, -1.0]), lr=0.1)
    assert np.allclose(out, [0.95, 2.1], atol=1e-15)


def test_sgd_step_zero_grads_identity():
    p = np.array([3.0, -1.0, 0.25])
    assert np.array_equal(sgd_step(p, np.zeros(3), lr=0.7), p)


def test_sgd_step_validation():
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(3), lr=0.1)
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(2), lr=0.0)


@given(
    g=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    a=st.floats(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_sgd_step_linear_in_gradient(g, a):
    g = np.asarray(g)
    p = np.zeros_like(g)
    lhs = sgd_step(p, a * g, lr=0.25)
    rhs = a * sgd_step(p, g, lr=0.25)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_nesterov_reduces_to_plain_step_at_zero_momentum():
    p = np.array([5.0, -2.0])
    g = np.array([2.0, 2.0])
    state = make_optimizer("nesterov", lr=1.0, momentum=0.0, size=2)
    out, _ = nesterov_step(state, g, p)
    assert np.array_equal(out, p - g)
    assert np.array_equal(out, sgd_step(p, g, lr=1.0))


def test_nesterov_closed_form_step_magnitudes():
    # constant gradient, mu=0.9, lr=1: steps of 1.9*g then 2.71*g
    g = np.array([1.0, -2.0, 0.5])
    p = np.zeros(3)
    state = make_optimizer("nesterov", lr=1.0, momentum=0.9, size=3)
    p1, state = nesterov_step(state, g, p)
    assert np.max(np.abs((p - p1) - 1.9 * g)) < 1e-12
    p2, state = nesterov_step(state, g, p1)
    assert np.max(np.abs((p1 - p2) - 2.71 * g)) < 1e-12


def test_nesterov_coasts_on_zero_gradient():
    # with g = 0 the parameters still move by lr * mu^2 * v
    v = np.array([1.0, -4.0])
    state = OptimizerState(kind="nesterov", lr=0.5, momentum=0.9, velocity=v.copy())
    p = np.zeros(2)
    out, new_state = nesterov_step(state, np.zeros(2), p)
    assert np.allclose(p - out, 0.5 * 0.9**2 * v, rtol=0, atol=1e-15)
    assert np.allclose(new_state.velocity, 0.9 * v)


def test_optimizer_state_validation():
    with pytest.raises(ValueError):
        make_optimizer("adamish", lr=0.1, momentum=0.5, size=3)
    with pytest.raises(ValueError):
        OptimizerState(kind="nesterov", lr=0.1, momentum=1.0, velocity=np.zeros(2))


# --- finite differences -----------------------------------------------------

def test_finite_diff_quadratic():
    p = rng_for(3, "fd").normal(size=12)
    grad = finite_diff_grad(lambda q: 0.5 * float(q @ q), p, h=1e-5)
    assert np.abs(grad - p).max() < 1e-8


def test_finite_diff_constant_loss():
    grad = finite_diff_grad(lambda q: 4.2, np.ones(5), h=1e-5)
    assert np.array_equal(grad, np.zeros(5))


def test_finite_diff_requires_float64_and_positive_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda q: 0.0, np.ones(3, dtype=np.float32), h=1e-5)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda q: 0.0, np.ones(3), h=0.0)
