"""Shared test oracles: central finite differences and gradient comparison,
and switches for the worker thread."""

import numpy as np

from lmlp import tensor as T


def fd_gradient(fn, param: T.Tensor, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar ``fn()`` w.r.t. one tensor.

    ``fn`` must recompute the forward pass from current parameter values.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    out = grad.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = fn()
            flat[i] = original - step
            down = fn()
            flat[i] = original
            out[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(auto: np.ndarray, fd: np.ndarray) -> float:
    """Infinity-norm error of the gradient relative to its largest entry."""
    scale = max(np.abs(fd).max(), 1e-12)
    return float(np.abs(auto - fd).max() / scale)


def check_gradients(loss_fn, params, step: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare reverse-mode gradients of ``loss_fn`` against finite differences.

    ``loss_fn`` builds the graph and returns the scalar loss Tensor; it is also
    reused (under no_grad) for the finite-difference evaluations. Returns the
    worst relative error across all parameters.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter missed by backward"
        fd = fd_gradient(lambda: loss_fn().item(), p, step=step)
        err = max_rel_error(p.grad, fd)
        worst = max(worst, err)
        assert err <= tol, f"gradient mismatch: rel error {err:.3e} > {tol}"
    return worst


def count_isfinite(monkeypatch) -> list[int]:
    """Count calls of ``np.isfinite``, which every full-array finiteness
    check in lmlp makes; the returned one-element list holds the count."""
    calls = [0]
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls[0] += 1
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    return calls


def force_split(monkeypatch, on):
    """Let the worker thread take jobs (``on``) or not, whatever the BLAS
    thread count; the returned list grows by one each time a large op or a
    guided sampler step asks whether it may hand work over."""
    asked = []
    monkeypatch.setattr(T, "_second_core_free", lambda: asked.append(1) or on)
    return asked
