"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous row-major numpy buffer. Differentiable ops
record a node (parents + backward closure) on the implicit tape; calling
``backward()`` on a scalar, or ``backward(seed)`` with a cotangent of the
output's shape, replays the graph in reverse topological order and
accumulates gradients into every tensor with ``requires_grad``, or hands
each leaf's gradient to a sink once it is final (``backward(sink=...)``,
which training uses to step each parameter inside the pass).

The ops are the ones the model records; gradient checks seed
``backward`` rather than reduce on the tape. Nothing broadcasts: ``add``,
the one binary op, takes two Tensors of the same shape and dtype, so
every gradient has its operand's shape.

Gradient policy: a backward pass consumes its graph, as PyTorch's does
by default. Each op's closure and parent links are dropped as soon as
the closure has run, so a forward array is freed once nothing
downstream needs it; a second pass through a consumed op raises
RuntimeError naming it. Run the forward again for another pass: the
closures are deterministic, so repeated passes (after zeroing grads)
are bit-identical. Gradients accumulate, callers zero them between
optimization steps.

``layer_norm`` is one op with a closed-form adjoint, as are the
network's instance norm and loss, the quantizer's commitment, a scan
direction and the gated fusion. ``_sigmoid`` and ``standardize`` are the
numpy-level steps those ops share.

Every op is built by ``Tensor._make``, and ``op_hook`` is its one
extension point: a hook sees each op as it is built and may wrap the
backward closure that gets recorded. ``check_finite`` is such a hook.
The only other global switches are ``no_grad`` and the default dtype;
a Tensor built without an explicit dtype takes the default, so it is
also the one place a model's precision is set.
"""

from __future__ import annotations

import contextlib

import numpy as np

NORM_EPS = 1e-5  # added to the variance in standardize, which both norms use
_default_dtype = np.float32
_grad_enabled = True
# called in order as hook(op, out, parents, backward_fn) for every op built
_op_hooks: list = []


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError("default dtype must be float32 or float64")
    _default_dtype = dtype


def get_default_dtype():
    return _default_dtype


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure numerical forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def op_hook(hook):
    """Call ``hook(op, out, parents, backward_fn)`` for every op in the block.

    The hook returns the backward closure to record. It sees every op,
    ``no_grad`` ones included; its return value is kept only when the op
    is recorded on the tape (``out.requires_grad``). Hooks of nested
    blocks run outermost first, each on the closure the previous returned.
    """
    _op_hooks.append(hook)
    try:
        yield
    finally:
        _op_hooks.remove(hook)


@contextlib.contextmanager
def default_dtype(dtype):
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


class NumericalError(ArithmeticError):
    """A computation produced NaN/Inf, or a numerical check failed."""


def check_finite(op: str, out: Tensor, parents: tuple, backward_fn):
    """Op hook: raise NumericalError naming the op whose output has NaN/Inf."""
    if not np.all(np.isfinite(out.data)):
        raise NumericalError(f"non-finite values produced by op '{op}'")
    return backward_fn


class Tensor:
    """N-dimensional array participating in the reverse-mode tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        dt = dtype if dtype is not None else _default_dtype
        arr = np.asarray(data, dtype=dt)
        # ascontiguousarray promotes 0-d to 1-d; keep scalars 0-d
        self.data: np.ndarray = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self.op = "leaf"

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag}, op={self.op})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward_fn, op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        data = np.asarray(data)
        out.data = np.ascontiguousarray(data) if data.ndim else data
        out.grad = None
        needs = _grad_enabled and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out.op = op
        for hook in _op_hooks:
            backward_fn = hook(op, out, parents, backward_fn)
        if needs:
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out._parents = ()
            out._backward_fn = None
        return out

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to .grad, in a new array, not one g may alias."""
        self.grad = g.copy() if self.grad is None else self.grad + g

    def backward(self, grad: np.ndarray | None = None, sink=None) -> None:
        """Accumulate gradients of self w.r.t. every requires_grad tensor.

        ``self`` must be scalar unless an explicit seed gradient is given.
        Without ``sink`` each leaf's gradient lands on its ``.grad``. With
        one, ``sink(leaf, g)`` takes it instead, once per leaf, as soon as
        the gradient is final: every closure that uses the leaf has run,
        so the sink may update ``leaf.data`` in place (an optimizer step
        inside backward). The pass drops its references to g after the
        call, so a sink that keeps none frees it before the next leaf's.

        The pass consumes the graph: each op drops its closure and parent
        links once the closure has run. Backward through a consumed op
        raises RuntimeError; run the forward again instead.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a seed gradient requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ValueError("seed gradient shape mismatch")
        land = sink or Tensor.accumulate_grad

        # Iterative topological order (inputs before consumers), and per
        # leaf the number of its uses whose closures are still to run.
        topo: list[Tensor] = []
        seen: set[int] = set()
        uses: dict[int, int] = {}
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is _consumed:
                raise RuntimeError(
                    f"backward through op '{node.op}', whose graph an earlier "
                    "pass consumed; run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if not p.requires_grad:
                    continue
                if p._backward_fn is None:
                    uses[id(p)] = uses.get(id(p), 0) + 1
                if id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): grad}
        while topo:  # popped: the list must not keep a released node alive
            node = topo.pop()
            g = flowing.pop(id(node), None)
            if node._backward_fn is None:
                # a leaf some of whose uses got no gradient, or self
                if g is not None and node.requires_grad:
                    land(node, g)
            elif g is None:  # no gradient reached it: only release it
                node._parents, node._backward_fn = (), _consumed
            else:
                for leaf in _propagate(node, g, flowing, uses):
                    land(leaf, flowing.pop(id(leaf)))


def _consumed(g):
    """The closure of an op whose backward a pass has run and dropped."""
    raise RuntimeError("backward through a graph an earlier pass consumed")


def _propagate(node: Tensor, g: np.ndarray, flowing: dict,
               uses: dict) -> list:
    """Run node's closure on g, release it, and add each parent's share
    into flowing.

    Returns the leaves whose last use this was and that got a gradient.
    The closure is dropped before any leaf is handed on, and its outputs
    die with this frame, so a leaf's gradient is referenced only from
    flowing when it is handed on.
    """
    parents, grads = node._parents, node._backward_fn(g)
    node._parents, node._backward_fn = (), _consumed
    final = []
    for p, pg in zip(parents, grads):
        if not p.requires_grad:
            continue
        key = id(p)
        if pg is not None:
            flowing[key] = flowing[key] + pg if key in flowing else pg
        if p._backward_fn is None:
            uses[key] -= 1
            if not uses[key] and key in flowing:
                final.append(p)
    return final


def named_tensors(obj, prefix: str = "") -> dict:
    """Every Tensor reachable from obj, keyed ``prefix.attr.attr...``.

    Walks a dict's items and any other object's attributes (a dataclass's
    fields in declaration order) in insertion order; values with neither
    hold no Tensor. The order is stable, so callers may index by position.
    """
    if isinstance(obj, Tensor):
        return {prefix: obj}
    items = obj if isinstance(obj, dict) else getattr(obj, "__dict__", {})
    out = {}
    for name, value in items.items():
        out.update(named_tensors(value, f"{prefix}.{name}" if prefix else name))
    return out


# -- elementwise binary ops ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise TypeError(f"mixed dtypes {a.dtype}/{b.dtype}; convert explicitly")
    return Tensor._make(a.data + b.data, (a, b), lambda g: (g, g), "add")


# -- elementwise unary ops -------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where x >= 0 and e / (1 + e) below, with e = exp(-|x|).

    Stable in both tails. -|x| is taken as min(x, -x), which passes a
    NaN through as exp(x) would, so every element, NaN included, gets
    the operations of the two-branch formula, done in place.
    """
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=np.empty_like(e))
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=x >= 0)
    return e


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); backward recomputes the sigmoid from the input."""
    ad = a.data

    def bwd(g):
        s = _sigmoid(ad)
        return (g * (s * (1.0 + ad * (1.0 - s))),)

    return Tensor._make(ad * _sigmoid(ad), (a,), bwd, "silu")


# -- shape ops --------------------------------------------------------------


def flip(a: Tensor, axis: int = 0) -> Tensor:
    return Tensor._make(
        np.flip(a.data, axis=axis).copy(), (a,),
        lambda g: (np.flip(g, axis=axis).copy(),), "flip")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors), bwd, "concat")


# -- normalizations ---------------------------------------------------------


def standardize(x: np.ndarray, axis) -> tuple:
    """(x - mean) / sigma along `axis` in a new array, with mean and sigma.

    sigma = sqrt(var + NORM_EPS); both norms share this order of operations.
    """
    mean = x.mean(axis=axis, keepdims=True)
    y = x - mean
    sigma = np.sqrt((y * y).mean(axis=axis, keepdims=True) + NORM_EPS)
    y /= sigma
    return y, mean, sigma


def layer_norm(a: Tensor, axis: int | tuple = -1) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine).

    Backward is the closed form gx = (g - mean(g) - y * mean(g * y)) / sigma
    (Ba, Kiros & Hinton 2016): the tape keeps only y and sigma.
    """
    y, _, sigma = standardize(a.data, axis)

    def bwd(g):
        gy = (g * y).mean(axis=axis, keepdims=True)
        return ((g - g.mean(axis=axis, keepdims=True) - y * gy) / sigma,)

    return Tensor._make(y, (a,), bwd, "layer_norm")
