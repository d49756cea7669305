"""Layer-wise linear probes: how separable is each endpoint's representation.

Features are flattened endpoint activations from single center-crop forward
passes. `extract_features` collects every requested endpoint from the same
forward pass per batch, so probing all endpoints costs one pass over the
images and holds n x (sum of requested widths) x 4 bytes of float32 features.

Probes are a binary hinge-loss SVM and a 2-way softmax classifier, both
trained by deterministic full-batch (sub)gradient descent with the step
schedule 1/(lambda * t) over a fixed iteration budget, with the L2 penalty on
weights only and an unregularized bias. Regularization strength comes from
nested cross-validation on the training folds; ties prefer the smaller
lambda.

The descent runs in the dual. It starts from w = 0 and every step maps w to
(1 - 1/t) w + x^T c for per-row coefficients c, so w = x^T alpha throughout
with one alpha entry per fitting row (the Pegasos schedule of Shalev-Shwartz
et al. 2007). Iterating on alpha costs min(n^2, 2nd) multiply-adds per
lambda and iteration for n rows of width d: the n x n Gram x x^T when
n <= d, x (x^T alpha) otherwise. `fit_probes` fits several endpoints and
both kinds on the same rows at once: every endpoint, inner fold and lambda
advance together in one loop per kind, then every endpoint's refit at its
own chosen lambda in a second loop per kind. The kernel depends on neither
the kind nor lambda, so both kinds' loops share it: an outer fold builds
two kernels, one for selection and one for the refit. The fitting sets are
zero-padded to a common row count and masked, each is standardized by its
own rows only, and each gets the GEMMs it would get alone, so fitting
together gives the bits of fitting one at a time. Each loop runs its
iterations in scratch allocated once.

A float64 set exists only while its Gram (or narrow stack slot) is filled
and again while every kind's weights are formed from it, one set at a time:
per outer fold, each inner fitting set is built twice in selection, and
each endpoint's refit set twice, once for the kernel and once for both
kinds' refit weights. So the refits come out endpoint by endpoint, each
endpoint's kinds in turn.

The dual gives the primal weights up to rounding, except where the iteration
itself amplifies rounding: a softmax fit at lambda <= 1e-3 can take steps
long enough that any two summation orders, the primal's among them, end
apart.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Iterator, Sequence

import numpy as np

from .checkpoint import Checkpoint
from .data import ViewSource, stratified_kfold
from .errors import ConfigError, DataError
from .network import NetworkSpec, forward, infer_shapes

Array = np.ndarray
log = logging.getLogger(__name__)

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
PROBE_KINDS = ("svm", "softmax")
ITERATION_BUDGET = 2000


def check_probe_args(
    kinds: Sequence[str], lambda_grid: Sequence[float], inner_folds: int, iters: int,
    endpoints: Sequence[str] | None = None, known: Sequence[str] = (), prefix: str = "",
) -> None:
    """Raise ConfigError, naming the argument after prefix, unless kinds name
    some of PROBE_KINDS and endpoints (when given) some of known, none
    twice, the lambda grid is non-empty, positive and finite, inner_folds
    >= 2 and iters >= 1."""
    for key, names, allowed in (("kinds", kinds, PROBE_KINDS), ("endpoints", endpoints, known)):
        if names is not None and not (names and len(set(names)) == len(names) and set(names) <= set(allowed)):
            raise ConfigError(f"{prefix}{key} must name one or more of {tuple(allowed)}, each once, got {tuple(names)}")
    if not lambda_grid or not all(0 < l < math.inf for l in lambda_grid):
        raise ConfigError(f"{prefix}lambda_grid must be non-empty, positive and finite, got {tuple(lambda_grid)}")
    if inner_folds < 2:
        raise ConfigError(f"{prefix}inner_folds must be >= 2, got {inner_folds}")
    if iters < 1:
        raise ConfigError(f"{prefix}iters must be >= 1, got {iters}")


def extract_features(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: ViewSource,
    endpoint: str | Sequence[str],
    pre_activation: bool = False,
    batch_size: int = 32,
) -> Array | dict[str, Array]:
    """Float32 feature matrices [n, d]: flattened endpoint activations.

    A single endpoint name returns its matrix; a sequence of names returns
    {name: matrix}, all filled from the same forward passes. One center-crop
    forward pass per image, streamed in small batches; row order matches the
    source order.
    """
    names = (endpoint,) if isinstance(endpoint, str) else tuple(endpoint)
    for name in names:
        if name not in spec.endpoints:
            raise ConfigError(f"unknown endpoint {name!r}; expected one of {spec.endpoints}")
    shapes = infer_shapes(spec)
    out = {name: np.empty((source.n, int(np.prod(shapes[name]))), dtype=np.float32) for name in names}
    start = 0
    for x, _ in source.eval_batches(batch_size):
        state = forward(spec, ckpt, x)
        for name, rows in out.items():
            act = state.endpoint(name, pre_activation=pre_activation)
            rows[start : start + len(x)] = act.reshape(len(x), -1)
        start += len(x)
    return out[endpoint] if isinstance(endpoint, str) else out


@dataclass
class ProbeModel:
    """A fitted probe: linear weights plus the training-fold standardization."""

    kind: str
    lam: float
    weights: Array  # [d] for svm, [d,2] for softmax
    bias: Array  # scalar array for svm, [2] for softmax
    mean: Array | None
    scale: Array | None

    def standardized(self, x: Array) -> Array:
        """Float64 rows standardized by this probe's fitting statistics."""
        if self.mean is None:
            return np.asarray(x, dtype=np.float64)
        x = np.subtract(x, self.mean, dtype=np.float64)  # one float64 copy, scaled in place
        x /= self.scale
        return x

    def predict(self, x: Array) -> Array:
        return self.classify(self.standardized(x))

    def classify(self, z: Array) -> Array:
        """Predicted labels of rows already standardized by this probe's statistics."""
        values = z @ self.weights + self.bias
        if self.kind == "svm":
            return (values > 0).astype(np.int64)
        return values.argmax(axis=1)


COLUMN_BLOCK = 1 << 16  # float64 elements per column block while a fitting set is built


def _fitting_set(features: Array, rows: Array, standardize: bool) -> tuple[Array, Array | None, Array | None]:
    """Float64 copy of the given rows, standardized by statistics of those rows only.

    Built in column blocks of about COLUMN_BLOCK elements, so no temporary is
    larger than a block. Blocks are at least 2 columns wide: numpy sums 2 or
    more columns down each column in row order, as it does the whole copy,
    but a single column pairwise, which would change its statistics' bits.
    The std comes from the block once centered: the same squared deviations
    from the same mean that `block.std(axis=0)` sums, so the same bits.
    """
    width = features.shape[1]
    x = np.empty((len(rows), width))
    mean, scale = (np.empty(width), np.empty(width)) if standardize else (None, None)
    count = max(1, min(-(-x.size // COLUMN_BLOCK), width // 2))
    for a, b in pairwise(width * i // count for i in range(count + 1)):
        block = x[:, a:b]
        block[...] = features[rows, a:b]
        if standardize:
            np.add.reduce(block, axis=0, out=mean[a:b])  # block.mean(axis=0), without its Python wrapper
            mean[a:b] /= len(block)
            block -= mean[a:b]
            std = np.sqrt(np.add.reduce(np.square(block), axis=0) / len(block))
            scale[a:b] = np.where(std > 0, std, 1.0)  # constant columns pass through
            block /= scale[a:b]
    return x, mean, scale


def _kernel_product(
    sets: Sequence[tuple[Array, Array]], rows: int, standardize: bool
) -> tuple[list[int], Callable[[Array, Array], None]]:
    """The sets' kernel order, and (a, out) -> out = K a for a, out [F, rows, m] in that
    order, where K_f = x_f x_f^T for fitting set f zero-padded to `rows`.

    Set f is (features, row indices). Per column of a, the Gram costs rows^2
    and going through x^T a costs 2 rows d; forming the Gram costs rows^2 d
    once, so a set takes the Gram when rows <= d. Gram sets share one
    [G, rows, rows] stack and the others one [S, rows, d] stack per width d,
    so every set's products are the GEMMs it would get alone. The order
    puts each stack's sets next to each other, so each product reads and
    writes its own slice of a and out. Each float64 set lives only while its
    Gram or its stack slot is filled.
    """
    groups: dict[int | None, list[int]] = {}  # None: the Gram sets
    for f, (features, _) in enumerate(sets):
        width = features.shape[1]
        groups.setdefault(None if rows <= width else width, []).append(f)
    products = []
    start = 0
    for width, members in groups.items():
        stack = np.zeros((len(members), rows, rows if width is None else width))
        for slot, f in enumerate(members):
            x = _fitting_set(*sets[f], standardize)[0]
            if width is None:
                stack[slot, : len(x), : len(x)] = x @ x.T
            else:
                stack[slot, : len(x)] = x
            del x  # before the next set is built
        products.append((slice(start, start + len(members)), stack, width is None))
        start += len(members)

    def kernel(a: Array, out: Array) -> None:
        for span, stack, gram in products:
            if gram:
                np.matmul(stack, a[span], out=out[span])
            else:
                np.matmul(stack, stack.transpose(0, 2, 1) @ a[span], out=out[span])

    return [f for members in groups.values() for f in members], kernel


def _solve_dual(
    kernel: Callable[[Array, Array], None], y01: Array, live: Array, kind: str, lams: Array, iters: int
) -> tuple[Array, Array]:
    """Full-batch descent on alpha for F padded fitting sets, each at its own L lambdas.

    y01 and live are [F, n] and lams [F, L]; a padded row (live False) adds
    nothing to scores, gradients or row counts. Returns alpha [F, n, L] and
    bias [F, L] for svm, alpha [F, n, L, 2] and bias [F, L, 2] for softmax;
    set f's weights at lams[f, l] are x_f^T alpha[f, :, l]. Every iteration
    runs in the same preallocated scratch, with the same operations in the
    same order as the formulas in the comments.
    """
    sets, n = live.shape
    classes = 1 if kind == "svm" else 2
    alpha = np.zeros((sets, n, np.shape(lams)[1], classes))
    bias = np.zeros((sets, *alpha.shape[2:]))

    def full(a: Array) -> Array:  # float64 at alpha's shape: broadcasting makes numpy's inner loops 1 or 2 long
        return np.broadcast_to(a, alpha.shape).astype(np.float64)

    lam = full(np.asarray(lams)[:, None, :, None])
    count = full(live.sum(axis=1)[:, None, None, None])  # every set divides by its own row count
    scores, grad, step, total = np.empty_like(alpha), np.empty_like(alpha), np.empty_like(alpha), np.empty_like(bias)
    # grad.sum(axis=1) adds a set's rows pairwise when a row has one column, else in row order;
    # summed from a rows-first copy, the rows' order holds and the inner loop is F L classes long
    rows_first = np.empty((n, *bias.shape)) if bias[0].size > 1 else None
    grad_rows_first = np.moveaxis(grad, 1, 0)
    if kind == "svm":
        y = full(np.where(y01 > 0, 1.0, -1.0)[:, :, None, None])
        violated = np.where(live[:, :, None, None], -y, 0.0) / count  # a row's gradient while 1 - y s > 0
    else:
        onehot = full(y01[:, :, None, None] == np.arange(2))
        padded = np.flatnonzero(~live)  # rows of grad.reshape(sets * n, -1)
        pair = np.empty(alpha.shape[:3])
        s0, s1, g0, g1 = scores[..., 0], scores[..., 1], grad[..., 0], grad[..., 1]
    for t in range(1, iters + 1):
        np.multiply(lam, t, out=step)
        np.divide(1.0, step, out=step)  # step = 1 / (lam t)
        kernel(alpha.reshape(sets, n, -1), scores.reshape(sets, n, -1))
        scores += bias[:, None]
        if kind == "svm":
            # mean hinge loss, by score: grad = where(live & (1 - y s > 0), -y, 0) / count. With y = +-1,
            # y s is exact, and 1 - y s > 0 exactly when y s < 1, NaN and +-inf included.
            scores *= y
            np.less(scores, 1.0, out=grad)  # 1.0 where violated, else 0.0
            grad *= violated  # 0 * violated is -0 where violated < 0 ...
            grad += 0.0  # ... and -0 + 0 is +0, as where() gives
        else:
            # mean cross-entropy, by score: grad = where(live, probs - onehot, 0) / count, with
            # ops.softmax's max-shifted formula, bit for bit, without its slow 2-wide row reductions:
            # e = exp(s - max(s0, s1)), probs = e / (e0 + e1)
            np.maximum(s0, s1, out=pair)
            np.subtract(s0, pair, out=g0)
            np.subtract(s1, pair, out=g1)
            np.exp(grad, out=grad)
            np.add(g0, g1, out=pair)
            g0 /= pair
            g1 /= pair
            grad -= onehot
            grad.reshape(sets * n, -1)[padded] = 0.0
            grad /= count
        # alpha -= step (lam alpha + grad); bias -= step grad summed over rows
        np.multiply(lam, alpha, out=scores)
        scores += grad
        scores *= step
        alpha -= scores
        if rows_first is None:
            np.add.reduce(grad, axis=1, out=total)
        else:
            np.copyto(rows_first, grad_rows_first)
            np.add.reduce(rows_first, axis=0, out=total)
        total *= step[:, 0]
        bias -= total
    if kind == "svm":
        return alpha[..., 0], bias[..., 0]
    return alpha, bias


def _dual_fits(
    sets: Sequence[tuple[Array, Array]], labels: Array, lams: dict[str, Array], standardize: bool, iters: int
) -> dict[str, tuple[Array, Array]]:
    """{kind: (alpha, bias)} for every (features, rows) set at each of its
    lams[kind][f], each kind's dual loop run on one kernel.

    The kernel does not depend on the kind or on lambda, so it is built once
    and dropped when the last loop ends. The loops run on the sets in the
    kernel's order; the results come back in the order of `sets`.
    """
    n = max(len(rows) for _, rows in sets)
    order, kernel = _kernel_product(sets, n, standardize)
    live = np.zeros((len(sets), n), dtype=bool)
    y01 = np.zeros((len(sets), n), dtype=np.int64)
    for slot, f in enumerate(order):
        rows = sets[f][1]
        live[slot, : len(rows)] = True
        y01[slot, : len(rows)] = labels[rows]
    back = np.argsort(order)
    fits = {}
    for kind, kind_lams in lams.items():
        alpha, bias = _solve_dual(kernel, y01, live, kind, np.asarray(kind_lams)[order], iters)
        fits[kind] = alpha[back], bias[back]
    return fits


def _probes(
    features: Array, rows: Array, standardize: bool, fits: dict[str, tuple[Array, Array, Array]]
) -> dict[str, list[ProbeModel]]:
    """One set's probes {kind: [probe per lambda]} for fits {kind: (lams, alpha, bias)}:
    every kind's weights x^T alpha[:, l] from the set built once again."""
    x, mean, scale = _fitting_set(features, rows, standardize)
    weights = {kind: [x.T @ alpha[: len(x), l] for l in range(len(lams))] for kind, (lams, alpha, _) in fits.items()}
    del x  # before the caller scores these probes
    return {
        kind: [ProbeModel(kind, float(lams[l]), w, bias[l, ...], mean, scale) for l, w in enumerate(weights[kind])]
        for kind, (lams, _, bias) in fits.items()
    }


def _select(
    matrices: list[Array], labels: Array, kinds: Sequence[str], grid: list[float], inner_folds: int,
    standardize: bool, seed: int, iters: int, rows: Array,
) -> tuple[dict[str, list[float]], dict[str, list[dict[float, float]]]]:
    """Each kind's chosen lambda and inner scores per matrix, from one dual fit
    of every matrix x inner fold.

    Each fitting set is built once for every kind's weights at every lambda,
    and its held-out rows are standardized once for all of them.
    """
    inner = stratified_kfold(labels[rows], inner_folds, seed)
    fitting = [rows[inner != f] for f in range(inner_folds)]
    held_out = [rows[inner == f] for f in range(inner_folds)]
    sets = [(features, r) for features in matrices for r in fitting]
    duals = _dual_fits(sets, labels, {kind: np.tile(grid, (len(sets), 1)) for kind in kinds}, standardize, iters)
    accs: dict[str, list[list[float]]] = {kind: [] for kind in kinds}  # [set][lambda]
    for s, (features, r) in enumerate(sets):
        fits = {kind: (grid, alpha[s], bias[s]) for kind, (alpha, bias) in duals.items()}
        models = _probes(features, r, standardize, fits)
        va = held_out[s % inner_folds]
        z = models[kinds[0]][0].standardized(features[va])
        for kind in kinds:
            accs[kind].append([float((model.classify(z) == labels[va]).mean()) for model in models[kind]])
        del models, z  # before the next set is built
    lams: dict[str, list[float]] = {kind: [] for kind in kinds}
    chosen: dict[str, list[dict[float, float]]] = {kind: [] for kind in kinds}
    for kind in kinds:
        for m in range(len(matrices)):
            folds = accs[kind][m * inner_folds : (m + 1) * inner_folds]
            scores = {lam: float(np.mean([fold[l] for fold in folds])) for l, lam in enumerate(grid)}
            best = max(scores.values())
            chosen[kind].append(scores)
            lams[kind].append(min(lam for lam, score in scores.items() if score == best))
    return lams, chosen


def _refits(
    matrices: list[Array], labels: Array, lams: dict[str, list[float]], chosen: dict[str, list[dict[float, float]]],
    standardize: bool, iters: int, rows: Array,
) -> Iterator[tuple[ProbeModel, dict[float, float]]]:
    """Every kind's refit of every matrix at its chosen lambda, from one dual
    fit; yields matrix by matrix, each kind's model in turn, every kind's
    weights formed from one build of the matrix's refit set."""
    sets = [(features, rows) for features in matrices]
    duals = _dual_fits(sets, labels, {kind: np.array(l)[:, None] for kind, l in lams.items()}, standardize, iters)
    for f, features in enumerate(matrices):
        fits = {kind: (lams[kind][f : f + 1], alpha[f], bias[f]) for kind, (alpha, bias) in duals.items()}
        models = _probes(features, rows, standardize, fits)
        for kind in duals:
            yield models[kind][0], chosen[kind][f]
        del models  # before the next matrix's set is built


def fit_probes(
    matrices: Sequence[Array],
    labels: Array,
    kinds: Sequence[str],
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    inner_folds: int = 3,
    standardize: bool = True,
    seed: int = 0,
    iters: int = ITERATION_BUDGET,
    rows: Array | None = None,
) -> Iterator[tuple[ProbeModel, dict[float, float]]]:
    """fit_probe of each kind on each feature matrix's `rows` (all rows by
    default), every kind and matrix fitted together; yields (model, inner
    scores) per matrix in order, and within a matrix for each kind in order.

    Every matrix has one row per label and all share the inner folds. The
    call selects every lambda: one kernel serves every kind's dual loop over
    every matrix, inner fold and lambda. The returned iterator refits: one
    more kernel serves every kind's loop over every matrix at its chosen
    lambda, and a matrix's models are formed only when the first is yielded.
    """
    labels = np.asarray(labels, dtype=np.int64)
    matrices = [np.asarray(features) for features in matrices]
    for features in matrices:
        if features.ndim != 2 or len(features) != len(labels):
            raise DataError(f"features {features.shape} do not match {len(labels)} labels")
    rows = np.arange(len(labels)) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise DataError("no rows to fit a probe on")
    check_probe_args(kinds, lambda_grid, inner_folds, iters)
    if labels[rows].min() < 0 or labels[rows].max() > 1:
        raise DataError("probe labels must be binary 0/1")

    grid = sorted(set(float(l) for l in lambda_grid))
    if len(grid) == 1:
        lams = {kind: grid * len(matrices) for kind in kinds}
        chosen = {kind: [{grid[0]: float("nan")} for _ in matrices] for kind in kinds}
    else:
        lams, chosen = _select(matrices, labels, kinds, grid, inner_folds, standardize, seed, iters, rows)
    return _refits(matrices, labels, lams, chosen, standardize, iters, rows)


def fit_probe(
    features: Array,
    labels: Array,
    kind: str,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    inner_folds: int = 3,
    standardize: bool = True,
    seed: int = 0,
    iters: int = ITERATION_BUDGET,
) -> tuple[ProbeModel, dict[float, float]]:
    """Nested-CV lambda selection, then a refit on all rows.

    Returns the refitted model and the inner-CV accuracy per lambda. Inner
    folds are stratified and deterministic in seed; ties go to the smaller
    lambda. Standardization statistics always come from the fitting rows
    only. This is fit_probes on one matrix and one kind.
    """
    ((model, chosen),) = fit_probes([features], labels, (kind,), lambda_grid, inner_folds, standardize, seed, iters)
    return model, chosen


def fold_stats(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation over the folds that finished.

    Every table of the report uses this rule: one value gives (value, NaN)
    and none gives (NaN, NaN).
    """
    vals = np.asarray(values, dtype=np.float64)
    mean = float(vals.mean()) if len(vals) else float("nan")
    return mean, float(vals.std(ddof=1)) if len(vals) > 1 else float("nan")


def format_stats(mean: float, std: float, missing: str = "failed") -> str:
    """A table cell: "mean ± std", the mean alone without a std, `missing` without a mean."""
    if np.isnan(mean):
        return missing
    if np.isnan(std):
        return f"{mean:.3f}"
    return f"{mean:.3f} ± {std:.3f}"


@dataclass(frozen=True)
class ProbeRow:
    endpoint: str
    kind: str
    fold: int
    accuracy: float
    lam: float


@dataclass
class ProbeReport:
    """Per-(endpoint, kind, fold) probe accuracies plus run policy notes."""

    rows: list[ProbeRow]
    endpoints: tuple[str, ...]
    kinds: tuple[str, ...]
    pre_activation: bool
    standardize: bool

    def accuracies(self, endpoint: str, kind: str) -> list[float]:
        return [r.accuracy for r in self.rows if r.endpoint == endpoint and r.kind == kind]

    def to_csv(self) -> str:
        lines = ["endpoint,kind,fold,accuracy,lambda"]
        for r in self.rows:
            lines.append(f"{r.endpoint},{r.kind},{r.fold},{r.accuracy:.6f},{r.lam:g}")
        return "\n".join(lines) + "\n"

    def table(self) -> list[str]:
        """Markdown rows: fold_stats over folds per endpoint and kind, "-" where no fold ran."""
        lines = [
            "| Endpoint | " + " | ".join(k.upper() if k == "svm" else k.capitalize() for k in self.kinds) + " |",
            "|---" * (len(self.kinds) + 1) + "|",
        ]
        for ep in self.endpoints:
            cells = [format_stats(*fold_stats(self.accuracies(ep, kind)), missing="-") for kind in self.kinds]
            lines.append(f"| {ep} | " + " | ".join(cells) + " |")
        return lines

    def to_markdown(self) -> str:
        feature_note = "pre-activation" if self.pre_activation else "post-activation"
        lines = self.table() + [
            "",
            f"Features: {feature_note}, single center view, "
            f"{'standardized' if self.standardize else 'raw'} columns.",
        ]
        return "\n".join(lines) + "\n"


def probe_all_layers(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: ViewSource,
    splits: Sequence[tuple[Array, Array]],
    endpoints: Sequence[str] | None = None,
    kinds: Sequence[str] = PROBE_KINDS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    inner_folds: int = 3,
    standardize: bool = True,
    pre_activation: bool = False,
    seed: int = 0,
    iters: int = ITERATION_BUDGET,
) -> ProbeReport:
    """Outer-CV probe accuracy for every endpoint and probe kind.

    `splits` holds each outer fold's (train, test) rows, as data.audit_folds
    gives them; the f-th pair is fold f. For each outer fold, lambda is
    re-selected by nested CV on that fold's training rows only, so no test
    row ever influences selection or standardization.
    """
    labels = source.labels
    for train, test in splits:
        if len(train) + len(test) != len(labels):
            raise DataError(f"a fold splits {len(train) + len(test)} rows of {len(labels)} examples")
    names = tuple(endpoints) if endpoints is not None else spec.endpoints
    check_probe_args(kinds, lambda_grid, inner_folds, iters, names, spec.endpoints)
    by_endpoint = extract_features(spec, ckpt, source, names, pre_activation=pre_activation)
    found: dict[tuple[str, str, int], ProbeRow] = {}
    for f, (train, test) in enumerate(splits):
        started = time.perf_counter()
        fitted = fit_probes(
            list(by_endpoint.values()), labels, kinds, lambda_grid, inner_folds, standardize, seed, iters,
            rows=train,
        )
        selected = time.perf_counter()
        for endpoint, features in by_endpoint.items():
            for kind in kinds:
                model, _ = next(fitted)
                acc = float((model.predict(features[test]) == labels[test]).mean())
                found[endpoint, kind, f] = ProbeRow(endpoint, kind, f, acc, model.lam)
                del model  # before the next refit set is built
        log.info(
            "outer fold %d: %d endpoints x %d kinds, selection %.3f s, refit %.3f s",
            f, len(by_endpoint), len(kinds), selected - started, time.perf_counter() - selected,
        )
    return ProbeReport(
        rows=[found[endpoint, kind, f] for endpoint in names for kind in kinds for f in range(len(splits))],
        endpoints=names,
        kinds=tuple(kinds),
        pre_activation=pre_activation,
        standardize=standardize,
    )
