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
n <= d, x (x^T alpha) otherwise. Every inner fold and every lambda of the
grid advance together in one loop; the fitting sets are zero-padded to a
common row count and masked, and each is standardized by its own rows only.

The dual gives the primal weights up to rounding, except where the iteration
itself amplifies rounding: a softmax fit at lambda <= 1e-3 can take steps
long enough that any two summation orders, the primal's among them, end
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checkpoint import Checkpoint
from .data import ViewSource, stratified_kfold
from .errors import ConfigError, DataError
from .network import NetworkSpec, forward, infer_shapes

Array = np.ndarray

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
PROBE_KINDS = ("svm", "softmax")
ITERATION_BUDGET = 2000


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

    def _transform(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        if self.mean is not None:
            x = (x - self.mean) / self.scale
        return x

    def decision_values(self, x: Array) -> Array:
        x = self._transform(x)
        return x @ self.weights + self.bias

    def predict(self, x: Array) -> Array:
        values = self.decision_values(x)
        if self.kind == "svm":
            return (values > 0).astype(np.int64)
        return values.argmax(axis=1)


def _fitting_set(features: Array, rows: Array, standardize: bool) -> tuple[Array, Array | None, Array | None]:
    """Float64 copy of the given rows, standardized by statistics of those rows only."""
    x = np.asarray(features[rows], dtype=np.float64)
    if not standardize:
        return x, None, None
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)  # constant columns pass through
    x -= mean  # in place: every fitting set stays alive until its weights are built
    x /= scale
    return x, mean, scale


def _kernel_product(sets: Sequence[Array], rows: int) -> Callable[[Array], Array]:
    """a [F, rows, m] -> K a, where K_f = x_f x_f^T for the f-th set zero-padded to `rows`.

    Per column of a, the Gram costs rows^2 and going through x^T a costs
    2 rows d; forming the Gram costs rows^2 d once, so it is formed only
    when rows <= d.
    """
    width = sets[0].shape[1]
    if rows <= width:
        gram = np.zeros((len(sets), rows, rows))
        for f, x in enumerate(sets):
            gram[f, : len(x), : len(x)] = x @ x.T
        return lambda a: gram @ a
    stacked = np.zeros((len(sets), rows, width))
    for f, x in enumerate(sets):
        stacked[f, : len(x)] = x
    return lambda a: stacked @ (stacked.transpose(0, 2, 1) @ a)


def _solve_dual(
    kernel: Callable[[Array], Array], y01: Array, live: Array, kind: str, lams: Sequence[float], iters: int
) -> tuple[Array, Array]:
    """Full-batch descent on alpha for F padded fitting sets and every lambda at once.

    y01 and live are [F, n]; a padded row (live False) adds nothing to scores,
    gradients or row counts. Returns alpha [F, n, L] and bias [F, L] for svm,
    alpha [F, n, L, 2] and bias [F, L, 2] for softmax; set f's weights at
    lams[l] are x_f^T alpha[f, :, l].
    """
    sets, n = live.shape
    lam = np.asarray(lams, dtype=np.float64)[:, None]  # [L, 1], against [..., L, classes]
    count = live.sum(axis=1)[:, None, None, None]  # every set divides by its own row count
    live = live[:, :, None, None]
    if kind == "svm":
        y = np.where(y01 > 0, 1.0, -1.0)[:, :, None, None]
        classes = 1
    else:
        onehot = (y01[:, :, None, None] == np.arange(2)).astype(np.float64)
        classes = 2
    alpha = np.zeros((sets, n, len(lams), classes))
    bias = np.zeros((sets, len(lams), classes))
    for t in range(1, iters + 1):
        step = 1.0 / (lam * t)
        scores = kernel(alpha.reshape(sets, n, -1)).reshape(alpha.shape) + bias[:, None]
        if kind == "svm":
            active = live & ((1.0 - y * scores) > 0)
            grad = np.where(active, -y, 0.0) / count  # mean hinge loss, by score
        else:
            # ops.softmax's max-shifted formula, bit for bit, without its slow 2-wide row reductions
            e = np.exp(scores - np.maximum(scores[..., :1], scores[..., 1:]))
            probs = e / (e[..., :1] + e[..., 1:])
            grad = np.where(live, probs - onehot, 0.0) / count  # mean cross-entropy, by score
        alpha -= step * (lam * alpha + grad)
        bias -= step * grad.sum(axis=1)
    if kind == "svm":
        return alpha[..., 0], bias[..., 0]
    return alpha, bias


def _fit_sets(
    features: Array,
    labels: Array,
    kind: str,
    lams: Sequence[float],
    row_sets: Sequence[Array],
    standardize: bool,
    iters: int,
) -> list[list[ProbeModel]]:
    """One probe per (fitting set, lambda), all fitted in one dual loop."""
    fitted = [_fitting_set(features, rows, standardize) for rows in row_sets]
    n = max(len(rows) for rows in row_sets)
    live = np.zeros((len(row_sets), n), dtype=bool)
    y01 = np.zeros((len(row_sets), n), dtype=np.int64)
    for f, rows in enumerate(row_sets):
        live[f, : len(rows)] = True
        y01[f, : len(rows)] = labels[rows]
    kernel = _kernel_product([x for x, _, _ in fitted], n)
    alpha, bias = _solve_dual(kernel, y01, live, kind, lams, iters)
    return [
        [
            ProbeModel(kind, lam, x.T @ alpha[f, : len(x), l], bias[f, l, ...], mean, scale)
            for l, lam in enumerate(lams)
        ]
        for f, (x, mean, scale) in enumerate(fitted)
    ]


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
    only.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or len(features) != len(labels):
        raise DataError(f"features {features.shape} do not match {len(labels)} labels")
    if len(labels) == 0:
        raise DataError("no rows to fit a probe on")
    if not lambda_grid or any(l <= 0 for l in lambda_grid):
        raise ConfigError(f"lambda grid must be positive, got {lambda_grid}")
    if labels.min() < 0 or labels.max() > 1:
        raise DataError("probe labels must be binary 0/1")
    if kind not in PROBE_KINDS:
        raise ConfigError(f"unknown probe kind {kind!r}; expected one of {PROBE_KINDS}")

    grid = sorted(set(float(l) for l in lambda_grid))
    if len(grid) == 1:
        chosen = {grid[0]: float("nan")}
        lam = grid[0]
    else:
        inner = stratified_kfold(labels, inner_folds, seed)
        models = _fit_sets(
            features, labels, kind, grid, [np.flatnonzero(inner != f) for f in range(inner_folds)],
            standardize, iters,
        )
        scores: dict[float, float] = {}
        for l, lam_cand in enumerate(grid):
            accs = []
            for f in range(inner_folds):
                va = inner == f
                accs.append(float((models[f][l].predict(features[va]) == labels[va]).mean()))
            scores[lam_cand] = float(np.mean(accs))
        best = max(scores.values())
        lam = min(l for l, s in scores.items() if s == best)
        chosen = scores
    model = _fit_sets(features, labels, kind, [lam], [np.arange(len(labels))], standardize, iters)[0][0]
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
    view: str = "center"

    def accuracies(self, endpoint: str, kind: str) -> list[float]:
        return [r.accuracy for r in self.rows if r.endpoint == endpoint and r.kind == kind]

    def mean_accuracy(self, endpoint: str, kind: str) -> float:
        accs = self.accuracies(endpoint, kind)
        if not accs:
            raise DataError(f"no probe rows for {endpoint}/{kind}")
        return float(np.mean(accs))

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
            f"Features: {feature_note}, single {self.view} view, "
            f"{'standardized' if self.standardize else 'raw'} columns.",
        ]
        return "\n".join(lines) + "\n"


def probe_all_layers(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: ViewSource,
    folds: Array,
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

    For each outer fold, lambda is re-selected by nested CV on that fold's
    training rows only, so no test row ever influences selection or
    standardization.
    """
    folds = np.asarray(folds)
    labels = source.labels
    if len(folds) != len(labels):
        raise DataError(f"{len(folds)} fold ids for {len(labels)} examples")
    for kind in kinds:
        if kind not in PROBE_KINDS:
            raise ConfigError(f"unknown probe kind {kind!r}")
    names = tuple(endpoints) if endpoints is not None else spec.endpoints
    fold_ids = sorted(int(f) for f in np.unique(folds))
    rows: list[ProbeRow] = []
    by_endpoint = extract_features(spec, ckpt, source, names, pre_activation=pre_activation)
    for endpoint in names:
        features = by_endpoint.pop(endpoint)  # freed once its probes are fitted
        for kind in kinds:
            for f in fold_ids:
                tr, te = folds != f, folds == f
                model, _ = fit_probe(
                    features[tr], labels[tr], kind, lambda_grid, inner_folds, standardize, seed, iters
                )
                acc = float((model.predict(features[te]) == labels[te]).mean())
                rows.append(ProbeRow(endpoint, kind, f, acc, model.lam))
    return ProbeReport(
        rows=rows,
        endpoints=names,
        kinds=tuple(kinds),
        pre_activation=pre_activation,
        standardize=standardize,
    )
