"""Error taxonomy shared across the package.

Every failure mode maps to one of these so the CLI can translate
exceptions into stable exit codes (usage=1, data=2, divergence=3).
"""


class SentnetError(Exception):
    """Base class for all package errors."""


class ShapeError(SentnetError):
    """Tensor shapes or hyperparameters are inconsistent."""


class ConfigError(SentnetError):
    """Invalid configuration or argument combination."""


class DataError(SentnetError):
    """Malformed manifest, image file, or dataset constraint violation."""


class CheckpointError(DataError):
    """Checkpoint file cannot be read or does not match the network."""


class CheckpointFormatError(CheckpointError):
    """Bad magic, bad version, or structurally invalid checkpoint bytes."""


class CheckpointTruncatedError(CheckpointFormatError):
    """Checkpoint file ends before the declared payload."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint tensors do not match the network spec."""


class SurgeryError(SentnetError):
    """Surgery plan is invalid for the given spec or checkpoint."""


class NonFiniteError(FloatingPointError):
    """An op produced inf or nan; layer names the network layer it ran for."""

    def __init__(self, op: str, layer: str | None = None):
        self.op = op
        self.layer = layer
        where = f" at layer {layer}" if layer else ""
        super().__init__(f"{op}: non-finite values in result{where}")


class DivergenceError(SentnetError):
    """Training produced a non-finite value, at the given epoch, batch and layer."""

    def __init__(
        self,
        epoch: int,
        detail: str | None = None,
        batch: int | None = None,
        layer: str | None = None,
    ):
        self.epoch = epoch
        self.batch = batch
        self.layer = layer
        where = f"epoch {epoch}"
        if batch is not None:
            where += f", batch {batch}"
        if layer:
            where += f", layer {layer}"
        super().__init__(f"training diverged at {where}: {detail or 'loss is not finite'}")
