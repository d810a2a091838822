"""Built-in training tasks with hand-derived gradients.

Both tasks expose the same small surface the harness drives:

    params = task.init_params(rng)
    loss, grads = task.loss_and_grads(params, indices)
    task.train_loss(params), task.eval_loss(params)
    task.num_train

Inside an open dense.Lane that has a thread (dense.helper()), a
whole-split loss of two or more full row blocks pushes half of them to that
lane and reads that call's outcome after its own half, with the same bits
as on one thread. The lane runs only private methods, so a wrapper on the
public ones sees each call whole, on the calling thread.

Parameters are dicts of numpy arrays. Weight matrices are stored with
fan_out as the row count and fan_in as the column count
(output-features by input-features, applied as x @ W.T); that fixed
orientation is what the optimizer's fan scaling reads.

Gradients are derived and coded by hand, no autograd anywhere; the test
suite checks every parameter against central finite differences.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import dense
from .errors import ConfigError

VOCAB_SIZE = 96  # newline plus printable ASCII 32..126

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715
_LOSS_BLOCK_ROWS = 512  # rows per forward pass when a loss covers a whole split
_SPLIT_ROWS = 2 * _LOSS_BLOCK_ROWS  # from two full blocks on, a whole-split loss takes a lane
_HOLDOUT_FRACTION = 0.1  # charlm's held-out share of positions


def _gelu(x: np.ndarray, bufs=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tanh-GELU (Hendrycks & Gimpel, 2016), with what its derivative reuses.

    Returns (gelu(x), x*x, tanh(inner)), written into ``bufs`` (three arrays
    shaped like x, in that order) when given. The cube is x2 * x rather than
    x ** 3, which numpy evaluates through libm pow at several times the cost.
    """
    out, x2, th = bufs if bufs is not None else (np.empty_like(x) for _ in range(3))
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=th)
    th *= _GELU_K
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    np.add(th, 1.0, out=out)
    out *= x
    out *= 0.5
    return out, x2, th


def _gelu_grad(x: np.ndarray, x2: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-GELU from the x*x and tanh that _gelu returned."""
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * _GELU_C * (1.0 + 3.0 * _GELU_K * x2)


def encode_text(text: str) -> np.ndarray:
    """Map text onto the 96-symbol vocabulary.

    Newline is symbol 0, printable ASCII 32..126 are symbols 1..95, and
    anything else collapses to the space symbol.
    """
    codes = np.frombuffer(text.encode("utf-8", errors="replace"), dtype=np.uint8)
    out = np.ones(codes.shape, dtype=np.int64)  # default: space
    printable = (codes >= 32) & (codes <= 126)
    out[printable] = codes[printable].astype(np.int64) - 31
    out[codes == 10] = 0
    return out


def builtin_corpus() -> str:
    return resources.files("specopt.data").joinpath("corpus.txt").read_text(encoding="utf-8")


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    # One documented generator everywhere: PCG64 seeded through SeedSequence
    # with a (seed, stream) pair, deterministic across platforms. Stream 0
    # builds a task's data, 1 a run's initial weights and 2 its batches.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


class MatrixRegression:
    """Planted bilinear least squares: minimize 0.5 ||A W B - C||_F^2 / rows.

    A (48 x 32) and B (24 x 16) are fixed random maps, C is generated from a
    planted W plus noise of standard deviation 0.01, and W (32 x 24) is the
    single, matrix-shaped parameter. Rows of (A, C) are data points; the
    last 8 of the 48 form the held-out split. The closed-form least-squares
    optimum exists and is what long runs should approach.
    """

    name = "matreg"
    _DATA_ROWS = 48
    _EVAL_ROWS = 8
    _W_SHAPE = (32, 24)
    _OUT_COLS = 16
    _NOISE = 0.01

    def __init__(self, seed: int):
        w_rows, w_cols = self._W_SHAPE
        rng = seeded_rng(seed, 0)
        self.a_map = rng.standard_normal((self._DATA_ROWS, w_rows)) / np.sqrt(w_rows)
        self.b_map = rng.standard_normal((w_cols, self._OUT_COLS)) / np.sqrt(w_cols)
        w_star = rng.standard_normal(self._W_SHAPE)
        self.targets = self.a_map @ w_star @ self.b_map
        self.targets += self._NOISE * rng.standard_normal(self.targets.shape)
        self.num_train = self._DATA_ROWS - self._EVAL_ROWS

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        del rng  # the zero start is part of the task definition
        return {"W": np.zeros(self._W_SHAPE)}

    def _loss_grad_rows(self, params, rows):
        w = params["W"]
        a = self.a_map[rows]
        c = self.targets[rows]
        resid = a.dot(w).dot(self.b_map) - c
        loss = 0.5 * float(np.sum(resid * resid)) / len(rows)
        grad = a.T.dot(resid).dot(self.b_map.T) / len(rows)
        return loss, {"W": grad}

    def loss_and_grads(self, params, indices):
        return self._loss_grad_rows(params, np.asarray(indices))

    def train_loss(self, params) -> float:
        return self._loss_grad_rows(params, np.arange(self.num_train))[0]

    def eval_loss(self, params) -> float:
        rows = np.arange(self.num_train, self.targets.shape[0])
        return self._loss_grad_rows(params, rows)[0]


class CharMlp:
    """One-hidden-layer MLP next-character model over the 96-symbol vocab.

    Context window of ``context`` characters, each embedded into
    ``emb_dim`` dimensions and concatenated; one GELU hidden layer of width
    ``hidden``; softmax cross-entropy in nats. Positions are shuffled once
    per task seed and split 90/10 into train and held-out sets.
    """

    name = "charlm"

    def __init__(
        self,
        seed: int,
        corpus_text: str | None = None,
        context: int = 8,
        emb_dim: int = 16,
        hidden: int = 128,
    ):
        text = corpus_text if corpus_text is not None else builtin_corpus()
        self.data = encode_text(text)
        self.context = context
        self.emb_dim = emb_dim
        self.hidden = hidden
        total = self.data.shape[0] - context
        if total < 20:
            raise ConfigError(f"corpus too short: only {total} usable positions")
        positions = seeded_rng(seed, 0).permutation(total)
        n_eval = max(1, int(round(total * _HOLDOUT_FRACTION)))
        self._eval_positions = positions[:n_eval]
        self._train_positions = positions[n_eval:]
        self.num_train = self._train_positions.shape[0]

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        feat = self.context * self.emb_dim
        return {
            "embed": 0.1 * rng.standard_normal((VOCAB_SIZE, self.emb_dim)),
            "W1": rng.standard_normal((self.hidden, feat)) / np.sqrt(feat),
            "b1": np.zeros(self.hidden),
            "W2": rng.standard_normal((VOCAB_SIZE, self.hidden)) / np.sqrt(self.hidden),
            "b2": np.zeros(VOCAB_SIZE),
        }

    def _batch(self, positions):
        ctx = self.data[positions[:, None] + np.arange(self.context)]
        tgt = self.data[positions + self.context]
        return ctx, tgt

    def _buffers(self, rows: int) -> list[np.ndarray]:
        """The arrays _forward writes a pass of up to ``rows`` rows into."""
        feat = self.context * self.emb_dim
        return [np.empty((rows, n)) for n in (feat,) + (self.hidden,) * 4 + (VOCAB_SIZE,) * 2]

    def _loss_buffers(self, rows: int) -> list[np.ndarray]:
        """_buffers(rows) for a pass that keeps only its loss: the seven
        arrays as views of two flat ones.

        Array A holds x, then h, z1_sq and th (one view, which _gelu fills
        in place), then the exponentials; array B holds z1, then the
        shifted logits. _forward writes each view only after its last read
        of the one before it in the same array.
        """
        feat = self.context * self.emb_dim
        width = max(feat, self.hidden, VOCAB_SIZE)
        a, b = np.empty(rows * width), np.empty(rows * width)

        def view(flat, cols):
            return flat[:rows * cols].reshape(rows, cols)

        h = view(a, self.hidden)
        return [view(a, feat), view(b, self.hidden), h, h, h, view(b, VOCAB_SIZE),
                view(a, VOCAB_SIZE)]

    def _forward(self, params, ctx, bufs):
        """Forward pass over a batch of contexts, written into ``bufs``.

        ``bufs`` is _buffers(len(ctx)) or _loss_buffers(len(ctx)), or the
        first len(ctx) rows of a larger set. Returns the features x, the
        hidden pre-activation z1 with the x*x and tanh that the GELU
        derivative reuses, the hidden activations h, the logits shifted by
        their row max, and each row's log-sum-exp of the shifted logits
        (shape (B, 1)); from _loss_buffers only the last two are kept.
        """
        x, z1, h, z1_sq, th, shifted, expo = bufs
        # ctx holds symbols 0..VOCAB_SIZE-1, so "clip" never clips; unlike
        # the default "raise", it lets take write straight into x.
        np.take(params["embed"], ctx, axis=0, mode="clip",
                out=x.reshape(ctx.shape + (self.emb_dim,)))
        x.dot(params["W1"].T, out=z1)
        z1 += params["b1"]
        _gelu(z1, (h, z1_sq, th))
        h.dot(params["W2"].T, out=shifted)
        shifted += params["b2"]
        shifted -= shifted.max(axis=1, keepdims=True)
        np.exp(shifted, out=expo)
        logsum = expo.sum(axis=1, keepdims=True)
        np.log(logsum, out=logsum)
        return x, z1, z1_sq, th, h, shifted, logsum

    @staticmethod
    def _target_logp(shifted, logsum, tgt):
        # Gather the target column first: the full log-softmax is never built.
        return shifted[np.arange(len(tgt)), tgt] - logsum[:, 0]

    def _loss(self, params, positions) -> float:
        # Fixed row blocks keep the arrays of a full-split pass small, and
        # each thread's blocks reuse one two-array set: fresh arrays per
        # block made glibc hand their pages back to the OS and fault them in
        # again (5.9k minor faults an eval row, against 1.4k with one
        # seven-array set per call). From two full blocks on, dense.helper()
        # runs the later half of them beside the calling thread.
        starts = range(0, len(positions), _LOSS_BLOCK_ROWS)
        sums = [0.0] * len(starts)

        def run(blocks):
            bufs = self._loss_buffers(min(len(positions), _LOSS_BLOCK_ROWS))
            for i in blocks:
                ctx, tgt = self._batch(positions[starts[i]:starts[i] + _LOSS_BLOCK_ROWS])
                *_, shifted, logsum = self._forward(params, ctx, [b[:len(tgt)] for b in bufs])
                sums[i] = float(self._target_logp(shifted, logsum, tgt).sum())

        blocks, lane = range(len(starts)), dense.helper()
        if lane is None or len(positions) < _SPLIT_ROWS:
            run(blocks)
        else:
            half = len(blocks) // 2
            later = lane.push(run, blocks[half:])
            run(blocks[:half])
            later.result()
        # Added in block order, whichever thread ran each block, and not by
        # sum(), which compensates its rounding from Python 3.12 on.
        total = 0.0
        for block_sum in sums:
            total += block_sum
        return -total / len(positions)

    def loss_and_grads(self, params, indices):
        positions = self._train_positions[np.asarray(indices)]
        ctx, tgt = self._batch(positions)
        batch = ctx.shape[0]
        x, z1, z1_sq, th, h, shifted, logsum = self._forward(params, ctx, self._buffers(batch))
        loss = -float(self._target_logp(shifted, logsum, tgt).mean())

        dz2 = np.exp(shifted - logsum)
        dz2[np.arange(batch), tgt] -= 1.0
        dz2 /= batch
        grad_w2 = dz2.T.dot(h)
        grad_b2 = dz2.sum(axis=0)
        dh = dz2.dot(params["W2"])
        dz1 = dh * _gelu_grad(z1, z1_sq, th)
        grad_w1 = dz1.T.dot(x)
        grad_b1 = dz1.sum(axis=0)
        dx = dz1.dot(params["W1"])
        # Scatter-add into the embedding rows: bincount sums in the same
        # order as np.add.at, at a fraction of its cost.
        embed = params["embed"]
        slots = (ctx[:, :, None] * self.emb_dim + np.arange(self.emb_dim)).ravel()
        grad_embed = np.bincount(slots, weights=dx.ravel(), minlength=embed.size)
        grad_embed = grad_embed.reshape(embed.shape)
        return loss, {
            "embed": grad_embed,
            "W1": grad_w1,
            "b1": grad_b1,
            "W2": grad_w2,
            "b2": grad_b2,
        }

    def train_loss(self, params) -> float:
        return self._loss(params, self._train_positions)

    def eval_loss(self, params) -> float:
        return self._loss(params, self._eval_positions)


def make_task(name: str, seed: int, corpus_path: str | None = None):
    """Build a task by its config token."""
    if name == MatrixRegression.name:
        if corpus_path is not None:
            raise ConfigError(f"corpus: only task charlm reads a corpus, not {name}")
        return MatrixRegression(seed)
    if name == CharMlp.name:
        text = None
        if corpus_path is not None:
            text = dense.read_text(corpus_path, "utf-8", ConfigError)
        return CharMlp(seed, corpus_text=text)
    raise ConfigError(f"unknown task {name!r}; valid tasks: matreg, charlm")
