"""Task encodings, splits, and hand-derived gradients vs finite differences."""

import sys
import threading

import numpy as np
import pytest

from specopt import dense
from specopt.errors import ConfigError
from specopt.tasks import (
    _GELU_C,
    _GELU_K,
    _LOSS_BLOCK_ROWS,
    VOCAB_SIZE,
    CharMlp,
    MatrixRegression,
    _gelu,
    _gelu_grad,
    builtin_corpus,
    encode_text,
    make_task,
)

TINY_CORPUS = "the quick brown fox jumps over the lazy dog.\n" * 30


def central_diff(loss_fn, params, name, flat_idx, h):
    probe = {k: v.copy() for k, v in params.items()}
    probe[name].flat[flat_idx] += h
    hi = loss_fn(probe)
    probe[name].flat[flat_idx] -= 2.0 * h
    lo = loss_fn(probe)
    return (hi - lo) / (2.0 * h)


# --- text encoding ----------------------------------------------------------


def test_encode_text_pins_the_symbol_map():
    got = encode_text("\n A~\t")
    assert got.tolist() == [0, 1, 34, 95, 1]
    assert got.dtype == np.int64


def test_encode_text_collapses_non_ascii_to_space():
    got = encode_text("é")  # two utf-8 bytes, both outside the printable range
    assert got.tolist() == [1, 1]


def test_encode_covers_the_whole_vocabulary():
    everything = "\n" + "".join(chr(c) for c in range(32, 127))
    got = encode_text(everything)
    assert got.tolist() == list(range(VOCAB_SIZE))


def test_builtin_corpus_is_substantial_and_in_vocab():
    data = encode_text(builtin_corpus())
    assert data.shape[0] > 5_000
    assert data.min() >= 0 and data.max() < VOCAB_SIZE


# --- matrix regression ------------------------------------------------------


def test_matreg_zero_init_ignores_the_generator():
    task = MatrixRegression(seed=0)
    a = task.init_params(np.random.default_rng(1))
    b = task.init_params(np.random.default_rng(999))
    assert a["W"].shape == (32, 24)
    assert not a["W"].any()
    assert np.array_equal(a["W"], b["W"])


def test_matreg_split_sizes():
    task = MatrixRegression(seed=0)
    assert task.num_train == 40
    assert task.targets.shape == (48, 16)


def test_matreg_is_deterministic_per_seed():
    a = MatrixRegression(seed=3)
    b = MatrixRegression(seed=3)
    c = MatrixRegression(seed=4)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)


def test_matreg_loss_and_grad_match_direct_evaluation():
    task = MatrixRegression(seed=1)
    rng = np.random.default_rng(2)
    params = {"W": rng.standard_normal((32, 24))}
    rows = np.array([0, 3, 7])
    loss, grads = task.loss_and_grads(params, rows)
    resid = task.a_map[rows] @ params["W"] @ task.b_map - task.targets[rows]
    assert loss == 0.5 * float(np.sum(resid * resid)) / 3
    want = task.a_map[rows].T @ resid @ task.b_map.T / 3
    assert np.array_equal(grads["W"], want)


def test_matreg_gradient_against_central_differences():
    task = MatrixRegression(seed=5)
    rng = np.random.default_rng(6)
    params = {"W": 0.5 * rng.standard_normal((32, 24))}
    rows = np.arange(10)
    _, grads = task.loss_and_grads(params, rows)

    def loss_fn(p):
        return task.loss_and_grads(p, rows)[0]

    coords = rng.choice(params["W"].size, size=120, replace=False)
    for idx in coords:
        fd = central_diff(loss_fn, params, "W", idx, 1e-6)
        an = grads["W"].flat[idx]
        assert abs(fd - an) <= 1e-6 * max(abs(an), 1.0)


def test_matreg_eval_rows_are_disjoint_from_train_rows():
    task = MatrixRegression(seed=0)
    params = task.init_params(np.random.default_rng(0))
    train = task.train_loss(params)
    ev = task.eval_loss(params)
    # with W = 0 each split's loss is half the mean squared target
    want_train = 0.5 * float(np.sum(task.targets[:40] ** 2)) / 40
    want_eval = 0.5 * float(np.sum(task.targets[40:] ** 2)) / 8
    assert train == want_train
    assert ev == want_eval


# --- character model --------------------------------------------------------


def small_charlm(seed=0):
    return CharMlp(seed, corpus_text=TINY_CORPUS, context=4, emb_dim=4, hidden=8)


def test_charlm_parameter_shapes_follow_the_config():
    task = small_charlm()
    params = task.init_params(np.random.default_rng(0))
    assert params["embed"].shape == (VOCAB_SIZE, 4)
    assert params["W1"].shape == (8, 16)
    assert params["b1"].shape == (8,)
    assert params["W2"].shape == (VOCAB_SIZE, 8)
    assert params["b2"].shape == (96,)


def test_charlm_split_covers_all_positions_once():
    task = small_charlm()
    total = len(encode_text(TINY_CORPUS)) - 4
    merged = np.concatenate([task._eval_positions, task._train_positions])
    assert np.array_equal(np.sort(merged), np.arange(total))
    assert len(task._eval_positions) == int(round(total * 0.1))
    assert task.num_train == total - len(task._eval_positions)


def test_charlm_split_is_seeded():
    a, b, c = small_charlm(0), small_charlm(0), small_charlm(1)
    assert np.array_equal(a._train_positions, b._train_positions)
    assert not np.array_equal(a._train_positions, c._train_positions)


def test_charlm_initial_loss_is_near_uniform_entropy():
    task = small_charlm()
    params = task.init_params(np.random.default_rng(3))
    assert abs(task.train_loss(params) - np.log(VOCAB_SIZE)) < 0.5
    assert abs(task.eval_loss(params) - np.log(VOCAB_SIZE)) < 0.5


def test_charlm_rejects_a_too_short_corpus():
    with pytest.raises(ConfigError, match="corpus too short"):
        CharMlp(0, corpus_text="tiny", context=4)


def test_charlm_gradients_against_central_differences():
    task = small_charlm(seed=7)
    rng = np.random.default_rng(8)
    params = task.init_params(rng)
    indices = np.arange(16)
    _, grads = task.loss_and_grads(params, indices)
    assert set(grads) == set(params)

    def loss_fn(p):
        return task.loss_and_grads(p, indices)[0]

    checked = 0
    for name in sorted(params):
        size = params[name].size
        coords = rng.choice(size, size=min(30, size), replace=False)
        for idx in coords:
            fd = central_diff(loss_fn, params, name, idx, 1e-5)
            an = grads[name].flat[idx]
            assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-6), (name, idx)
            checked += 1
    assert checked >= 100


def test_gelu_matches_the_closed_form_with_pow():
    x = np.concatenate([[0.0, 1e-8, -1e-8], np.linspace(-10.0, 10.0, 20001)])
    th = np.tanh(_GELU_C * (x + _GELU_K * x ** 3))
    want = 0.5 * x * (1.0 + th)
    want_grad = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * _GELU_C * (
        1.0 + 3.0 * _GELU_K * x ** 2
    )
    got, x2, got_th = _gelu(x)
    got_grad = _gelu_grad(x, x2, got_th)
    # For large negative x the GELU is a difference of near-equal terms of
    # size |x|, so its ulps are counted at that scale rather than at the
    # (tiny) result's; the derivative's terms are of size max(|x|, 1).
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(x)))
    assert np.all(np.abs(got_grad - want_grad) <= 4 * np.spacing(np.maximum(np.abs(x), 1.0)))
    assert got[0] == 0.0 and got_grad[0] == 0.5


def one_shot_loss(task, params, positions):
    """Mean cross-entropy of one unblocked forward pass, GELU cube via pow."""
    ctx = task.data[positions[:, None] + np.arange(task.context)]
    tgt = task.data[positions + task.context]
    x = params["embed"][ctx].reshape(len(positions), -1)
    z1 = x @ params["W1"].T + params["b1"]
    h = 0.5 * z1 * (1.0 + np.tanh(_GELU_C * (z1 + _GELU_K * z1 ** 3)))
    z2 = h @ params["W2"].T + params["b2"]
    shifted = z2 - z2.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(logp[np.arange(len(tgt)), tgt].mean())


@pytest.fixture
def two_lanes(monkeypatch):
    """Give each threaded lane a thread whatever the host's CPU count."""
    monkeypatch.setattr(dense, "step_lanes", lambda: 2)


class CountingLane(dense.Lane):
    """A helper lane that counts the calls pushed to it."""

    def __init__(self):
        super().__init__("specopt-test")
        self.pushed = 0

    def push(self, fn, *args):
        self.pushed += 1
        return super().push(fn, *args)


@pytest.mark.parametrize("corpus", [None, TINY_CORPUS[:300]], ids=["builtin", "under-one-block"])
def test_charlm_blocked_losses_match_one_shot_pass(two_lanes, corpus):
    task = CharMlp(0, corpus_text=corpus)
    params = task.init_params(np.random.default_rng(5))
    params["W1"] *= 3.0  # reach the GELU's tails
    if corpus is None:
        assert task.num_train > _LOSS_BLOCK_ROWS and task.num_train % _LOSS_BLOCK_ROWS != 0
    else:
        assert task.num_train < _LOSS_BLOCK_ROWS
    with dense.one_blas_thread():
        for loss, positions in (
            (task.train_loss, task._train_positions),
            (task.eval_loss, task._eval_positions),
        ):
            want = one_shot_loss(task, params, positions)
            inline = loss(params)
            with CountingLane() as lane:
                split = loss(params)
            for got in (inline, split):
                assert abs(got - want) <= 1e-12 * abs(want)
            assert lane.pushed == (1 if corpus is None and loss == task.train_loss else 0)


def test_only_a_split_of_two_full_blocks_pushes_to_the_lane(two_lanes):
    """The held-out split (one full block and 73 rows), a corpus under one
    block and matreg's splits run inline; from 1024 rows on, one call takes
    the later half of the blocks."""
    builtin, tiny = CharMlp(0), CharMlp(0, corpus_text=TINY_CORPUS[:300])
    matreg = MatrixRegression(0)
    params = builtin.init_params(np.random.default_rng(1))
    tiny_params = tiny.init_params(np.random.default_rng(1))
    matreg_params = matreg.init_params(np.random.default_rng(1))
    with dense.one_blas_thread(), CountingLane() as lane:
        builtin.eval_loss(params)
        tiny.train_loss(tiny_params)
        tiny.eval_loss(tiny_params)
        matreg.train_loss(matreg_params)
        matreg.eval_loss(matreg_params)
        builtin._loss(params, builtin._train_positions[:2 * _LOSS_BLOCK_ROWS - 1])
        assert lane.pushed == 0
        builtin._loss(params, builtin._train_positions[:2 * _LOSS_BLOCK_ROWS])
        assert lane.pushed == 1
        builtin.train_loss(params)
        assert lane.pushed == 2


@pytest.mark.parametrize("failing, message", [
    pytest.param("both-halves", "overflow encountered", id="both-halves"),
    pytest.param("helpers-half", "the helper's half", id="helpers-half"),
])
def test_a_failing_half_reraises_from_train_loss_and_leaves_the_lane_clean(monkeypatch, two_lanes,
                                                                           failing, message):
    task = CharMlp(0)
    params = task.init_params(np.random.default_rng(2))
    want = task.train_loss(params)
    broken = params
    if failing == "both-halves":  # the caller's failure wins; the helper's is dropped
        broken = dict(params, embed=np.full_like(params["embed"], 1e300), W1=abs(params["W1"]))
    else:
        real = task._forward

        def forward(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("overflow in the helper's half")
            return real(*args)

        monkeypatch.setattr(task, "_forward", forward)
    with dense.one_blas_thread(), dense.Lane("specopt-test") as lane:
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match=message):
            task.train_loss(broken)
        assert lane.push(len, "ok").result() == 2  # a failure stays with its own call
        monkeypatch.undo()
        assert task.train_loss(params) == want


def per_block_reference_loss(task, params, positions):
    """The blocked loss written with fresh arrays and @ in every block."""
    total = 0.0
    for start in range(0, len(positions), 512):  # the block size fixes the summation order
        block = positions[start:start + 512]
        ctx = task.data[block[:, None] + np.arange(task.context)]
        tgt = task.data[block + task.context]
        x = params["embed"][ctx].reshape(len(block), -1)
        z1 = x @ params["W1"].T + params["b1"]
        th = z1 * z1 * z1
        th *= _GELU_K
        th += z1
        th *= _GELU_C
        np.tanh(th, out=th)
        h = 1.0 + th
        h *= z1
        h *= 0.5
        z2 = h @ params["W2"].T + params["b2"]
        shifted = z2 - z2.max(axis=1, keepdims=True)
        logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        total += float((shifted[np.arange(len(tgt)), tgt] - logsum[:, 0]).sum())
    return -total / len(positions)


def test_charlm_losses_reuse_one_workspace_bit_for_bit(two_lanes):
    """Each thread's blocks share one two-array workspace, and the train
    split's blocks split between the caller and a helper lane: each split,
    inline and with the lane, has the fresh-array loss's bits."""
    task = CharMlp(0)
    # Both splits end in a short block: 5266 = 10 * 512 + 146, 585 = 512 + 73.
    assert (task.num_train, len(task._eval_positions)) == (5266, 585)
    rng = np.random.default_rng(3)
    params = task.init_params(rng)
    with dense.one_blas_thread():
        for step in range(4):
            for loss, positions in ((task.train_loss, task._train_positions),
                                    (task.eval_loss, task._eval_positions)):
                want = per_block_reference_loss(task, params, positions)
                assert loss(params) == want, step
                with dense.Lane("specopt-test"):
                    assert loss(params) == want, step
            _, grads = task.loss_and_grads(params, rng.choice(task.num_train, 64, replace=False))
            params = {name: p - 0.5 * grads[name] for name, p in params.items()}


def test_concurrent_split_losses_keep_their_bits(two_lanes):
    """Three callers, each with its own helper lane (six threads on fewer
    CPUs), switching threads every few microseconds: every train_loss still
    has the one-thread loss's bits, so no two calls share a workspace or a
    block sum."""
    task = CharMlp(0)
    params = task.init_params(np.random.default_rng(4))
    want = task.train_loss(params)
    got = []

    def caller():
        with dense.Lane("specopt-test"):
            got.extend(task.train_loss(params) for _ in range(5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with dense.one_blas_thread():
            threads = [threading.Thread(target=caller) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 15


def test_charlm_loss_is_deterministic():
    task = small_charlm()
    params = task.init_params(np.random.default_rng(0))
    a = task.loss_and_grads(params, np.arange(8))
    b = task.loss_and_grads(params, np.arange(8))
    assert a[0] == b[0]
    for name in a[1]:
        assert np.array_equal(a[1][name], b[1][name])


# --- factory ----------------------------------------------------------------


def test_make_task_builds_both_tasks():
    assert make_task("matreg", 0).name == "matreg"
    task = make_task("charlm", 0)
    assert task.name == "charlm"
    assert task.context == 8 and task.emb_dim == 16 and task.hidden == 128


def test_make_task_reads_a_corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TINY_CORPUS, encoding="utf-8")
    task = make_task("charlm", 0, corpus_path=str(path))
    assert np.array_equal(task.data, encode_text(TINY_CORPUS))


def test_make_task_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown task"):
        make_task("mnist", 0)
