"""Pinned canonical config texts and digests.

Every run is named by the SHA-256 digest of its canonical config text, and
replay depends on that text staying byte-identical. These pins hold the
text and the digest of a few train and sweep configs fixed, so a change to
how configs are parsed or rendered cannot move a digest unnoticed.
"""

import hashlib

import pytest

from specopt.cli import (
    build_sweep_inputs,
    build_train_config,
    parse_config_text,
    sweep_canonical_text,
)
from specopt.train import canonical_config_text, config_digest

README_EXAMPLE = {
    "task": "charlm", "optimizer": "muon", "lr_mat": "0.03", "total_steps": "400",
    "warmup_steps": "40", "batch_size": "64", "eval_every": "100", "seed": "0",
}

# name: (mapping, --seed flag, canonical text, digest)
TRAIN_PINS = {
    "all-defaults": (
        {"task": "matreg", "optimizer": "adam", "lr_mat": "0.01"},
        None,
        "batch_size = 64\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 100\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.01\n"
        "lr_vec = 0.0003\noptimizer = adam\nseed = 0\nspectral_iters = default\n"
        "task = matreg\ntotal_steps = 2000\nwarmup_steps = 100\n",
        "383bbb430722b78f6423095d8bd50481e7abcb994fe96ee7c45346d1a01bdd94",
    ),
    "sentinels-written-out": (
        {"task": "matreg", "optimizer": "adam", "lr_mat": "0.01",
         "spectral_iters": "default", "divergence_threshold": "auto", "corpus": "builtin"},
        None,
        "batch_size = 64\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 100\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.01\n"
        "lr_vec = 0.0003\noptimizer = adam\nseed = 0\nspectral_iters = default\n"
        "task = matreg\ntotal_steps = 2000\nwarmup_steps = 100\n",
        "383bbb430722b78f6423095d8bd50481e7abcb994fe96ee7c45346d1a01bdd94",
    ),
    "readme-example": (
        README_EXAMPLE,
        None,
        "batch_size = 64\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 100\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.03\n"
        "lr_vec = 0.0003\noptimizer = msgdz\nseed = 0\nspectral_iters = default\n"
        "task = charlm\ntotal_steps = 400\nwarmup_steps = 40\n",
        "9ad937a02e7c754422e3c66af911285e6cdc43cb5850d2497f909242d7ea9990",
    ),
    "every-key-set": (
        {"task": "charlm", "optimizer": "adamq", "lr_mat": "0.125", "lr_vec": "1e-3",
         "beta1": "0.8", "beta2": "0.99", "eps": "1e-10", "spectral_iters": "7",
         "fan_scaling": "false", "fan_scaling_all": "true", "total_steps": "50",
         "warmup_steps": "5", "batch_size": "16", "eval_every": "10", "seed": "3",
         "divergence_threshold": "12.5", "corpus": "data/tiny.txt"},
        None,
        "batch_size = 16\nbeta1 = 0.8\nbeta2 = 0.99\ncorpus = data/tiny.txt\n"
        "divergence_threshold = 12.5\neps = 1e-10\neval_every = 10\n"
        "fan_scaling = false\nfan_scaling_all = true\nlr_mat = 0.125\n"
        "lr_vec = 0.001\noptimizer = adamq\nseed = 3\nspectral_iters = 7\n"
        "task = charlm\ntotal_steps = 50\nwarmup_steps = 5\n",
        "58678b859425622cf602657f65af83bdb126d4883b505b7b94ee76fc9b1e7054",
    ),
    "seed-flag-beats-seed-line": (
        README_EXAMPLE,
        11,
        "batch_size = 64\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 100\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.03\n"
        "lr_vec = 0.0003\noptimizer = msgdz\nseed = 11\nspectral_iters = default\n"
        "task = charlm\ntotal_steps = 400\nwarmup_steps = 40\n",
        "88682b6dbc79ae1599031de343e8e52f64a85702afcba0134d8861551828842d",
    ),
}

# name: (mapping, canonical text, digest)
SWEEP_PINS = {
    "default-refinement": (
        {"task": "matreg", "lr_grid": "0.1, 0.01, 1e-3"},
        "batch_size = 64\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 100\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.001\n"
        "lr_vec = 0.0003\noptimizer = msgd\nseed = 0\nspectral_iters = default\n"
        "task = matreg\ntotal_steps = 2000\nwarmup_steps = 100\n"
        "lr_grid = 0.001,0.01,0.1\nmax_fine_rounds = 8\n"
        "optimizers = msgd,msgds,msgdq,msgdz,adam,adams,adamq,adamz\n"
        "refine_factors = 0.5,0.75,1.5,2.0\n",
        "f5c653db2a6914b313ea17cf8f09857d42437f1dc7d4e7d2578c3fe2c1de6ed2",
    ),
    "refine-factors-set": (
        {"task": "matreg", "optimizers": "msgds, adam", "lr_grid": "0.01,0.1",
         "refine_factors": "0.25, 4", "max_fine_rounds": "1", "total_steps": "40",
         "warmup_steps": "4", "batch_size": "40", "eval_every": "20", "seed": "5"},
        "batch_size = 40\nbeta1 = 0.9\nbeta2 = 0.95\ncorpus = builtin\n"
        "divergence_threshold = auto\neps = 1e-08\neval_every = 20\n"
        "fan_scaling = true\nfan_scaling_all = false\nlr_mat = 0.01\n"
        "lr_vec = 0.0003\noptimizer = msgds\nseed = 5\nspectral_iters = default\n"
        "task = matreg\ntotal_steps = 40\nwarmup_steps = 4\n"
        "lr_grid = 0.01,0.1\nmax_fine_rounds = 1\noptimizers = msgds,adam\n"
        "refine_factors = 0.25,4.0\n",
        "8c40642aa1e6e2c90f80682d8b3ba8bf9f6bd208609ae71eb1f21ead05d50cfd",
    ),
}


@pytest.mark.parametrize("name", sorted(TRAIN_PINS))
def test_train_config_text_and_digest_are_pinned(name):
    mapping, seed_flag, text, digest = TRAIN_PINS[name]
    cfg = build_train_config(mapping, seed_flag)
    assert canonical_config_text(cfg) == text
    assert config_digest(cfg) == digest
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    # the canonical text reads back into the same config
    assert build_train_config(parse_config_text(text)) == cfg


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_config_text_and_digest_are_pinned(name):
    mapping, text, digest = SWEEP_PINS[name]
    assert sweep_canonical_text(*build_sweep_inputs(mapping)) == text
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert sweep_canonical_text(*build_sweep_inputs(parse_config_text(text))) == text
