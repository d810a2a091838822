#!/usr/bin/env python3
"""Eight optimizers, one small character model, fixed budget.

Trains the built-in next-character MLP for 400 steps with every optimizer
at a sensible peak learning rate for its family, then prints final train
and held-out losses. Uniform-guess loss is ln(96) = 4.56; anything near 2.5
has learned real structure in a few seconds of numpy.

Run: python3 demos/optimizer_shootout.py   (about a minute)
"""

from specopt.optim import HyperParams, parse_optimizer
from specopt.train import TrainConfig, run_training

# peak matrix learning rates, one per family member; the spectral exponents
# compress update magnitudes, so the stronger the compression the larger
# the workable rate within each family
RATES = {
    "msgd": 3.0,
    "msgds": 1.0,
    "msgdq": 0.3,
    "msgdz": 0.03,
    "adam": 0.003,
    "adams": 0.01,
    "adamq": 0.01,
    "adamz": 0.01,
}


def main():
    print(f"{'optimizer':>10}  {'peak lr':>8}  {'train':>7}  {'held-out':>8}  outcome")
    for token, lr in RATES.items():
        cfg = TrainConfig(
            task="charlm",
            optimizer=parse_optimizer(token),
            hp=HyperParams(lr_mat=lr),
            total_steps=400,
            warmup_steps=40,
            batch_size=64,
            eval_every=100,
            seed=0,
        )
        record = run_training(cfg)
        last = record.rows[-1]
        print(f"{token:>10}  {lr:>8g}  {last.train_loss:>7.4f}  "
              f"{last.eval_loss:>8.4f}  {record.outcome}")
    print("\nsame data order, same init, same schedule for every row;"
          " only the update rule differs.")


if __name__ == "__main__":
    main()
