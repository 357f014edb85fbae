"""Label sparsity and label noise: where the auxiliaries earn their keep.

The click losses of both models see degraded training labels; the
contrastive losses never look at labels at all, so their supervision
survives intact.  The study trains the base model and the full model at
each degradation level, pairs them seed by seed, and reports the
relative improvement, each seed's AUC gap and how many seeds the full
model won.

Runs a deliberately small corpus; expect about half a minute.
Run from the repository root:  python3 demos/label_robustness.py
"""

from dataclasses import replace

import numpy as np

from missctr.data import build_splits, synth_generate
from missctr.harness import robustness_study, sweep
from missctr.trainer import ExperimentConfig

log = synth_generate(n_users=600, n_items=150, n_interests=5,
                     seq_len_range=(8, 16), seed=0)
splits = build_splits(log, max_len=16, seed=0)

cfg = ExperimentConfig(
    emb_dim=10, batch_size=128, mlp=(40, 40, 40, 1),
    enc_interest=(20, 20), enc_feature=(10, 10),
    lr=1e-2, alpha_interest=0.5, alpha_feature=0.5, tau=0.1,
    n_branches=2, n_depths=2, max_offset=2, max_len=16,
    epochs=6, patience=3,
)
cfg_base = replace(cfg, model="din")


def print_rows(report, verb):
    # the per-seed gaps show how far the mean can be trusted
    for row in report.rows:
        print(f"  {verb} {row.rate:.1f}: base {row.auc_base:.4f}  "
              f"full {row.auc_miss:.4f}  improvement {row.ri * 100:+.2f}%")
        gaps = "  ".join(f"{g:+.4f}" for g in row.gaps)
        wins = sum(g > 0 for g in row.gaps)
        print(f"           per-seed gaps {gaps}  (full model wins {wins}/{len(row.gaps)})")


# ---------------------------------------------------------------------------
# keep only a fraction of the training pairs

print("label sparsity (fraction of training pairs kept):")
report = robustness_study("sparsity", [1.0, 0.7, 0.4], cfg_base, cfg,
                          splits, seeds=[0, 1])
print_rows(report, "keep")

# flip a fraction of the training labels
print("label noise (fraction of training labels flipped):")
report = robustness_study("noise", [0.0, 0.1, 0.2], cfg_base, cfg,
                          splits, seeds=[0, 1])
print_rows(report, "flip")

# ---------------------------------------------------------------------------
# the softmax temperature trades sharpness of the contrastive target
# against tolerance for hard in-batch negatives

print("temperature sweep (test auc, mean over 2 seeds):")
report = sweep("temperature", [0.05, 0.1, 0.5, 1.0], cfg, splits, seeds=[0, 1])
for row in report.rows:
    bar = "#" * int(np.round((row.auc_mean - 0.5) * 100))
    print(f"  tau {row.value:<5}: {row.auc_mean:.4f} +/- {row.auc_std:.4f}  {bar}")
