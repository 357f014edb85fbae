"""What the two extractors and the view sampler actually produce.

Builds one short two-channel behavior history by hand and walks it
through the pipeline: sliding windows along time, refinement across
fields, and the sampling of positive view pairs for the contrastive
losses.

Run from the repository root:  python3 demos/interest_windows.py
"""

import numpy as np

from missctr import autodiff as ad
from missctr import interests as it

rng = np.random.default_rng(4)

# two users, two channels (item and one attribute) in a ten-slot
# buffer: user 0 has eight steps of history (two slots padding), user 1
# is full length
B, J, L, K = 2, 2, 10, 6
mask = np.zeros((B, L))
mask[0, 2:] = 1.0
mask[1, :] = 1.0

C = ad.constant(rng.normal(size=(B, J, L, K)) * mask[:, None, :, None])
conv = it.init_conv_bank(n_branches=3, n_depths=2, rng=rng)

# ---------------------------------------------------------------------------
# time-axis windows: branch m slides a width-m kernel along the history,
# so wider branches see longer interest spans and emit fewer windows

bank = it.mie_forward(C, mask, conv)
print("time-axis branches (windows shrink as kernels widen):")
for bi, branch in enumerate(bank.branches):
    print(f"  width {bi + 1}: output {branch.shape}, user 0 has "
          f"{bank.counts[0, bi]} of {branch.shape[2]} windows free of padding")
print(f"total interest vectors per user at full length: {bank.n_vectors}")

# field-axis refinement: inside each time window, a second bank of
# kernels slides across the J channels
fine = it.mimfe_forward(bank, conv)
print("\nfield-axis refinements (branch, depth) -> map shape:")
for (bi, di), m in sorted(fine.maps.items()):
    print(f"  branch width {bi + 1}, field span {di + 1}: {m.shape}")

# ---------------------------------------------------------------------------
# view pairs: two windows of the same branch, a few steps apart, are
# treated as two looks at one latent interest; each user in the batch
# contributes one row to every pair's view matrices

plan = it.sample_interest_plan(bank, n_pairs=3, max_offset=2, rng=rng)
print("\nsampled view pairs (second view sits `offset` steps after the first):")
for p in range(plan.branch.shape[0]):
    for u in range(plan.branch.shape[1]):
        print(f"  pair {p}, user {u}: branch width {plan.branch[p, u] + 1}, "
              f"anchor {plan.anchor[p, u]}, offset {plan.offset[p, u]}")

# both view sides come back as one stack, the second after the first,
# each pair-major: with n users contributing, row p*n + u is pair p,
# user u.  One encoder pass covers both sides; split into (pairs, n,
# width) halves, every pair set gets its own softmax over its users
views = it.gather_interest_views(bank, plan)
enc = it.init_encoder(J * K, (8,), rng, "enc")
z = it.encode(views, enc)
sides = np.arange(z.shape[0]).reshape(2, plan.n_pairs, -1)
cosines = []
loss = it.infonce(*(ad.gather_rows(z, s) for s in sides), tau=0.5, cosines=cosines)
print(f"\ncontrastive loss over {plan.n_pairs} batched pair sets: {float(loss.data):.4f}")
cos = cosines[0]
print(f"positive-pair cosine after encoding: mean {cos.mean():+.3f} "
      f"(min {cos.min():+.3f}, max {cos.max():+.3f})")
