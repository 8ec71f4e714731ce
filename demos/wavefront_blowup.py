"""Factor stability deep in the chamber versus next to a wall.

Each probe nudges g by exp(eps X) with X of unit metric norm and
reports how far every factor moves, divided by eps.  Deep inside the
chamber all ratios are order one.  Near a wall the k and h factors
swing wildly while the scales stay put; joining the close wall (the
coarse view, measured in the same pass) restores a bounded frame
displacement.
"""

import numpy as np

from qfsectors import sampling
from qfsectors.cartan import weyl_matrix
from qfsectors.wavefront import chamber_point, fine_probe

SIGNATURE = (2, 1)


def base_point(margins, seed):
    rng = sampling.derive_rng(seed, "demo-base")
    avec = np.exp(chamber_point(margins))
    k0 = sampling.random_rotation(rng, 3)
    h0 = sampling.random_indefinite_orthogonal(rng, 2, 1, scale=0.4)
    return k0 @ (avec[:, None] * (weyl_matrix((1, 1, -1), SIGNATURE) @ h0))


def show(tag, r):
    print(f"{tag:<18} k = {r.ratio_k:10.3f}  a = {r.ratio_a:7.3f}  h = {r.ratio_h:10.3f}")


if __name__ == "__main__":
    eps = 1e-4
    deep = base_point([0.8, 0.9], seed=3)
    near = base_point([0.01, 0.9], seed=3)

    show("deep chamber", fine_probe(deep, SIGNATURE, eps, 8, seed=5))
    # one pass over the same perturbations gives both views of the near point
    r = fine_probe(near, SIGNATURE, eps, 8, seed=5, joined=(1,))
    show("margin 0.01", r)
    print(f"{'joined wall 1':<18} aI = {r.ratio_coarse_aI:.3f}  "
          f"frame = {r.ratio_coarse_frame:.3f}")
