#!/usr/bin/env python3
"""Regenerate data/degrees_10k.txt, the bundled empirical degree file.

10^4 vertices shaped like the large social-network datasets: directed
degrees with a gamma = 2.5 power-law tail, undirected degrees with a
lighter gamma = 3.5 tail.  The out column is a fixed permutation of the
in column, so the file balances exactly (sum in = sum out) and the
undirected column is nudged to an even sum — the file could be the
degree sequence of an actual partially directed graph.

Deterministic: reruns reproduce the file byte for byte (seed below).
"""
import sys
from pathlib import Path

import numpy as np

from pdcm.degrees import JointDegreeDistribution, sample_sequence
from pdcm.rng import derive_seed, make_generator

SEED = 20260815
N = 10_000
OUT = Path(__file__).parent.parent / "data" / "degrees_10k.txt"
HEADER = ("# joint degree file: in out und, one vertex per line\n",
          f"# {N} vertices, regenerate with scripts/make_degree_fixture.py\n")


def build() -> np.ndarray:
    directed = JointDegreeDistribution.scale_free(2.5, "independent")
    light = JointDegreeDistribution.scale_free(3.5, "independent")
    d_in = sample_sequence(directed, N, derive_seed(SEED, 0)).triples[:, 0].copy()
    d_out = d_in[make_generator(derive_seed(SEED, 1)).permutation(N)]
    d_und = sample_sequence(light, N, derive_seed(SEED, 2)).triples[:, 2].copy()
    if d_und.sum() % 2:
        d_und[0] += 1
    return np.column_stack([d_in, d_out, d_und])


def main() -> int:
    deg = build()
    means = deg.mean(axis=0)
    with open(OUT, "w") as fh:
        fh.writelines(HEADER)
        np.savetxt(fh, deg, fmt="%d")
    print(f"wrote {OUT}")
    print(f"  means in/out/und = {means[0]:.3f}/{means[1]:.3f}/{means[2]:.3f}")
    print(f"  sums   in={deg[:, 0].sum()} out={deg[:, 1].sum()} "
          f"und={deg[:, 2].sum()} (even)")
    print(f"  max    in={deg[:, 0].max()} out={deg[:, 1].max()} "
          f"und={deg[:, 2].max()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
