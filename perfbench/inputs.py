"""Seeded input datasets for the benchmark workloads.

The generator uses only numpy's ``default_rng`` and the standard ``csv``
writer, never the package's own writer or simulator, so a change to the
package cannot change the inputs it is measured on.  Floats are written
with ``repr`` (shortest round-trip form), so the arrays returned here are
exactly what the program parses back.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Columns of one generated dataset, as written to its CSV."""

    area_ids: list
    z: np.ndarray  # (m,)
    w: np.ndarray  # (m, p)
    psi: np.ndarray  # (m,)
    sigma: np.ndarray  # (m, p, p), symmetric

    @property
    def m(self) -> int:
        return self.z.size

    @property
    def p(self) -> int:
        return self.w.shape[1]


# Structural parameters of the generating model: coefficients, area-effect
# variance and the Gamma(shape, scale) law of the sampling variances.
BETA = 1.0
SIGMA2_NU = 2.0
PSI_SHAPE, PSI_SCALE = 2.0, 0.25


def make_dataset(seed: int, index: int, m: int, p: int) -> Dataset:
    """Dataset ``index`` of ``seed``: ``m`` areas with ``p`` covariates,
    drawn from the model the package fits.

    ``z = W beta + nu + e`` on the latent covariates ``W``; the observed
    covariates are ``w = W + eta`` with ``eta ~ N(0, Sigma_i)``, and half
    of the areas have a nonzero, positive-definite ``Sigma_i``.  The
    area-effect variance is large against the sampling variances, so the
    variance estimate, and every bootstrap refit of it, stays off its
    zero boundary, where the package's fixed-point iteration can stop at
    its iteration cap.
    """
    gen = np.random.default_rng([seed, index, m, p])
    latent = gen.normal(2.0, 1.0, size=(m, p))
    psi = gen.gamma(PSI_SHAPE, PSI_SCALE, size=m)
    sigma = np.zeros((m, p, p))
    noisy = np.sort(gen.choice(m, size=m // 2, replace=False))
    root = gen.normal(0.0, 0.3, size=(noisy.size, p, p))
    sigma[noisy] = root @ np.swapaxes(root, 1, 2) + 0.01 * np.eye(p)
    w = latent.copy()
    w[noisy] += np.einsum(
        "ipq,iq->ip", np.linalg.cholesky(sigma[noisy]), gen.standard_normal((noisy.size, p))
    )
    nu = np.sqrt(SIGMA2_NU) * gen.standard_normal(m)
    z = latent @ np.full(p, BETA) + nu + np.sqrt(psi) * gen.standard_normal(m)
    area_ids = [f"area_{i + 1}" for i in range(m)]
    return Dataset(area_ids=area_ids, z=z, w=w, psi=psi, sigma=sigma)


def header(p: int) -> list[str]:
    sme = [f"sme_{j}_{k}" for j in range(1, p + 1) for k in range(1, j + 1)]
    return ["area_id", "z", *(f"w_{j}" for j in range(1, p + 1)), "psi", *sme]


def write_csv(data: Dataset, path) -> str:
    """Write the dataset in full-triangle form; return the file's sha256."""
    p = data.p
    lower = [(j, k) for j in range(p) for k in range(j + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header(p))
        for i, area_id in enumerate(data.area_ids):
            s = data.sigma[i]
            writer.writerow(
                [
                    area_id,
                    repr(float(data.z[i])),
                    *(repr(float(v)) for v in data.w[i]),
                    repr(float(data.psi[i])),
                    *(repr(float(s[j, k])) for j, k in lower),
                ]
            )
    return sha256_file(path)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
