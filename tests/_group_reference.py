"""The first form of the ``GroupL2`` kernel, kept as the bit reference of
its rewrite: every per-block factor expanded with ``np.repeat``, the
inactive blocks selected with ``np.where`` and ``np.ones_like``, and the
coordinates gathered into block order and scattered back on each call."""

import numpy as np

from proxqn.prox import GroupL2, _check_weights


class RepeatGroupL2(GroupL2):
    """``GroupL2`` with the kernel it had before its segment map."""

    def __init__(self, lam, blocks):
        super().__init__(lam, blocks)
        self._order = np.concatenate(self.blocks)
        self._sizes = np.array([len(b) for b in self.blocks])

    def check_weights(self, d, n):
        if n != self.dim:
            raise ValueError(f"point has dimension {n}, expected {self.dim}")
        d = _check_weights(d, n)
        dp = d[self._order]
        if np.any(np.abs(dp - np.repeat(dp[self._starts], self._sizes))
                  > 1e-12 * np.abs(dp)):
            raise ValueError("diagonal weights must be constant within blocks")
        return d

    def _block_norms(self, z):
        zp = z[self._order]
        return np.sqrt(np.add.reduceat(zp * zp, self._starts)), zp

    def _shrink(self, z, thresh):
        norms, zp = self._block_norms(z)
        scale = 1.0 - np.divide(thresh, norms, out=np.ones_like(norms),
                                where=norms > thresh)
        return norms, zp, thresh, scale

    def _prox_diag(self, x, d, kappa):
        return self._step(x, kappa * self.lam / d[self._firsts])[0]

    def _step(self, z, thresh, out=None):
        parts = self._shrink(z, thresh)
        p = np.empty_like(z) if out is None else out
        p[self._order] = np.repeat(parts[3], self._sizes) * parts[1]
        return p, parts

    def _jvp_from(self, M, norms, zp, thresh, scale):
        safe = np.where(norms > 0, norms, 1.0)
        curv = np.where(norms > thresh, thresh / safe ** 3, 0.0)
        Mp = M[self._order]
        zdotM = np.add.reduceat(zp[:, None] * Mp, self._starts, axis=0)
        outp = np.repeat(scale, self._sizes)[:, None] * Mp + (
            np.repeat(curv, self._sizes)[:, None] * zp[:, None]
        ) * np.repeat(zdotM, self._sizes, axis=0)
        out = np.empty_like(M)
        out[self._order] = outp
        return out

    def prox_diag_jvp(self, z, d, kappa, M):
        M = np.atleast_2d(np.asarray(M, dtype=float).T).T
        return self._jvp_from(M, *self._shrink(
            np.asarray(z, dtype=float), kappa * self.lam / d[self._firsts]))

    def _bind(self, d, kappa):
        thresh = np.asarray(
            kappa * self.lam / (d[self._firsts] if np.ndim(d) else d))

        def step(z, out=None, tmp=None):
            p, parts = self._step(z, thresh, out)

            def jac(w, out=None):
                if w.ndim == 2:
                    return self._jvp_from(w, *parts)
                return self._jvp_from(w[:, None], *parts)[:, 0]
            return p, jac
        return step
