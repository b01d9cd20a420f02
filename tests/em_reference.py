"""Whole-array reference forms of the mixture's per-score passes: squared
residuals, log weights and the E pass, each one numpy call over a whole
(4, n) array.

The engine runs these passes in column blocks of gmm.EM_BLOCK scores. Every
operation in them works on one column at a time, so tests compare the
engine with these forms bit for bit. Nothing here is imported by the
package.
"""

import numpy as np

from activeadapt.gmm import _EmKernel
from step_reference import logsumexp_ref


def to_log_weights_ref(sq, params):
    """In place: squared residuals about params.mu become
    log(pi_k * N(s_j; mu_k, sigma2_k))."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
    sq *= (-0.5 / params.sigma2)[:, None]
    sq += (log_pi - 0.5 * np.log(2 * np.pi * params.sigma2))[:, None]
    return sq


def squared_residuals_ref(scores, mu, out=None):
    out = np.subtract(scores, mu[:, None], out=out)
    return np.square(out, out=out)


def posteriors_ref(scores, params):
    """(n, 4) posteriors, one log-sum-exp over the whole (4, n) array."""
    scores = np.asarray(scores, dtype=float).ravel()
    lw = to_log_weights_ref(squared_residuals_ref(scores, params.mu), params)
    logsumexp_ref(lw, axis=0, softmax_out=lw)
    return lw.T


class WholeArrayKernel(_EmKernel):
    """_EmKernel with its residual and E passes over the whole arrays; the
    M step is the engine's own."""

    def residuals(self, mu):
        squared_residuals_ref(self.ls, mu, out=self.sq_l)
        squared_residuals_ref(self.us, mu, out=self.sq)

    def e_pass(self, params):
        total = 0.0
        lw_l = to_log_weights_ref(self.sq_l, params)
        if self.a > 0:
            total += self.a * lw_l[self.picks].sum()
        lw = to_log_weights_ref(self.sq, params)
        log_mix = logsumexp_ref(lw, axis=0, softmax_out=lw)
        if self.b > 0:
            total += self.b * log_mix.sum()
        self.resp, self.sq = lw, self.resp
        return float(total)
