"""Four-component Gaussian mixture over scalar informativeness scores,
fitted by Anderson-accelerated semi-supervised EM.

Labeled scores arrive with a hard component assignment (their observation
label) and keep a one-hot responsibility through every iteration; unlabeled
scores get soft posterior responsibilities. The M step blends the two sides
with weight alpha on labeled sums and (1 - alpha) on unlabeled sums. All
density arithmetic runs in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import all_finite, checked_labels, logsumexp

N_COMPONENTS = 4
VARIANCE_FLOOR = 1e-6
RESPONSIBILITY_FLOOR = 1e-12


def _checked_components(components) -> np.ndarray:
    """Flat integer component ids; ValueError unless every one is a whole
    number in 1..N_COMPONENTS."""
    return checked_labels(
        np.ravel(components), N_COMPONENTS, 1, f"components must lie in 1..{N_COMPONENTS}"
    )


@dataclass(frozen=True)
class GmmParams:
    """Mixture weights, means, and variances of the four components; every
    entry must be finite (ValueError naming the field)."""

    pi: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        for name in ("pi", "mu", "sigma2"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, value)
            if value.shape != (N_COMPONENTS,):
                raise ValueError(f"{name} must have shape ({N_COMPONENTS},)")
            if not all_finite(value):
                raise ValueError(f"{name} must be finite, got {value.tolist()}")
        # the range test first: weights in [-1e-12, 2] cannot overflow their sum
        if ((self.pi < -1e-12) | (self.pi > 2)).any() or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be a probability vector")
        if (self.sigma2 < VARIANCE_FLOOR * (1 - 1e-9)).any():
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")

    def as_tuple(self):
        return self.pi, self.mu, self.sigma2

    def max_abs_diff(self, other: "GmmParams") -> float:
        return max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(self.as_tuple(), other.as_tuple())
        )


@dataclass
class GmmTrainSet:
    """Scores feeding one EM fit.

    labeled_components take values in 1..4. alpha defaults to the labeled
    fraction |D_L| / (|D_L| + |D_U|), a proper convex weight; pass an
    explicit value to override. Every score must be finite (ValueError,
    naming the side and the first bad index).
    """

    labeled_scores: np.ndarray
    labeled_components: np.ndarray
    unlabeled_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha: float | None = None

    def __post_init__(self):
        self.labeled_scores = np.asarray(self.labeled_scores, dtype=float).ravel()
        self.labeled_components = _checked_components(self.labeled_components)
        self.unlabeled_scores = np.asarray(self.unlabeled_scores, dtype=float).ravel()
        for side in ("labeled", "unlabeled"):
            scores = getattr(self, f"{side}_scores")
            if not all_finite(scores):
                i = int(np.argmin(np.isfinite(scores)))
                raise ValueError(f"{side} score {i} is not finite ({scores[i]})")
        if self.labeled_scores.size == 0:
            raise ValueError("EM initialization needs at least one labeled score")
        if self.labeled_scores.shape != self.labeled_components.shape:
            raise ValueError("labeled scores and components must align")
        if self.alpha is None:
            n_l, n_u = self.labeled_scores.size, self.unlabeled_scores.size
            self.alpha = n_l / (n_l + n_u)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


# -- densities ---------------------------------------------------------------
#
# Everything per score is component-major: row k of a (4, n) array holds
# component k, so each reduction over scores runs along contiguous memory.

# Above SKETCH_ROWS unlabeled scores the mixture is fitted on a weighted
# sketch of them (sketched), as in EM for grouped data (McLachlan and
# Jones, Biometrics 1988) and coreset GMM training (Lucic et al., JMLR 2018).
SKETCH_ROWS = 2**15


def sketched(ts: GmmTrainSet) -> GmmTrainSet:
    """ts itself up to SKETCH_ROWS unlabeled scores. Above, the middle score
    of each group of m = ceil(n_u / SKETCH_ROWS) sorted scores stands for
    the group, and alpha = a / (a + (n_u / n_s)(1 - a)) for ts.alpha = a and
    n_s sketch scores keeps the sides' weight ratio, (1 - a) n_u / (a n_l)."""
    n_u = ts.unlabeled_scores.size
    if n_u <= SKETCH_ROWS:
        return ts
    m = -(-n_u // SKETCH_ROWS)
    starts = np.arange(0, n_u, m)
    sketch = np.sort(ts.unlabeled_scores)[starts + np.minimum(m, n_u - starts) // 2]
    a = ts.alpha
    alpha = a / (a + n_u / sketch.size * (1.0 - a))
    return GmmTrainSet(ts.labeled_scores, ts.labeled_components, sketch, alpha)


def _squared_residuals(scores: np.ndarray, mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(s_j - mu_k)^2 at [k, j], written into out."""
    np.subtract(scores, mu[:, None], out=out)
    return np.square(out, out=out)


def _to_log_weights(sq: np.ndarray, params: GmmParams) -> np.ndarray:
    """In place: the (4, n) squared residuals about params.mu become the log
    weighted densities log(pi_k N(s_j; mu_k, sigma2_k)). Their log-sum-exp
    over k is the log mixture density, and their softmax the posteriors
    Pr(z=k | s_j): scaling all four weighted densities of a score by a
    common constant cancels."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
    sq *= (-0.5 / params.sigma2)[:, None]
    sq += (log_pi - 0.5 * np.log(2 * np.pi * params.sigma2))[:, None]
    return sq


def component_posteriors(scores, params: GmmParams) -> np.ndarray:
    """Posterior membership Pr(z=k | score) for each score, rows summing
    to 1."""
    scores = np.asarray(scores, dtype=float).ravel()
    sq = _squared_residuals(scores, params.mu, np.empty((N_COMPONENTS, scores.size)))
    logsumexp(_to_log_weights(sq, params), softmax_out=sq)
    return sq.T


def component_posterior(score: float, params: GmmParams) -> np.ndarray:
    return component_posteriors([score], params)[0]


# -- semi-supervised EM ------------------------------------------------------


def init_from_labeled(labeled_scores, labeled_components) -> GmmParams:
    """Starting parameters from the hard-assigned scores alone.

    Weights are Laplace-smoothed counts, (count_k + 1) / (N + 4), and empty
    or singleton components fall back to the global mean/variance so no
    component starts degenerate.
    """
    scores = np.asarray(labeled_scores, dtype=float).ravel()
    comps = _checked_components(labeled_components)
    if scores.size == 0:
        raise ValueError("EM initialization needs at least one labeled score")
    counts = np.bincount(comps - 1, minlength=N_COMPONENTS)[:N_COMPONENTS]
    N = scores.size
    pi = (counts + 1.0) / (N + N_COMPONENTS)
    global_mu = float(scores.mean())
    global_var = float(scores.var())
    mu = np.full(N_COMPONENTS, global_mu)
    sigma2 = np.full(N_COMPONENTS, max(global_var, VARIANCE_FLOOR))
    for k in range(N_COMPONENTS):
        own = scores[comps == k + 1]
        if own.size >= 1:
            mu[k] = own.mean()
        if own.size >= 2:
            sigma2[k] = max(own.var(), VARIANCE_FLOOR)
    return GmmParams(pi=pi, mu=mu, sigma2=sigma2)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[k, j] b[k, j] for each row k. einsum uses no BLAS, so its
    sums do not depend on the BLAS thread count, where a BLAS dot product
    split across threads adds its partial sums in another order."""
    return np.einsum("ij,ij->i", a, b)


class _EmKernel:
    """One train set's EM state: one log-density pass over the scores per
    iteration gives both the objective of the current parameters and the
    responsibilities the next M step needs.

    Unlabeled responsibilities and squared residuals live in two reused
    (4, n_u) buffers that swap roles every pass. The labeled side's
    responsibilities (one-hot at the observation labels), its mass and its
    score sums are fixed for the fit and computed once here.
    """

    def __init__(self, ts: GmmTrainSet):
        self.a, self.b = ts.alpha, 1.0 - ts.alpha
        self.ls, self.us = ts.labeled_scores, ts.unlabeled_scores
        n_l, n_u = self.ls.size, self.us.size
        self.total_weight = self.a * n_l + self.b * n_u
        self.picks = (ts.labeled_components - 1, np.arange(n_l))
        self.resp_l = np.zeros((N_COMPONENTS, n_l))
        self.resp_l[self.picks] = 1.0
        self.mass_l, self.sum_l = self.resp_l.sum(axis=1), self.resp_l @ self.ls
        self.sq_l = np.empty((N_COMPONENTS, n_l))
        self.resp = np.empty((N_COMPONENTS, n_u))
        self.sq = np.empty((N_COMPONENTS, n_u))

    def residuals(self, mu: np.ndarray) -> None:
        _squared_residuals(self.ls, mu, out=self.sq_l)
        _squared_residuals(self.us, mu, out=self.sq)

    def e_pass(self, params: GmmParams) -> float:
        """With the squared residuals about params.mu in place: the
        responsibilities under params into self.resp, and the weighted
        log-likelihood of params (the objective EM ascends) returned: alpha
        times the complete-data log-likelihood of the hard-assigned labeled
        scores plus (1 - alpha) times the mixture log-likelihood of the
        unlabeled scores."""
        total = 0.0
        if self.a > 0:
            total += self.a * _to_log_weights(self.sq_l, params)[self.picks].sum()
        log_mix = logsumexp(_to_log_weights(self.sq, params), softmax_out=self.sq)
        if self.b > 0:
            total += self.b * log_mix.sum()
        self.resp, self.sq = self.sq, self.resp
        return float(total)

    def m_step(self, prev: GmmParams) -> GmmParams:
        """Parameters from self.resp (u) and the labeled responsibilities
        (g), leaving the squared residuals about the new means in place.

        With a = alpha and b = 1 - alpha:

          pi_k     = (a sum_i g_ik + b sum_j u_jk) / (a n_l + b n_u)
          mu_k     = (a sum_i g_ik l_i + b sum_j u_jk l_j) / (a sum g + b sum u)
          sigma2_k = same form with squared residuals about the new mu_k

        A component whose total weighted responsibility falls below 1e-12
        keeps its previous mean and variance and still receives pi from the
        formula. Variances are floored at 1e-6.
        """
        a, b = self.a, self.b
        mass = a * self.mass_l + b * self.resp.sum(axis=1)
        pi = mass / self.total_weight
        alive = mass >= RESPONSIBILITY_FLOOR
        safe_mass = np.where(alive, mass, 1.0)
        mu_num = a * self.sum_l + b * (self.resp @ self.us)
        mu = np.where(alive, mu_num / safe_mass, prev.mu)
        self.residuals(mu)
        var_num = a * _row_dots(self.resp_l, self.sq_l) + b * _row_dots(self.resp, self.sq)
        sigma2 = np.where(alive, np.maximum(var_num / safe_mass, VARIANCE_FLOOR), prev.sigma2)
        return GmmParams(pi=pi, mu=mu, sigma2=sigma2)


@dataclass
class EmFit:
    """A finished fit. converged is true when a plain EM step changed no
    parameter by tol or more, false when the fit stopped at max_iter.
    n_iter counts accepted updates: len(objective_trace) - 1."""

    params: GmmParams
    n_iter: int
    objective: float
    objective_trace: list[float]
    converged: bool


ANDERSON_MEMORY = 2  # residual differences in each least-squares solve


def _coordinates(params: GmmParams) -> np.ndarray:
    """Log weights, means and log variances (-inf for a weight at 0). Here
    weights and variances stay positive and keep their relative precision."""
    with np.errstate(divide="ignore"):
        return np.concatenate([np.log(params.pi), params.mu, np.log(params.sigma2)])


def _anderson_point(xs: list[np.ndarray], gs: list[np.ndarray]) -> GmmParams | None:
    """The type-II Anderson point of the pairs (theta, G(theta)) in _coordinates:
    gamma minimises |f_last - dF gamma| for residuals f = G(theta) - theta, and
    the point is G_last - dG gamma, dF and dG differencing consecutive pairs.
    None for one pair, a coordinate not finite or a variance below the floor."""
    x, g = np.array(xs), np.array(gs)
    if len(x) < 2 or not np.isfinite([x, g]).all():
        return None
    f = g - x
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    log_pi, mu, log_sigma2 = np.split(g[-1] - gamma @ np.diff(g, axis=0), 3)
    with np.errstate(over="ignore", invalid="ignore"):
        pi, sigma2 = np.exp(log_pi - log_pi.max()), np.exp(log_sigma2)
    if not np.isfinite([*log_pi, *mu, *sigma2]).all() or (sigma2 < VARIANCE_FLOOR).any():
        return None
    return GmmParams(pi=pi / pi.sum(), mu=mu, sigma2=sigma2)


def run_em(
    trainset: GmmTrainSet, max_iter: int = 200, tol: float = 1e-6
) -> EmFit:
    """EM with type-II Anderson acceleration (Henderson & Varadhan, JCGS
    2019) over the 12 mixture scalars, safeguarded so that the objective
    never falls.

    Every iteration takes the plain EM step G(theta). Every second one
    first tries the Anderson point of the last ANDERSON_MEMORY + 1 pairs
    (theta, G(theta)) and keeps it when it is a valid mixture whose
    objective, from one E pass, is at least the last one (a rejected point
    costs that pass, so one tried every iteration cost more in all);
    otherwise the fit takes the plain step. The fit stops when a plain step
    changes no parameter by tol or more (converged, the plain step taken),
    or after max_iter updates. Deterministic: the labeled anchors fix the
    starting point, so there is no random restart.

    objective_trace[t] is the objective after t accepted updates, plain
    steps and Anderson points alike. So the trace never decreases (up to
    rounding in the plain steps), n_iter = len(objective_trace) - 1 <=
    max_iter, and objective = objective_trace[-1].
    """
    params = init_from_labeled(trainset.labeled_scores, trainset.labeled_components)
    kernel = _EmKernel(trainset)
    kernel.residuals(params.mu)
    trace = [kernel.e_pass(params)]
    converged = False
    xs, gs = [], []  # the last pairs (theta, G(theta)), in _coordinates
    while not converged and len(trace) <= max_iter:
        new = kernel.m_step(params)
        converged = new.max_abs_diff(params) < tol
        xs = xs[-ANDERSON_MEMORY:] + [_coordinates(params)]
        gs = gs[-ANDERSON_MEMORY:] + [_coordinates(new)]
        point = _anderson_point(xs, gs) if len(trace) % 2 and not converged else None
        if point is not None:
            kernel.residuals(point.mu)
            objective = kernel.e_pass(point)
            if objective >= trace[-1]:
                trace.append(objective)
                params = point
                continue
            kernel.residuals(new.mu)
        trace.append(kernel.e_pass(new))
        params = new
    return EmFit(params, len(trace) - 1, trace[-1], trace, converged)


def fit_gmm(trainset: GmmTrainSet) -> GmmParams:
    return run_em(trainset).params

