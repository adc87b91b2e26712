"""Desk-scale numerical verification of the analytical estimates.

Each check evaluates both sides of one inequality or identity on concrete
fields and reports machine-readable ratios, never a bare pass/fail.  Its
pass thresholds are named constants beside it, and its ``*_verdicts``
function turns those results into Verdicts that name the value and the
threshold, as the study verdicts do.  Implied constants are handled by
calibrate-and-freeze: a first run records the observed constant, later
runs assert stability.

All checks are deterministic given their seed and pure per parameter tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .experiments import Verdict
from .spectral import (
    CUTOFFS,
    Grid,
    SpectralField,
    half_inverse_transform,
    hermitize,
    inverse_transform,
    make_grid,
    regrid,
    transform,
)


#: The report every lemma verdict cites, where ``fkdvlab lemmas`` writes.
LEMMA_REPORT = "lemma_checks.json"


def _verdict(name: str, value: float, limit: float, op: str = "<=") -> Verdict:
    """Verdict ``value op limit`` (op one of <=, <, >=), citing LEMMA_REPORT;
    the limit prints as 1e-6, not 1e-06."""
    passed = value < limit if op == "<" else value >= limit if op == ">=" else value <= limit
    mantissa, _, exponent = f"{limit:g}".partition("e")
    shown = f"{mantissa}e{int(exponent)}" if exponent else mantissa
    return Verdict(name, bool(passed), float(value), f"{op} {shown}", LEMMA_REPORT)


def _dispersion(alpha: float, xi):
    """a(xi) = sign(xi) |xi|^(1+alpha): the real odd dispersion function."""
    xi = np.asarray(xi, dtype=float)
    return np.sign(xi) * np.abs(xi) ** (1.0 + alpha)


def _even_trapezoid(half_width: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, half_width] and weights of the trapezoid rule for the
    integral of an even function over [-half_width, half_width]."""
    nodes, h = np.linspace(0.0, half_width, count, retstep=True)
    weights = np.full(count, 2.0 * h)
    weights[[0, -1]] = h
    return nodes, weights


def _uniform_cosine_sums(a, h: float, z_lo: float, dz: float, count: int) -> np.ndarray:
    """sum_j a_j cos(j h z_k) on the uniform grid z_k = z_lo + k dz, k < count.

    Chirp-z transform (Rabiner, Schafer & Rader 1969): with theta = h dz,
    Bluestein's identity jk = (j^2 + k^2 - (k-j)^2)/2 turns the sum into
    Re[e^(i theta k^2/2) sum_j b_j e^(-i theta (k-j)^2/2)] with
    b_j = a_j e^(i (j h z_lo + theta j^2/2)), one linear convolution
    evaluated by zero-padded FFTs of a power-of-two length >= J + K - 1:
    O((J+K) log(J+K)) work for J = len(a) terms and K = count points,
    instead of O(J K).
    """
    n = len(a)
    theta = h * dz
    j = np.arange(n)
    b = a * np.exp(1j * (j * h * z_lo + 0.5 * theta * j * j))
    m = np.arange(1 - n, count)
    chirp = np.exp(-0.5j * theta * m * m)
    size = 1 << (n + count - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(b, size) * np.fft.fft(chirp, size))[n - 1:n - 1 + count]
    k = np.arange(count)
    return (np.exp(0.5j * theta * k * k) * conv).real


@dataclass
class EstimateSweepResult:
    """Parameter tuples with both sides of an estimate and ratio statistics."""

    name: str
    tuples: list = field(default_factory=list)   # dicts of parameters
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)

    def add(self, params: dict, lhs: float, rhs: float) -> None:
        if not (np.isfinite(lhs) and np.isfinite(rhs) and rhs > 0):
            raise ValueError(f"non-finite or non-positive estimate sides: {lhs}, {rhs}")
        self.tuples.append(dict(params))
        self.lhs.append(float(lhs))
        self.rhs.append(float(rhs))

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray(self.lhs) / np.asarray(self.rhs)

    def ratio_stats(self) -> dict:
        r = self.ratios
        return {"max": float(np.max(r)), "median": float(np.median(r)),
                "min": float(np.min(r)), "count": len(r)}

    def to_dict(self) -> dict:
        return {"name": self.name, "tuples": self.tuples, "lhs": self.lhs,
                "rhs": self.rhs, "ratio_stats": self.ratio_stats()}


# ---------------------------------------------------------------------------
# Dispersive sup-norm estimates for the fractional free group
# ---------------------------------------------------------------------------

#: Band-relative test profile: a gaussian bump centered at 1.5 * 2^k with
#: width 2^k / 6, mirrored to even symmetry (real test field).
_BUMP_CENTER = 1.4
_BUMP_INVWIDTH = 3.0

#: Master band-relative quadrature nodes s = xi / 2^k used for the analytic
#: profile norms; shared across bands so dyadic rescalings are exact.
_S_NODES = np.linspace(0.0, 4.0, 8193)


def _bump(s):
    """Profile value at band-relative frequency s = xi / 2^k (even in s)."""
    s = np.abs(np.asarray(s, dtype=float))
    return (np.exp(-(_BUMP_INVWIDTH * (s - _BUMP_CENTER)) ** 2)
            + np.exp(-(_BUMP_INVWIDTH * (s + _BUMP_CENTER)) ** 2))


def _bump_ds(s):
    s = np.asarray(s, dtype=float)
    sa = np.abs(s)
    d = (-2.0 * _BUMP_INVWIDTH ** 2 * (sa - _BUMP_CENTER)
         * np.exp(-(_BUMP_INVWIDTH * (sa - _BUMP_CENTER)) ** 2)
         - 2.0 * _BUMP_INVWIDTH ** 2 * (sa + _BUMP_CENTER)
         * np.exp(-(_BUMP_INVWIDTH * (sa + _BUMP_CENTER)) ** 2))
    return d * np.sign(s)


def _packet_grid(alpha: float, k: int, t: float) -> Grid:
    """Box covering the dispersed band-k packet, oversampled 8x in x.

    For -1 < alpha < 0 the group speed (1+alpha)|xi|^alpha is largest at the
    band's low edge, so v_max bounds the packet's drift.  Every extent term
    scales exactly dyadically, so the grids for (k+1, t) and
    (k, 2^(1+alpha) t) are exact halves of one another and dilation
    identities hold to round-off.
    """
    band_lo = 2.0 ** (k - 1)
    band_hi = 2.0 ** (k + 1)
    v_max = (1.0 + alpha) * band_lo ** alpha
    width_x = 8.0 * _BUMP_INVWIDTH * 2.0 ** (-k)
    curv = abs(alpha * (alpha + 1.0)) * band_lo ** (alpha - 1.0)
    extent = 2.0 * (1.5 * v_max * t + 1.5 * width_x + 8.0 * np.sqrt(t * curv)) + 64.0 * 2.0 ** (-k)
    L = 2.0 ** np.ceil(np.log2(extent))
    dx_target = np.pi / (8.0 * band_hi)
    n = int(2 ** np.ceil(np.log2(L / dx_target)))
    n = min(max(n, 1024), 2 ** 18)
    return make_grid(n, L)


def _evolved_band_sup(alpha: float, k: int, t: float) -> float:
    """sup_x |exp(t*L) P_k g| for the band-k bump, by fine-grid synthesis.

    The field is real: the bump and psi_j are even in xi, the shift and the
    phase conjugate-symmetric.  So it is synthesised from its real-FFT half
    spectrum, which is zero outside the band.
    """
    grid = _packet_grid(alpha, k, t)
    xi = np.arange(grid.n_points // 2 + 1) * grid.dxi
    ghat = _bump(xi / 2.0 ** k)
    # the modes of the support 2^(k-1) < xi < 2^(k+1) of psi_j, one spare
    # each side (psi_j is exactly 0 there)
    band = slice(max(int(2.0 ** (k - 1) / grid.dxi) - 1, 0),
                 int(2.0 ** (k + 1) / grid.dxi) + 2)
    xi_band = xi[band]
    proj = CUTOFFS.psi_j(xi_band, k)
    mass_in = 2.0 * np.sum(ghat[band][proj > 0] ** 2)
    # modes 0 < m < n/2 stand for +-m; the zero and Nyquist modes for one
    mass = 2.0 * np.sum(ghat ** 2) - ghat[0] ** 2 - ghat[-1] ** 2
    if mass_in < (1.0 - 0.02) * mass:
        raise DomainError(
            f"test profile leaks outside the dyadic band 2^{k} "
            f"({1 - mass_in / mass:.2e} of its mass)")
    # center the packet at 0.7 L: the group drifts leftward for -1 < alpha < 0
    shift = np.exp(-1j * xi_band * (0.7 * grid.box_length))
    half = np.zeros(len(xi), dtype=complex)
    half[band] = ghat[band] * proj * shift * np.exp(1j * t * _dispersion(alpha, xi_band))
    u = half_inverse_transform(grid, half)
    edge = max(abs(u[0]), abs(u[-1]))
    peak = float(np.max(np.abs(u)))
    if peak > 0 and edge > 1e-4 * peak:
        raise DomainError("packet reached the box boundary; enlarge the box")
    return peak


#: Sums of the profile norms over _S_NODES at band k = 0: max|g|,
#: 2 int g^2 ds and 2 int (dg/ds)^2 ds.  Band k scales them by exact
#: powers of two (``_profile_norms``).
_S_STEP = _S_NODES[1] - _S_NODES[0]
_GHAT_INF = float(np.max(_bump(_S_NODES)))
_GHAT_SQ = 2.0 * np.sum(_bump(_S_NODES) ** 2) * _S_STEP
_DGHAT_SQ = 2.0 * np.sum(_bump_ds(_S_NODES) ** 2) * _S_STEP


def _profile_norms(k: int) -> dict:
    """Analytic-profile norms on the shared band-relative quadrature: in
    xi = 2^k s, |g|_2^2 scales by 2^k and |dg/dxi|_2^2 by 2^-k."""
    scale = 2.0 ** k
    return {"ghat_inf": _GHAT_INF, "ghat_l2": float(np.sqrt(_GHAT_SQ * scale)),
            "dghat_l2": float(np.sqrt(_DGHAT_SQ / scale))}


def _field_l1(alpha: float, k: int) -> float:
    """L^1 norm of the (unprojected) physical test field at t = 0, from the
    half spectrum of the even bump."""
    grid = _packet_grid(alpha, k, 1.0)
    half = _bump(np.arange(grid.n_points // 2 + 1) * grid.dxi / 2.0 ** k)
    u = half_inverse_transform(grid, half.astype(complex))
    return float(np.sum(np.abs(u)) * grid.dx)


def dispersive_rhs(alpha: float, k: int, t: float) -> dict:
    """Both right-hand sides of the band-wise sup-norm estimates.

    freq:  t^(-1/2) 2^((1-a)k/2) |ghat|_inf
           + t^(-3/4) 2^(-(1+3a)k/4) (|ghat|_2 + 2^k |dghat|_2)
    phys:  t^(-1/2) 2^((1-a)k/2) |g|_L1
    """
    return _dispersive_sides(alpha, k, t, _profile_norms(k), _field_l1(alpha, k))


def _dispersive_sides(alpha: float, k: int, t: float, p: dict, l1: float) -> dict:
    """``dispersive_rhs`` from the t-independent profile norms ``p`` and
    field L^1 norm ``l1`` of band k."""
    lead = t ** -0.5 * 2.0 ** (0.5 * (1.0 - alpha) * k)
    sub = t ** -0.75 * 2.0 ** (-0.25 * (1.0 + 3.0 * alpha) * k)
    return {
        "freq": lead * p["ghat_inf"] + sub * (p["ghat_l2"] + 2.0 ** k * p["dghat_l2"]),
        "phys": lead * l1,
    }


#: Pass threshold of ``check_dispersive_estimate``: largest relative
#: dilation-identity defect (the sweep maxima are recorded, not gated).
DISPERSIVE_DILATION_DEFECT_MAX = 1e-6


def check_dispersive_estimate(alpha: float, k_range=range(-3, 4),
                              t_range=(1.0, 4.0, 16.0, 64.0)) -> dict:
    """Sweep LHS/RHS ratios of the dispersive sup-norm estimates.

    Returns one EstimateSweepResult per estimate form plus the dilation
    identity defect: the ratio at (band k+1, time t) must equal the ratio at
    (band k, time 2^(1+alpha) t), because packet, band and both sides of the
    estimate carry the same dyadic factors.
    """
    if not (-1.0 < alpha < 0.0):
        raise ConfigurationError(f"alpha must lie in (-1, 0), got {alpha}")
    norms = {}

    def rhs_at(k, t):
        # the profile norms and the field's L^1 norm do not depend on t
        if k not in norms:
            norms[k] = (_profile_norms(k), _field_l1(alpha, k))
        return _dispersive_sides(alpha, k, t, *norms[k])

    res_freq = EstimateSweepResult("dispersive_freq_side")
    res_phys = EstimateSweepResult("dispersive_phys_side")
    for k in k_range:
        for t in t_range:
            lhs = _evolved_band_sup(alpha, k, t)
            rhs = rhs_at(k, t)
            params = {"alpha": alpha, "k": int(k), "t": float(t)}
            res_freq.add(params, lhs, rhs["freq"])
            res_phys.add(params, lhs, rhs["phys"])

    k0 = 0
    t0 = 4.0
    r_dilated = (_evolved_band_sup(alpha, k0 + 1, t0)
                 / rhs_at(k0 + 1, t0)["phys"])
    r_rescaled = (_evolved_band_sup(alpha, k0, 2.0 ** (1.0 + alpha) * t0)
                  / rhs_at(k0, 2.0 ** (1.0 + alpha) * t0)["phys"])
    dilation_defect = abs(r_dilated - r_rescaled) / r_rescaled

    return {
        "alpha": alpha,
        "freq_side": res_freq.to_dict(),
        "phys_side": res_phys.to_dict(),
        "dilation_defect": float(dilation_defect),
    }


def dispersive_verdicts(results: dict) -> list[Verdict]:
    """Verdicts on ``check_dispersive_estimate`` results keyed by alpha: the
    dilation defect, and finite sweep maxima (recorded, not gated)."""
    subs = results.values()
    maxima = [sub[side]["ratio_stats"]["max"] for sub in subs
              for side in ("freq_side", "phys_side")]
    return [_verdict("dispersive_dilation_defect", max(sub["dilation_defect"] for sub in subs),
                     DISPERSIVE_DILATION_DEFECT_MAX),
            _verdict("dispersive_sweep_max_ratio", np.max(maxima), np.inf, "<")]


# ---------------------------------------------------------------------------
# Interpolation inequality between band sup, L^1 and weighted L^2 norms
# ---------------------------------------------------------------------------

def _random_band_field(rng: np.random.Generator, k: int, n: int = 1024):
    """Random real field with spectrum in the dyadic band around 2^k.

    Coefficients are attached to band-relative mode offsets, so the same
    draw at k and k+1 produces exact dilates of one another.
    """
    L = 2.0 ** (-k) * 64.0 * np.pi          # dxi = 2^k / 32
    grid = make_grid(n, L)
    idx = grid.mode_index
    band = (np.abs(idx) >= 17) & (np.abs(idx) <= 63)   # |xi|/2^k in (1/2, 2)
    c = np.zeros(n, dtype=complex)
    pos = np.where(band & (idx > 0))[0]
    draws = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    c[pos] = draws
    fld = hermitize(SpectralField(grid, c))
    return grid, fld


def interpolation_members(grid: Grid, fld: SpectralField, k: int) -> tuple[float, float, float]:
    """(band-sup^2, L1^2, weighted-L2 product) members of the chain."""
    xi = grid.wavenumbers
    phat = CUTOFFS.psi_j(xi, k) * fld.coeffs
    pfld = SpectralField(grid, phat)
    u = inverse_transform(pfld)
    sup2 = float(np.max(np.abs(phat))) ** 2
    l1sq = (float(np.sum(np.abs(u)) * grid.dx)) ** 2
    l2 = float(np.sqrt(np.sum(np.abs(phat) ** 2) * grid.dxi))
    xc = grid.x - grid.x_center
    xw = transform(grid, xc * u)
    dl2 = float(np.sqrt(np.sum(np.abs(xw.coeffs) ** 2) * grid.dxi))
    right = 2.0 ** (-k) * l2 * (l2 + 2.0 ** k * dl2)
    return sup2, l1sq, right


#: Pass thresholds of ``check_interpolation_inequality``: both chain
#: maxima may exceed their sharp constants by the relative round-off slack
#: INTERPOLATION_CONSTANT_SLACK; the dilation defect is at most
#: INTERPOLATION_DILATION_DEFECT_MAX.
INTERPOLATION_CONSTANT_SLACK = 1e-9
INTERPOLATION_DILATION_DEFECT_MAX = 1e-6


def check_interpolation_inequality(num_trials: int = 20, seed: int = 0) -> dict:
    """Randomized check of band-sup^2 <= C1 L1^2 <= C2 * weighted-L2 product.

    The sharp constants for this transform normalization are 1/(2*pi) for
    the first step and 2*pi for the second.  Each trial also verifies exact
    dilation covariance: ratios at (g, k) equal ratios at (g(2.), k+1).
    """
    rng = np.random.default_rng(seed)
    res1 = EstimateSweepResult("bandsup_vs_l1")
    res2 = EstimateSweepResult("l1_vs_weighted_l2")
    dilation_defects = []
    for trial in range(num_trials):
        k = int(rng.integers(-3, 4))
        state = rng.bit_generator.state
        grid, fld = _random_band_field(rng, k)
        sup2, l1sq, right = interpolation_members(grid, fld, k)
        params = {"trial": trial, "k": k}
        res1.add(params, sup2, l1sq)
        res2.add(params, l1sq, right)

        rng2 = np.random.default_rng()
        rng2.bit_generator.state = state
        grid_d, fld_d = _random_band_field(rng2, k + 1)
        sup2_d, l1sq_d, right_d = interpolation_members(grid_d, fld_d, k + 1)
        defect = max(abs(sup2_d / l1sq_d - sup2 / l1sq) / (sup2 / l1sq),
                     abs(l1sq_d / right_d - l1sq / right) / (l1sq / right))
        dilation_defects.append(float(defect))
    return {
        "bandsup_vs_l1": res1.to_dict(),
        "l1_vs_weighted_l2": res2.to_dict(),
        "max_dilation_defect": float(np.max(dilation_defects)),
        "sharp_constants": {"bandsup_vs_l1": 1.0 / (2.0 * np.pi),
                            "l1_vs_weighted_l2": 2.0 * np.pi},
    }


def interpolation_verdicts(result: dict) -> list[Verdict]:
    """Verdicts on a ``check_interpolation_inequality`` result."""
    slack = 1 + INTERPOLATION_CONSTANT_SLACK
    return [_verdict(f"interpolation_{chain}_max_ratio", result[chain]["ratio_stats"]["max"],
                     result["sharp_constants"][chain] * slack)
            for chain in ("bandsup_vs_l1", "l1_vs_weighted_l2")] + [
        _verdict("interpolation_dilation_defect", result["max_dilation_defect"],
                 INTERPOLATION_DILATION_DEFECT_MAX)]


# ---------------------------------------------------------------------------
# Near-diagonal expansion of the cubic resonance function
# ---------------------------------------------------------------------------

def resonance_function(alpha: float, xi, eta, sigma):
    """Phi = a(xi) - a(xi-eta-sigma) - a(eta) - a(sigma) with a = sign |.|^(1+alpha)."""
    a = lambda z: _dispersion(alpha, z)
    return a(xi) - a(xi - eta - sigma) - a(eta) - a(sigma)


#: Pass band of ``check_phase_expansion``: every halving ratio of the
#: remainder must lie in [lo, hi] around 8, the cubic rate.
HALVING_RATIO_BAND = (6.5, 9.5)


def check_phase_expansion(alpha: float, xi: float,
                          delta_range=tuple(2.0 ** -j for j in range(6, 13))) -> dict:
    """Remainder of Phi minus its quadratic near-diagonal model is cubic.

    With eta = xi - d, sigma = xi - d the model is a''(xi) d^2; halving d
    must divide the remainder by about 8.  Evaluation too close to the
    xi - eta - sigma = 0 singular locus is refused.
    """
    if xi == 0.0:
        raise DomainError("xi must be nonzero")
    deltas = np.asarray(sorted(delta_range, reverse=True), dtype=float) * abs(xi)
    if np.max(deltas) > abs(xi) / 32.0:
        raise DomainError("offsets exceed |xi|/32; expansion domain violated")
    remainders = []
    quad_coeff = alpha * (alpha + 1.0) * abs(xi) ** (alpha - 1.0)
    for d in deltas:
        eta = xi - d
        sigma = xi - d
        if abs(xi - eta - sigma) < 1e-8 * abs(xi):
            raise DomainError("evaluation too close to the singular locus")
        phi = resonance_function(alpha, xi, eta, sigma)
        model = quad_coeff * d * d
        remainders.append(float(phi - model))
    remainders = np.asarray(remainders)
    ratios = remainders[:-1] / remainders[1:]
    return {
        "alpha": alpha, "xi": xi,
        "deltas": deltas.tolist(),
        "remainders": remainders.tolist(),
        "halving_ratios": ratios.tolist(),
        "quadratic_coefficient": quad_coeff,
    }


def phase_expansion_verdicts(results: dict) -> list[Verdict]:
    """Verdicts on ``check_phase_expansion`` results keyed by alpha: every
    halving ratio inside HALVING_RATIO_BAND (np.min/np.max keep a NaN)."""
    ratios = [r for sub in results.values() for r in sub["halving_ratios"]]
    lo, hi = HALVING_RATIO_BAND
    return [_verdict("phase_expansion_min_halving_ratio", np.min(ratios), lo, ">="),
            _verdict("phase_expansion_max_halving_ratio", np.max(ratios), hi)]


# ---------------------------------------------------------------------------
# Fourier-side identity for the profile derivative (cubic flow)
# ---------------------------------------------------------------------------

def profile_rhs_pseudospectral(fhat: SpectralField, t: float, alpha: float) -> np.ndarray:
    """exp(-t*L) F(-u^2 u_x) with u rebuilt from the profile; alias-free by
    zero-padding to twice the grid."""
    grid = fhat.grid
    a = _dispersion(alpha, grid.wavenumbers)
    big = make_grid(2 * grid.n_points, grid.box_length)
    uhat = SpectralField(grid, np.exp(1j * t * a) * fhat.coeffs)
    u = inverse_transform(regrid(uhat, big))
    w = transform(big, u ** 3 / 3.0)
    rhs = regrid(SpectralField(big, -1j * big.wavenumbers * w.coeffs), grid)
    return np.exp(-1j * t * a) * rhs.coeffs


def profile_rhs_double_sum(fhat: SpectralField, t: float, alpha: float) -> np.ndarray:
    """Direct double Riemann sum over grid wavenumbers of the trilinear
    interaction integral, phases assembled factor by factor from the
    free-flow conjugation.  O(n^3); keep n small."""
    grid = fhat.grid
    n = grid.n_points
    if n > 64:
        raise ConfigurationError("double-sum oracle is O(n^3); use n_points <= 64")
    dxi = grid.dxi
    idx = np.arange(n)
    F = fhat.coeffs
    a_grid = _dispersion(alpha, grid.wavenumbers)
    pair_pos = np.add.outer(idx, idx)             # position sum of (eta, sigma)
    a_eta_sig = np.add.outer(a_grid, a_grid)      # a(eta) + a(sigma)
    F_eta_sig = np.multiply.outer(F, F)
    out = np.zeros(n, dtype=complex)
    for o in range(n):
        rem_pos = o + n - pair_pos                # position of xi - eta - sigma
        valid = (rem_pos >= 0) & (rem_pos < n)
        rp = np.clip(rem_pos, 0, n - 1)
        f_rem = np.where(valid, F[rp], 0.0)
        a_rem = np.where(valid, a_grid[rp], 0.0)
        phases = np.exp(1j * t * (a_rem + a_eta_sig - a_grid[o]))
        total = np.sum(phases * f_rem * F_eta_sig)
        out[o] = -1j / (2.0 * np.pi) * (grid.wavenumbers[o] / 3.0) * total * dxi ** 2
    return out


#: Pass threshold of ``check_trilinear_identity``: largest relative sup
#: difference between the oracle and the pseudospectral derivative.
TRILINEAR_RTOL = 1e-10


def check_trilinear_identity(n_points: int = 16, seed: int = 0,
                             t: float = 0.7, alpha: float = -0.5,
                             amplitude: float = 0.1) -> dict:
    """Double-sum oracle vs pseudospectral profile derivative.

    The oracle carries the one-third coefficient of the divergence-form
    cubic term and the conjugated interaction phases.  Its target is
    ``profile_rhs_pseudospectral``, a separate path zero-padded to 2n; the
    solver's ``equations.nonlinearity`` is not called, so agreement to
    round-off checks the Fourier-side formulation, not the solver kernel.
    """
    if n_points > 64:
        raise ConfigurationError("n_points must be <= 64 for the O(n^3) oracle")
    rng = np.random.default_rng(seed)
    grid = make_grid(n_points, 2.0 * np.pi)
    keep = n_points // 4 - 1
    c = np.zeros(n_points, dtype=complex)
    for k in range(1, keep + 1):
        c[n_points // 2 + k] = rng.normal() + 1j * rng.normal()
    c[n_points // 2] = rng.normal()
    fhat = hermitize(SpectralField(grid, amplitude * c))

    oracle = profile_rhs_double_sum(fhat, t, alpha)
    target = profile_rhs_pseudospectral(fhat, t, alpha)
    scale = float(np.max(np.abs(target)))
    diff = float(np.max(np.abs(oracle - target)))
    return {
        "n_points": n_points, "seed": seed, "t": t, "alpha": alpha,
        "max_abs_target": scale,
        "relative_sup_difference": diff / scale if scale > 0 else 0.0,
    }


def trilinear_verdicts(results: list) -> list[Verdict]:
    """Verdict on a list of ``check_trilinear_identity`` results."""
    return [_verdict("trilinear_max_relative_difference",
                     max(r["relative_sup_difference"] for r in results), TRILINEAR_RTOL)]


# ---------------------------------------------------------------------------
# Pseudo-product trilinear bound
# ---------------------------------------------------------------------------

#: Trapezoid nodes of the kernel quadrature: eta on [0, 8] (h = 0.04) and
#: x on [0, 40] (h = 0.25).  The integrands are entire and gaussian-damped,
#: so the rule converges exponentially: in eta the truncation error is
#: e^-64 and aliasing sqrt(pi) e^-((2 pi/h - x)^2/4) <= e^-3400 for |x| <= 40;
#: in x, |K(x)| = sqrt(pi) e^-(x^2/4) has truncation error e^-400 and
#: aliasing e^-((2 pi/h)^2) = e^-630, so round-off sets the error.
_KERNEL_ETA_NODES = 201
_KERNEL_X_NODES = 161


def _kernel_l1_by_quadrature() -> float:
    """L1 norm of the bare 2-D inverse transform of exp(-eta^2-sigma^2).

    The kernel is separable, so the norm is the square of the 1-D factor
    integral_x |K(x)| dx with K(x) = integral_eta exp(-eta^2) cos(x eta) d eta,
    both by even trapezoid rules: one cosine table times the eta weights
    gives K on the x nodes, one weighted sum integrates |K|.
    """
    eta, w_eta = _even_trapezoid(8.0, _KERNEL_ETA_NODES)
    x, w_x = _even_trapezoid(40.0, _KERNEL_X_NODES)
    kernel = np.cos(np.outer(x, eta)) @ (w_eta * np.exp(-eta * eta))
    return float(w_x @ np.abs(kernel)) ** 2


#: Pass thresholds of ``check_pseudo_product``: the factored route must
#: match the direct double sum to FACTORED_DEFECT_MAX (relative), and every
#: form/bound ratio must stay strictly below PSEUDO_PRODUCT_RATIO_MAX.
FACTORED_DEFECT_MAX = 1e-10
PSEUDO_PRODUCT_RATIO_MAX = 1.0


def check_pseudo_product(seed: int = 0, num_trials: int = 20) -> dict:
    """Trilinear pseudo-product form against the kernel-L1 * mixed-norm bound,
    for the gaussian kernel m(eta, sigma) = exp(-eta^2 - sigma^2).

    For the separable kernel-splitting oracle the direct double sum must
    factor through a one-variable correlation to round-off.
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(128, 16.0 * np.pi)        # dxi = 1/8, |xi| <= 8
    xi = grid.wavenumbers
    dxi = grid.dxi
    n = grid.n_points
    idx = np.arange(n)

    A = _kernel_l1_by_quadrature()
    m1 = np.exp(-xi ** 2)                      # m(eta, sigma) = m1(eta) m1(sigma)

    def random_field():
        c = np.zeros(n, dtype=complex)
        band = 16                              # |xi| <= 2
        for k in range(1, band + 1):
            c[n // 2 + k] = rng.normal() + 1j * rng.normal()
        c[n // 2] = rng.normal()
        return hermitize(SpectralField(grid, 0.3 * c))

    def norms(fld):
        u = inverse_transform(fld)
        return {"l2": float(np.sqrt(np.sum(u * u) * grid.dx)),
                "linf": float(np.max(np.abs(u)))}

    # mode of -eta-sigma for every (eta, sigma) pair, and where it is on the grid
    neg_mode = -(np.add.outer(idx - n // 2, idx - n // 2))
    valid = (neg_mode >= -(n // 2)) & (neg_mode < n // 2)
    np_clip = np.clip(neg_mode + n // 2, 0, n - 1)

    def trilinear(fh, gh, hh):
        # T = sum_{eta,sigma} m1(eta) m1(sigma) fh(eta) gh(sigma) hh(-eta-sigma) dxi^2
        h_neg = np.where(valid, hh[np_clip], 0.0)
        mat = np.multiply.outer(m1 * fh, m1 * gh) * h_neg
        return np.sum(mat) * dxi ** 2

    def trilinear_factored(fh, gh, hh):
        # inner correlation q(eta) = sum_sigma m1(sigma) gh(sigma) hh(-eta-sigma) dxi
        q = np.zeros(n, dtype=complex)
        mg = m1 * gh
        for j in range(n):
            eta_mode = j - n // 2
            sig_modes = idx - n // 2
            h_modes = -eta_mode - sig_modes
            valid = (h_modes >= -(n // 2)) & (h_modes < n // 2)
            hp = np.clip(h_modes + n // 2, 0, n - 1)
            q[j] = np.sum(mg * np.where(valid, hh[hp], 0.0)) * dxi
        return np.sum(m1 * fh * q) * dxi

    trials = []
    factored_defect = 0.0
    for trial in range(num_trials):
        f, g, h = random_field(), random_field(), random_field()
        T = trilinear(f.coeffs, g.coeffs, h.coeffs)
        if trial == 0:
            T2 = trilinear_factored(f.coeffs, g.coeffs, h.coeffs)
            factored_defect = abs(T - T2) / max(1e-300, abs(T))
        nf, ng, nh = norms(f), norms(g), norms(h)
        bounds = {
            "(2,2,inf)": A * nf["l2"] * ng["l2"] * nh["linf"],
            "(2,inf,2)": A * nf["l2"] * ng["linf"] * nh["l2"],
            "(inf,2,2)": A * nf["linf"] * ng["l2"] * nh["l2"],
        }
        trials.append({"trial": trial, "form": abs(T),
                       "ratios": {k: abs(T) / v for k, v in bounds.items()}})
    max_ratio = max(max(tr["ratios"].values()) for tr in trials)
    return {
        "kernel": "gaussian",
        "kernel_l1": A,
        "trials": trials,
        "max_ratio": float(max_ratio),
        "factored_defect": float(factored_defect),
    }


def pseudo_product_verdicts(result: dict) -> list[Verdict]:
    """Verdicts on a ``check_pseudo_product`` result."""
    return [_verdict("pseudo_product_max_ratio", result["max_ratio"],
                     PSEUDO_PRODUCT_RATIO_MAX, "<"),
            _verdict("pseudo_product_factored_defect", result["factored_defect"],
                     FACTORED_DEFECT_MAX)]


# ---------------------------------------------------------------------------
# Oscillatory gaussian and cutoff double integrals
# ---------------------------------------------------------------------------

#: Pass thresholds of ``check_oscillatory_gaussian``: the gaussian
#: quadrature must match its closed form to GAUSSIAN_CLOSED_FORM_ATOL; the
#: fitted decay rate of the cutoff integral's error must be at most
#: CUTOFF_RATE_MAX (the inverse square root upper bound); the error at
#: ``cutoff_N_check`` must stay within ``cutoff_check_bound`` of the fit.
GAUSSIAN_CLOSED_FORM_ATOL = 1e-8
CUTOFF_RATE_MAX = -0.5
CUTOFF_CHECK_FACTOR = 2.0
CUTOFF_CHECK_FLOOR = 1e-9


def cutoff_check_bound(fit_prediction: float) -> float:
    """Largest passing cutoff error at ``cutoff_N_check``: the fitted
    prediction times CUTOFF_CHECK_FACTOR, floored at CUTOFF_CHECK_FLOOR."""
    return CUTOFF_CHECK_FACTOR * max(fit_prediction, CUTOFF_CHECK_FLOOR)


def oscillatory_gaussian_closed_form(N: float) -> float:
    return 2.0 * np.pi * N / np.sqrt(4.0 / N ** 2 + N ** 2)


#: Trapezoid nodes of the oscillatory gaussian quadrature: x on [0, 8N]
#: (h = N/100) and y on [0, cap], cap = min(8N, 80/N) (h = cap/400).  The
#: caps hold each truncated tail below e^-64, and N cap <= 80 keeps the
#: x-rule's aliasing N sqrt(pi) e^-((N (2 pi/h - y))^2/4) below e^-75000
#: (N (2 pi/h - y) >= 628 - 80).  In y the integrand is a gaussian of
#: variance 1/(2 (N^2/4 + 1/N^2)), whose aliasing
#: e^-((2 pi/h)^2 / (4 (N^2/4 + 1/N^2))) stays below e^-940 for every N.
_GAUSSIAN_X_NODES = 801
_GAUSSIAN_Y_NODES = 401


def _gaussian_double_integral(N: float) -> float:
    """int int exp(-(x/N)^2) cos(x y) exp(-(y/N)^2) dx dy over the capped
    box, by even trapezoid rules: the uniform cosine sums of the weighted
    x integrand give the inner integral on the y nodes, one weighted sum
    the outer."""
    cap = min(8.0 * N, 80.0 / N)
    x, w_x = _even_trapezoid(8.0 * N, _GAUSSIAN_X_NODES)
    y, w_y = _even_trapezoid(cap, _GAUSSIAN_Y_NODES)
    inner = _uniform_cosine_sums(w_x * np.exp(-(x / N) ** 2), x[1], 0.0, y[1],
                                 _GAUSSIAN_Y_NODES)
    return float(w_y @ (inner * np.exp(-(y / N) ** 2)))


_PHI_V_NODES, _PHI_V_WEIGHTS = _even_trapezoid(2.0, 2 ** 13 + 1)
_PHI_V_VALUES = CUTOFFS.phi(_PHI_V_NODES)


#: Number of points of the uniform z grid of the cutoff double integral.
_Z_POINTS = 4001


def _cutoff_profile_transform(z_lo: float, z_hi: float, count: int) -> np.ndarray:
    """Bare cosine transform 2 * int_0^2 phi(v) cos(v z) dv on the uniform
    grid z = linspace(z_lo, z_hi, count), by the trapezoid rule in v; both
    the v nodes and the z points are uniform, so the sums are one chirp-z
    transform (``_uniform_cosine_sums``)."""
    dz = (z_hi - z_lo) / (count - 1)
    return _uniform_cosine_sums(_PHI_V_WEIGHTS * _PHI_V_VALUES, _PHI_V_NODES[1],
                                z_lo, dz, count)


def _cutoff_deviation(N: float) -> float:
    """2*pi minus int int cos(xy) phi(x/N) phi(y/N) dx dy, via the exact
    reduction (x, y) -> (x/N, N y) to int PhiHat(z) phi(z/N^2) dz with
    PhiHat the bare cosine transform of phi.  The deviation from
    2*pi*phi(0) lives on z >= N^2 where the complementary cutoff
    1 - phi(z/N^2) is supported; it is returned as computed, not as a
    difference of two numbers near 2*pi, so it keeps its own precision."""
    n2 = N * N
    z = np.linspace(n2, 2.0 * n2, _Z_POINTS)
    tail = (_cutoff_profile_transform(n2, 2.0 * n2, _Z_POINTS)
            * (1.0 - CUTOFFS.phi(z / n2)))
    return 2.0 * np.trapezoid(tail, z)


def check_oscillatory_gaussian(N_list=(1.0, 10.0), cutoff_N_list=(3.0, 4.0, 6.0),
                               cutoff_N_check: float = 8.0) -> dict:
    """Quadrature vs closed form for the oscillatory gaussian integral, and
    decay-rate fit for its smooth-cutoff variant approaching 2*pi."""
    gaussian = []
    for N in N_list:
        value = _gaussian_double_integral(N)
        closed = oscillatory_gaussian_closed_form(N)
        gaussian.append({"N": N, "quadrature": value, "closed_form": closed,
                         "abs_error": abs(value - closed)})

    cutoff = []
    for N in cutoff_N_list:
        deviation = _cutoff_deviation(N)
        cutoff.append({"N": N, "value": 2.0 * np.pi - deviation, "error": abs(deviation)})
    Ns = np.array([c["N"] for c in cutoff])
    errs = np.array([max(c["error"], 1e-14) for c in cutoff])
    slope, intercept = np.polyfit(np.log(Ns), np.log(errs), 1)
    check_err = abs(_cutoff_deviation(cutoff_N_check))
    predicted = float(np.exp(intercept + slope * np.log(cutoff_N_check)))
    return {
        "gaussian": gaussian,
        "cutoff": cutoff,
        "cutoff_rate": float(slope),
        "cutoff_check": {"N": cutoff_N_check, "error": check_err,
                         "fit_prediction": predicted},
    }


def oscillatory_verdicts(result: dict) -> list[Verdict]:
    """Verdicts on a ``check_oscillatory_gaussian`` result."""
    check = result["cutoff_check"]
    return [_verdict("oscillatory_gaussian_closed_form_error",
                     max(g["abs_error"] for g in result["gaussian"]),
                     GAUSSIAN_CLOSED_FORM_ATOL),
            _verdict("oscillatory_cutoff_rate", result["cutoff_rate"], CUTOFF_RATE_MAX),
            _verdict(f"oscillatory_cutoff_error_at_N{check['N']:g}", check["error"],
                     cutoff_check_bound(check["fit_prediction"]))]


#: Every check as ``fkdvlab lemmas`` runs it: name -> (run(seed), verdicts).
LEMMA_CHECKS = {
    "dispersive": (lambda seed: {f"alpha={a}": check_dispersive_estimate(a)
                                 for a in (-0.8, -0.5, -0.2)}, dispersive_verdicts),
    "interpolation": (lambda seed: check_interpolation_inequality(seed=seed),
                      interpolation_verdicts),
    "phase_expansion": (lambda seed: {f"alpha={a}": check_phase_expansion(a, 1.0)
                                      for a in (-0.8, -0.5, -0.2)},
                        phase_expansion_verdicts),
    "trilinear": (lambda seed: [check_trilinear_identity(16, s) for s in range(5)],
                  trilinear_verdicts),
    "pseudo_product": (lambda seed: check_pseudo_product(seed=seed),
                       pseudo_product_verdicts),
    "oscillatory": (lambda seed: check_oscillatory_gaussian(), oscillatory_verdicts),
}
