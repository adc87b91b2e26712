"""Desk-scale numerical verification of the analytical estimates.

Each check evaluates both sides of one inequality or identity on concrete
fields and reports machine-readable ratios, never a bare pass/fail.  Its
pass thresholds are named constants beside it, and its ``*_verdicts``
function turns those results into Verdicts that name the value and the
threshold, as the study verdicts do.

All checks are deterministic given their seed and pure per parameter tuple.

Fields are drawn and synthesised as half spectra, as everywhere else; the
sums over every wavenumber, whose pinned results depend on their ascending
order, read ``spectral.whole_spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError
from .experiments import Verdict
from .spectral import (_SQRT_2PI, CUTOFFS, Grid, check_alpha, dispersion, inverse_transform,
                       make_grid, transform, whole_spectrum, whole_wavenumbers)


#: The report every lemma verdict cites, where ``fkdvlab lemmas`` writes.
LEMMA_REPORT = "lemma_checks.json"


def _verdict(name: str, value: float, limit: float, op: str = "<=") -> Verdict:
    """Verdict ``value op limit`` (op one of <=, <, >=), citing LEMMA_REPORT;
    the limit prints as 1e-6, not 1e-06."""
    passed = value < limit if op == "<" else value >= limit if op == ">=" else value <= limit
    mantissa, _, exponent = f"{limit:g}".partition("e")
    shown = f"{mantissa}e{int(exponent)}" if exponent else mantissa
    return Verdict(name, bool(passed), float(value), f"{op} {shown}", LEMMA_REPORT)


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
    """Box covering the dispersed band-k packet, oversampled 8x in x, on at
    most 2^18 points; a grid that cap leaves without the band is refused.

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
    if np.pi * n / L < band_hi:
        raise DomainError(
            f"the 2^18-point grid cap puts the Nyquist frequency {np.pi * n / L:.3g} "
            f"below the top {band_hi:g} of the dyadic band 2^{k} (alpha={alpha}, t={t:g})")
    return make_grid(n, L)


#: Most grid points a row-batched array of the dispersive sweep holds: the
#: largest grid of the default sweeps (alpha = -0.2, k = 3, t = 64), so that
#: the rows never hold more than that one point did.
_BATCH_POINTS = 2 ** 14


def _evolved_band_sups(alpha: float, ks, ts) -> np.ndarray:
    """sup_x |exp(t*L) P_k g| for the band-k bump at each point (k, t), by
    fine-grid synthesis.  Every grid is sized, and the cap checked, before
    any synthesis; the points of one grid size are then the rows of one
    array, each with its own dxi and band, _BATCH_POINTS points at a time."""
    grids = [_packet_grid(alpha, k, t) for k, t in zip(ks, ts)]
    lengths = np.array([grid.box_length for grid in grids])
    ks, ts = np.array(ks), np.array(ts, dtype=float)
    sups = np.empty(len(grids))
    for n in sorted({grid.n_points for grid in grids}):
        rows = [i for i, grid in enumerate(grids) if grid.n_points == n]
        step = max(_BATCH_POINTS // n, 1)
        for chunk in (rows[i:i + step] for i in range(0, len(rows), step)):
            sups[chunk] = _band_sup_rows(alpha, n, lengths[chunk], ks[chunk], ts[chunk])
    return sups


def _band_sup_rows(alpha: float, n: int, L, k, t) -> np.ndarray:
    """``_evolved_band_sups`` for rows of points on n-point grids of box
    lengths L, bands k and times t.

    The field is real: the bump and psi_j are even in xi, the shift and the
    phase conjugate-symmetric.  So it is synthesised from its real-FFT half
    spectrum, which is zero outside the band: each row's band is a window
    of mode columns, as wide as the widest band, masked to the row's own.
    """
    dxi = 2.0 * np.pi / L
    scale = np.ldexp(1.0, k)[:, None]        # 2^k, exactly
    # the modes of the support 2^(k-1) < xi < 2^(k+1) of psi_j, one spare
    # each side (psi_j is exactly 0 there)
    lo = np.maximum((0.5 * scale[:, 0] / dxi).astype(int) - 1, 0)
    hi = np.minimum((2.0 * scale[:, 0] / dxi).astype(int) + 2, n // 2 + 1)
    cols = lo[:, None] + np.arange(np.max(hi - lo))
    band = cols < hi[:, None]
    xi_band = cols * dxi[:, None]
    gb = _bump(xi_band / scale)
    proj = CUTOFFS.psi(xi_band / scale)
    # the masses only gate, they are not reported: the band's is summed over
    # the row's masked window, which may round differently from its own modes
    mass_in = 2.0 * np.sum(np.where(band & (proj > 0), gb, 0.0) ** 2, axis=-1)
    # the profile's squares over all n/2 + 1 modes, which are exactly 0 past
    # s = center + 20 / invwidth (exp(-400)^2 underflows), where the
    # exponentials are slow; modes 0 < m < n/2 stand for +-m, the zero and
    # Nyquist modes for one
    top = int(np.max((_BUMP_CENTER + 20.0 / _BUMP_INVWIDTH) * scale[:, 0] / dxi)) + 1
    g2 = np.zeros((len(L), n // 2 + 1))
    g2[:, :top] = _bump(np.arange(min(top, n // 2 + 1)) * dxi[:, None] / scale) ** 2
    mass = 2.0 * np.sum(g2, axis=-1) - g2[:, 0] - g2[:, -1]
    leak = mass_in < (1.0 - 0.02) * mass
    if np.any(leak):
        r = np.argmax(leak)
        raise DomainError(
            f"test profile leaks outside the dyadic band 2^{k[r]} "
            f"({1 - mass_in[r] / mass[r]:.2e} of its mass)")
    # center the packet at 0.7 L: the group drifts leftward for -1 < alpha < 0
    shift = np.exp(-1j * xi_band * (0.7 * L)[:, None])
    half = np.zeros((len(L), n // 2 + 1), dtype=complex)
    half[np.nonzero(band)[0], cols[band]] = (
        gb * proj * shift * np.exp(1j * t[:, None] * dispersion(alpha, xi_band)))[band]
    u = np.fft.irfft(half * (_SQRT_2PI / (L / n))[:, None], n)
    edge = np.maximum(np.abs(u[:, 0]), np.abs(u[:, -1]))
    peak = np.max(np.abs(u), axis=-1)
    if np.any((peak > 0) & (edge > 1e-4 * peak)):
        raise DomainError("packet reached the box boundary; enlarge the box")
    return peak


#: The band-0 test profile's norms, which fix every band's: the sums over
#: _S_NODES of max|g|, 2 int g^2 ds and 2 int (dg/ds)^2 ds, and the L^1 norm
#: of the (unprojected) physical field, synthesised from the even bump's
#: half spectrum on the band-0, t = 1 packet grid.  In xi = 2^k s, |g|_2^2
#: scales by 2^k and |dg/dxi|_2^2 by 2^-k, exact powers of two; max|g| and
#: the field's L^1 norm are dilation invariants.  Every default (alpha, k)
#: sizes its t = 1 grid as the exact 2^-k dilate of the band-0 one
#: (L 2^k = 256), so a synthesis there gives the same L^1 norm bit for bit.
_S_STEP = _S_NODES[1] - _S_NODES[0]
_GHAT_INF = float(np.max(_bump(_S_NODES)))
_GHAT_SQ = 2.0 * np.sum(_bump(_S_NODES) ** 2) * _S_STEP
_DGHAT_SQ = 2.0 * np.sum(_bump_ds(_S_NODES) ** 2) * _S_STEP
_L1_GRID = make_grid(2048, 256.0)
_FIELD_L1 = float(np.sum(np.abs(inverse_transform(_L1_GRID, _bump(_L1_GRID.wavenumbers))))
                  * _L1_GRID.dx)


def dispersive_rhs(alpha: float, k: int, t: float) -> dict:
    """Both right-hand sides of the band-wise sup-norm estimates.

    freq:  t^(-1/2) 2^((1-a)k/2) |ghat|_inf
           + t^(-3/4) 2^(-(1+3a)k/4) (|ghat|_2 + 2^k |dghat|_2)
    phys:  t^(-1/2) 2^((1-a)k/2) |g|_L1
    """
    scale = 2.0 ** k
    ghat_l2 = float(np.sqrt(_GHAT_SQ * scale))
    dghat_l2 = float(np.sqrt(_DGHAT_SQ / scale))
    lead = t ** -0.5 * 2.0 ** (0.5 * (1.0 - alpha) * k)
    sub = t ** -0.75 * 2.0 ** (-0.25 * (1.0 + 3.0 * alpha) * k)
    return {"freq": lead * _GHAT_INF + sub * (ghat_l2 + scale * dghat_l2),
            "phys": lead * _FIELD_L1}


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
    check_alpha(alpha)
    if len(k_range) == 0:
        raise ConfigurationError("k_range must hold at least one band")
    if len(t_range) == 0 or not all(0.0 < t < np.inf for t in t_range):
        raise ConfigurationError(f"t_range needs positive, finite times, got {tuple(t_range)}")
    # the sweep, then the dilation pair (band k0 + 1, t0) and (k0, 2^(1+alpha) t0)
    points = [(int(k), float(t)) for k in k_range for t in t_range]
    k0, t0 = 0, 4.0
    pair = [(k0 + 1, t0), (k0, 2.0 ** (1.0 + alpha) * t0)]
    sups = _evolved_band_sups(alpha, *zip(*points, *pair))
    res_freq = EstimateSweepResult("dispersive_freq_side")
    res_phys = EstimateSweepResult("dispersive_phys_side")
    for (k, t), lhs in zip(points, sups):
        rhs = dispersive_rhs(alpha, k, t)
        params = {"alpha": alpha, "k": k, "t": t}
        res_freq.add(params, lhs, rhs["freq"])
        res_phys.add(params, lhs, rhs["phys"])
    r_dilated, r_rescaled = (lhs / dispersive_rhs(alpha, k, t)["phys"]
                             for (k, t), lhs in zip(pair, sups[-2:]))
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

#: The random band fields: 1024 points on the box 2^-k 64 pi (dxi = 2^k / 32),
#: drawn on the modes 17 ... 63, where |xi|/2^k lies in (1/2, 2).  The
#: draws are attached to band-relative modes, so the same draw at k and
#: k+1 produces exact dilates of one another.
_BAND_POINTS = 1024
_BAND_DRAWS = slice(17, 64)


def _chain_members(phat: np.ndarray, L: np.ndarray, k: np.ndarray) -> list[tuple]:
    """(band-sup^2, L1^2, weighted-L2 product) members of the chain for the
    rows of band-projected half spectra phat on grids of box lengths L and
    bands k, which broadcast against the rows: one tuple per row of the
    broadcast, in C order.  The sums over the whole spectrum run in its
    ascending order."""
    n = 2 * (phat.shape[-1] - 1)
    dx, dxi = L / n, 2.0 * np.pi / L
    mag = whole_spectrum(np.abs(phat))
    sup, l2 = np.max(mag, axis=-1), np.sqrt(np.sum(mag ** 2, axis=-1) * dxi)
    # each row array is dropped once read: two rows then hold no more than
    # one case did
    del mag
    # each row on its own box: the rows' own real inverse FFT, not one grid's
    u = np.fft.irfft(phat * (_SQRT_2PI / dx)[..., None], n)
    l1 = np.sum(np.abs(u), axis=-1) * dx
    xcu = np.arange(n) * dx[..., None]
    xcu -= 0.5 * L[..., None]
    xcu *= u
    del u
    w = np.fft.rfft(xcu)
    del xcu
    w *= (dx / _SQRT_2PI)[..., None]
    w = np.square(np.abs(w))
    dl2 = np.sqrt(np.sum(whole_spectrum(w), axis=-1) * dxi)
    rows = np.broadcast_arrays(sup, l1, l2, dl2, k)
    return [(float(sup) ** 2, float(l1) ** 2, 2.0 ** -int(k) * l2 * (l2 + 2.0 ** int(k) * dl2))
            for sup, l1, l2, dl2, k in zip(*(row.ravel() for row in rows))]


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
    dilation covariance: ratios at (g, k) equal ratios at (g(2.), k+1);
    a trial's members at k and k+1 are the two rows of one array.
    """
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be at least 1, got {num_trials}")
    rng = np.random.default_rng(seed)
    # on every band grid xi / 2^k is exactly mode / 32: one psi_k row serves all
    psi = CUTOFFS.psi(np.arange(_BAND_POINTS // 2 + 1) / 32.0)
    res1 = EstimateSweepResult("bandsup_vs_l1")
    res2 = EstimateSweepResult("l1_vs_weighted_l2")
    dilation_defects = []
    for trial in range(num_trials):
        k = int(rng.integers(-3, 4))
        # each draw is split evenly between the modes +-m of the real field
        c = np.zeros(_BAND_POINTS // 2 + 1, dtype=complex)
        c[_BAND_DRAWS] = 0.5 * (rng.normal(size=47) + 1j * rng.normal(size=47))
        pair = np.array([k, k + 1])
        (sup2, l1sq, right), (sup2_d, l1sq_d, right_d) = _chain_members(
            psi * c, np.ldexp(64.0 * np.pi, -pair), pair)
        params = {"trial": trial, "k": k}
        res1.add(params, sup2, l1sq)
        res2.add(params, l1sq, right)
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
    a = lambda z: dispersion(alpha, z)
    return a(xi) - a(xi - eta - sigma) - a(eta) - a(sigma)


#: Pass band of ``check_phase_expansion``: every halving ratio of the
#: remainder must lie in [lo, hi] around 8, the cubic rate.
HALVING_RATIO_BAND = (6.5, 9.5)


def check_phase_expansion(alpha: float, xi: float,
                          delta_range=tuple(2.0 ** -j for j in range(6, 13))) -> dict:
    """Remainder of Phi minus its quadratic near-diagonal model is cubic.

    With eta = xi - d, sigma = xi - d the model is a''(xi) d^2, where
    a''(xi) = sign(xi) alpha (alpha+1) |xi|^(alpha-1) as a is odd; halving d
    must divide the remainder by about 8.  Offsets are at most |xi|/32, so
    |xi - eta - sigma| = |2d - xi| >= 15|xi|/16 keeps off the singular locus.
    """
    check_alpha(alpha)
    if not 0.0 < abs(xi) < np.inf:
        raise DomainError(f"xi must be finite and nonzero, got {xi}")
    deltas = np.asarray(sorted(delta_range, reverse=True), dtype=float) * abs(xi)
    if np.max(deltas) > abs(xi) / 32.0:
        raise DomainError("offsets exceed |xi|/32; expansion domain violated")
    remainders = []
    quad_coeff = float(np.sign(xi)) * alpha * (alpha + 1.0) * abs(xi) ** (alpha - 1.0)
    for d in deltas:
        eta = xi - d
        sigma = xi - d
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

def profile_rhs_pseudospectral(grid: Grid, fhat: np.ndarray, t: float,
                               alpha: float) -> np.ndarray:
    """Half spectrum of exp(-t*L) F(-u^2 u_x) on grid, with u rebuilt from
    the half-spectrum profile fhat; alias-free by zero-padding to twice the
    grid, where the top mode n/2 is an interior mode and comes out complex."""
    n = grid.n_points
    xi = grid.wavenumbers
    a = dispersion(alpha, xi)
    big = make_grid(2 * n, grid.box_length)
    u = inverse_transform(big, np.exp(1j * t * a) * fhat)
    w = transform(big, u ** 3 / 3.0, n // 2 + 1)
    return np.exp(-1j * t * a) * (-1j * xi * w)


def profile_rhs_double_sum(grid: Grid, F: np.ndarray, t: float, alpha: float) -> np.ndarray:
    """Direct double Riemann sum over grid wavenumbers of the trilinear
    interaction integral for the ascending whole spectrum F of a profile
    (``whole_spectrum``), phases assembled factor by factor from the
    free-flow conjugation.  O(n^3); keep n small."""
    n = grid.n_points
    if n > 64:
        raise ConfigurationError("double-sum oracle is O(n^3); use n_points <= 64")
    dxi = grid.dxi
    idx = np.arange(n)
    xi = whole_wavenumbers(grid)
    a_grid = dispersion(alpha, xi)
    # axes (output xi, eta, sigma); xi - eta - sigma sits at position
    # o + n - i - j, looked up n places into F and a padded with n zeros
    rem = (idx + 2 * n)[:, None, None] - np.add.outer(idx, idx)
    zeros = np.zeros(n)
    f_rem = np.concatenate([zeros, F, zeros])[rem]
    a_rem = np.concatenate([zeros, a_grid, zeros])[rem]
    a_rem += np.add.outer(a_grid, a_grid)         # + a(eta) + a(sigma)
    a_rem -= a_grid[:, None, None]
    phases = np.exp(1j * t * a_rem)
    phases *= f_rem
    phases *= np.multiply.outer(F, F)
    # each output's n x n block summed as one row, as np.sum sums the block
    total = phases.reshape(n, n * n).sum(axis=-1)
    # a scalar product per mode: numpy's vectorised complex loops may round otherwise
    return np.array([-1j / (2.0 * np.pi) * (xi[o] / 3.0) * total[o] * dxi ** 2
                     for o in range(n)], dtype=complex)


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
    The oracle refuses n_points > 64.
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(n_points, 2.0 * np.pi)
    keep = n_points // 4 - 1
    # Re, Im of the modes 1 ... keep in turn, then the zero mode; each
    # draw is split evenly between the modes +-m of the real field
    draws = rng.normal(size=2 * keep + 1)
    fhat = np.zeros(n_points // 2 + 1, dtype=complex)
    fhat[1:keep + 1] = 0.5 * (amplitude * (draws[0:-1:2] + 1j * draws[1::2]))
    fhat[0] = amplitude * draws[-1]

    oracle = profile_rhs_double_sum(grid, whole_spectrum(fhat), t, alpha)
    target = whole_spectrum(profile_rhs_pseudospectral(grid, fhat, t, alpha))
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
    factor through a one-variable correlation to round-off.  The trials'
    fields f, g, h are the rows of one array.
    """
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be at least 1, got {num_trials}")
    rng = np.random.default_rng(seed)
    grid = make_grid(128, 16.0 * np.pi)        # dxi = 1/8, |xi| <= 8
    xi = whole_wavenumbers(grid)
    dxi = grid.dxi
    n = grid.n_points

    A = _kernel_l1_by_quadrature()
    m1 = np.exp(-xi ** 2)                      # m(eta, sigma) = m1(eta) m1(sigma)

    # each field draws Re, Im of the modes 1 ... 16 (|xi| <= 2) in turn,
    # then the zero mode; each draw is split evenly between the modes +-m
    # of the real field
    draws = rng.normal(size=(num_trials, 3, 33))
    half = np.zeros((num_trials, 3, n // 2 + 1), dtype=complex)
    half[..., 1:17] = 0.5 * (0.3 * (draws[..., 0:32:2] + 1j * draws[..., 1:32:2]))
    half[..., 0] = 0.3 * draws[..., 32]
    # the synthesis first: with the whole-spectrum rows built before it, the
    # lemmas benchmark read a peak RSS about 0.8 MiB higher (heap layout)
    u = inverse_transform(grid, half)
    fields = whole_spectrum(half)
    l2 = np.sqrt(np.sum(u * u, axis=-1) * grid.dx)
    linf = np.max(np.abs(u), axis=-1)
    del draws, half, u                         # the trial loop below sets the peak

    mf, mg = m1 * fields[:, 0], m1 * fields[:, 1]
    forms = np.empty(num_trials)
    padded = np.zeros(2 * n - 1, dtype=complex)
    for trial, hh in enumerate(fields[:, 2]):
        # hh(-eta-sigma) for every (eta, sigma) pair, 0 off the grid: row
        # eta of this Hankel matrix is a window of the zero-padded, reversed hh
        padded[n // 2 + 1:3 * n // 2 + 1] = hh[::-1]
        h_neg = sliding_window_view(padded, n)
        # T = sum_{eta,sigma} m1(eta) m1(sigma) fh(eta) gh(sigma) hh(-eta-sigma) dxi^2
        mat = mf[trial][:, None] * mg[trial]
        mat *= h_neg
        T = np.sum(mat) * dxi ** 2
        if trial == 0:
            # inner correlation q(eta) = sum_sigma m1(sigma) gh(sigma) hh(-eta-sigma) dxi
            q = np.sum(np.multiply(mg[0], h_neg, out=mat), axis=-1) * dxi
            factored_defect = abs(T - np.sum(mf[0] * q) * dxi) / max(1e-300, abs(T))
        forms[trial] = abs(T)
    bounds = {"(2,2,inf)": A * l2[:, 0] * l2[:, 1] * linf[:, 2],
              "(2,inf,2)": A * l2[:, 0] * linf[:, 1] * l2[:, 2],
              "(inf,2,2)": A * linf[:, 0] * l2[:, 1] * l2[:, 2]}
    trials = [{"trial": trial, "form": float(form),
               "ratios": {k: float(form / v[trial]) for k, v in bounds.items()}}
              for trial, form in enumerate(forms)]
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
    for name, Ns in (("N_list", N_list), ("cutoff_N_list", cutoff_N_list),
                     ("cutoff_N_check", (cutoff_N_check,))):
        if len(Ns) == 0 or not all(0.0 < N < np.inf for N in Ns):
            raise ConfigurationError(f"{name} needs positive, finite N, got {Ns}")
    if len(set(cutoff_N_list)) < 2:
        raise ConfigurationError(f"cutoff_N_list needs two distinct N, got {cutoff_N_list}")
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
