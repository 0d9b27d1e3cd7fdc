"""Random coin ensembles and initial-state rules.

An ensemble is a named sampler of 2x2 unitary coins together with its
moment properties.  The disordered walk redraws the coin independently at
every time step.  When the row moment vanishes,

    E(a conj(b)) = 0               (row-moment cancellation)

the averaged chirality populations close into a classical persistent walk
that keeps its direction with probability p = E|a|^2 (Renshaw and
Henderson, J. Appl. Prob. 18, 403, 1981), and under

    E|a|^2 = E|b|^2 = 1/2          (balance)

that walk is binomial: the ensemble-averaged position distribution
collapses to the classical symmetric random walk for every initial
chirality state.  `audit_moments` estimates six moments and flags balance
and the column moment E(a conj(c)) = 0 (the cross-moment condition); the
row and column moments vanish together in every catalog ensemble, but
not for every ensemble.

Catalog
-------
- ``make_ribeiro_uniform()``:   real rotation coins, angle uniform on [0, 2pi)
- ``make_ribeiro_two_point(xi)``: real rotation coins, angle xi or xi + pi/2
  with probability 1/2 each (finite support, so `exact_average` applies)
- ``make_mackay()``:            (1/sqrt 2) [[1, e^{i theta}], [e^{-i theta}, -1]],
  theta uniform on [0, 2pi)
- ``make_shapira(sigma)``:      Hadamard perturbed by a Gaussian SU(2) kick;
  violates the cross-moment condition (see `mu_shapira`)
- ``make_fixed(coin)``:         degenerate single-coin ensemble (the
  deterministic walk, useful as a counterexample)

Sampling is deterministic per stream.  Normal variates use numpy's
`Generator.normal` (ziggurat method); a batch of `size` draws consumes
the underlying bit stream exactly like `size` batches of one, so per-draw
reproducibility holds no matter how draws are grouped.  Ensembles whose
draws are a transform of uniforms (`UniformDraw`: ribeiro_uniform,
mackay_uniform, every finite-support ensemble, and the caseII initial
state) define only that transform, which lets Monte Carlo blocks draw all
their trials' uniforms at once (`dqwalk.streams.block_uniforms`).  A
finite-support ensemble (ribeiro_two_point, fixed coins) is its support:
its draw is derived from the support coins and weights, so Monte Carlo,
`audit_moments` and `dqwalk.pathsum.exact_average` average the same coins,
and giving it a sampler as well raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal

import numpy as np

from .core import EPS_UNIT, HADAMARD, Coin, QubitState, _sample_variance, validate_coin
from .streams import MasterStream, substream

#: Below this radius the SU(2) kick uses the series form of sin(r)/r,
#: 1 - r^2/6, whose relative error at the cutoff is under 1e-16.
SHAPIRA_SERIES_CUTOFF = 1e-8

_TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Draws `size` rows as a (size, width) complex array: (a, b, c, d) coin
#: rows of width 4 for an ensemble, (alpha, beta) state rows of width 2 for
#: an initial-state rule.  The generator is named as text, so that
#: importing this module does not import `numpy.random`.
ParameterDraw = Callable[["np.random.Generator", int], np.ndarray]


@dataclass(frozen=True)
class UniformDraw:
    """A draw that is a fixed transform of `size` uniforms on [0, 1).

    Calling it draws `transform(rng.random(size))`.  Because the only use
    of the stream is `random()`, callers holding many streams' uniforms at
    once may apply `transform` to them directly, and any source of the same
    `random()` draws (`dqwalk.streams.MasterStream`) may stand in for the
    generator, with the same result.

    `transform(u)` returns (u.size, width) rows, row i from u[i] alone, in
    either memory order.  The catalog's transforms fill one contiguous
    plane per entry and return its transpose, column-major rows, which
    Monte Carlo blocks read as planes without a copy; row-major rows are
    copied into planes, with the same bits.
    """

    transform: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.transform(rng.random(size))


def _draw_rows(out, shape: tuple[int, ...]) -> np.ndarray:
    """A draw's rows as a complex128 array; ValueError unless of `shape`."""
    out = np.asarray(out, dtype=np.complex128)
    if out.shape != shape:
        raise ValueError(f"draw_parameters returned shape {out.shape}, expected {shape}")
    return out


def _support_arrays(support: tuple[tuple[Coin, float], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 4) complex (a, b, c, d) rows and (k,) weights of a finite support."""
    rows = np.array([[c.a, c.b, c.c, c.d] for c, _ in support], dtype=np.complex128)
    weights = np.array([w for _, w in support], dtype=np.float64)
    return rows, weights


def _support_coins(u: np.ndarray, edges: np.ndarray, planes: np.ndarray) -> np.ndarray:
    # Coin k holds the uniforms in [edges[k-1], edges[k]): u < w_0 picks
    # coin 0, and an empty interval (a zero weight) is never picked.
    # `planes` is the (4, k) entries of the support, one row per entry.
    return planes.take(np.searchsorted(edges, u, side="right"), axis=1).T


@dataclass(frozen=True)
class CoinEnsemble:
    """A named, seedable distribution over coins.

    `draw_parameters(rng, size)` returns a (size, 4) complex array of
    (a, b, c, d) rows; it is the single source of randomness, so pickling
    an ensemble (for process workers) only requires `draw_parameters` to
    be a module-level callable or a `functools.partial` of one, which all
    catalog ensembles satisfy.

    A finite ensemble is given by its `finite_support` alone, a tuple of
    (coin, weight) pairs with weights summing to 1, and its draw is
    derived from it: a `UniformDraw` that picks coin k when a uniform
    falls in its cumulative-weight interval.  Construction raises
    ValueError when both `draw_parameters` and `finite_support` are
    given, or neither, and when a support coin fails `validate_coin`.

    `declared_a_conj_c` is the closed form the ensemble declares for the
    column moment E(a conj(c)), the moment whose vanishing `audit_moments`
    flags as `eq_cross`; `None` declares nothing (the moment can still be
    estimated).  The collapse to the binomial law is decided by the row
    moment E(a conj(b)) with balance, and the two vanish together in every
    catalog ensemble.
    """

    name: str
    draw_parameters: ParameterDraw | None = None
    params: tuple[tuple[str, float], ...] = ()
    finite_support: tuple[tuple[Coin, float], ...] | None = None
    declared_a_conj_c: complex | None = None

    def __post_init__(self) -> None:
        if (self.draw_parameters is None) == (self.finite_support is None):
            raise ValueError(
                "an ensemble needs draw_parameters or a finite_support, not both: "
                "a finite ensemble draws from its support"
            )
        if self.finite_support is None:
            return
        if not self.finite_support:
            raise ValueError("finite support must hold at least one coin")
        for k, (coin, w) in enumerate(self.finite_support):
            if not 0.0 <= w < math.inf:
                raise ValueError(
                    f"finite support weights must be finite and nonnegative, got {w!r}"
                )
            report = validate_coin(coin)
            if not report.ok:
                raise ValueError(f"support coin {k} is not unitary: failed {report.failures()}")
        weight = sum(w for _, w in self.finite_support)
        if abs(weight - 1.0) > EPS_UNIT:
            raise ValueError(f"finite support weights must sum to 1, got {weight!r}")
        rows, weights = _support_arrays(self.finite_support)
        # Uniforms past the last edge, which rounding of the weights' sum
        # may leave below 1, go to the last coin of positive weight.
        last = np.flatnonzero(weights)[-1]
        draw = UniformDraw(
            partial(_support_coins, edges=np.cumsum(weights[:last]), planes=rows.T.copy())
        )
        object.__setattr__(self, "draw_parameters", draw)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, 4) array of coin entries (a, b, c, d) per row."""
        if size < 0:
            raise ValueError(f"size must be nonnegative, got {size}")
        return _draw_rows(self.draw_parameters(rng, size), (size, 4))

    def config(self) -> dict:
        return {"ensemble": self.name, "params": dict(self.params)}


# --- real rotation coins ---------------------------------------------------

def _rotation_parameters(theta: np.ndarray) -> np.ndarray:
    cos = np.cos(theta)
    sin = np.sin(theta)
    out = np.empty((4, theta.size), dtype=np.complex128)
    out[0] = cos
    out[1] = sin
    out[2] = sin
    out[3] = -cos
    return out.T


def _uniform_angle(u: np.ndarray) -> np.ndarray:
    # The expression Generator.uniform(0.0, 2pi) evaluates per draw.
    return 0.0 + _TWO_PI * u


def _ribeiro_uniform_coins(u: np.ndarray) -> np.ndarray:
    return _rotation_parameters(_uniform_angle(u))


def rotation_coin(theta: float) -> Coin:
    """The real rotation coin [[cos t, sin t], [sin t, -cos t]]."""
    a, b, c, d = _rotation_parameters(np.array([theta]))[0]
    return Coin(complex(a), complex(b), complex(c), complex(d))


def make_ribeiro_uniform() -> CoinEnsemble:
    """Real rotation coins with the angle uniform on [0, 2pi).

    E(cos^2) = E(sin^2) = 1/2 and E(cos sin) = 0, so both moment
    conditions hold and the coins are real (the Case I setting).
    """
    return CoinEnsemble(
        name="ribeiro_uniform",
        draw_parameters=UniformDraw(_ribeiro_uniform_coins),
        declared_a_conj_c=0.0 + 0.0j,
    )


def make_ribeiro_two_point(xi: float) -> CoinEnsemble:
    """Real rotation coins with angle xi or xi + pi/2, each with weight 1/2.

    The two-point mixture satisfies both moment conditions exactly for
    every xi (cos^2(xi) + cos^2(xi + pi/2) = 1), and its finite support
    lets `exact_average` compute the ensemble average exactly.
    """
    xi = float(xi)
    if not 0.0 <= xi < math.pi:
        raise ValueError(f"xi must lie in [0, pi), got {xi}")
    support = (
        (rotation_coin(xi), 0.5),
        (rotation_coin(xi + 0.5 * math.pi), 0.5),
    )
    return CoinEnsemble(
        name="ribeiro_two_point",
        params=(("xi", xi),),
        finite_support=support,
        declared_a_conj_c=0.0 + 0.0j,
    )


# --- phase coins -----------------------------------------------------------

def _phase_parameters(theta: np.ndarray) -> np.ndarray:
    # The bits of b = e^{i t} (1/sqrt 2) and c = conj(e^{i t}) (1/sqrt 2):
    # np.cos and np.sin give np.exp(1j t)'s parts, and a complex product with
    # the real 1/sqrt 2 adds only exact zero products.  c's imaginary part is
    # 0.0 - s/sqrt 2, which is +0.0 at t = 0 like the complex product's; a
    # negation would give -0.0.
    out = np.empty((4, theta.size), dtype=np.complex128)
    b, c = out[1], out[2]
    out[0] = _INV_SQRT2
    np.multiply(np.cos(theta), _INV_SQRT2, out=b.real)
    np.multiply(np.sin(theta), _INV_SQRT2, out=b.imag)
    c.real = b.real
    np.subtract(0.0, b.imag, out=c.imag)
    out[3] = -_INV_SQRT2
    return out.T


def _mackay_uniform_coins(u: np.ndarray) -> np.ndarray:
    return _phase_parameters(_uniform_angle(u))


def make_mackay() -> CoinEnsemble:
    """Phase coins (1/sqrt 2) [[1, e^{i t}], [e^{-i t}, -1]], t uniform on [0, 2pi).

    Every entry has modulus exactly 1/sqrt 2, so the balance condition
    holds for any phase law, and the cross moment is E(e^{i t})/2, which
    the uniform phase makes vanish.  Another phase law is a plain
    `CoinEnsemble` with its own name and params (README shows one).
    """
    return CoinEnsemble(
        name="mackay_uniform",
        draw_parameters=UniformDraw(_mackay_uniform_coins),
        declared_a_conj_c=0.0 + 0.0j,
    )


# --- Gaussian SU(2) perturbation of the Hadamard coin ----------------------

def _su2_kick_parameters(w: np.ndarray) -> np.ndarray:
    """Coins U = Hadamard @ V for kick vectors w of shape (size, 3).

    V = [[cos r + i z s, (y + i x) s], [(-y + i x) s, cos r - i z s]]
    with r = |w| and s = sin(r)/r, an SU(2) element for every w.
    """
    x, y, z = w[:, 0], w[:, 1], w[:, 2]
    r = np.sqrt(x * x + y * y + z * z)
    small = r < SHAPIRA_SERIES_CUTOFF
    safe = np.where(small, 1.0, r)
    s = np.where(small, 1.0 - r * r / 6.0, np.sin(safe) / safe)
    cos_r = np.cos(r)
    v11 = cos_r + 1j * (z * s)
    v12 = (y + 1j * x) * s
    v21 = (-y + 1j * x) * s
    v22 = cos_r - 1j * (z * s)
    out = np.empty((w.shape[0], 4), dtype=np.complex128)
    out[:, 0] = (v11 + v21) * _INV_SQRT2
    out[:, 1] = (v12 + v22) * _INV_SQRT2
    out[:, 2] = (v11 - v21) * _INV_SQRT2
    out[:, 3] = (v12 - v22) * _INV_SQRT2
    return out


def _draw_shapira(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    return _su2_kick_parameters(rng.normal(0.0, sigma, size=(size, 3)))


def mu_shapira(sigma: float) -> float:
    """Closed-form cross moment E(a conj(c)) of the `make_shapira` ensemble.

    mu(sigma) = 1/6 + (1/3) (1 - 4 sigma^2) exp(-2 sigma^2).

    Strictly positive for every finite sigma > 0, with minimum
    mu(sqrt(3)/2) = 0.0179... and limit 1/2 as sigma -> 0 (the Hadamard
    walk), so this ensemble always violates the cross-moment condition.
    """
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    s2 = sigma * sigma
    return 1.0 / 6.0 + (1.0 - 4.0 * s2) * math.exp(-2.0 * s2) / 3.0


def make_shapira(sigma: float) -> CoinEnsemble:
    """Hadamard coin times an SU(2) kick exp(i w . pauli) with w ~ N(0, sigma^2)^3.

    Balanced (E|a|^2 = E|b|^2 = 1/2) but with nonzero cross moment
    mu(sigma), so its averaged walk does NOT reduce to the classical
    binomial law.  The sigma -> 0 limit is the deterministic Hadamard
    walk.  Raises ValueError unless sigma is positive and finite (the
    check is `mu_shapira`'s).
    """
    sigma = float(sigma)
    return CoinEnsemble(
        name="shapira",
        draw_parameters=partial(_draw_shapira, sigma=sigma),
        params=(("sigma", sigma),),
        declared_a_conj_c=complex(mu_shapira(sigma)),
    )


# --- degenerate ensembles --------------------------------------------------

def make_fixed(coin: Coin = HADAMARD) -> CoinEnsemble:
    """Single-coin ensemble: the deterministic walk viewed as an ensemble.

    The default Hadamard coin is balanced but has cross moment
    a conj(c) = 1/2, making it the canonical counterexample showing that
    the binomial collapse needs genuine randomness.  The ensemble is its
    support, the one coin, and every draw is derived from it (a
    `CoinEnsemble` given a sampler as well as a support raises
    ValueError).  The Hadamard coin is named ``fixed_hadamard`` with no
    parameters; any other coin is named ``fixed`` and records the real
    and imaginary parts of its four entries as parameters (``a_real``,
    ``a_imag``, ..., ``d_imag``), so two coins never share a config.
    """
    if coin == HADAMARD:
        name, params = "fixed_hadamard", ()
    else:
        name = "fixed"
        params = tuple(
            (f"{key}_{part}", getattr(getattr(coin, key), part))
            for key in "abcd"
            for part in ("real", "imag")
        )
    return CoinEnsemble(
        name=name,
        params=params,
        finite_support=((coin, 1.0),),
        declared_a_conj_c=coin.a * coin.c.conjugate(),
    )


# --- moment audits ----------------------------------------------------------

MomentFlag = Literal["satisfied", "violated", "inconclusive"]

#: Minimum sample size for the normal-theory 4-standard-error band.
_AUDIT_MIN_DRAWS = 100

#: Coins drawn, and rows of moment values reduced, at a time.  The rows
#: are added in draw order into one running sum, so this size is not part
#: of the result's bits.
_AUDIT_PIECE = 1 << 12


@dataclass(frozen=True)
class MomentReport:
    """Estimated coin moments with standard errors and condition flags.

    `estimates` holds E|a|^2, E|b|^2, E|c|^2, E|d|^2, E(a conj c),
    E(b conj d); for a complex moment the standard error combines the real
    and imaginary component variances.  `eq_balance` flags
    E|a|^2 = E|b|^2 = 1/2 and `eq_cross` flags the column moment
    E(a conj c) = 0, each as satisfied (inside 4 standard errors, or
    within 1e-12 when exact), violated (outside), or inconclusive (sample
    too small for the band).  The collapse to the binomial law needs
    balance and the row moment E(a conj b) = 0, which this report does not
    estimate: `eq_cross` stands for it where the two moments vanish
    together, as in every catalog ensemble, and a satisfied `eq_cross`
    alone does not imply the collapse.  `declared_a_conj_c` is the
    ensemble's own closed form for E(a conj c), if it declares one.
    """

    ensemble: str
    draws: int
    exact: bool
    estimates: dict[str, complex]
    stderrs: dict[str, float]
    eq_balance: MomentFlag
    eq_cross: MomentFlag
    declared_a_conj_c: complex | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "ensemble": self.ensemble,
            "draws": self.draws,
            "exact": self.exact,
            "estimates": {
                name: [value.real, value.imag] for name, value in self.estimates.items()
            },
            "stderrs": dict(self.stderrs),
            "eq_balance": self.eq_balance,
            "eq_cross": self.eq_cross,
        }
        if self.declared_a_conj_c is not None:
            declared = complex(self.declared_a_conj_c)
            payload["declared_a_conj_c"] = [declared.real, declared.imag]
        return payload


def _flag(distance: float, stderr: float, draws: int, exact: bool) -> MomentFlag:
    # A sampled audit under the minimum is inconclusive even where its
    # standard error is 0, as it is for one draw.
    if not exact and draws < _AUDIT_MIN_DRAWS:
        return "inconclusive"
    if exact or stderr == 0.0:
        return "satisfied" if distance <= 1e-12 else "violated"
    return "satisfied" if distance < 4.0 * stderr else "violated"


def _combine(*flags: MomentFlag) -> MomentFlag:
    for level in ("violated", "inconclusive"):
        if level in flags:
            return level
    return "satisfied"


_MOMENT_NAMES = ("abs_a_sq", "abs_b_sq", "abs_c_sq", "abs_d_sq", "a_conj_c", "b_conj_d")


def _fill_moment_values(out: np.ndarray, rows: np.ndarray) -> None:
    """Write the six moment values of each coin row into the rows of `out`.

    The cross products are taken as conj(c) a and conj(d) b, in that
    operand order: complex multiply is not bitwise commutative, and
    numpy's temporary elision would turn `a * np.conj(c)` into
    `conj(c) * a` only from 16384 coins on.
    """
    a, b, c, d = rows.T
    for k, x in enumerate((a, b, c, d)):
        out[:, k] = x.real**2 + x.imag**2
    out[:, 4] = np.multiply(np.conj(c), a)
    out[:, 5] = np.multiply(np.conj(d), b)


def audit_moments(ensemble: CoinEnsemble, draws: int, seed: int = 0) -> MomentReport:
    """Estimate the six coin moments and flag both moment conditions.

    Finite-support ensembles are evaluated exactly (zero standard error);
    otherwise `draws` coins are sampled from the stream for `seed` and
    the flags use a 4-standard-error acceptance band (false-alarm rate
    about 6e-5 per check).  A sample of fewer than 100 draws flags both
    conditions inconclusive.  A `UniformDraw` ensemble takes the stream's
    draws from `MasterStream`, any other from `substream`: the same bits.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")

    if ensemble.finite_support is not None:
        rows, weights = _support_arrays(ensemble.finite_support)
        values = np.empty((len(rows), len(_MOMENT_NAMES)), dtype=np.complex128)
        _fill_moment_values(values, rows)
        # Weighted rows added one after another in support order, on the
        # float parts: a matrix product would run a BLAS kernel, whose
        # rounding depends on the CPU it picks.
        means = (weights[:, np.newaxis] * values.view(np.float64)).sum(axis=0).view(np.complex128)
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {name: 0.0 for name in _MOMENT_NAMES}
        exact = True
    else:
        rng = (
            MasterStream(seed)
            if isinstance(ensemble.draw_parameters, UniformDraw)
            else substream(seed)
        )
        # Row 0 carries the running sums of the values and of their squared
        # real and imaginary parts into each piece's reduction.  An axis-0
        # sum of a C-ordered array adds its rows one after another, so the
        # pieces make one sequential sum over all the draws.
        height = min(draws, _AUDIT_PIECE) + 1
        values = np.zeros((height, len(_MOMENT_NAMES)), dtype=np.complex128)
        squares = np.zeros((height, 2 * len(_MOMENT_NAMES)))
        for lo in range(0, draws, _AUDIT_PIECE):
            end = min(_AUDIT_PIECE, draws - lo) + 1
            _fill_moment_values(values[1:end], ensemble.sample_batch(rng, end - 1))
            np.square(values[1:end].view(np.float64), out=squares[1:end])
            values[0] = np.add.reduce(values[:end], axis=0)
            squares[0] = np.add.reduce(squares[:end], axis=0)
        means = values[0] / draws
        variance = _sample_variance(means.view(np.float64), squares[0], draws)
        stderr = np.sqrt(variance.reshape(len(_MOMENT_NAMES), 2).sum(axis=1) / draws)
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {name: float(stderr[i]) for i, name in enumerate(_MOMENT_NAMES)}
        exact = False

    eq_balance = _combine(
        _flag(abs(estimates["abs_a_sq"] - 0.5), stderrs["abs_a_sq"], draws, exact),
        _flag(abs(estimates["abs_b_sq"] - 0.5), stderrs["abs_b_sq"], draws, exact),
    )
    eq_cross = _flag(abs(estimates["a_conj_c"]), stderrs["a_conj_c"], draws, exact)
    return MomentReport(
        ensemble=ensemble.name,
        draws=draws,
        exact=exact,
        estimates=estimates,
        stderrs=stderrs,
        eq_balance=eq_balance,
        eq_cross=eq_cross,
        declared_a_conj_c=ensemble.declared_a_conj_c,
    )


# --- initial states ----------------------------------------------------------

#: Balanced fixed initial state (1, i)/sqrt 2: |alpha| = |beta| = 1/sqrt 2
#: and alpha conj(beta) + conj(alpha) beta = 0.
CASE_I_DEFAULT = QubitState(_INV_SQRT2, 1j * _INV_SQRT2)


def _uniform_phase_states(u: np.ndarray) -> np.ndarray:
    theta = _uniform_angle(u)
    out = np.empty((2, u.size), dtype=np.complex128)
    out[0] = np.cos(theta)
    out[1] = np.sin(theta)
    return out.T


#: The caseII draw, (cos t, sin t) with t uniform on [0, 2pi): the one
#: draw that `InitialStateRule.config` records as ``"caseII"``.
_CASE_II_DRAW = UniformDraw(_uniform_phase_states)


@dataclass(frozen=True)
class InitialStateRule:
    """Fixed or random initial chirality state of a walk realization.

    A rule is given by exactly one of a fixed `state` or a random
    `draw_parameters`, which draws one state per realization;
    construction raises ValueError when both or neither is given.
    `draw_batch` gives either as rows, and a fixed rule never touches the
    stream.
    """

    state: QubitState | None = None
    draw_parameters: ParameterDraw | None = None

    def __post_init__(self) -> None:
        if (self.state is None) == (self.draw_parameters is None):
            raise ValueError("an initial-state rule needs a state or draw_parameters, not both")

    def draw_batch(self, rng: np.random.Generator | None, size: int) -> np.ndarray:
        """(size, 2) array of (alpha, beta) rows; a draw of another shape raises ValueError."""
        if self.state is not None:
            out = np.empty((size, 2), dtype=np.complex128)
            out[:, 0] = self.state.alpha
            out[:, 1] = self.state.beta
            return out
        if rng is None:
            raise ValueError("a random initial-state rule needs a generator")
        return _draw_rows(self.draw_parameters(rng, size), (size, 2))

    def config(self):
        """The rule as a config records it, read off its value.

        ``"caseI"`` for the state `CASE_I_DEFAULT` (bit for bit, so a zero's
        sign counts), ``"caseII"`` for caseII's draw, (cos t, sin t) with t
        uniform on [0, 2pi), and any other fixed state as
        ``[[re, im], [re, im]]``; `make_initial_state` reads each of these
        back, so a rule's record rebuilds its state.  Any other draw is
        recorded as ``"custom_random"``, which `make_initial_state` rejects,
        so its documents and digests are never taken for caseII's.
        """
        if self.state is None:
            return "caseII" if self.draw_parameters == _CASE_II_DRAW else "custom_random"
        # Compared by bits, not `==`, which takes -0.0 for 0.0: the record
        # must rebuild the state bit for bit.
        if self.state.vector.tobytes() == CASE_I_DEFAULT.vector.tobytes():
            return "caseI"
        return [
            [self.state.alpha.real, self.state.alpha.imag],
            [self.state.beta.real, self.state.beta.imag],
        ]


def _not_boolean(item):
    # `complex` and `float` would take a boolean as 0 or 1.
    if isinstance(item, bool):
        raise TypeError(f"a boolean is not a number: {item!r}")
    return item


def _complex_entry(item) -> complex:
    """A number, a complex literal, or an [re, im] pair as config files write it.

    Raises TypeError for a boolean, here or inside the pair.
    """
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(float(_not_boolean(item[0])), float(_not_boolean(item[1])))
    return complex(_not_boolean(item))


def make_initial_state(rule_spec) -> InitialStateRule:
    """Build an initial-state rule from a specification.

    This is the one parser of initial states: the CLI's `--init` flag and
    the `init` key of a config file pass their values here unchanged, so
    the library and the CLI accept the same forms:

    * ``"caseI"`` (or ``"case_i"``, ``"caseI_default"``; any case): the
      fixed balanced state (1, i)/sqrt 2.
    * ``"caseII"`` (or ``"case_ii"``, ``"caseII_uniform_phase"``): random
      (cos t, sin t) with t uniform on [0, 2pi), which has E|alpha|^2 = 1/2
      and E(alpha conj beta) = 0.
    * a `QubitState`, or a fixed custom state written as a pair
      ``(alpha, beta)``, as the text ``"alpha,beta"`` or as a list.  Each
      entry is a number, a Python complex literal (``0.8j``, as text or a
      `complex`) or an ``[re, im]`` pair, as `InitialStateRule.config`
      writes it, so ``make_initial_state(rule.config())`` rebuilds
      `rule`'s state bit for bit.  The state must have unit norm.

    Raises ValueError for any other specification, and TypeError for a
    pair whose entries are of no numeric type or are booleans.
    """
    if isinstance(rule_spec, QubitState):
        return InitialStateRule(state=rule_spec)
    if isinstance(rule_spec, str):
        key = rule_spec.strip().lower()
        if key in ("casei", "casei_default", "case_i"):
            return InitialStateRule(state=CASE_I_DEFAULT)
        if key in ("caseii", "caseii_uniform_phase", "case_ii"):
            return InitialStateRule(draw_parameters=_CASE_II_DRAW)
        parts = rule_spec.split(",")
        if len(parts) != 2:
            raise ValueError(f"fixed initial state must be 'alpha,beta', got {rule_spec!r}")
        try:
            alpha, beta = complex(parts[0]), complex(parts[1])
        except ValueError:
            raise ValueError(f"cannot parse initial state {rule_spec!r}") from None
    elif isinstance(rule_spec, (list, tuple)) and len(rule_spec) == 2:
        alpha, beta = map(_complex_entry, rule_spec)
    else:
        raise ValueError(f"cannot interpret initial-state spec {rule_spec!r}")
    return InitialStateRule(state=QubitState(alpha, beta))
