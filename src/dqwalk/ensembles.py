"""Random coin ensembles and initial-state rules.

An ensemble is a named sampler of 2x2 unitary coins together with its
moment properties.  The disordered walk redraws the coin independently at
every time step; when the ensemble satisfies the two moment conditions

    E|a|^2 = E|b|^2 = 1/2          (balance)
    E(a conj(c)) = 0               (cross-moment cancellation)

and the initial chirality state is balanced as well, the ensemble-averaged
position distribution collapses to the classical symmetric random walk.
`audit_moments` estimates the six relevant moments and flags both
conditions.

Catalog
-------
- ``make_ribeiro_uniform()``:   real rotation coins, angle uniform on [0, 2pi)
- ``make_ribeiro_two_point(xi)``: real rotation coins, angle xi or xi + pi/2
  with probability 1/2 each (finite support, exact enumeration friendly)
- ``make_mackay(phase_dist)``:  (1/sqrt 2) [[1, e^{i theta}], [e^{-i theta}, -1]]
- ``make_shapira(sigma)``:      Hadamard perturbed by a Gaussian SU(2) kick;
  violates the cross-moment condition (see `mu_shapira`)
- ``make_fixed(coin)``:         degenerate single-coin ensemble (the
  deterministic walk, useful as a counterexample)

Sampling is deterministic per stream.  Normal variates use numpy's
`Generator.normal` (ziggurat method); batch draws consume the underlying
bit stream exactly like the same number of single draws, so per-draw
reproducibility holds no matter how draws are grouped.  Ensembles whose
draws are a transform of uniforms (`UniformDraw`: ribeiro_uniform,
ribeiro_two_point, mackay_uniform, and the caseII initial state) define
only that transform, which lets Monte Carlo blocks draw all their trials'
uniforms at once (`dqwalk.streams.block_uniforms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, Optional

import numpy as np

from .core import EPS_UNIT, HADAMARD, Coin, QubitState

#: Below this radius the SU(2) kick uses the series form of sin(r)/r,
#: 1 - r^2/6, whose relative error at the cutoff is under 1e-16.
SHAPIRA_SERIES_CUTOFF = 1e-8

_TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Draws `size` coins as an (size, 4) complex array of (a, b, c, d) rows.
ParameterDraw = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class UniformDraw:
    """A draw that is a fixed transform of `size` uniforms on [0, 1).

    Calling it draws `transform(rng.random(size))`.  Because the only use
    of the stream is `random()`, callers holding many streams' uniforms at
    once may apply `transform` to them directly, with the same result.
    """

    transform: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.transform(rng.random(size))


@dataclass(frozen=True)
class DeclaredMoments:
    """Closed-form moment values an ensemble declares about itself.

    `None` marks a moment with no known closed form (it can still be
    estimated by `audit_moments`).
    """

    abs_a_sq: Optional[float]
    abs_b_sq: Optional[float]
    a_conj_c: Optional[complex]


@dataclass(frozen=True)
class CoinEnsemble:
    """A named, seedable distribution over coins.

    `draw_parameters(rng, size)` returns a (size, 4) complex array of
    (a, b, c, d) rows; it is the single source of randomness, so pickling
    an ensemble (for process workers) only requires `draw_parameters` to
    be a module-level callable or a `functools.partial` of one, which all
    catalog ensembles satisfy.
    """

    name: str
    draw_parameters: ParameterDraw
    params: tuple[tuple[str, float], ...] = ()
    finite_support: tuple[tuple[Coin, float], ...] | None = None
    declared_moments: DeclaredMoments | None = None

    def __post_init__(self) -> None:
        if self.finite_support is not None:
            if not self.finite_support:
                raise ValueError("finite support must hold at least one coin")
            for _, w in self.finite_support:
                if not 0.0 <= w < math.inf:
                    raise ValueError(
                        f"finite support weights must be finite and nonnegative, got {w!r}"
                    )
            weight = sum(w for _, w in self.finite_support)
            if abs(weight - 1.0) > EPS_UNIT:
                raise ValueError(f"finite support weights must sum to 1, got {weight!r}")

    def sample(self, rng: np.random.Generator) -> Coin:
        """One coin; consumes the stream exactly like sample_batch(rng, 1)."""
        a, b, c, d = self.draw_parameters(rng, 1)[0]
        return Coin(complex(a), complex(b), complex(c), complex(d))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, 4) array of coin entries (a, b, c, d) per row."""
        if size < 0:
            raise ValueError(f"size must be nonnegative, got {size}")
        out = np.asarray(self.draw_parameters(rng, size), dtype=np.complex128)
        if out.shape != (size, 4):
            raise ValueError(f"draw_parameters returned shape {out.shape}, expected ({size}, 4)")
        return out

    def config(self) -> dict:
        return {"ensemble": self.name, "params": dict(self.params)}


# --- real rotation coins ---------------------------------------------------

def _rotation_parameters(theta: np.ndarray) -> np.ndarray:
    cos = np.cos(theta)
    sin = np.sin(theta)
    out = np.empty((theta.size, 4), dtype=np.complex128)
    out[:, 0] = cos
    out[:, 1] = sin
    out[:, 2] = sin
    out[:, 3] = -cos
    return out


def _uniform_angle(u: np.ndarray) -> np.ndarray:
    # The expression Generator.uniform(0.0, 2pi) evaluates per draw.
    return 0.0 + _TWO_PI * u


def _ribeiro_uniform_coins(u: np.ndarray) -> np.ndarray:
    return _rotation_parameters(_uniform_angle(u))


def _ribeiro_two_point_coins(u: np.ndarray, xi: float) -> np.ndarray:
    return _rotation_parameters(np.where(u < 0.5, xi, xi + 0.5 * math.pi))


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
        declared_moments=DeclaredMoments(0.5, 0.5, 0.0 + 0.0j),
    )


def make_ribeiro_two_point(xi: float) -> CoinEnsemble:
    """Real rotation coins with angle xi or xi + pi/2, each with weight 1/2.

    The two-point mixture satisfies both moment conditions exactly for
    every xi (cos^2(xi) + cos^2(xi + pi/2) = 1), and its finite support
    makes exact enumeration of the ensemble average feasible.
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
        draw_parameters=UniformDraw(partial(_ribeiro_two_point_coins, xi=xi)),
        params=(("xi", xi),),
        finite_support=support,
        declared_moments=DeclaredMoments(0.5, 0.5, 0.0 + 0.0j),
    )


# --- phase coins -----------------------------------------------------------

def _phase_parameters(theta: np.ndarray) -> np.ndarray:
    phase = np.exp(1j * theta)
    out = np.empty((theta.size, 4), dtype=np.complex128)
    out[:, 0] = _INV_SQRT2
    out[:, 1] = phase * _INV_SQRT2
    out[:, 2] = np.conj(phase) * _INV_SQRT2
    out[:, 3] = -_INV_SQRT2
    return out


def _mackay_uniform_coins(u: np.ndarray) -> np.ndarray:
    return _phase_parameters(_uniform_angle(u))


def _draw_mackay_custom(rng: np.random.Generator, size: int, phase_dist) -> np.ndarray:
    theta = np.array([float(phase_dist(rng)) for _ in range(size)])
    return _phase_parameters(theta)


def make_mackay(phase_dist: Callable[[np.random.Generator], float] | None = None) -> CoinEnsemble:
    """Phase coins (1/sqrt 2) [[1, e^{i t}], [e^{-i t}, -1]].

    Every entry has modulus exactly 1/sqrt 2, so the balance condition
    holds for any phase law.  The cross moment is E(e^{i t})/2, which
    vanishes when E(cos t) = E(sin t) = 0; that is the caller's burden
    for a custom `phase_dist` (auditable, not enforced).  With
    `phase_dist=None` the phase is uniform on [0, 2pi) and both
    conditions hold.
    """
    if phase_dist is None:
        return CoinEnsemble(
            name="mackay_uniform",
            draw_parameters=UniformDraw(_mackay_uniform_coins),
            declared_moments=DeclaredMoments(0.5, 0.5, 0.0 + 0.0j),
        )
    return CoinEnsemble(
        name="mackay_custom",
        draw_parameters=partial(_draw_mackay_custom, phase_dist=phase_dist),
        declared_moments=DeclaredMoments(0.5, 0.5, None),
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


def shapira_coin(x: float, y: float, z: float) -> Coin:
    """The perturbed Hadamard coin for one explicit kick vector (x, y, z)."""
    a, b, c, d = _su2_kick_parameters(np.array([[x, y, z]], dtype=np.float64))[0]
    return Coin(complex(a), complex(b), complex(c), complex(d))


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
    walk.
    """
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return CoinEnsemble(
        name="shapira",
        draw_parameters=partial(_draw_shapira, sigma=sigma),
        params=(("sigma", sigma),),
        declared_moments=DeclaredMoments(0.5, 0.5, complex(mu_shapira(sigma))),
    )


# --- degenerate ensembles --------------------------------------------------

def _draw_fixed(rng: np.random.Generator, size: int, a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    out = np.empty((size, 4), dtype=np.complex128)
    out[:, 0] = a
    out[:, 1] = b
    out[:, 2] = c
    out[:, 3] = d
    return out


def make_fixed(coin: Coin = HADAMARD, name: str = "fixed_hadamard") -> CoinEnsemble:
    """Single-coin ensemble: the deterministic walk viewed as an ensemble.

    The default Hadamard coin is balanced but has cross moment
    a conj(c) = 1/2, making it the canonical counterexample showing that
    the binomial collapse needs genuine randomness.
    """
    return CoinEnsemble(
        name=name,
        draw_parameters=partial(_draw_fixed, a=coin.a, b=coin.b, c=coin.c, d=coin.d),
        finite_support=((coin, 1.0),),
        declared_moments=DeclaredMoments(
            abs(coin.a) ** 2, abs(coin.b) ** 2, coin.a * coin.c.conjugate()
        ),
    )


# --- moment audits ----------------------------------------------------------

MomentFlag = Literal["satisfied", "violated", "inconclusive"]

#: Minimum sample size for the normal-theory 4-standard-error band.
_AUDIT_MIN_DRAWS = 100

#: Coins sampled at a time.  Each chunk's sums are added to the running
#: totals, so this grouping is part of the result's bits.
_AUDIT_CHUNK = 1 << 20

#: Rows of moment values formed and reduced at a time inside a chunk.
_AUDIT_PIECE = 1 << 12


@dataclass(frozen=True)
class MomentReport:
    """Estimated coin moments with standard errors and condition flags.

    `estimates` holds E|a|^2, E|b|^2, E|c|^2, E|d|^2, E(a conj c),
    E(b conj d); for a complex moment the standard error combines the real
    and imaginary component variances.  `eq_balance` flags
    E|a|^2 = E|b|^2 = 1/2 and `eq_cross` flags E(a conj c) = 0, each as
    satisfied (inside 4 standard errors, or within 1e-12 when exact),
    violated (outside), or inconclusive (sample too small for the band).
    """

    ensemble: str
    draws: int
    exact: bool
    estimates: dict[str, complex]
    stderrs: dict[str, float]
    eq_balance: MomentFlag
    eq_cross: MomentFlag
    declared: DeclaredMoments | None = None

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
        if self.declared is not None and self.declared.a_conj_c is not None:
            payload["declared_a_conj_c"] = [
                complex(self.declared.a_conj_c).real,
                complex(self.declared.a_conj_c).imag,
            ]
        return payload


def _flag(distance: float, stderr: float, draws: int, exact: bool) -> MomentFlag:
    if exact or stderr == 0.0:
        return "satisfied" if distance <= 1e-12 else "violated"
    if draws < _AUDIT_MIN_DRAWS:
        return "inconclusive"
    return "satisfied" if distance < 4.0 * stderr else "violated"


def _combine(*flags: MomentFlag) -> MomentFlag:
    for level in ("violated", "inconclusive"):
        if level in flags:
            return level
    return "satisfied"


_MOMENT_NAMES = ("abs_a_sq", "abs_b_sq", "abs_c_sq", "abs_d_sq", "a_conj_c", "b_conj_d")


def _cross_products(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a conj(c) and b conj(d) of every coin row.

    Always taken over the whole columns of `rows`, out of place: numpy's
    complex multiply can round some elements differently when the same
    columns are multiplied in pieces or in place.
    """
    a, b, c, d = rows.T
    return a * np.conj(c), b * np.conj(d)


def _fill_moment_values(out: np.ndarray, rows: np.ndarray, a_conj_c, b_conj_d) -> None:
    """Write the six moment values of each coin row into the rows of `out`."""
    for k in range(4):
        x = rows[:, k]
        out[:, k] = x.real**2 + x.imag**2
    out[:, 4] = a_conj_c
    out[:, 5] = b_conj_d


def _chunk_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over coin rows of the six moment values and of their squared parts.

    Returns the complex (6,) sum and the (6, 2) sums of the squared real
    and imaginary parts.  The values are formed `_AUDIT_PIECE` rows at a
    time.  An axis-0 sum of a C-ordered array adds its rows one after
    another, so reducing each piece with the running sum carried in as its
    row 0 gives the same bits as one sum over all the rows.
    """
    a_conj_c, b_conj_d = _cross_products(rows)
    piece_rows = min(len(rows), _AUDIT_PIECE)
    values = np.empty((piece_rows + 1, len(_MOMENT_NAMES)), dtype=np.complex128)
    squares = np.empty((piece_rows + 1, 2 * len(_MOMENT_NAMES)))
    for lo in range(0, len(rows), _AUDIT_PIECE):
        hi = min(lo + _AUDIT_PIECE, len(rows))
        first = 1 if lo == 0 else 0
        piece = values[1 : hi - lo + 1]
        _fill_moment_values(piece, rows[lo:hi], a_conj_c[lo:hi], b_conj_d[lo:hi])
        np.square(piece.view(np.float64), out=squares[1 : hi - lo + 1])
        values[0] = np.add.reduce(values[first : hi - lo + 1], axis=0)
        squares[0] = np.add.reduce(squares[first : hi - lo + 1], axis=0)
    return values[0], squares[0].reshape(len(_MOMENT_NAMES), 2)


def audit_moments(ensemble: CoinEnsemble, draws: int, seed: int = 0) -> MomentReport:
    """Estimate the six coin moments and flag both moment conditions.

    Finite-support ensembles are evaluated exactly (zero standard error);
    otherwise `draws` coins are sampled from the stream for `seed` and
    the flags use a 4-standard-error acceptance band (false-alarm rate
    about 6e-5 per check).
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")

    if ensemble.finite_support is not None:
        rows = np.array([[c.a, c.b, c.c, c.d] for c, _ in ensemble.finite_support])
        weights = np.array([w for _, w in ensemble.finite_support])
        values = np.empty((len(rows), len(_MOMENT_NAMES)), dtype=np.complex128)
        _fill_moment_values(values, rows, *_cross_products(rows))
        means = weights @ values
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {name: 0.0 for name in _MOMENT_NAMES}
        exact = True
    else:
        from .streams import substream

        rng = substream(seed)
        total = np.zeros(len(_MOMENT_NAMES), dtype=np.complex128)
        total_sq = np.zeros((len(_MOMENT_NAMES), 2), dtype=np.float64)
        remaining = draws
        while remaining > 0:
            chunk = min(remaining, _AUDIT_CHUNK)
            value_sum, square_sum = _chunk_sums(ensemble.sample_batch(rng, chunk))
            total += value_sum
            total_sq += square_sum
            remaining -= chunk
        means = total / draws
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {}
        for i, name in enumerate(_MOMENT_NAMES):
            if draws < 2:
                stderrs[name] = 0.0
                continue
            var_re = max(total_sq[i, 0] - draws * means[i].real ** 2, 0.0) / (draws - 1)
            var_im = max(total_sq[i, 1] - draws * means[i].imag ** 2, 0.0) / (draws - 1)
            stderrs[name] = math.sqrt((var_re + var_im) / draws)
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
        declared=ensemble.declared_moments,
    )


# --- initial states ----------------------------------------------------------

#: Balanced fixed initial state (1, i)/sqrt 2: |alpha| = |beta| = 1/sqrt 2
#: and alpha conj(beta) + conj(alpha) beta = 0.
CASE_I_DEFAULT = QubitState(_INV_SQRT2, 1j * _INV_SQRT2)

StateDraw = Callable[[np.random.Generator, int], np.ndarray]


def _uniform_phase_states(u: np.ndarray) -> np.ndarray:
    theta = _uniform_angle(u)
    out = np.empty((u.size, 2), dtype=np.complex128)
    out[:, 0] = np.cos(theta)
    out[:, 1] = np.sin(theta)
    return out


@dataclass(frozen=True)
class InitialStateRule:
    """Fixed or random initial chirality state of a walk realization.

    Fixed rules never touch the stream; random rules draw one state per
    realization, vectorizable via `draw_batch`.  A fixed rule needs a
    `state` and a random one `draw_parameters`; construction raises
    ValueError otherwise.
    """

    kind: Literal["fixed", "random"]
    case_label: Literal["case_i", "case_ii", "none"]
    state: QubitState | None = None
    draw_parameters: StateDraw | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if self.state is None:
                raise ValueError("a fixed initial-state rule needs a state")
        elif self.kind == "random":
            if self.draw_parameters is None:
                raise ValueError("a random initial-state rule needs draw_parameters")
        else:
            raise ValueError(f"initial-state rule kind must be fixed or random, got {self.kind!r}")

    def draw(self, rng: np.random.Generator | None = None) -> QubitState:
        if self.kind == "fixed":
            return self.state
        if rng is None:
            raise ValueError("a random initial-state rule needs a generator")
        alpha, beta = self.draw_parameters(rng, 1)[0]
        return QubitState(complex(alpha), complex(beta))

    def draw_batch(self, rng: np.random.Generator | None, size: int) -> np.ndarray:
        """(size, 2) array of (alpha, beta) rows."""
        if self.kind == "fixed":
            out = np.empty((size, 2), dtype=np.complex128)
            out[:, 0] = self.state.alpha
            out[:, 1] = self.state.beta
            return out
        if rng is None:
            raise ValueError("a random initial-state rule needs a generator")
        return np.asarray(self.draw_parameters(rng, size), dtype=np.complex128)

    def config(self):
        if self.kind == "random":
            return "caseII"
        if self.case_label == "case_i":
            return "caseI"
        return [
            [self.state.alpha.real, self.state.alpha.imag],
            [self.state.beta.real, self.state.beta.imag],
        ]


def make_initial_state(rule_spec) -> InitialStateRule:
    """Build an initial-state rule from a short specification.

    Accepted forms:

    * ``"caseI"``: the fixed balanced state (1, i)/sqrt 2.
    * ``"caseII"``: random (cos t, sin t) with t uniform on [0, 2pi),
      which has E|alpha|^2 = 1/2 and E(alpha conj beta) = 0.
    * ``(alpha, beta)`` or a `QubitState`: a fixed custom state; must be
      unit norm.
    """
    if isinstance(rule_spec, str):
        key = rule_spec.strip().lower()
        if key in ("casei", "casei_default", "case_i"):
            return InitialStateRule(kind="fixed", case_label="case_i", state=CASE_I_DEFAULT)
        if key in ("caseii", "caseii_uniform_phase", "case_ii"):
            return InitialStateRule(
                kind="random",
                case_label="case_ii",
                draw_parameters=UniformDraw(_uniform_phase_states),
            )
        raise ValueError(f"unknown initial-state rule {rule_spec!r}")
    if isinstance(rule_spec, QubitState):
        return InitialStateRule(kind="fixed", case_label="none", state=rule_spec)
    try:
        alpha, beta = rule_spec
    except (TypeError, ValueError):
        raise ValueError(f"cannot interpret initial-state rule {rule_spec!r}") from None
    return InitialStateRule(
        kind="fixed", case_label="none", state=QubitState(complex(alpha), complex(beta))
    )
