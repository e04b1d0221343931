"""Problem configuration for the frozen-argument boundary value problem.

A problem instance is determined by two boundary flags alpha, beta in {0,1}
(value vs. derivative condition at the endpoints) and a rational frozen
argument a = j/k in lowest terms.  This module owns the validated config,
the sign constants c = (-1)^(beta+1), d = (-1)^(alpha+beta) (signs), and
the exact degenerate / non-degenerate case split (degenerate, classify).
signs and degenerate are formulas on the flags: ints give ints, and int
arrays broadcast, so one call serves a config or a stack of flag pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral


class Kind(str, Enum):
    DEGENERATE = "Degenerate"
    NON_DEGENERATE = "NonDegenerate"


class Case(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"


@dataclass(frozen=True)
class ProblemConfig:
    alpha: int
    beta: int
    j: int
    k: int

    @property
    def a(self) -> Fraction:
        return Fraction(self.j, self.k)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "j": self.j, "k": self.k}

    @staticmethod
    def from_dict(d: dict) -> "ProblemConfig":
        require_keys(d, "config", ("alpha", "beta", "j", "k"))
        return make_config(d["alpha"], d["beta"], d["j"], d["k"])


@dataclass(frozen=True)
class Classification:
    kind: Kind
    case_label: Case


def require_flags(alpha, beta) -> None:
    """ValueError naming both values unless alpha and beta are each the int 0 or 1; a bool is not a flag."""
    if not (type(alpha) is int and type(beta) is int and alpha in (0, 1) and beta in (0, 1)):
        raise ValueError(f"alpha and beta must be 0 or 1, got {alpha!r} and {beta!r}")


def require_keys(d, name: str, keys: tuple[str, ...]) -> None:
    """ValueError, naming the input, unless d is a JSON object (a dict) holding every key; it names those missing."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{name} has no {', '.join(map(repr, missing))}")


def load_json(path, parse):
    """parse of the JSON value in the file at path; every ValueError, malformed JSON included, names the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def allocate(make, refusal: str):
    """make(), a call that only allocates; a size the allocator refuses is a ValueError with the message refusal.

    make's one failure is the allocator's: a MemoryError when the memory is
    missing, a ValueError when the size is beyond the platform's index range.
    """
    try:
        return make()
    except (MemoryError, ValueError):
        raise ValueError(refusal) from None


def is_int(v) -> bool:
    """True for an int or a numpy integer; a bool is not an index, a count or a size."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def make_config(alpha: int, beta: int, j: int, k: int) -> ProblemConfig:
    """Validated config with j/k silently reduced to lowest terms; a numpy integer is stored as the int it equals."""
    if not (is_int(alpha) and is_int(beta) and is_int(j) and is_int(k)):
        raise ValueError("alpha, beta, j and k must be integers")
    alpha, beta, j, k = int(alpha), int(beta), int(j), int(k)
    require_flags(alpha, beta)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k so that a = j/k lies in [0, 1]")
    g = math.gcd(j, k)
    return ProblemConfig(alpha, beta, j // g, k // g)


def coprime_configs(kmax: int) -> list[ProblemConfig]:
    """All normalized configs with 1 <= j <= k/2, gcd(j, k) = 1 and k <= kmax."""
    return [
        ProblemConfig(alpha, beta, j, k)
        for k in range(2, kmax + 1)
        for j in range(1, k // 2 + 1)
        if math.gcd(j, k) == 1
        for alpha in (0, 1)
        for beta in (0, 1)
    ]


def normalize_to_half(config: ProblemConfig) -> tuple[ProblemConfig, bool]:
    """Reflect a > 1/2 onto a <= 1/2.

    The spectrum is invariant under q(x) -> q(1-x), a -> 1-a with the
    boundary flags swapped, so configs with 2j > k map to
    (beta, alpha, k - j, k).  Returns (config, reflected); when reflected
    is True the caller must mirror potentials x -> 1-x.
    """
    if 2 * config.j > config.k:
        return (
            ProblemConfig(config.beta, config.alpha, config.k - config.j, config.k),
            True,
        )
    return config, False


def require_normalized(config: ProblemConfig) -> None:
    """ValueError unless 2j <= k, the range a <= 1/2 the main equation is written for."""
    if 2 * config.j > config.k:
        raise ValueError(
            f"config must be normalized (2j <= k), got j={config.j}, k={config.k}; "
            "apply normalize_to_half first"
        )


def require_grid(f, config: ProblemConfig) -> None:
    """ValueError unless the grid function f has the config's k subintervals."""
    if f.k != config.k:
        raise ValueError(f"grid has k={f.k} but config needs k={config.k}")


_I, _II, _III, _IV = (Classification(Kind.DEGENERATE, case) for case in (Case.I, Case.II, Case.III, Case.IV))
_V, _VI, _VII = (Classification(Kind.NON_DEGENERATE, case) for case in (Case.V, Case.VI, Case.VII))
_DEGENERATE_CASES = {(0, 0): _I, (0, 1): _II, (1, 0): _III, (1, 1): _IV}
_NON_DEGENERATE_CASES = {(0, 1): _V, (1, 0): _VI, (1, 1): _VII}


def signs(alpha, beta):
    """The sign constants (c, d): c = (-1)^(beta+1) = 2 beta - 1, d = (-1)^(alpha+beta) = 1 - 2 (alpha xor beta).

    Ints give two ints; int arrays broadcast and give two int arrays, one
    entry per flag pair.
    """
    return 2 * beta - 1, 1 - 2 * (alpha ^ beta)


def degenerate(alpha, beta, j, k):
    """The parity rule of classify: degenerate iff alpha k + (alpha xor beta) j is even.

    Per flag pair that is: always for (0,0), j even for (0,1), k + j even
    for (1,0), k even for (1,1).  Ints give a bool; int arrays broadcast
    and give a bool array, one entry per config.
    """
    return (alpha * k + (alpha ^ beta) * j) % 2 == 0


def classify(config: ProblemConfig) -> Classification:
    """Exact degenerate / non-degenerate case split, as the one shared Classification of the case.

    Degenerate (matrix singular, iso-spectral families exist):
      (I)   alpha = beta = 0
      (II)  alpha = 0, beta = 1, j even
      (III) alpha = 1, beta = 0, k + j even
      (IV)  alpha = beta = 1, k even
    Non-degenerate: the complementary cases (V)-(VII).  The parity rules
    (degenerate) are valid for every relevant j in {0, ..., k}, not only
    j <= k/2.
    """
    a, b = config.alpha, config.beta
    return (_DEGENERATE_CASES if degenerate(a, b, config.j, config.k) else _NON_DEGENERATE_CASES)[a, b]
