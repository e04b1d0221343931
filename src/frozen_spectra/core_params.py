"""Problem configuration for the frozen-argument boundary value problem.

A problem instance is determined by two boundary flags alpha, beta in {0,1}
(value vs. derivative condition at the endpoints) and a rational frozen
argument a = j/k in lowest terms.  This module owns the validated config,
the sign constants c = (-1)^(beta+1), d = (-1)^(alpha+beta), and the exact
degenerate / non-degenerate case split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


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
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        missing = [key for key in ("alpha", "beta", "j", "k") if key not in d]
        if missing:
            raise ValueError(f"config has no {', '.join(map(repr, missing))}")
        return make_config(d["alpha"], d["beta"], d["j"], d["k"])


@dataclass(frozen=True)
class SignPair:
    c: int
    d: int


@dataclass(frozen=True)
class Classification:
    kind: Kind
    case_label: Case


def require_flags(alpha, beta) -> None:
    """ValueError unless alpha and beta are each the int 0 or 1; a bool is not a flag."""
    if not (type(alpha) is int and type(beta) is int and alpha in (0, 1) and beta in (0, 1)):
        raise ValueError("alpha and beta must be 0 or 1")


def make_config(alpha: int, beta: int, j: int, k: int) -> ProblemConfig:
    """Validated config with j/k silently reduced to lowest terms."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (alpha, beta, j, k)):
        raise ValueError("alpha, beta, j and k must be integers")
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


def sign_pair(config: ProblemConfig) -> SignPair:
    c = (-1) ** (config.beta + 1)
    d = (-1) ** (config.alpha + config.beta)
    return SignPair(c, d)


def classify(config: ProblemConfig) -> Classification:
    """Exact degenerate / non-degenerate case split.

    Degenerate (matrix singular, iso-spectral families exist):
      (I)   alpha = beta = 0
      (II)  alpha = 0, beta = 1, j even
      (III) alpha = 1, beta = 0, k + j even
      (IV)  alpha = beta = 1, k even
    Non-degenerate: the complementary cases (V)-(VII).  The parity rules
    are valid for every relevant j in {0, ..., k}, not only j <= k/2.
    """
    a, b, j, k = config.alpha, config.beta, config.j, config.k
    if a == 0 and b == 0:
        return Classification(Kind.DEGENERATE, Case.I)
    if a == 0 and b == 1:
        if j % 2 == 0:
            return Classification(Kind.DEGENERATE, Case.II)
        return Classification(Kind.NON_DEGENERATE, Case.V)
    if a == 1 and b == 0:
        if (k + j) % 2 == 0:
            return Classification(Kind.DEGENERATE, Case.III)
        return Classification(Kind.NON_DEGENERATE, Case.VI)
    if k % 2 == 0:
        return Classification(Kind.DEGENERATE, Case.IV)
    return Classification(Kind.NON_DEGENERATE, Case.VII)
