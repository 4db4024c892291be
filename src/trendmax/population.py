"""Genetic population model.

A sampled population is one or two :class:`Stratum` records, each a
random-mating population with allele frequency p, genotype frequencies
g = (q^2, 2pq, p^2) with q = 1 - p, that contributes a fixed number of
cases and controls. Two strata with different p give a pooled sample out
of Hardy-Weinberg equilibrium.

Penetrances f_i = Pr(case | genotype i) together with g determine the
disease prevalence D = sum f_i g_i and, via Bayes' rule, the genotype
distributions seen in cases and controls:

    p_i = f_i g_i / D        (cases)
    q_i = (1 - f_i) g_i / (1 - D)   (controls)

The functions take the allele frequency p and return plain tuples, so a
frequency triple is always one that :func:`hwe_genotype_freqs` built
from a checked p.

A named genetic model is indexed by its dominance score x, which gives
f1 = (1 - x) f0 + x f2 and the model's optimal trend scores (0, x, 1).
:data:`DOMINANCE` holds recessive (x = 0), additive (1/2) and dominant
(1); for f0 >= 2**-1021 their f1 is exactly f0, (f0 + f2)/2 and f2. A
``custom`` model takes an explicit f1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegeneratePrevalence,
    FrequencyOutOfRange,
    InputError,
    OrderViolation,
)

# Each named model's dominance score; its three-letter prefix (rec, add, dom) names it too.
DOMINANCE = {"recessive": 0.0, "additive": 0.5, "dominant": 1.0}


def canonical_model_kind(kind: str) -> str:
    name = {key[:3]: key for key in DOMINANCE}.get(kind.lower(), kind.lower())
    if name not in DOMINANCE and name != "custom":
        raise InputError(f"unknown genetic model kind {kind!r}")
    return name


def _heterozygote(x: float, f0: float, f2: float) -> float:
    """f1 of the model with dominance score x."""
    return (1.0 - x) * f0 + x * f2


def optimal_score(kind: str) -> float:
    """Middle score x of the model's optimal trend test, scores (0, x, 1): its dominance score."""
    kind = canonical_model_kind(kind)
    if kind not in DOMINANCE:
        raise InputError(f"no optimal score for model kind {kind!r}")
    return DOMINANCE[kind]


@dataclass(frozen=True)
class PenetranceModel:
    """Disease probabilities (f0, f1, f2) for genotypes NN, NM, MM."""

    f0: float
    f1: float
    f2: float
    kind: str = "custom"

    def __post_init__(self):
        for f in (self.f0, self.f1, self.f2):
            if not 0.0 < f < 1.0:
                raise InputError(f"penetrance {f!r} must lie strictly in (0, 1)")
        if not self.f0 <= self.f1 <= self.f2:
            raise OrderViolation(
                f"penetrances must satisfy f0 <= f1 <= f2, got "
                f"({self.f0}, {self.f1}, {self.f2})"
            )
        object.__setattr__(self, "kind", canonical_model_kind(self.kind))
        if self.kind in DOMINANCE and self.f1 != (f1 := _heterozygote(DOMINANCE[self.kind], self.f0, self.f2)):
            raise InputError(f"{self.kind} model: f1 must be {f1!r} from f0 and f2, got {self.f1!r}")


class Stratum(NamedTuple):
    """One random-mating stratum: allele frequency p of M and its case and control counts."""

    p: float
    cases: int
    controls: int


def hwe_genotype_freqs(p: float) -> tuple[float, float, float]:
    """Genotype frequencies (q^2, 2pq, p^2) under random mating, q = 1 - p."""
    if not 0.0 < p < 1.0:
        raise FrequencyOutOfRange(f"allele frequency {p!r} not in (0, 1)")
    q = 1.0 - p
    return (q * q, 2.0 * p * q, p * p)


def prevalence(f: PenetranceModel, p: float) -> float:
    """Marginal disease probability D = f0 g0 + f1 g1 + f2 g2 at allele frequency p."""
    g0, g1, g2 = hwe_genotype_freqs(p)
    return f.f0 * g0 + f.f1 * g1 + f.f2 * g2


def case_control_probs(f: PenetranceModel, p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Genotype distributions (case probs, control probs) implied by f at allele frequency p."""
    d = prevalence(f, p)
    if not 0.0 < d < 1.0:
        raise DegeneratePrevalence(f"prevalence {d!r} not strictly in (0, 1)")
    pairs = tuple(zip((f.f0, f.f1, f.f2), hwe_genotype_freqs(p)))
    return tuple(fi * gi / d for fi, gi in pairs), tuple((1.0 - fi) * gi / (1.0 - d) for fi, gi in pairs)


def penetrances_for_model(kind: str, f0: float, f2: float) -> PenetranceModel:
    """Fill in f1 = (1 - x) f0 + x f2 from the model's dominance score x (see :data:`DOMINANCE`)."""
    kind = canonical_model_kind(kind)
    if f2 < f0:
        raise OrderViolation(f"f2 ({f2!r}) must not be smaller than f0 ({f0!r})")
    if kind not in DOMINANCE:
        raise InputError("custom models require an explicit f1")
    return PenetranceModel(f0, _heterozygote(DOMINANCE[kind], f0, f2), f2, kind=kind)
