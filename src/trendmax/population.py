"""Genetic population model.

Penetrances f_i = Pr(case | genotype i) together with population genotype
frequencies g_i determine the disease prevalence D = sum f_i g_i and, via
Bayes' rule, the genotype distributions seen in cases and controls:

    p_i = f_i g_i / D        (cases)
    q_i = (1 - f_i) g_i / (1 - D)   (controls)

A sampled population is one or two :class:`Stratum` records, each a
random-mating population with allele frequency p (genotype frequencies
(q^2, 2pq, p^2), q = 1 - p) that contributes a fixed number of cases and
controls. Two strata with different p give a pooled sample out of
Hardy-Weinberg equilibrium.
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

_KIND_ALIASES = {
    "rec": "recessive",
    "add": "additive",
    "dom": "dominant",
    "recessive": "recessive",
    "additive": "additive",
    "dominant": "dominant",
    "custom": "custom",
}


def canonical_model_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.lower()]
    except KeyError:
        raise InputError(f"unknown genetic model kind {kind!r}") from None


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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.f0, self.f1, self.f2)


@dataclass(frozen=True)
class GenotypeFreqs:
    """Population genotype frequencies (g0, g1, g2), summing to one."""

    g0: float
    g1: float
    g2: float

    def __post_init__(self):
        for g in (self.g0, self.g1, self.g2):
            if g < 0:
                raise InputError(f"genotype frequency {g!r} is negative")
        total = self.g0 + self.g1 + self.g2
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"genotype frequencies sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.g0, self.g1, self.g2)


@dataclass(frozen=True)
class CaseControlProbs:
    """Genotype distributions in cases (p) and controls (q), with prevalence D."""

    p0: float
    p1: float
    p2: float
    q0: float
    q1: float
    q2: float
    prevalence: float

    @property
    def case_probs(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)

    @property
    def control_probs(self) -> tuple[float, float, float]:
        return (self.q0, self.q1, self.q2)


class Stratum(NamedTuple):
    """One random-mating stratum: allele frequency p of M and its case and control counts."""

    p: float
    cases: int
    controls: int


def hwe_genotype_freqs(p: float) -> GenotypeFreqs:
    """Genotype frequencies (q^2, 2pq, p^2) under random mating, q = 1 - p."""
    if not 0.0 < p < 1.0:
        raise FrequencyOutOfRange(f"allele frequency {p!r} not in (0, 1)")
    q = 1.0 - p
    return GenotypeFreqs(q * q, 2.0 * p * q, p * p)


def prevalence(f: PenetranceModel, g: GenotypeFreqs) -> float:
    """Marginal disease probability D = f0 g0 + f1 g1 + f2 g2."""
    return f.f0 * g.g0 + f.f1 * g.g1 + f.f2 * g.g2


def case_control_probs(f: PenetranceModel, g: GenotypeFreqs) -> CaseControlProbs:
    """Genotype distributions in cases and controls implied by (f, g)."""
    d = prevalence(f, g)
    if not 0.0 < d < 1.0:
        raise DegeneratePrevalence(f"prevalence {d!r} not strictly in (0, 1)")
    p = tuple(fi * gi / d for fi, gi in zip(f.as_tuple(), g.as_tuple()))
    q = tuple((1.0 - fi) * gi / (1.0 - d) for fi, gi in zip(f.as_tuple(), g.as_tuple()))
    return CaseControlProbs(*p, *q, prevalence=d)


def penetrances_for_model(kind: str, f0: float, f2: float) -> PenetranceModel:
    """Fill in f1 from the genetic model: f0 (rec), midpoint (add), or f2 (dom)."""
    kind = canonical_model_kind(kind)
    if f2 < f0:
        raise OrderViolation(f"f2 ({f2!r}) must not be smaller than f0 ({f0!r})")
    if kind == "recessive":
        f1 = f0
    elif kind == "additive":
        f1 = (f0 + f2) / 2.0
    elif kind == "dominant":
        f1 = f2
    else:
        raise InputError("custom models require an explicit f1")
    return PenetranceModel(f0, f1, f2, kind=kind)
