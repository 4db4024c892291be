"""Simulation scenarios and their file format.

A scenario fixes everything a simulation needs: the population (one HWE
stratum, or a mixture of two), the penetrances (or the null hypothesis),
case/control sample sizes, whether the +1/2 continuity correction is
applied, and sidedness.

Scenario files are JSON: either a list of records or a single record.
Recognized keys per record:

    id          optional name used in reports
    model       null | custom | recessive | additive | dominant (or rec,
                add, dom), in any case; checked before any penetrance
    f0, f2      penetrances (f1 derived from the model; custom needs f1)
    f1          explicit heterozygote penetrance; a named model's f1 must
                match its rule, or the record is rejected
    p           allele frequency (single HWE population)
    pA, pB      stratum allele frequencies (mixture)
    R1, R2      per-stratum case counts (mixture)
    S1, S2      per-stratum control counts (mixture)
    r, s        total cases / controls; optional for a mixture, where
                they must equal R1 + R2 and S1 + S2
    correction  JSON boolean, default true
    sidedness   "one" | "two", default "two"

Frequencies and penetrances must be JSON numbers (0.3, not "0.3", null
or true). Counts must be integral (250 or 250.0, not 2.7 or "250").
``id``, ``model`` and ``sidedness`` must be strings and ``correction`` a
JSON boolean. Anything else raises :class:`ScenarioError` naming the key
and the record's position in the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioError, TrendmaxError
from .population import (
    PenetranceModel,
    Stratum,
    canonical_model_kind,
    case_control_probs,
    hwe_genotype_freqs,
    penetrances_for_model,
)

# The multinomial sampler takes counts as int64.
_MAX_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Scenario:
    """A simulated case-control study.

    ``population`` holds one or two :class:`Stratum` records, as in the
    file format: one for a single HWE population (``p``, ``r``, ``s``),
    two for a mixture (``pA``, ``R1``, ``S1`` and ``pB``, ``R2``, ``S2``).
    The case and control totals are derived from the strata.
    ``penetrances`` is None for the null hypothesis.
    """

    population: tuple[Stratum, ...]
    penetrances: PenetranceModel | None
    correction: bool = True
    two_sided: bool = True
    label: str = ""

    def __post_init__(self):
        if len(self.population) not in (1, 2):
            raise ScenarioError(f"a scenario has one or two strata, got {len(self.population)}")
        for p, cases, controls in self.population:
            hwe_genotype_freqs(p)  # raises FrequencyOutOfRange outside (0, 1)
            for k in (cases, controls):
                if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
                    raise ScenarioError(f"case and control counts must be positive integers, got {k!r}")
                if k > _MAX_COUNT:
                    raise ScenarioError(f"case and control counts must not exceed {_MAX_COUNT}, got {k!r}")

    @property
    def n_cases(self) -> int:
        return sum(stratum.cases for stratum in self.population)

    @property
    def n_controls(self) -> int:
        return sum(stratum.controls for stratum in self.population)

    @property
    def is_null(self) -> bool:
        return self.penetrances is None

    def null_scenario(self) -> "Scenario":
        """The matching null: same population, sizes, correction and sidedness."""
        if self.is_null:
            return self
        return replace(self, penetrances=None, label=self.label + ":null" if self.label else "")

    def key(self) -> tuple:
        """Fingerprint of everything the null distribution depends on."""
        return (self.population, self.correction, self.two_sided)

    def strata(self) -> list[tuple[tuple[float, float, float], tuple[float, float, float], int, int]]:
        """Per-stratum (case probs, control probs, cases, controls).

        Each stratum gets its own prevalence from the shared penetrances;
        under the null both rows are the stratum's genotype frequencies.
        """
        out = []
        for p, cases, controls in self.population:
            probs = (hwe_genotype_freqs(p),) * 2 if self.is_null else case_control_probs(self.penetrances, p)
            out.append((*probs, cases, controls))
        return out

    def describe(self) -> dict:
        """JSON-serializable record (round-trips through parse_scenario_record)."""
        rec: dict = {"r": self.n_cases, "s": self.n_controls, "model": "null", "correction": self.correction,
                     "sidedness": "two" if self.two_sided else "one"}
        if self.label:
            rec["id"] = self.label
        if len(self.population) == 1:
            rec["p"] = self.population[0].p
        else:
            (pa, r1, s1), (pb, r2, s2) = self.population
            rec.update(pA=pa, pB=pb, R1=r1, R2=r2, S1=s1, S2=s2)
        if self.penetrances is not None:
            pen = self.penetrances
            rec.update(model=pen.kind, f0=pen.f0, f1=pen.f1, f2=pen.f2)
        return rec


def distinct_nulls(scenarios) -> dict[tuple, Scenario]:
    """Each distinct ``key()`` of a pack, in first-seen order, mapped to its first scenario's null."""
    nulls = {}
    for scenario in scenarios:
        if scenario.key() not in nulls:
            nulls[scenario.key()] = scenario.null_scenario()
    return nulls


def scenario_hash(scenarios) -> str:
    """Stable hash of a scenario list, for output provenance headers."""
    blob = json.dumps([s.describe() for s in scenarios], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_ALLOWED_KEYS = {
    "id", "model", "f0", "f1", "f2", "p", "pA", "pB",
    "R1", "R2", "S1", "S2", "r", "s", "correction", "sidedness",
}


def parse_scenario_record(rec: dict) -> Scenario:
    """One record's :class:`Scenario`; :func:`parse_scenarios` prefixes any error with its position."""
    if not isinstance(rec, dict):
        raise ScenarioError(f"expected an object, got {type(rec).__name__}")
    unknown = set(rec) - _ALLOWED_KEYS
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}")

    def need(key):
        if key not in rec:
            raise ScenarioError(f"missing required key {key!r}")
        return rec[key]

    def count(key):
        value = need(key)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ScenarioError(f"{key!r} must be an integer count, got {value!r}")

    def number(key):
        value = need(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ScenarioError(f"{key!r} must be a number, got {value!r}")

    def string(key, default):
        value = rec.get(key, default)
        if isinstance(value, str):
            return value
        raise ScenarioError(f"{key!r} must be a string, got {value!r}")

    if any(k in rec for k in ("pA", "pB", "R1", "R2", "S1", "S2")):
        if "p" in rec:
            raise ScenarioError("give either p or the mixture keys, not both")
        population = (Stratum(number("pA"), count("R1"), count("S1")),
                      Stratum(number("pB"), count("R2"), count("S2")))
        (_, r1, s1), (_, r2, s2) = population
        if "r" in rec and count("r") != r1 + r2:
            raise ScenarioError(f"mixture case split {r1}+{r2} does not sum to r={count('r')}")
        if "s" in rec and count("s") != s1 + s2:
            raise ScenarioError(f"mixture control split {s1}+{s2} does not sum to s={count('s')}")
    else:
        population = (Stratum(number("p"), count("r"), count("s")),)

    model = string("model", "null")  # resolved before any penetrance is read, by population's rule
    kind = None if model.lower() == "null" else canonical_model_kind(model)
    explicit_f1 = kind == "custom" or "f1" in rec
    f = () if kind is None else tuple(number(k) for k in ("f0", "f1", "f2") if k != "f1" or explicit_f1)
    label = string("id", "")

    correction = rec.get("correction", True)
    if not isinstance(correction, bool):
        raise ScenarioError(f"'correction' must be true or false, got {correction!r}")

    sided = string("sidedness", "two")
    if sided not in ("one", "two"):
        raise ScenarioError(f"sidedness must be 'one' or 'two', got {sided!r}")

    if kind is None:
        pen = None
    elif explicit_f1:
        pen = PenetranceModel(*f, kind=kind)
    else:
        pen = penetrances_for_model(kind, *f)
    return Scenario(population, pen, correction, two_sided=(sided == "two"), label=label)


def parse_scenarios(text: str, source: str = "<scenarios>") -> list[Scenario]:
    """Parse a scenario file body (JSON list or single object)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc
    records = data if isinstance(data, list) else [data]
    scenarios = []
    for i, rec in enumerate(records):
        try:  # the record's own checks, the model's and the strata's
            scenario = parse_scenario_record(rec)
        except TrendmaxError as exc:
            raise ScenarioError(f"{source}[{i}]: {exc}") from exc
        if not scenario.label:
            scenario = replace(scenario, label=f"scenario{i}")
        scenarios.append(scenario)
    if not scenarios:
        raise ScenarioError(f"{source}: no scenarios found")
    return scenarios


def load_scenarios(path) -> list[Scenario]:
    """Parse the scenario file at ``path``: UTF-8 JSON, a leading BOM allowed (see the module docstring)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_scenarios(fh.read(), source=str(path))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
