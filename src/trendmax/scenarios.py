"""Simulation scenarios and their file format.

A scenario fixes everything a simulation needs: the population (single
HWE population or two-population mixture), the penetrances (or the null
hypothesis), case/control sample sizes, whether the +1/2 continuity
correction is applied, and sidedness.

Scenario files are JSON: either a list of records or a single record.
Recognized keys per record:

    id          optional name used in reports
    model       one of null | rec | add | dom | custom
    f0, f2      penetrances (f1 derived from the model; custom needs f1)
    f1          explicit heterozygote penetrance
    p           allele frequency (single HWE population)
    pA, pB      stratum allele frequencies (mixture)
    R1, R2      per-stratum case counts (mixture)
    S1, S2      per-stratum control counts (mixture)
    r, s        total cases / controls
    correction  JSON boolean, default true
    sidedness   "one" | "two", default "two"

Counts must be integral (250 or 250.0, not 2.7 or "250") and
``correction`` must be a JSON boolean; anything else raises
:class:`ScenarioError` naming the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .errors import ScenarioError
from .population import (
    HWEPopulation,
    MixturePopulation,
    PenetranceModel,
    PopulationSpec,
    canonical_model_kind,
    case_control_probs,
    hwe_genotype_freqs,
    penetrances_for_model,
)


@dataclass(frozen=True)
class Scenario:
    population: PopulationSpec
    penetrances: PenetranceModel | None
    n_cases: int
    n_controls: int
    correction: bool = True
    two_sided: bool = True
    label: str = ""

    def __post_init__(self):
        if self.n_cases <= 0 or self.n_controls <= 0:
            raise ScenarioError("case and control counts must be positive")
        if isinstance(self.population, MixturePopulation):
            if self.population.n_cases != self.n_cases:
                raise ScenarioError(
                    f"mixture case split {self.population.cases_a}+{self.population.cases_b} "
                    f"does not sum to r={self.n_cases}"
                )
            if self.population.n_controls != self.n_controls:
                raise ScenarioError(
                    f"mixture control split {self.population.controls_a}+"
                    f"{self.population.controls_b} does not sum to s={self.n_controls}"
                )

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
        return (self.population, self.n_cases, self.n_controls, self.correction, self.two_sided)

    def strata(self) -> list[tuple[tuple[float, float, float], tuple[float, float, float], int, int]]:
        """Per-stratum (case probs, control probs, cases, controls).

        Each stratum gets its own prevalence from the shared penetrances;
        under the null both rows are the stratum's genotype frequencies.
        """
        out = []
        if isinstance(self.population, HWEPopulation):
            groups = [(self.population.p, self.n_cases, self.n_controls)]
        else:
            pop = self.population
            groups = [
                (pop.pa, pop.cases_a, pop.controls_a),
                (pop.pb, pop.cases_b, pop.controls_b),
            ]
        for p, n_cases, n_controls in groups:
            g = hwe_genotype_freqs(p)
            if self.penetrances is None:
                probs = g.as_tuple(), g.as_tuple()
            else:
                cc = case_control_probs(self.penetrances, g)
                probs = cc.case_probs, cc.control_probs
            out.append((probs[0], probs[1], n_cases, n_controls))
        return out

    def describe(self) -> dict:
        """JSON-serializable record (round-trips through parse_scenario_record)."""
        rec: dict = {"r": self.n_cases, "s": self.n_controls}
        if self.label:
            rec["id"] = self.label
        if isinstance(self.population, HWEPopulation):
            rec["p"] = self.population.p
        else:
            pop = self.population
            rec.update(pA=pop.pa, pB=pop.pb, R1=pop.cases_a, R2=pop.cases_b,
                       S1=pop.controls_a, S2=pop.controls_b)
        if self.penetrances is None:
            rec["model"] = "null"
        else:
            rec["model"] = self.penetrances.kind
            rec["f0"] = self.penetrances.f0
            rec["f1"] = self.penetrances.f1
            rec["f2"] = self.penetrances.f2
        rec["correction"] = self.correction
        rec["sidedness"] = "two" if self.two_sided else "one"
        return rec


def scenario_hash(scenarios) -> str:
    """Stable hash of a scenario list, for output provenance headers."""
    blob = json.dumps([s.describe() for s in scenarios], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_ALLOWED_KEYS = {
    "id", "model", "f0", "f1", "f2", "p", "pA", "pB",
    "R1", "R2", "S1", "S2", "r", "s", "correction", "sidedness",
}


def parse_scenario_record(rec: dict, where: str = "scenario") -> Scenario:
    if not isinstance(rec, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(rec).__name__}")
    unknown = set(rec) - _ALLOWED_KEYS
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")

    def need(key):
        if key not in rec:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        return rec[key]

    def count(key):
        value = need(key)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ScenarioError(f"{where}: {key!r} must be an integer count, got {value!r}")

    mixture = any(k in rec for k in ("pA", "pB", "R1", "R2", "S1", "S2"))
    if mixture:
        if "p" in rec:
            raise ScenarioError(f"{where}: give either p or the mixture keys, not both")
        pop = MixturePopulation(
            pa=float(need("pA")), pb=float(need("pB")),
            cases_a=count("R1"), cases_b=count("R2"),
            controls_a=count("S1"), controls_b=count("S2"),
        )
        r = count("r") if "r" in rec else pop.n_cases
        s = count("s") if "s" in rec else pop.n_controls
    else:
        pop = HWEPopulation(p=float(need("p")))
        r = count("r")
        s = count("s")

    model = canonical_model_kind(str(rec.get("model", "null"))) if rec.get("model", "null") != "null" else "null"
    if model == "null":
        pen = None
    elif model == "custom":
        pen = PenetranceModel(float(need("f0")), float(need("f1")), float(need("f2")), kind="custom")
    else:
        f0 = float(need("f0"))
        f2 = float(need("f2"))
        if "f1" in rec:
            pen = PenetranceModel(f0, float(rec["f1"]), f2, kind=model)
        else:
            pen = penetrances_for_model(model, f0, f2)

    correction = rec.get("correction", True)
    if not isinstance(correction, bool):
        raise ScenarioError(f"{where}: 'correction' must be true or false, got {correction!r}")

    sided = str(rec.get("sidedness", "two"))
    if sided not in ("one", "two"):
        raise ScenarioError(f"{where}: sidedness must be 'one' or 'two', got {sided!r}")

    try:
        return Scenario(
            population=pop,
            penetrances=pen,
            n_cases=r,
            n_controls=s,
            correction=correction,
            two_sided=(sided == "two"),
            label=str(rec.get("id", "")),
        )
    except ScenarioError:
        raise
    except Exception as exc:  # wrap population validation errors with context
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenarios(text: str, source: str = "<scenarios>") -> list[Scenario]:
    """Parse a scenario file body (JSON list or single object)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc
    records = data if isinstance(data, list) else [data]
    scenarios = []
    for i, rec in enumerate(records):
        where = f"{source}[{i}]"
        scenario = parse_scenario_record(rec, where)
        if not scenario.label:
            scenario = replace(scenario, label=f"scenario{i}")
        scenarios.append(scenario)
    if not scenarios:
        raise ScenarioError(f"{source}: no scenarios found")
    return scenarios


def load_scenarios(path) -> list[Scenario]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenarios(fh.read(), source=str(path))
