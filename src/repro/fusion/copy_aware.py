"""ACCUCOPY — copying-aware fusion (Section 4.1).

ACCUCOPY augments ACCUFORMAT by weighting each source's vote by the
probability that it provided the value *independently*: copy detection runs
against the current selection (Dong et al. 2009), and a vote shared with
likely copy partners is discounted.  Detection is a pure function of the
selection, so a round whose selection equals the one last detected on
keeps the previous independence weights.

Two extra modes support the paper's experiments:

* ``known_groups`` — Table 7's "given the discovered copying" mode: the
  ground-truth groups are supplied and detection is skipped;
* ``similarity_aware_detection`` — the Section 5 ablation: copy detection
  credits values highly similar to the truth as true, avoiding the false
  positives that hurt ACCUCOPY on Stock.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.copying.detection import (
    DEFAULT_COPY_PROB,
    detect_copying,
    independence_weights,
    known_groups_matrix,
    selection_accuracy,
)
from repro.fusion.base import (
    FusionProblem,
    accumulate_by_cluster,
    softmax_per_item,
)
from repro.fusion.bayesian import AccuFormat, _TRUST_CLIP


class AccuCopy(AccuFormat):
    """ACCUFORMAT with votes discounted by copy-dependence probabilities."""

    name = "AccuCopy"
    per_attribute_trust = False
    uses_copy_detection = True

    def __init__(
        self,
        known_groups: Optional[Sequence[Sequence[str]]] = None,
        similarity_aware_detection: bool = False,
        copy_probability: float = DEFAULT_COPY_PROB,
        agreement_gate: Optional[float] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.known_groups = known_groups
        self.similarity_aware_detection = similarity_aware_detection
        self.copy_probability = copy_probability
        #: None uses the detector default; 0 disables the gate (the raw
        #: Dong et al. behaviour, which false-positives on honest sources —
        #: the paper's Stock failure mode; see the copy-detection ablation).
        self.agreement_gate = agreement_gate

    def _initial_state(self, problem: FusionProblem, trust_seed):
        state = super()._initial_state(problem, trust_seed)
        if self.known_groups is not None:
            dependence = known_groups_matrix(problem, self.known_groups)
            state["independence"] = independence_weights(
                problem, dependence, self.copy_probability
            )
        else:
            state["independence"] = np.ones(problem.n_claims)
        return state

    def _votes(self, problem: FusionProblem, state: Dict[str, np.ndarray]) -> np.ndarray:
        per_claim = self._vote_counts(problem, state) * state["independence"]
        scores = accumulate_by_cluster(problem, per_claim)
        if self.use_popularity:
            scores = scores + self._popularity_discount(problem) * problem.cluster_support
        if self.use_format:
            fmt_source, fmt_cluster, fmt_w = problem.format_edges
            if len(fmt_source):
                acc = np.clip(state["trust"][fmt_source], *_TRUST_CLIP)
                votes = np.log(self.n_false_values * acc / (1.0 - acc))
                np.add.at(scores, fmt_cluster, fmt_w * votes)
        if self.use_similarity:
            sim_a, sim_b, sim_w = problem.similarity_edges
            if len(sim_a):
                base = scores.copy()
                np.add.at(scores, sim_b, self.rho * sim_w * base[sim_a])
        return softmax_per_item(problem, scores)

    def _update_trust(self, problem, state, scores, selected) -> np.ndarray:
        new_trust = super()._update_trust(problem, state, scores, selected)
        # The last detected selection lives in the state dict (not on the
        # method) so the instance stays stateless and shareable across solves.
        if self.known_groups is None and not np.array_equal(
            selected, state.get("detected_on")
        ):
            kwargs = {}
            if self.agreement_gate is not None:
                kwargs["agreement_gate"] = self.agreement_gate
            detection = detect_copying(
                problem,
                selected,
                accuracy=selection_accuracy(problem, selected),
                copy_probability=self.copy_probability,
                similarity_aware=self.similarity_aware_detection,
                **kwargs,
            )
            state["independence"] = independence_weights(
                problem, detection.probability, self.copy_probability
            )
            state["detected_on"] = selected
        return new_trust
