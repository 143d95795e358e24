"""Method registry and the Table 6 feature matrix.

Every fusion method of the paper, keyed by its Table 6/7 name, with a
factory, its category, and the evidence types it uses.  Methods come in the
paper's order so the experiment tables render identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import FusionError
from repro.fusion.base import FusionMethod
from repro.fusion.bayesian import (
    AccuFormat,
    AccuFormatAttr,
    AccuPr,
    AccuSim,
    AccuSimAttr,
    PopAccu,
    TruthFinder,
)
from repro.fusion.copy_aware import AccuCopy
from repro.fusion.ir import Cosine, ThreeEstimates, TwoEstimates
from repro.fusion.vote import Vote
from repro.fusion.weblink import AvgLog, Hub, Invest, PooledInvest


@dataclass(frozen=True)
class MethodInfo:
    """One Table 6 row."""

    name: str
    category: str
    factory: Callable[[], FusionMethod]
    num_providers: bool = True
    source_trust: bool = False
    item_trust: bool = False
    value_popularity: bool = False
    value_similarity: bool = False
    value_formatting: bool = False
    copying: bool = False

    def features(self) -> Dict[str, bool]:
        return {
            "#Providers": self.num_providers,
            "Source trustworthiness": self.source_trust,
            "Item trustworthiness": self.item_trust,
            "Value popularity": self.value_popularity,
            "Value similarity": self.value_similarity,
            "Value formatting": self.value_formatting,
            "Copying": self.copying,
        }


_REGISTRY: List[MethodInfo] = [
    MethodInfo("Vote", "Baseline", Vote),
    MethodInfo("Hub", "Web-link based", Hub, source_trust=True),
    MethodInfo("AvgLog", "Web-link based", AvgLog, source_trust=True),
    MethodInfo("Invest", "Web-link based", Invest, source_trust=True),
    MethodInfo("PooledInvest", "Web-link based", PooledInvest, source_trust=True),
    MethodInfo("2-Estimates", "IR based", TwoEstimates, source_trust=True),
    MethodInfo("3-Estimates", "IR based", ThreeEstimates,
               source_trust=True, item_trust=True),
    MethodInfo("Cosine", "IR based", Cosine, source_trust=True),
    MethodInfo("TruthFinder", "Bayesian based", TruthFinder,
               source_trust=True, value_similarity=True),
    MethodInfo("AccuPr", "Bayesian based", AccuPr, source_trust=True),
    MethodInfo("PopAccu", "Bayesian based", PopAccu,
               source_trust=True, value_popularity=True),
    MethodInfo("AccuSim", "Bayesian based", AccuSim,
               source_trust=True, value_similarity=True),
    MethodInfo("AccuFormat", "Bayesian based", AccuFormat,
               source_trust=True, value_similarity=True, value_formatting=True),
    MethodInfo("AccuSimAttr", "Bayesian based", AccuSimAttr,
               source_trust=True, value_similarity=True),
    MethodInfo("AccuFormatAttr", "Bayesian based", AccuFormatAttr,
               source_trust=True, value_similarity=True, value_formatting=True),
    MethodInfo("AccuCopy", "Copying affected", AccuCopy,
               source_trust=True, value_similarity=True, value_formatting=True,
               copying=True),
]

_BY_NAME: Dict[str, MethodInfo] = {info.name: info for info in _REGISTRY}

#: Paper order, for rendering Tables 6, 7, and 9.
METHOD_NAMES: Tuple[str, ...] = tuple(info.name for info in _REGISTRY)

#: The methods compared in Table 7/9 excluding the baseline.
ITERATIVE_METHOD_NAMES: Tuple[str, ...] = tuple(
    name for name in METHOD_NAMES if name != "Vote"
)


def method_info(name: str) -> MethodInfo:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise FusionError(
            f"unknown fusion method {name!r}; known: {', '.join(METHOD_NAMES)}"
        ) from None


def make_method(name: str, **kwargs) -> FusionMethod:
    """Instantiate a method by its Table 6 name."""
    info = method_info(name)
    return info.factory(**kwargs) if kwargs else info.factory()


def all_method_infos() -> List[MethodInfo]:
    return list(_REGISTRY)


def feature_matrix() -> Dict[str, Dict[str, bool]]:
    """Table 6 as a nested dict: method -> evidence -> used?"""
    return {info.name: info.features() for info in _REGISTRY}
