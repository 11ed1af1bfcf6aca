"""The paper's methodology artifacts.

* :mod:`repro.core.taxonomy` — the 16 bounce-reason types (T1–T16), six
  categories, bounce degrees, causative entities, and five root causes of
  Table 2.
* :mod:`repro.core.drain` — a from-scratch implementation of the Drain
  fixed-depth-tree log template miner (He et al., ICWS 2017) used to cluster
  NDR messages into templates.
* :mod:`repro.core.features` / :mod:`repro.core.classifier` — TF-IDF n-gram
  features and a multinomial logistic-regression classifier (pure numpy),
  the stand-in for the paper's BERT model.
* :mod:`repro.core.labeling` — the "top-200 templates labelled with
  Coremail's professionals" step, reproduced as a keyword rule engine.
* :mod:`repro.core.ebrc` — the end-to-end Email Bounce Reason Classifier
  pipeline: cluster → label top templates → sample per type → train →
  majority-vote template prediction → evaluate.
"""

import importlib

from repro.core.taxonomy import (
    BounceType,
    BounceCategory,
    BounceDegree,
    CausativeEntity,
    RootCause,
)

__all__ = [
    "BounceType",
    "BounceCategory",
    "BounceDegree",
    "CausativeEntity",
    "RootCause",
    "Drain",
    "LogTemplate",
    "EBRC",
    "EBRCConfig",
    "EBRCEvaluation",
]

#: Names resolved on first use (PEP 562), so a process that only delivers
#: mail — a simulation worker — never imports the classifier stack.
_LAZY = {
    "Drain": "repro.core.drain",
    "LogTemplate": "repro.core.drain",
    "EBRC": "repro.core.ebrc",
    "EBRCConfig": "repro.core.ebrc",
    "EBRCEvaluation": "repro.core.ebrc",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value
