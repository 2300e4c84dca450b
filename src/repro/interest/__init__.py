"""Data-interest algebra.

Section 3.1 raises "the issue of how to represent the data interest of
the different queries as well as how to efficiently compute the
aggregation of data interest from different queries".  This package is
our answer:

* :mod:`repro.interest.predicates` — interests as per-attribute interval
  sets over a stream's schema, with intersection/union/containment;
* :mod:`repro.interest.overlap` — analytic overlap selectivity and
  shared-volume (bytes/second) between two interests, used as the query
  graph's edge weights (§3.2.2);
* :mod:`repro.interest.aggregate` — bounded-complexity aggregation of many
  interests into the filter an ancestor applies for a subtree (§3.1);
* :mod:`repro.interest.compiled` — codegen'd match kernels (one interest)
  and selection kernels (many at once), the hot-path forms of
  ``matches_values``.
"""

from repro.interest.aggregate import InterestAggregate, aggregate_interests
from repro.interest.compiled import compile_interest, compile_selector
from repro.interest.overlap import interest_rate, overlap_rate, overlap_selectivity
from repro.interest.predicates import Interval, IntervalSet, StreamInterest

__all__ = [
    "Interval",
    "IntervalSet",
    "StreamInterest",
    "compile_interest",
    "compile_selector",
    "overlap_selectivity",
    "overlap_rate",
    "interest_rate",
    "aggregate_interests",
    "InterestAggregate",
]
