"""Compiled interest predicates: codegen'd match and selection kernels.

``StreamInterest.matches_values`` walks a Python dict of constraints and
calls into :class:`~repro.interest.predicates.IntervalSet` per attribute
— fine for planning, but it is the per-tuple inner loop of both ancestor
early filtering (§3.1) and query-side selection, so every dispatch and
loop iteration is paid millions of times.  This module generates
**specialised Python functions** for exactly the constraints at hand:

* :func:`compile_interest` — one interest's ``values -> bool`` kernel;
* :func:`compile_selector` — a ``batch -> kept-lists`` kernel for many
  interests at once (a processor's head selections on one stream): one
  pass over the batch reads each constrained attribute once per tuple
  and tests every interest against the same locals.

In both, attributes are tested in a fixed, unrolled sequence (no dict
walk); a single-interval constraint becomes one chained comparison
``lo <= v <= hi`` with the bounds bound as argument defaults (locals,
not globals); a multi-interval constraint becomes a ``bisect`` over the
interval starts plus one upper-bound check; an unsatisfiable (empty)
constraint rejects every tuple carrying the attribute.

Both kernels are semantically identical to ``matches_values``: an
attribute absent from the tuple *or ``None``* passes, a present one
must lie inside the constraint's interval set (so NaN never does).
Kernels are cached per canonical interest shape, so recompiling the
same filter (e.g. after a dissemination-tree refresh that rebuilt an
equal aggregate, or a rewire that kept a processor's heads) is a dict
hit.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from repro.interest.predicates import IntervalSet, StreamInterest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.streams.tuples import StreamTuple

MatchFn = Callable[[dict], bool]
SelectFn = Callable[[list["StreamTuple"]], tuple[list["StreamTuple"], ...]]

# Compiled-kernel LRU cache, keyed by the canonical interest fingerprint
# (``StreamInterest.fingerprint``) for a match kernel and by the tuple
# of fingerprints for a selector — a tuple of tuples, so the two kinds
# of key never collide.  A hit moves the kernel to the MRU end;
# inserting past the limit evicts from the LRU end one at a time, so a
# long-running process with drifting interests keeps its hot kernels
# instead of periodically recompiling everything.
_CACHE: OrderedDict[tuple, Callable] = OrderedDict()
_CACHE_LIMIT = 4096
_HITS = 0
_MISSES = 0
_EVICTIONS = 0


class CacheInfo(NamedTuple):
    """Counters of the compiled-kernel LRU cache."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


def interest_key(interest: StreamInterest) -> tuple:
    """The canonical, hashable shape of an interest.

    Delegates to :meth:`StreamInterest.fingerprint` — the same canonical
    form the shared-computation optimizer groups filter operators by, so
    equal predicates across different queries share one kernel.
    """
    return interest.fingerprint()


def clear_cache() -> None:
    """Drop every cached kernel and reset counters (test isolation)."""
    global _HITS, _MISSES, _EVICTIONS
    _CACHE.clear()
    _HITS = _MISSES = _EVICTIONS = 0


def cache_size() -> int:
    """Number of kernels currently cached."""
    return len(_CACHE)


def cache_info() -> CacheInfo:
    """Hit/miss/eviction counters plus current and maximum size."""
    return CacheInfo(_HITS, _MISSES, _EVICTIONS, len(_CACHE), _CACHE_LIMIT)


def _cached(key: tuple, build: Callable[[], Callable]) -> Callable:
    """The cached kernel under ``key``, built on a miss."""
    global _HITS, _MISSES, _EVICTIONS
    fn = _CACHE.get(key)
    if fn is not None:
        _HITS += 1
        _CACHE.move_to_end(key)
        return fn
    _MISSES += 1
    fn = _CACHE[key] = build()
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
        _EVICTIONS += 1
    return fn


class _Source:
    """A generated function's parameters (bound constants) and body."""

    def __init__(self) -> None:
        self.namespace: dict[str, object] = {}
        self.params: list[str] = []
        self.body: list[str] = []

    def bind(self, name: str, value: object) -> str:
        """Bind ``value`` as the default of parameter ``name``."""
        self.namespace[name] = value
        self.params.append(f"{name}={name}")
        return name

    def within(self, var: str, ivs: IntervalSet, tag: str) -> str:
        """Expression: the (present, non-``None``) value in local ``var``
        lies inside ``ivs``.  Constants are bound under names ending in
        ``tag``."""
        intervals = ivs.intervals
        if not intervals:
            return "False"
        if len(intervals) == 1:
            lo = self.bind(f"_lo{tag}", intervals[0].lo)
            hi = self.bind(f"_hi{tag}", intervals[0].hi)
            return f"{lo} <= {var} <= {hi}"
        self.bind("_bisect", bisect_right)
        starts = self.bind(f"_starts{tag}", tuple(iv.lo for iv in intervals))
        his = self.bind(f"_his{tag}", tuple(iv.hi for iv in intervals))
        # bisect_right puts NaN past every start, and ``NaN <= hi`` is
        # false: NaN is rejected, as by IntervalSet.contains
        return f"((_i := _bisect({starts}, {var})) and {var} <= {his}[_i - 1])"

    def define(self, name: str, arg: str, label: str) -> Callable:
        """Compile ``def name(arg, <bound constants>)`` over the body."""
        params = ", ".join(dict.fromkeys([arg, *self.params]))
        source = f"def {name}({params}):\n" + "\n".join(self.body) + "\n"
        code = compile(source, f"<compiled {label}>", "exec")
        exec(code, self.namespace)  # noqa: S102 - fully self-generated
        fn = self.namespace[name]
        fn.__source__ = source  # type: ignore[attr-defined] - introspection
        return fn  # type: ignore[return-value]


def _codegen(interest: StreamInterest) -> MatchFn:
    """Generate, compile, and return the match kernel for ``interest``."""
    src = _Source()
    for index, name in enumerate(sorted(interest.constraints)):
        test = src.within("v", interest.constraints[name], str(index))
        src.body.append(f"    v = values.get({name!r})")
        src.body.append(f"    if v is not None and not ({test}):")
        src.body.append("        return False")
    src.body.append("    return True")
    fn = src.define("_match", "values", f"interest {interest.stream_id}")
    fn.__doc__ = (
        f"Compiled match kernel for an interest on {interest.stream_id!r}."
    )
    return fn


def compile_interest(interest: StreamInterest) -> MatchFn:
    """Compile an interest into a specialised ``values -> bool`` kernel.

    The kernel is output-identical to ``interest.matches_values`` and is
    cached: compiling an equal interest again returns the same function.
    """
    return _cached(interest_key(interest), lambda: _codegen(interest))


def _codegen_selector(interests: Sequence[StreamInterest]) -> SelectFn:
    """Generate the selection kernel for ``interests``, in order.

    Equal interests share one kept-list.  Per tuple, every constrained
    attribute is read into a local once; when none is absent or
    ``None`` (the common case) the interests are tested without the
    absence checks.
    """
    src = _Source()
    slot_of: dict[tuple, int] = {}
    distinct: list[StreamInterest] = []
    slots = []
    for interest in interests:
        key = interest_key(interest)
        if key not in slot_of:
            slot_of[key] = len(distinct)
            distinct.append(interest)
        slots.append(slot_of[key])
    attrs = sorted({name for it in distinct for name in it.constraints})
    local = {name: f"v{index}" for index, name in enumerate(attrs)}

    def tests(nullable: bool) -> list[str]:
        out = []
        for k, interest in enumerate(distinct):
            terms = []
            for name in sorted(interest.constraints):
                var = local[name]
                test = src.within(
                    var, interest.constraints[name], f"{k}_{local[name]}"
                )
                terms.append(f"({var} is None or {test})" if nullable else test)
            out.append(" and ".join(terms) or "True")
        return out

    body = src.body
    for k in range(len(distinct)):
        body.append(f"    k{k} = []")
        body.append(f"    a{k} = k{k}.append")
    if distinct:
        body.append("    for t in batch:")
    if attrs:
        body.append("        values = t.values")
        for name in attrs:
            body.append(f"        {local[name]} = values.get({name!r})")
        present = " and ".join(f"{local[name]} is not None" for name in attrs)
        body.append(f"        if {present}:")
        body.extend(
            f"            if {test}:\n                a{k}(t)"
            for k, test in enumerate(tests(nullable=False))
        )
        body.append("        else:")
        body.extend(
            f"            if {test}:\n                a{k}(t)"
            for k, test in enumerate(tests(nullable=True))
        )
    else:  # no constraint at all: every interest keeps every tuple
        body.extend(f"        a{k}(t)" for k in range(len(distinct)))
    body.append(f"    return ({''.join(f'k{s}, ' for s in slots)})")
    fn = src.define("_select", "batch", f"selector of {len(interests)}")
    fn.__doc__ = f"Compiled selection kernel for {len(interests)} interests."
    return fn


def compile_selector(interests: Sequence[StreamInterest]) -> SelectFn:
    """Compile interests into one ``batch -> kept-lists`` kernel.

    ``select(batch)[i]`` is ``[t for t in batch if
    interests[i].matches_values(t.values)]`` — the same tuple objects,
    in batch order — computed for every ``i`` in one pass.  Equal
    interests get the same list object.  Cached per sequence of
    interest fingerprints.
    """
    key = tuple(map(interest_key, interests))
    return _cached(key, lambda: _codegen_selector(interests))
