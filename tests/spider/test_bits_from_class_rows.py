"""A recorder's per-prefix input bits equal VPref step 3 as stated.

``Recorder.mtt_entries`` starts each prefix from its chosen class's row
(:func:`repro.core.bits.class_rows`) and sets one bit per input class;
:func:`repro.core.bits.compute_bits` is the rule it must equal, prefix
for prefix, over random class schemes, random partial-order promises and
random routing states.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import NULL_ROUTE, Route
from repro.core.bits import class_rows, compute_bits
from repro.core.classes import ClassScheme
from repro.core.promise import Promise, total_order_promise
from repro.crypto.keys import KeyRegistry, make_identity
from repro.runtime.node_runtime import StepClock
from repro.spider.checkpoint import elector_view
from repro.spider.config import SpiderConfig
from repro.spider.recorder import Recorder
from repro.spider.state import RoutingState

ELECTOR = 1
NEIGHBORS = (2, 3, 4)
PREFIXES = tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(6))


def make_scheme(k: int, null_class: int) -> ClassScheme:
    """k classes; ⊥ in ``null_class``, a route in its local pref mod k."""
    def classify(route):
        if route is NULL_ROUTE:
            return null_class
        return route.local_pref % k

    return ClassScheme(labels=tuple(f"c{i}" for i in range(k)),
                       classify_fn=classify)


def make_recorder(scheme: ClassScheme, promises) -> Recorder:
    registry = KeyRegistry()
    identity = make_identity(ELECTOR, registry=registry, bits=512,
                             seed=700)
    return Recorder(identity=identity, registry=registry, scheme=scheme,
                    promises=promises, config=SpiderConfig(),
                    clock=StepClock(1000.0),
                    transport=lambda receiver, messages: None)


@st.composite
def promise_orders(draw, k: int):
    """A random partial order over k classes: pairs that go up a random
    ranking, which ``Promise`` closes transitively."""
    ranking = draw(st.permutations(range(k)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
        max_size=2 * k))
    return frozenset((ranking[min(a, b)], ranking[max(a, b)])
                     for a, b in pairs if a != b)


@st.composite
def routes(draw, prefix: Prefix, neighbor: int):
    hops = draw(st.lists(st.integers(5, 9), max_size=3, unique=True))
    return Route(prefix=prefix, as_path=(neighbor, *hops),
                 neighbor=neighbor, local_pref=draw(st.integers(0, 15)))


@st.composite
def exported_routes(draw, prefix: Prefix, neighbor: int):
    """What the elector sends: its own prepend on a route it chose, or
    a route it originates (a path of itself alone)."""
    local_pref = draw(st.integers(0, 15))
    if draw(st.booleans()):
        return Route(prefix=prefix, as_path=(ELECTOR,),
                     local_pref=local_pref)
    hops = draw(st.lists(st.integers(5, 9), min_size=1, max_size=3,
                         unique=True))
    return Route(prefix=prefix, as_path=(ELECTOR, *hops),
                 neighbor=hops[0], local_pref=local_pref)


@st.composite
def routing_states(draw):
    state = RoutingState()
    for neighbor in draw(st.lists(st.sampled_from(NEIGHBORS),
                                  unique=True)):
        table = state.imports[neighbor] = {}
        for prefix in draw(st.lists(st.sampled_from(PREFIXES),
                                    unique=True)):
            table[prefix] = NULL_ROUTE if draw(st.integers(0, 4)) == 0 \
                else draw(routes(prefix, neighbor))
    for neighbor in draw(st.lists(st.sampled_from(NEIGHBORS),
                                  unique=True)):
        table = state.exports[neighbor] = {}
        for prefix in draw(st.lists(st.sampled_from(PREFIXES),
                                    unique=True)):
            table[prefix] = draw(exported_routes(prefix, neighbor))
    state.origins.update(draw(st.lists(st.sampled_from(PREFIXES),
                                       unique=True)))
    return state


def chosen_route(state: RoutingState, prefix: Prefix):
    """The elector's choice as the log shows it: the first export by
    neighbor number, its prepend stripped; ⊥ when nothing is exported."""
    for neighbor in sorted(state.exports):
        route = state.exports[neighbor].get(prefix)
        if route is not None:
            return elector_view(route, ELECTOR)
    return NULL_ROUTE


@st.composite
def cases(draw):
    k = draw(st.integers(1, 8))
    scheme = make_scheme(k, draw(st.integers(0, k - 1)))
    promises = {
        neighbor: Promise(scheme, draw(promise_orders(k)))
        for neighbor in draw(st.lists(st.sampled_from(NEIGHBORS),
                                      unique=True, max_size=3))}
    return scheme, promises, draw(routing_states())


class TestRecorderBitsAreComputeBits:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_mtt_entries_equal_compute_bits(self, case):
        scheme, promises, state = case
        recorder = make_recorder(scheme, promises)
        expected = {
            prefix: compute_bits(
                scheme,
                [table[prefix] for table in state.imports.values()
                 if prefix in table],
                chosen_route(state, prefix), promises.values())
            for prefix in state.known_prefixes()}
        assert recorder.mtt_entries(state) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda k: st.tuples(st.integers(0, k - 1),
                            st.lists(promise_orders(k), max_size=3))
        .map(lambda drawn: (make_scheme(k, drawn[0]), drawn[1]))))
    def test_a_row_is_compute_bits_of_a_lone_chosen_route(self, drawn):
        """Row c is what a route of class c sets with no other input."""
        scheme, orders = drawn
        promises = [Promise(scheme, order) for order in orders]
        rows = class_rows(scheme, promises)
        for chosen_class in range(scheme.k):
            chosen = NULL_ROUTE \
                if scheme.classify(NULL_ROUTE) == chosen_class \
                else Route(prefix=PREFIXES[0], as_path=(2,),
                           local_pref=chosen_class)
            row = tuple(rows[chosen_class] >> cls & 1
                        for cls in range(scheme.k))
            assert row == compute_bits(scheme, [], chosen, promises)

    def test_a_promise_over_another_k_is_refused_at_construction(self):
        scheme = make_scheme(4, 0)
        other = total_order_promise(make_scheme(5, 0))
        with pytest.raises(ValueError, match="does not match"):
            make_recorder(scheme, {2: total_order_promise(scheme),
                                   3: other})

    def test_promises_are_read_only(self):
        scheme = make_scheme(3, 0)
        recorder = make_recorder(scheme, {2: total_order_promise(scheme)})
        with pytest.raises(TypeError):
            recorder.promises[3] = total_order_promise(scheme)
