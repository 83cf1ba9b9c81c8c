"""Input-bit computation — step 3 of the VPref commitment phase.

The elector chooses one bit ``b_j`` per indifference class ``R_j`` and sets
it to 1 iff

* at least one input is from class ``R_j`` (``r_i ∈ R_j`` for some i), or
* ``R_j`` is ranked below the chosen route's class by at least one promise
  (``R_j ≤_i e`` for some consumer i).

The null route ⊥ is always available to the elector (Section 3.1), so it is
always counted among the inputs here; without this, an elector that
wrongly exports a never-export route could commit a 0 bit for ⊥'s class
and the consumer-side check of Section 7.4 ("the downstream AS noticed
that it had a bit proof for the null route, which was better than the
route it had actually received") would not fire.

:func:`compute_bits` is the rule as stated; :func:`class_rows` splits off
its promise half, which depends only on the chosen route's class, so that
a recorder deriving a whole table's bits computes it once per class
rather than once per prefix.

This module also contains the *honest elector* helpers: which offers
conform to a promise given the available inputs, and how a correct elector
picks ``e`` so that every consumer can be given a conforming offer.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, \
    Tuple

from ..bgp.route import NULL_ROUTE, Route
from .classes import ClassScheme, RouteOrNull
from .promise import Promise


def compute_bits(scheme: ClassScheme,
                 inputs: Iterable[RouteOrNull],
                 chosen: RouteOrNull,
                 promises: Iterable[Promise]) -> Tuple[int, ...]:
    """The k input bits for one VPref instance.

    ``inputs`` are the producers' advertised routes (⊥ entries allowed and
    redundant — ⊥ is always included); ``chosen`` is the elector's choice
    ``e``; ``promises`` are the per-consumer partial orders ``≤_j``.
    """
    bits: List[int] = [0] * scheme.k

    bits[scheme.classify(NULL_ROUTE)] = 1
    for route in inputs:
        if route is NULL_ROUTE:
            continue
        bits[scheme.classify(route)] = 1

    chosen_class = scheme.classify(chosen)
    for promise in promises:
        if promise.scheme.k != scheme.k:
            raise ValueError("promise scheme does not match bit scheme")
        for worse in promise.classes_below(chosen_class):
            bits[worse] = 1

    return tuple(bits)


def class_rows(scheme: ClassScheme,
               promises: Iterable[Promise]) -> Tuple[int, ...]:
    """Per chosen class c, the bits a chosen route of class c sets by
    itself: ⊥'s class, and every class some promise ranks below c.

    The second half of :func:`compute_bits` depends on the chosen class
    alone, so for fixed promises it is k rows computed once; a prefix's
    bits are then its chosen class's row plus one bit per input class.
    Row c is an int whose bit j is bit j of those k bits.  Raises
    ``ValueError`` for a promise over another k, as :func:`compute_bits`
    does.
    """
    k = scheme.k
    rows = [1 << scheme.classify(NULL_ROUTE)] * k
    # Equal promises set equal bits, and neighbors often share one.
    for promise in set(promises):
        if promise.scheme.k != k:
            raise ValueError("promise scheme does not match bit scheme")
        for lower, higher in promise.order:
            rows[higher] |= 1 << lower
    return tuple(rows)


def available_classes(scheme: ClassScheme,
                      inputs: Iterable[RouteOrNull]) -> Tuple[int, ...]:
    """Classes with at least one available route (⊥ always included)."""
    classes = {scheme.classify(NULL_ROUTE)}
    for route in inputs:
        if route is not NULL_ROUTE:
            classes.add(scheme.classify(route))
    return tuple(sorted(classes))


def offer_conforms(promise: Promise, inputs: Sequence[RouteOrNull],
                   offer: RouteOrNull) -> bool:
    """Does offering ``offer`` keep ``promise``, given these inputs?

    Section 4.1: the promise to C_j is broken iff some input's class is
    strictly preferred (by ``≤_j``) over the class of the route offered to
    C_j.  ⊥ counts among the inputs because it is always available.
    """
    offer_class = promise.scheme.classify(offer)
    return not any(
        promise.prefers(cls, offer_class)
        for cls in available_classes(promise.scheme, inputs)
    )


def conforming_offer(promise: Promise, inputs: Sequence[RouteOrNull],
                     chosen: RouteOrNull) -> Optional[RouteOrNull]:
    """The offer a correct elector makes to one consumer.

    The model (Section 4.1) restricts the offer to ``e`` or ⊥.  Prefer
    offering the real route; fall back to ⊥ (export filtering); return
    None when neither conforms — which can only happen when the elector's
    choice of ``e`` is incompatible with this promise.
    """
    if offer_conforms(promise, inputs, chosen):
        return chosen
    if offer_conforms(promise, inputs, NULL_ROUTE):
        return NULL_ROUTE
    return None


def honest_choice(scheme: ClassScheme,
                  inputs: Sequence[RouteOrNull],
                  promises: Iterable[Promise],
                  private_rank: Optional[Callable[[Route], object]]
                  = None) -> RouteOrNull:
    """Pick ``e`` so every consumer can be given an offer its check
    passes.

    Candidates are tried in the elector's private preference order
    (``private_rank``: lower sorts earlier; defaults to a deterministic
    byte ordering standing in for the BGP decision process).  The first
    wins for which every promise admits ``e`` or ⊥ with a 0 bit, among
    the bits it commits (:func:`compute_bits`), for each class above the
    offer: the consumer demands those 0-proofs, and the bits also set
    the classes *other* promises rank below ``e`` (Theorem 3).  If none
    does — possible only with inconsistent promises (Theorem 5) — ⊥ is
    returned and some promise will be broken or some consumer unserved.
    """
    promise_list = list(promises)
    real_inputs = [r for r in inputs if r is not NULL_ROUTE]
    if private_rank is None:
        private_rank = lambda route: route.to_bytes()
    candidates: List[RouteOrNull] = sorted(real_inputs, key=private_rank)
    candidates.append(NULL_ROUTE)
    for candidate in candidates:
        bits = compute_bits(scheme, inputs, candidate, promise_list)
        offers = (scheme.classify(candidate), scheme.classify(NULL_ROUTE))
        if all(any(not any(bits[cls] for cls in p.classes_above(offer))
                   for offer in offers)
               for p in promise_list):
            return candidate
    return NULL_ROUTE
