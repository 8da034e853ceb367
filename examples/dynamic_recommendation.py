"""The paper's motivating scenario: live-streaming recommendation on a
heterogeneous graph that never stops changing (paper §I, §VII-A).

The script plays a WeChat-style workload end to end:

1. build the four-relation (bi-directed) user/live/attr/tag graph through
   the PALM batch executor;
2. stream interaction churn — users join/leave live rooms, interaction
   weights drift — while
3. answering the recommendation query between batches: meta-path
   sampling User → Live → Live (rooms similar to rooms the user watches),
   scored by visit frequency;
4. report how the recommendations for one user track the user's most
   recent interactions — the "instant user interest" the paper argues
   dynamic storage exists for.

Run with::

    python examples/dynamic_recommendation.py
"""

from __future__ import annotations

import random
from collections import Counter

from repro.concurrency import PalmExecutor
from repro.core import DynamicGraphStore, EdgeBatch, SamtreeConfig
from repro.datasets import EdgeStream, wechat_scaled
from repro.gnn import sample_metapath

USER_LIVE = 0          # user watched a live room
LIVE_LIVE = 2          # room-to-room similarity
REV_USER_LIVE = 8      # reversed twin (room -> audience)


def recommend_rooms(store, user: int, rng, fanout=(20, 10)) -> Counter:
    """Meta-path User→Live→Live: rooms related to rooms the user visits."""
    levels = sample_metapath(
        store, [user], [(USER_LIVE, fanout[0]), (LIVE_LIVE, fanout[1])], rng
    )
    return Counter(int(v) for v in levels[2])


def main() -> None:
    rng = random.Random(0)
    data = wechat_scaled(scale=2_000_000)
    store = DynamicGraphStore(SamtreeConfig(capacity=256))
    executor = PalmExecutor(store, num_threads=4)

    print("building the heterogeneous graph through the PALM executor...")
    stream = EdgeStream(data, seed=0)
    for batch in stream.build_batches(4096):
        executor.apply_batch(batch)
    print(f"  {store.num_edges:,} edges over relations {store.etypes()}")

    # Pick an active user (one with several watched rooms).
    user = max(store.sources(USER_LIVE), key=lambda u: store.degree(u, USER_LIVE))
    print(f"\nactive user {user}: watches {store.degree(user, USER_LIVE)} rooms")

    before = recommend_rooms(store, user, rng)
    print("top recommendations before interest shift:",
          [room for room, _ in before.most_common(5)])

    # --- the user's interest shifts: heavy interaction with a new room ----
    new_room = max(store.sources(LIVE_LIVE), key=lambda l: store.degree(l, LIVE_LIVE))
    print(f"\nuser {user} starts watching hub room {new_room} intensively...")
    churn = EdgeBatch.inserts(
        [user, new_room], [new_room, user], 50.0, [USER_LIVE, REV_USER_LIVE]
    )
    # Interleave the interest shift with unrelated background churn.
    for batch in stream.churn_batches(512, 4, mix=(0.5, 0.4, 0.1)):
        executor.apply_batch(EdgeBatch.concat([batch, churn]))

    after = recommend_rooms(store, user, rng)
    print("top recommendations after interest shift:",
          [room for room, _ in after.most_common(5)])

    # Rooms similar to the new favourite should now dominate.
    related = {dst for dst, _ in store.neighbors(new_room, LIVE_LIVE)}
    related.add(new_room)
    overlap_before = sum(c for room, c in before.items() if room in related)
    overlap_after = sum(c for room, c in after.items() if room in related)
    total_before = sum(before.values())
    total_after = sum(after.values())
    print(f"\nmass of recommendations related to the new favourite room:")
    print(f"  before: {overlap_before / total_before:.1%}")
    print(f"  after:  {overlap_after / total_after:.1%}")

    store.check_invariants()
    print("\nstore invariants OK "
          f"({store.num_edges:,} edges after churn)")


if __name__ == "__main__":
    main()
