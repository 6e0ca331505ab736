"""
Pruning tradeoffs: same answer, wildly different work
=====================================================

The search walks a set-enumeration tree. Two upper bounds cut it down:
a subtree bound that kills a branch outright, and a local bound that
stops an item from being offered deeper in the current branch. Both are
overestimates of anything reachable, so switching them off can only add
work, never change the answer. The local bound acts at the root, where
it drops items from the whole search, and below the root only when the
subtree bound is off: with the subtree bound on, every item it would
drop fails the subtree bound wherever it could be picked. This script
measures that on a synthetic store with two thousand baskets.
"""

from topshelf import GeneratorParams, generate, mine_top_k, parse_database

db = parse_database(
    generate(GeneratorParams(transactions=2000, items=100, periods=3, seed=31))
)

K = 50
variants = {
    "both bounds on": {},
    "subtree bound off": {"su_prune": False},
    "local bound off": {"lu_prune": False},
    "no pruning at all": {"su_prune": False, "lu_prune": False},
}

reference = None
print(f"top-{K} over {len(db.transactions)} baskets, {len(db.item_signs)} items")
print(f"{'variant':<20} {'candidates':>10} {'ms':>8}")
for name, flags in variants.items():
    patterns, stats = mine_top_k(db, K, **flags)
    if reference is None:
        reference = patterns
    # the output never moves, only the effort does
    assert patterns == reference
    print(
        f"{name:<20} {stats.candidates:>10} {stats.elapsed_ms:>8.1f}"
    )

print()
print("identical pattern lists from every variant")
