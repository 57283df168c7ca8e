#!/usr/bin/env python3
"""How the permutation space is indexed and split among workers.

Every tour has a lexicographic index in 0 .. (n-1)!-1.  A worker gets a
half-open index range; unrank, and the rank and next_permutation defined
below, name the tours of that range one by one (the scan kernel itself
reaches the start by factorial arithmetic and walks the tree of prefixes).
"""

from tspbench.permutation import factorial, partition, unrank


def next_permutation(seq):
    """Step ``seq`` to its lexicographic successor in place; at the last
    permutation, wrap to the first and return False."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1  # seq[i + 1:] is the longest descending tail
    if i < 0:
        seq.reverse()
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1  # the tail's smallest label above seq[i]
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = reversed(seq[i + 1 :])
    return True


def rank(perm):
    """The inverse of unrank: each label's place among the labels still
    unused, read as a digit in base (k-1)!, (k-2)!, ..., 0!."""
    pool = sorted(perm)
    index = 0
    for label in perm:
        digit = pool.index(label)
        pool.pop(digit)
        index += digit * factorial(len(pool))
    return index


print("factorials grow brutally fast (the whole point of the exercise):")
for n in (5, 10, 15, 20, 34):
    print(f"  {n:>2}! = {factorial(n):,}")

print("\nunranking picks a permutation straight from its index:")
labels = [1, 2, 3, 4]
for index in (0, 7, 23):
    print(f"  index {index:>2} of {labels} -> {unrank(index, labels)}")

perm = unrank(7, labels)
print(f"\nwalking successors from index 7: {perm}", end="")
for _ in range(3):
    next_permutation(perm)
    print(f" -> {perm} (rank {rank(perm)})", end="")
print()

total = factorial(10 - 1)
print(f"\nsplitting the {total:,} tours of a 10-city instance among 7 workers:")
for i, work in enumerate(partition(total, 7)):
    print(f"  worker {i}: [{work.start:>6}, {work.end:>6})  ({work.count} tours)")
print("the first (total mod workers) workers carry one extra tour each;")
print("range sizes never differ by more than one.")

print("\nworkers beyond the available work simply go idle:")
for i, work in enumerate(partition(2, 5)):
    print(f"  worker {i}: [{work.start}, {work.end})  ({work.count} tours)")
