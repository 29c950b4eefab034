"""Walk-through: from a preference query to a ranked record list.

Compiles the bundled used-car query (see data/cars.pref for the
narrative) against the fuzzy knowledge base and ranks all twenty
listings by the max-min evaluation of the weighted terms.

Run from the repository root:  python demos/03_query_to_ranking.py
"""

from pathlib import Path

from fuzzycp import (
    AttributeConfig,
    KBConfig,
    build_knowledge_base,
    compile_query,
    ingest_tabular,
    rank,
)

HERE = Path(__file__).parent / "data"

with open(HERE / "cars.csv", "rb") as f:
    dataset = ingest_tabular(f)
kb = build_knowledge_base(
    dataset,
    KBConfig(
        seed=7,
        per_attribute={
            "price": AttributeConfig(clusters=3, labels=("low", "mid", "high")),
            "km": AttributeConfig(clusters=2, labels=("low", "high")),
        },
    ),
)

query = compile_query((HERE / "cars.pref").read_text(), kb)
print("compiled terms (importance, assignment):")
for term in query.terms:
    wanted = ", ".join(f"{k}={v}" for k, v in term.assignment.items())
    print(f"  U={term.importance:.3f}  {wanted}")

print("\nranking (top 8):")
print(f"{'pos':>3} {'price':>6} {'km':>5} {'score':>8}   per-term scores")
ranking = rank(kb, query, dataset, top_n=8)
rows = zip(ranking.record_index, ranking.score, ranking.term_scores)
for place, (index, score, term_scores) in enumerate(rows, start=1):
    price, km = dataset.records[index]
    scores = " ".join(f"{s:.2f}" for s in term_scores)
    print(f"{place:>3} {price:>6.0f} {km:>5.0f} {score:>8.4f}   [{scores}]")

# the winner should be a cheap honest high-miler, not a cheap car with
# a suspiciously fresh odometer
best = rank(kb, query, dataset, top_n=1).record_index[0]
price, km = dataset.records[best]
assert price < 12 and km > 120
print(f"\nbest listing: {price:.0f} k-euro with {km:.0f} thousand km")
