"""Walk-through: turning a numeric table into a fuzzy knowledge base.

Loads the bundled used-car listing (price in k-euro, km in thousands),
segments each attribute into fuzzy regions, and pokes at the membership
degrees, including values the clustering never saw.

Run from the repository root:  python demos/01_fuzzy_knowledge_base.py
"""

from pathlib import Path

from fuzzycp import AttributeConfig, KBConfig, build_knowledge_base, ingest_tabular

DATA = Path(__file__).parent / "data" / "cars.csv"

with open(DATA, "rb") as f:
    dataset = ingest_tabular(f)
print(f"loaded {dataset.record_count} records over {dataset.attributes}")

config = KBConfig(
    seed=7,
    per_attribute={
        "price": AttributeConfig(clusters=3, labels=("low", "mid", "high")),
        "km": AttributeConfig(clusters=2, labels=("low", "high")),
    },
)
kb = build_knowledge_base(dataset, config, source=str(DATA))

for name, model in kb.models.items():
    pairs = ", ".join(
        f"{label}@{center:.1f}" for label, center in zip(model.labels, model.centroids)
    )
    print(f"{name}: {pairs}")

# every record belongs to every region to some degree, rows sum to 1;
# the degrees follow from the centroids, so the knowledge base stores none
print("\nfirst three price membership rows (low, mid, high):")
for row in kb.membership_grid("price", dataset.column("price")[:3]):
    print("  ", [round(float(v), 3) for v in row])

# out-of-sample values are scored against the stored centroids
print("\nmembership of unseen prices:")
for price in (4, 13, 19, 50):
    vec = kb.membership_of("price", price)
    degrees = ", ".join(
        f"{label}={v:.3f}" for label, v in zip(kb.model("price").labels, vec)
    )
    print(f"  {price:>3} k-euro -> {degrees}")

out = Path(__file__).parent / "data" / "cars_kb.json"
kb.save(out)
print(f"\nknowledge base written to {out}")
