"""Distributions over a dimension: pitch mix per pitcher.

Counting pitches per type and normalizing within each pitcher turns raw
counts into a probability distribution that sums to one per slice.
"""

import random

from slicemetrics import Count, Distribution, compute_on, read_csv
from slicemetrics.table import Table, write_csv

rng = random.Random(3)
mix = {"rivera": ["cutter"] * 8 + ["fastball"] * 2,
       "wakefield": ["knuckle"] * 7 + ["fastball"] * 2 + ["curve"] * 1}
rows = [(p, rng.choice(mix[p])) for p in mix for _ in range(40)]
pitches = Table.from_dict({
    "pitcher":   [r[0] for r in rows],
    "pitchtype": [r[1] for r in rows],
})

pitch_types = Count("pitchtype") | Distribution("pitchtype")

print("Pitch-type distribution per pitcher:")
frame = compute_on(pitch_types, pitches, split_by=["pitcher"])
print(frame.to_text())

for pitcher in ("rivera", "wakefield"):
    total = sum(v[0] for k, v in frame.rows if k[frame.key_columns.index("pitcher")] == pitcher)
    print(f"{pitcher}: values sum to {total}")

# Frames and tables both serialize to CSV, so results pipe cleanly onward.
print("\nAs CSV:")
print(frame.to_csv())
print("Input round-trips through the debug writer:",
      read_csv(write_csv(pitches).encode()).row_count == pitches.row_count)
