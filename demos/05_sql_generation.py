"""The same metric tree, compiled to SQL instead of evaluated in memory.

The portable dialect runs on SQLite as-is; the googlesql dialect emits
BigQuery-style constructs for warehouses. This script executes the portable
query and checks it against the in-memory engine.
"""

import sqlite3

from slicemetrics import (
    Count,
    Dialect,
    PercentChange,
    Sum,
    Table,
    compute_on,
    to_sql,
)

events = Table.from_dict({
    "region":     ["US", "EU", "US", "EU", "US", "US"],
    "experiment": ["control", "control", "treatment1", "treatment3", "control", "treatment2"],
    "lost":       [1, 0, 0, 1, 1, 0],
})

churn = (Sum("lost") / Count("lost")).set_names(["churn"])
change = churn | PercentChange("experiment", "control")

portable = to_sql(change, "events", split_by=[], dialect=Dialect.PORTABLE)
print("portable SQL:\n")
print(portable.render(), "\n")

google = to_sql(change, "events", split_by=[], dialect=Dialect.GOOGLESQL)
print("googlesql SQL (emit-only):\n")
print(google.render(), "\n")

# Execute the portable text on sqlite and line it up with compute_on.
con = sqlite3.connect(":memory:")
con.execute("CREATE TABLE events (region TEXT, experiment TEXT, lost INTEGER)")
con.executemany("INSERT INTO events VALUES (?,?,?)", list(events.rows()))
sql_rows = {row[0]: row[1] for row in con.execute(portable.text)}

frame = compute_on(change, events)
print(f"{'experiment':<12} {'sqlite':>10} {'compute':>10}")
for key, values in frame.rows:
    arm = key[frame.key_columns.index("experiment")]
    print(f"{arm:<12} {sql_rows[arm]:>10.4f} {values[0]:>10.4f}")

boot_sql = to_sql(churn | PercentChange("experiment", "control"), "events",
                  [], Dialect.GOOGLESQL)
print("\nkey columns promised by the query:", boot_sql.key_columns)
print("value columns:", boot_sql.value_columns)
