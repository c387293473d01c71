"""sqlite as the external engine that runs generated SQL, the benchmark's yardstick.

SQLite lacks STDDEV and VARIANCE, and older builds lack CEILING and POWER,
so the runner registers them on its own connection.
"""

from __future__ import annotations

import math
import sqlite3


class _StdDev:
    def __init__(self):
        self.values: list[float] = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        n = len(self.values)
        if n < 2:
            return None
        mean = math.fsum(self.values) / n
        return math.sqrt(math.fsum((v - mean) ** 2 for v in self.values) / (n - 1))


class _Variance(_StdDev):
    def finalize(self):
        sd = super().finalize()
        return None if sd is None else sd * sd


class SqliteRunner:
    """One in-memory connection holding the workload's table."""

    def __init__(self):
        self.con = sqlite3.connect(":memory:")
        self.con.create_aggregate("STDDEV", 1, _StdDev)
        self.con.create_aggregate("VARIANCE", 1, _Variance)
        for name, probe, arity, impl in (
            ("CEILING", "SELECT CEILING(1.5)", 1, math.ceil),
            ("POWER", "SELECT POWER(2.0, 0.5)", 2, math.pow),
        ):
            try:
                self.con.execute(probe)
            except sqlite3.OperationalError:
                self.con.create_function(name, arity, impl)

    def load(self, name: str, types: dict[str, str], rows: list[tuple]):
        decls = ", ".join(f'"{col}" {kind}' for col, kind in types.items())
        self.con.execute(f'CREATE TABLE "{name}" ({decls})')
        marks = ",".join("?" * len(types))
        self.con.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows)
        self.con.commit()

    def run(self, script: str) -> tuple[list[str], list[tuple]]:
        """Run a rendered query (statements joined by ';\\n'); return header and rows."""
        *preamble, final = script.rstrip().rstrip(";").split(";\n")
        for statement in preamble:
            self.con.execute(statement)
        cursor = self.con.execute(final)
        rows = cursor.fetchall()
        return [d[0] for d in cursor.description], rows

    def temp_rows(self) -> int:
        """Rows in the bootstrap preamble's temp table, 0 when there is none."""
        found = self.con.execute(
            "SELECT 1 FROM sqlite_temp_master WHERE type = 'table' AND name = 'Data'"
        ).fetchone()
        return self.con.execute("SELECT COUNT(*) FROM temp.Data").fetchone()[0] if found else 0

    def drop_temp(self):
        # The bootstrap preamble's CREATE TEMP TABLE Data fails on a second
        # run in the same connection.
        self.con.execute("DROP TABLE IF EXISTS temp.Data")

    def close(self):
        self.con.close()
