"""Local stand-in for the driver's correctness gate.

Runs every queries() entry at the given sf dir, compares row count, schema
(column names), and order-insensitive values against oracle_sql() via
DuckDB.  Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders", "lineitem",
          "events", "documents", "embeddings"]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    import ray

    from perfbench.hostinfo import nproc

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok-   {name}: rows={len(res)} cols={list(res.columns)} ({dt:.1f}s, rows-only)")
            continue
        try:
            exp = canon(con.sql(oracles[name]).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            failures += 1
            continue
        status = []
        if list(res.columns) != list(exp.columns):
            status.append(f"schema ray={list(res.columns)} sql={list(exp.columns)}")
        if len(res) != len(exp):
            status.append(f"rows ray={len(res)} sql={len(exp)}")
        if not status:
            try:
                pd.testing.assert_frame_equal(res, exp, check_dtype=False,
                                              check_exact=False, rtol=1e-6, atol=1e-9)
            except AssertionError as e:
                status.append("values: " + str(e).split("\n")[0])
                # show a sample diff
                merged = res.compare(exp) if res.shape == exp.shape else None
                if merged is not None and len(merged):
                    status.append(str(merged.head(3)))
        if status:
            print(f"FAIL  {name}: " + " | ".join(status))
            failures += 1
        else:
            print(f"OK    {name}: rows={len(res)} ({dt:.1f}s)")
    return failures


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(1 if rc else 0)
