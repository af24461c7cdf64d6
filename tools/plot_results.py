#!/usr/bin/env python3
"""Plot the CSV output of the ecs_bench sweep scenarios.

Each figure scenario writes, with --csv=FILE, stacked CSV tables separated
by blank lines, the max-stretch table first. This script renders the first table as the paper-style line plot:
x axis = sweep parameter, one line per heuristic, log-scaled axes where
appropriate.

Usage:
    build/bench/ecs_bench fig2a_random_ccr --reps=30 --csv=fig2a.csv
    tools/plot_results.py fig2a.csv --logx --out=fig2a.png
"""
import argparse
import csv
import sys


def read_first_table(path):
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                break  # blank line separates the stacked tables
            rows.append(next(csv.reader([line])))
    if len(rows) < 2:
        raise SystemExit(f"{path}: no table found")
    return rows[0], rows[1:]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_file")
    parser.add_argument("--out", default=None, help="output image path")
    parser.add_argument("--logx", action="store_true")
    parser.add_argument("--logy", action="store_true")
    parser.add_argument("--title", default=None)
    args = parser.parse_args()

    header, rows = read_first_table(args.csv_file)
    x_label, policies = header[0], header[1:]
    xs = [float(r[0]) if r[0].replace(".", "", 1).isdigit() else r[0]
          for r in rows]
    series = {p: [float(r[1 + i].split(" ")[0]) for r in rows]
              for i, p in enumerate(policies)}

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable; printing the table instead\n")
        print(x_label, *policies, sep="\t")
        for r in rows:
            print(*r, sep="\t")
        return 0

    fig, ax = plt.subplots(figsize=(6, 4))
    markers = "os^Dv*"
    for i, (policy, ys) in enumerate(series.items()):
        ax.plot(xs, ys, marker=markers[i % len(markers)], label=policy)
    ax.set_xlabel(x_label)
    ax.set_ylabel("max stretch")
    if args.logx:
        ax.set_xscale("log")
    if args.logy:
        ax.set_yscale("log")
    if args.title:
        ax.set_title(args.title)
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = args.out or args.csv_file.rsplit(".", 1)[0] + ".png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
