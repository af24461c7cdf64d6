#!/usr/bin/env bash
# Final reproduction run: full test suite, every scenario ecs_bench lists
# and then ecs_microbench, with outputs captured at the repository root
# (test_output.txt, bench_output.txt). Run from the repository root after
# building.
set -u
cd "$(dirname "$0")/.."
ctest --test-dir build 2>&1 | tee test_output.txt
{
  for scenario in $(build/bench/ecs_bench); do
    echo "===== ecs_bench $scenario ====="
    build/bench/ecs_bench "$scenario"
  done
  echo "===== ecs_microbench ====="
  build/bench/ecs_microbench
} 2>&1 | tee bench_output.txt
