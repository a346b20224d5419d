#!/usr/bin/env bash
# Full local check: build + test the default preset, then ASan+UBSan,
# then the concurrency suites under ThreadSanitizer.
#
#   scripts/check.sh            # all three presets
#   scripts/check.sh default    # just the release build
#   scripts/check.sh asan       # just the ASan+UBSan build
#   scripts/check.sh tsan       # just the TSan build (runs the concurrency
#                               # suites: tables, mixed runner, metrics
#                               # registry, both KVS servers)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  echo "=== preset: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"
  if [ "${preset}" = "default" ]; then
    # Object-code guard: every batched cuckoo write and every batched read
    # loop that honours the prefetch distance keeps its prefetches, every
    # AVX2 mutation scan clears the YMM upper state before it exits, and no
    # Swiss table member makes an indirect call.
    echo "=== codegen guard ==="
    scripts/check_codegen.sh build
    # Insertion-engine regression gate: BFS must keep (4,8) BCHT at >= 0.95
    # max load factor and (2,1) cuckoo inside the theoretical band.
    echo "=== insertion-engine max-LF gate ==="
    ./build/bench/micro_insert_path --quick --check
    # Batched-write gate: BatchInsert (cuckoo, Swiss) and the cuckoo
    # BatchUpdate must leave byte-identical state to the scalar loops, and
    # the cuckoo BatchInsert must beat its loop >= 1.5x on the 64 MiB table.
    echo "=== batched-write engine gate ==="
    ./build/bench/micro_insert_path --engine=batch --full --check
    # Kernel parity gate: every SIMD kernel (cuckoo and Swiss families,
    # every supported ISA tier) must match its scalar twin probe-for-probe.
    echo "=== kernel parity gate ==="
    ./build/bench/micro_kernels --check
    # Repository benchmark smoke: every BENCHMARK.json workload for a second
    # on small tables, untraced and traced, must print exactly the declared
    # metrics with no failed operation (builds into .bench_build/).
    echo "=== repository benchmark smoke ==="
    python3 perfbench/run.py --smoke
    # Real-TCP serving smoke: two serve processes on loopback, open-loop
    # loadgen, cross-connection batching visible in the RunReport, a
    # mid-run Prometheus scrape, and the client+server trace merge.
    echo "=== TCP serving smoke ==="
    scripts/smoke_tcp.sh build
    # Both transports through one load generator: serve_kvs_tcp --quick on
    # the simulated channel and on TCP must report one row per supported
    # backend, the same metric names, and no key errors.
    echo "=== transport smoke (sim + tcp) ==="
    scripts/smoke_transports.sh build
  fi
done
echo "=== all checks passed ==="
