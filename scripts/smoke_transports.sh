#!/usr/bin/env bash
# Smoke test for both KVS transports behind one load generator.
#
# Runs bench/serve_kvs_tcp --quick once per transport — --transport=sim
# (simulated KvServers over channels) and --transport=tcp (loopback
# KvTcpServers) — with the same driver and schedule, and asserts that:
#   * each RunReport has exactly one row per backend this CPU supports,
#   * both reports carry the same metric names,
#   * no Multi-Get key errored on either transport.
# Prints the wall time of each arm.
#
#   scripts/smoke_transports.sh [build-dir]    # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="${BUILD}/bench/serve_kvs_tcp"
REPORT_DIR="${SMOKE_REPORT_DIR:-reports}"
mkdir -p "${REPORT_DIR}"

if [ ! -x "${BENCH}" ]; then
  echo "smoke_transports: ${BENCH} not built" >&2
  exit 1
fi

for transport in sim tcp; do
  start=$(date +%s.%N)
  "${BENCH}" --quick --transport="${transport}" \
    --json="${REPORT_DIR}/transport_${transport}.json" \
    >"${REPORT_DIR}/transport_${transport}.txt"
  end=$(date +%s.%N)
  echo "smoke_transports: --transport=${transport} took" \
    "$(python3 -c "print(f'{${end} - ${start}:.1f}')") s"
done

python3 - "${REPORT_DIR}/transport_sim.json" \
  "${REPORT_DIR}/transport_tcp.json" <<'EOF'
import json, sys

# The backends serve_kvs_tcp runs, and the CPU flags each one needs.
backends = {
    'MemC3 (non-SIMD baseline)': set(),
    'Bucket-Cuckoo-Hor(AVX-256)': {'avx2'},
    'Cuckoo-Ver(AVX-512)': {'avx512f', 'avx512bw', 'avx512dq', 'avx512vl'},
}
flags = set()
for line in open('/proc/cpuinfo'):
    if line.startswith('flags'):
        flags = set(line.split(':', 1)[1].split())
        break
supported = {name for name, need in backends.items() if need <= flags}

metric_names = {}
for path in sys.argv[1:]:
    r = json.load(open(path))
    assert r['schema_version'] == 1, (path, r.get('schema_version'))
    rows = r['results']
    kernels = [row['kernel'] for row in rows]
    assert sorted(kernels) == sorted(supported), \
        f"{path}: rows {kernels}, want one per supported backend {supported}"
    names = {tuple(sorted(row['metrics'])) for row in rows}
    assert len(names) == 1, f"{path}: rows disagree on metric names"
    metric_names[path] = names.pop()
    for row in rows:
        errors = row['metrics']['key_errors']['mean']
        assert errors == 0, f"{path}: {row['kernel']} had {errors} key errors"
sim, tcp = metric_names.values()
assert sim == tcp, f"metric names differ: {set(sim) ^ set(tcp)}"
print(f"smoke_transports: OK — {len(supported)} backends on both transports, "
      f"{len(sim)} shared metrics, no key errors")
EOF
